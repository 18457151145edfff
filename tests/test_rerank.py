import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackref.geometry import Box, box_iou
from trackref.rerank import (
    Proposal,
    Track,
    VideoProposals,
    hybrid_track,
    oracle_assign,
    raw_select,
    read_proposals,
    read_tracks,
    rerank_scores,
    select_track,
    write_proposals,
    write_tracks,
)
from trackref.rng import SplitRng


def brute_force_scores(vp, window=None, top_k=None):
    """Independent triple-loop oracle: proposals x other frames x proposals.

    With ``top_k``, only the K best proposals of each other frame (higher
    score, then higher objectness, then lower id) act as sources.
    """
    out = {}
    for frame, proposals in vp.frames.items():
        for p in proposals:
            terms = []
            for other_frame, others in vp.frames.items():
                if other_frame == frame:
                    continue
                distance = abs(frame - other_frame)
                if window is not None and distance > window:
                    continue
                if top_k is not None:
                    others = sorted(
                        others, key=lambda q: (-q.score, -q.objectness, q.proposal_id)
                    )[:top_k]
                for q in others:
                    terms.append(
                        box_iou(p.box, q.box) * q.objectness * q.score / distance
                    )
            out[(frame, p.proposal_id)] = p.score * math.fsum(terms)
    return out


def toy_video():
    p1 = Proposal(1, Box(0, 0, 10, 10), 0.9, 0.8, 0)
    p2 = Proposal(1, Box(20, 0, 10, 10), 0.5, 0.9, 1)
    p3 = Proposal(2, Box(0, 0, 10, 10), 0.4, 0.8, 0)
    p4 = Proposal(2, Box(20, 0, 10, 10), 0.8, 0.9, 1)
    return VideoProposals.from_proposals("vid", "q", [p1, p2, p3, p4])


def assert_matches_oracle(vp, window=None, top_k=None):
    scored = rerank_scores(vp, window=window, top_k=top_k)
    oracle = brute_force_scores(vp, window=window, top_k=top_k)
    values = {
        (f, sp.proposal.proposal_id): sp.new_score
        for f, sps in scored.items() for sp in sps
    }
    assert values.keys() == oracle.keys()
    for key, target in oracle.items():
        assert abs(values[key] - target) <= 1e-12, key
    return values


_coordinate = st.floats(0, 60, allow_nan=False, allow_infinity=False)
_side = st.floats(0.5, 40, allow_nan=False, allow_infinity=False)
_unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))


@st.composite
def sparse_videos(draw):
    """Videos with empty frames, uneven proposal counts and sparse frame ids."""
    frame_ids = draw(st.sets(
        st.one_of(st.integers(1, 30), st.integers(1, 10**9)), min_size=1, max_size=7,
    ))
    frames = {}
    for frame in frame_ids:
        ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
        frames[frame] = [
            Proposal(
                frame,
                Box(draw(_coordinate), draw(_coordinate), draw(_side), draw(_side)),
                draw(_unit), draw(_unit), pid,
            )
            for pid in ids
        ]
    return VideoProposals("v", "q", frames, max(frame_ids))


def random_instance(rng, max_frames=10, max_per_frame=8):
    num_frames = rng.randint(1, max_frames)
    proposals = []
    for frame in range(1, num_frames + 1):
        for pid in range(rng.randint(0, max_per_frame)):
            box = Box(
                rng.uniform(0, 40), rng.uniform(0, 40),
                rng.uniform(1, 25), rng.uniform(1, 25),
            )
            proposals.append(
                Proposal(frame, box, rng.unit(), rng.unit(), pid)
            )
    return VideoProposals.from_proposals("v", "q", proposals, num_frames)


class TestRerankScores:
    def test_toy_golden(self):
        vp = toy_video()
        scored = rerank_scores(vp)
        values = {
            (f, sp.proposal.proposal_id): sp.new_score
            for f, sps in scored.items() for sp in sps
        }
        expected = {(1, 0): 0.288, (1, 1): 0.36, (2, 0): 0.288, (2, 1): 0.36}
        for key, target in expected.items():
            assert abs(values[key] - target) <= 1e-12
        oracle = brute_force_scores(vp)
        for key, target in oracle.items():
            assert abs(values[key] - target) <= 1e-12

    def test_single_frame_scores_are_zero(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.7, 0.9, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.3, 0.9, 1),
        ])
        scored = rerank_scores(vp)
        assert all(sp.new_score == 0.0 for sp in scored[1])

    def test_no_cross_frame_overlap_scores_are_zero(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.7, 0.9, 0),
            Proposal(2, Box(30, 30, 5, 5), 0.8, 0.9, 0),
        ])
        scored = rerank_scores(vp)
        assert all(sp.new_score == 0.0 for sps in scored.values() for sp in sps)

    def test_matches_brute_force_on_random_instances(self):
        rng = SplitRng(99, "instances")
        for index in range(40):
            vp = random_instance(rng.child(index))
            scored = rerank_scores(vp)
            oracle = brute_force_scores(vp)
            for frame, sps in scored.items():
                for sp in sps:
                    assert abs(
                        sp.new_score - oracle[(frame, sp.proposal.proposal_id)]
                    ) <= 1e-12

    def test_global_score_scaling_squares_new_scores(self):
        vp = toy_video()
        constant = 3.5
        scaled = VideoProposals.from_proposals("vid", "q", [
            Proposal(p.frame, p.box, p.score * constant, p.objectness, p.proposal_id)
            for frame in vp.frames for p in vp.frames[frame]
        ])
        base = rerank_scores(vp)
        boosted = rerank_scores(scaled)
        for frame in base:
            for sp, scaled_sp in zip(base[frame], boosted[frame]):
                assert scaled_sp.new_score == pytest.approx(
                    sp.new_score * constant ** 2, rel=1e-12
                )
        assert select_track(base).entries == select_track(boosted).entries

    def test_permutation_invariance(self):
        rng = SplitRng(5, "perm")
        vp = random_instance(rng.child("base"))
        shuffled_frames = {}
        for frame, proposals in vp.frames.items():
            order = sorted(
                range(len(proposals)),
                key=lambda i: rng.child("order", frame, i).unit(),
            )
            shuffled_frames[frame] = [proposals[i] for i in order]
        shuffled = VideoProposals(vp.video_id, vp.query_id, shuffled_frames, vp.num_frames)
        base = {
            (f, sp.proposal.proposal_id): sp.new_score
            for f, sps in rerank_scores(vp).items() for sp in sps
        }
        perm = {
            (f, sp.proposal.proposal_id): sp.new_score
            for f, sps in rerank_scores(shuffled).items() for sp in sps
        }
        assert base == perm

    def test_window_covering_whole_video_is_exact(self):
        rng = SplitRng(13, "window")
        vp = random_instance(rng)
        unbounded = rerank_scores(vp)
        windowed = rerank_scores(vp, window=vp.num_frames - 1)
        for frame in unbounded:
            for sp, wsp in zip(unbounded[frame], windowed[frame]):
                assert sp.new_score == wsp.new_score

    def test_window_matches_brute_force(self):
        rng = SplitRng(21, "window-small")
        vp = random_instance(rng)
        if vp.num_frames < 3:
            vp = random_instance(rng.child("retry"), max_frames=10)
        scored = rerank_scores(vp, window=2)
        oracle = brute_force_scores(vp, window=2)
        for frame, sps in scored.items():
            for sp in sps:
                assert abs(sp.new_score - oracle[(frame, sp.proposal.proposal_id)]) <= 1e-12

    def test_top_k_covering_all_proposals_is_exact(self):
        vp = toy_video()
        full = rerank_scores(vp)
        capped = rerank_scores(vp, top_k=2)
        for frame in full:
            assert [sp.new_score for sp in full[frame]] == [
                sp.new_score for sp in capped[frame]
            ]

    @settings(max_examples=150, deadline=None)
    @given(
        vp=sparse_videos(),
        window=st.one_of(st.none(), st.integers(1, 40), st.just(10**9)),
        top_k=st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_matches_brute_force_oracle_fuzzed(self, vp, window, top_k):
        assert_matches_oracle(vp, window=window, top_k=top_k)

    @pytest.mark.parametrize("frame_ids", [(1, 10**9), (1, 2, 10**9)])
    @pytest.mark.parametrize("window", [None, 1, 10**9 - 1])
    def test_huge_sparse_frame_ids(self, frame_ids, window):
        proposals = [
            Proposal(frame, Box(offset, 0, 10, 10), 0.9 - 0.1 * offset, 0.8, offset)
            for frame in frame_ids for offset in (0, 1)
        ]
        vp = VideoProposals.from_proposals("v", "q", proposals)
        values = assert_matches_oracle(vp, window=window)
        assert (values[(10**9, 0)] > 0) == (window != 1)
        assert (values[(1, 0)] > 0) == (window != 1 or 2 in frame_ids)

    def test_top_k_ties_keep_the_lower_id(self):
        # Equal score and objectness: the source kept by top_k=1 is id 0,
        # the only one overlapping the frame-2 proposal.
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(40, 0, 10, 10), 0.5, 0.5, 2),
            Proposal(1, Box(0, 0, 10, 10), 0.5, 0.5, 0),
            Proposal(1, Box(20, 0, 10, 10), 0.5, 0.5, 1),
            Proposal(2, Box(0, 0, 10, 10), 0.5, 0.5, 0),
        ])
        values = assert_matches_oracle(vp, top_k=1)
        assert values[(2, 0)] == pytest.approx(0.125, rel=1e-12)

    def test_rejects_bad_parameters(self):
        vp = toy_video()
        with pytest.raises(ValueError):
            rerank_scores(vp, window=0)
        with pytest.raises(ValueError):
            rerank_scores(vp, top_k=0)


class TestSelection:
    def test_toy_selects_consistent_tube(self):
        vp = toy_video()
        track = select_track(rerank_scores(vp), "vid", "q")
        assert track.entries[1] == Box(20, 0, 10, 10)
        assert track.entries[2] == Box(20, 0, 10, 10)

    def test_raw_select_keeps_identity_switch(self):
        vp = toy_video()
        track = raw_select(vp)
        assert track.entries[1] == Box(0, 0, 10, 10)
        assert track.entries[2] == Box(20, 0, 10, 10)

    def test_all_zero_ties_fall_back_to_raw_score(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.7, 0.9, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.9, 0.5, 1),
        ])
        track = select_track(rerank_scores(vp))
        assert track.entries[1] == Box(10, 0, 5, 5)

    def test_empty_frames_have_no_entry(self):
        track = select_track({1: [], 3: []}, "v", "q")
        assert track.entries == {}
        assert track.box_at(1) is None

    def test_raw_select_single_proposal_per_frame(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.2, 0.9, 0),
            Proposal(2, Box(1, 0, 5, 5), 0.4, 0.9, 0),
        ])
        track = raw_select(vp)
        assert track.entries == {1: Box(0, 0, 5, 5), 2: Box(1, 0, 5, 5)}

    def test_objectness_breaks_equal_raw_scores(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.5, 0.2, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.5, 0.8, 1),
        ])
        assert raw_select(vp).entries[1] == Box(10, 0, 5, 5)


class TestOracleAssign:
    def test_exact_match_selected(self):
        vp = toy_video()
        gt = {1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10)}
        track = oracle_assign(vp, gt)
        assert track.entries == {1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10)}

    def test_all_disjoint_ties_use_lowest_id(self):
        vp = VideoProposals.from_proposals("v", "q", [
            Proposal(1, Box(0, 0, 5, 5), 0.1, 0.9, 2),
            Proposal(1, Box(10, 0, 5, 5), 0.9, 0.9, 5),
        ])
        track = oracle_assign(vp, {1: Box(50, 50, 5, 5)})
        assert track.entries[1] == Box(0, 0, 5, 5)

    def test_missing_gt_or_proposals_leaves_gaps(self):
        vp = toy_video()
        track = oracle_assign(vp, {1: Box(0, 0, 10, 10), 2: None, 3: Box(0, 0, 1, 1)})
        assert set(track.entries) == {1}


class TestHybridTrack:
    def test_first_frame_replaced(self):
        base = Track("v", "q", {1: Box(5, 5, 2, 2), 2: Box(7, 5, 2, 2)})
        fixed = hybrid_track(Box(0, 0, 2, 2), base)
        assert fixed.entries[1] == Box(0, 0, 2, 2)
        assert fixed.entries[2] == base.entries[2]
        assert base.entries[1] == Box(5, 5, 2, 2)  # input untouched

    def test_idempotent_when_already_equal(self):
        base = Track("v", "q", {1: Box(0, 0, 2, 2), 2: Box(7, 5, 2, 2)})
        assert hybrid_track(Box(0, 0, 2, 2), base).entries == base.entries

    def test_empty_track_gets_only_first_frame(self):
        fixed = hybrid_track(Box(1, 1, 2, 2), Track("v", "q"))
        assert fixed.entries == {1: Box(1, 1, 2, 2)}


class TestValidation:
    def test_frame_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            VideoProposals("v", "q", {5: [Proposal(5, Box(0, 0, 1, 1), 0, 0, 0)]}, 3)

    def test_duplicate_ids_within_frame(self):
        with pytest.raises(ValueError, match="duplicate"):
            VideoProposals.from_proposals("v", "q", [
                Proposal(1, Box(0, 0, 1, 1), 0, 0, 0),
                Proposal(1, Box(2, 0, 1, 1), 0, 0, 0),
            ])

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            Proposal(1, Box(0, 0, 1, 1), -0.1, 0.5, 0)


class TestJsonl:
    def test_proposals_round_trip(self, tmp_path):
        vp = toy_video()
        path = tmp_path / "proposals.jsonl"
        write_proposals(path, {("vid", "q"): vp})
        loaded, unknown = read_proposals(path)
        assert unknown == set()
        reloaded = loaded[("vid", "q")]
        assert reloaded.frames == vp.frames

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"video": "v"}\nnot json\n')
        with pytest.raises(ValueError, match=":1:"):
            read_proposals(path)

    def test_unknown_fields_collected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        record = {
            "video": "v", "query": "q", "frame": 1, "x": 0, "y": 0, "w": 2, "h": 2,
            "score": 0.5, "objectness": 0.5, "id": 0, "confidence": 0.9,
        }
        path.write_text(json.dumps(record) + "\n")
        loaded, unknown = read_proposals(path)
        assert unknown == {"confidence"}
        assert ("v", "q") in loaded

    def test_tracks_round_trip(self, tmp_path):
        tracks = {
            ("v", "a"): Track("v", "a", {1: Box(0, 0, 2, 2), 3: Box(5, 0, 2, 2)}),
            ("v", "b"): Track("v", "b", {2: Box(1, 1, 4, 4)}),
        }
        path = tmp_path / "tracks.jsonl"
        write_tracks(path, tracks)
        loaded = read_tracks(path)
        assert loaded[("v", "a")].entries == tracks[("v", "a")].entries
        assert loaded[("v", "b")].entries == tracks[("v", "b")].entries

    def test_duplicate_track_frame_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"video": "v", "query": "q", "frame": 1, "x": 0, "y": 0, "w": 1, "h": 1})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate frame"):
            read_tracks(path)
