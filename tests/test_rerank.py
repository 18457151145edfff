import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackref import rerank
from trackref.geometry import Box, box_iou
from trackref.rerank import (
    Proposal,
    VideoProposals,
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
    return VideoProposals.from_proposals([p1, p2, p3, p4])


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
    proposals = []
    for frame in frame_ids:
        ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
        proposals.extend(
            Proposal(
                frame,
                Box(draw(_coordinate), draw(_coordinate), draw(_side), draw(_side)),
                draw(_unit), draw(_unit), pid,
            )
            for pid in ids
        )
    return VideoProposals.from_proposals(proposals)


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
    return VideoProposals.from_proposals(proposals)


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
        vp = VideoProposals.from_proposals([
            Proposal(1, Box(0, 0, 5, 5), 0.7, 0.9, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.3, 0.9, 1),
        ])
        scored = rerank_scores(vp)
        assert all(sp.new_score == 0.0 for sp in scored[1])

    def test_no_cross_frame_overlap_scores_are_zero(self):
        vp = VideoProposals.from_proposals([
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
        scaled = VideoProposals.from_proposals([
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
        assert select_track(base) == select_track(boosted)

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
        shuffled = VideoProposals.from_proposals(
            [p for props in shuffled_frames.values() for p in props]
        )
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
        windowed = rerank_scores(vp, window=max(vp.frame_ids) - 1)
        for frame in unbounded:
            for sp, wsp in zip(unbounded[frame], windowed[frame]):
                assert sp.new_score == wsp.new_score

    def test_window_matches_brute_force(self):
        rng = SplitRng(21, "window-small")
        vp = random_instance(rng)
        if max(vp.frame_ids) < 3:
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
        # Small blocks split an offset's slots into several blocks.
        block=st.sampled_from([rerank._BLOCK_ENTRIES, 1, 7, 30]),
    )
    def test_matches_brute_force_oracle_fuzzed(self, vp, window, top_k, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rerank, "_BLOCK_ENTRIES", block)
            assert_matches_oracle(vp, window=window, top_k=top_k)

    @pytest.mark.parametrize("frame_ids", [(1, 10**9), (1, 2, 10**9)])
    @pytest.mark.parametrize("window", [None, 1, 10**9 - 1])
    def test_huge_sparse_frame_ids(self, frame_ids, window):
        proposals = [
            Proposal(frame, Box(offset, 0, 10, 10), 0.9 - 0.1 * offset, 0.8, offset)
            for frame in frame_ids for offset in (0, 1)
        ]
        vp = VideoProposals.from_proposals(proposals)
        values = assert_matches_oracle(vp, window=window)
        assert (values[(10**9, 0)] > 0) == (window != 1)
        assert (values[(1, 0)] > 0) == (window != 1 or 2 in frame_ids)

    @pytest.mark.parametrize("window", [1, 10**9])
    def test_frame_ids_beyond_float_range_outside_the_window(self, window):
        # The gap from frame 2 to frame 10**400 does not fit a float; it lies
        # beyond the window, so it must never be converted.
        proposals = [
            Proposal(frame, Box(0, 0, 10, 10), 0.9, 0.8, 0) for frame in (1, 2, 10**400)
        ]
        vp = VideoProposals.from_proposals(proposals)
        values = assert_matches_oracle(vp, window=window)
        assert values[(10**400, 0)] == 0.0
        assert values[(1, 0)] > 0

    @pytest.mark.parametrize("window", [None, 10**400], ids=["none", "10**400"])
    def test_frame_distance_beyond_float_range_inside_the_window(self, window):
        # The gap from frame 2 to frame 10**400 lies within the window but
        # does not fit a float, so no weight can be computed for it.
        proposals = [
            Proposal(frame, Box(0, 0, 10, 10), 0.9, 0.8, 0) for frame in (1, 2, 10**400)
        ]
        vp = VideoProposals.from_proposals(proposals)
        message = f"frame distance does not fit a float: frames 2 and {10**400}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            rerank_scores(vp, window=window)

    @settings(max_examples=150, deadline=None)
    @given(
        vp=sparse_videos(),
        window=st.one_of(st.none(), st.integers(1, 40)),
        extra=st.integers(0, 3),
    )
    def test_top_k_covering_the_widest_frame_is_bit_identical(self, vp, window, extra):
        widest = max(map(len, vp.frames.values()), default=0)
        full = rerank_scores(vp, window=window).new_score
        capped = rerank_scores(vp, window=window, top_k=max(1, widest) + extra).new_score
        assert capped.tobytes() == full.tobytes()

    # Frames 2 and 10 each hold a box whose right edge overflows, so the IoU
    # of those two boxes is NaN; the small boxes of frames 1 and 2 overlap.
    FAR_HUGE_BOXES = [
        Proposal(1, Box(0, 0, 10, 10), 0.9, 0.8, 0),
        Proposal(2, Box(1, 0, 10, 10), 0.7, 0.9, 0),
        Proposal(2, Box(1e308, 0, 1e308, 10), 0.5, 0.5, 1),
        Proposal(10, Box(1e308, 0, 1e308, 10), 0.5, 0.5, 1),
    ]

    @pytest.mark.parametrize("window", [1, 5])
    def test_pairs_beyond_the_window_add_nothing(self, window):
        vp = VideoProposals.from_proposals(self.FAR_HUGE_BOXES)
        values = assert_matches_oracle(vp, window=window)
        assert all(math.isfinite(value) for value in values.values())
        assert values[(10, 1)] == 0.0
        assert values[(2, 0)] > 0

    def test_far_huge_boxes_with_the_full_sum_raise(self):
        vp = VideoProposals.from_proposals(self.FAR_HUGE_BOXES)
        with pytest.raises(ValueError) as raised:
            rerank_scores(vp)
        assert str(raised.value) == "re-ranked score is not finite in frame 2, id 1"

    def test_top_k_ties_keep_the_lower_id(self):
        # Equal score and objectness: the source kept by top_k=1 is id 0,
        # the only one overlapping the frame-2 proposal.
        vp = VideoProposals.from_proposals([
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
        track = select_track(rerank_scores(vp))
        assert track[1] == Box(20, 0, 10, 10)
        assert track[2] == Box(20, 0, 10, 10)

    def test_raw_select_keeps_identity_switch(self):
        vp = toy_video()
        track = raw_select(vp)
        assert track[1] == Box(0, 0, 10, 10)
        assert track[2] == Box(20, 0, 10, 10)

    def test_all_zero_ties_fall_back_to_raw_score(self):
        vp = VideoProposals.from_proposals([
            Proposal(1, Box(0, 0, 5, 5), 0.7, 0.9, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.9, 0.5, 1),
        ])
        track = select_track(rerank_scores(vp))
        assert track[1] == Box(10, 0, 5, 5)

    def test_empty_frames_have_no_entry(self):
        track = select_track(rerank_scores(VideoProposals.from_proposals([])))
        assert track == {}
        assert track.get(1) is None

    def test_raw_select_single_proposal_per_frame(self):
        vp = VideoProposals.from_proposals([
            Proposal(1, Box(0, 0, 5, 5), 0.2, 0.9, 0),
            Proposal(2, Box(1, 0, 5, 5), 0.4, 0.9, 0),
        ])
        track = raw_select(vp)
        assert track == {1: Box(0, 0, 5, 5), 2: Box(1, 0, 5, 5)}

    def test_objectness_breaks_equal_raw_scores(self):
        vp = VideoProposals.from_proposals([
            Proposal(1, Box(0, 0, 5, 5), 0.5, 0.2, 0),
            Proposal(1, Box(10, 0, 5, 5), 0.5, 0.8, 1),
        ])
        assert raw_select(vp)[1] == Box(10, 0, 5, 5)


class TestOracleAssign:
    def test_exact_match_selected(self):
        vp = toy_video()
        gt = {1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10)}
        track = oracle_assign(vp, gt)
        assert track == {1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10)}

    def test_all_disjoint_ties_use_lowest_id(self):
        vp = VideoProposals.from_proposals([
            Proposal(1, Box(0, 0, 5, 5), 0.1, 0.9, 2),
            Proposal(1, Box(10, 0, 5, 5), 0.9, 0.9, 5),
        ])
        track = oracle_assign(vp, {1: Box(50, 50, 5, 5)})
        assert track[1] == Box(0, 0, 5, 5)

    def test_missing_gt_or_proposals_leaves_gaps(self):
        vp = toy_video()
        track = oracle_assign(vp, {1: Box(0, 0, 10, 10), 3: Box(0, 0, 1, 1)})
        assert set(track) == {1}


class TestValidation:
    def test_duplicate_ids_within_frame(self):
        with pytest.raises(ValueError, match="duplicate"):
            VideoProposals.from_proposals([
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
            ("v", "a"): {1: Box(0, 0, 2, 2), 3: Box(5, 0, 2, 2)},
            ("v", "b"): {2: Box(1, 1, 4, 4)},
        }
        path = tmp_path / "tracks.jsonl"
        write_tracks(path, tracks)
        loaded = read_tracks(path)
        assert loaded[("v", "a")] == tracks[("v", "a")]
        assert loaded[("v", "b")] == tracks[("v", "b")]

    def test_duplicate_track_frame_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"video": "v", "query": "q", "frame": 1, "x": 0, "y": 0, "w": 1, "h": 1})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate frame"):
            read_tracks(path)


@st.composite
def written_tables(draw):
    """A table of up to 60 frames x 30 proposals drawn from a seed, with
    ``window`` and ``top_k`` each on in about half the examples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, width = draw(st.integers(1, 60)), draw(st.integers(1, 30))
    frame_ids = np.sort(rng.choice(np.arange(1, 3 * frames + 1), frames, replace=False))
    counts = rng.integers(1, width + 1, frames)
    ids = np.concatenate([np.sort(rng.choice(3 * width, count, replace=False))
                          for count in counts])
    rows = len(ids)
    vp = VideoProposals(
        frame_ids.tolist(), np.repeat(np.arange(frames), counts), ids.tolist(),
        np.column_stack((rng.uniform(0, 200, (rows, 2)), rng.uniform(5, 80, (rows, 2)))),
        rng.uniform(0, 1, rows), rng.uniform(0.5, 1, rows),
    )
    window = draw(st.integers(1, 8)) if draw(st.booleans()) else None
    top_k = draw(st.integers(1, width)) if draw(st.booleans()) else None
    return vp, window, top_k


class TestInvariancesThroughFiles:
    """Re-rank invariances that hold bit for bit, on tables written with
    ``write_proposals`` and read back with ``read_proposals``'s bulk path."""

    SHIFT = 10**6

    @staticmethod
    def _through_file(directory, name, vp):
        path = Path(directory) / f"{name}.jsonl"
        write_proposals(path, {("v", "q"): vp})
        assert rerank._read_written_proposals(path) is not None
        return read_proposals(path)[0][("v", "q")]

    @settings(max_examples=12, deadline=None)
    @given(written_tables())
    def test_transforms_map_scores_and_selections_exactly(self, drawn):
        vp, window, top_k = drawn
        transforms = {
            "shift": ([frame + self.SHIFT for frame in vp.frame_ids], vp.ids,
                      vp.boxes, vp.scores, vp.objectness),
            "scores": (vp.frame_ids, vp.ids, vp.boxes, 2 * vp.scores, vp.objectness),
            "objectness": (vp.frame_ids, vp.ids, vp.boxes, vp.scores, 2 * vp.objectness),
            "boxes": (vp.frame_ids, vp.ids, 2 * vp.boxes, vp.scores, vp.objectness),
            "ids": (vp.frame_ids, [3 * i + 7 for i in vp.ids], vp.boxes, vp.scores,
                    vp.objectness),
        }
        factor = {"scores": 4.0, "objectness": 2.0}
        with tempfile.TemporaryDirectory() as tmp:
            base = self._through_file(tmp, "base", vp)
            scored = rerank_scores(base, window=window, top_k=top_k)
            track, raw = select_track(scored), raw_select(base)
            for name, (frame_ids, ids, boxes, scores, objectness) in transforms.items():
                moved = self._through_file(tmp, name, VideoProposals(
                    frame_ids, vp.frame_of, ids, boxes, scores, objectness))
                moved_scored = rerank_scores(moved, window=window, top_k=top_k)
                expected = factor.get(name, 1.0) * scored.new_score
                assert moved_scored.new_score.tobytes() == expected.tobytes(), name
                for chosen, moved_chosen in ((track, select_track(moved_scored)),
                                             (raw, raw_select(moved))):
                    assert repr(moved_chosen) == repr(self._mapped(name, chosen)), name

    def _mapped(self, name, track):
        if name == "shift":
            return {frame + self.SHIFT: box for frame, box in track.items()}
        if name == "boxes":
            return {frame: Box(2 * box.x, 2 * box.y, 2 * box.w, 2 * box.h)
                    for frame, box in track.items()}
        return track
