"""The columnar proposal table against pinned bytes and the per-row definitions.

The digests and rows pinned below were recorded from the per-row
implementation (one ``Proposal`` per line, ``max`` over candidates, one
``json.dumps``-equivalent row per ``ScoredProposal``).  That implementation's
``max``-based selections are kept here as oracles for the ``np.lexsort``
ones, and ``json.dumps`` is the oracle for the column writers.

Two digests were re-recorded since.  First the full-sum ``scores.jsonl``:
the frame-lane kernel sums each support in another order, which moved 24 of
its 570 new scores by at most 4.4e-16, each within 1e-12 of
``brute_force_scores``; every track digest stayed the same.  Then both
``scores.jsonl`` digests, when its rows shrank to the join key with the
proposals file and the score (``video, query, frame, id, new_score``): joined
on that key, all 570 ``new_score`` texts of each file equal the old file's,
row for row, and every track digest stayed the same.
"""

import hashlib
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackref.cli import main
from trackref.geometry import Box, box_iou
from trackref.rerank import (
    Proposal,
    ScoredVideo,
    VideoProposals,
    oracle_assign,
    raw_select,
    rerank_scores,
    select_track,
    write_proposals,
    write_scores,
)

# Score noise 0.3 clamps many scores to exactly 0 or 1, so raw-score ties are
# common; object 1 leaves the frame, so later frames hold distractors only.
PINNED_SCENE = """
width = 64
height = 48
num_frames = 12
object1.box = 4 6 10 8
object1.motion = 1 0 6 0 1 0.5
object2.box = 30 20 12 10
object2.motion = 1.02 0.05 -0.6 -0.05 1.02 0.4
"""

PINNED_CORRUPTION = """
distractors_per_frame = 7
score_noise_sd = 0.3
id_switch_prob = 0.3
box_jitter_fraction = 0.1
seed = 9
"""

PINNED_RERANK = {
    (): {
        "scores.jsonl": "b3aea795424d6f7a6186704051f83224fb5a785ed2daf4cfd702b392f959ae5c",
        "tracks.jsonl": "7e2f23985166d4051233fcd15146a7b21bc4a61dae6ca80731f67593f3bba0e5",
        "raw_tracks.jsonl": "3ffab041e9ec65ce92f4765295ea587729da7a8f1c6605b046636d99c3607e87",
    },
    ("--window", "3", "--top-k", "2"): {
        "scores.jsonl": "96fa6a2b2bf5348ff11abe5089eaf05fb665f9be9b8a55f78ec699a2d8d8fb6f",
        "tracks.jsonl": "1c18415a4283da7bc79a462a085b5cf3f3702175b3a93820f812f433e5fca9c4",
        "raw_tracks.jsonl": "3ffab041e9ec65ce92f4765295ea587729da7a8f1c6605b046636d99c3607e87",
    },
}


def _simulate(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(PINNED_SCENE)
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text(PINNED_CORRUPTION)
    sim = tmp_path / "sim"
    assert main([
        "simulate", "--scene", str(scene), "--corrupt", str(corrupt), "--out", str(sim),
        "--scenes", "3", "--seed", "4",
    ]) == 0
    capsys.readouterr()
    return sim / "proposals.jsonl"


def test_rerank_outputs_are_pinned(tmp_path, capsys):
    proposals = _simulate(tmp_path, capsys)
    for flags, pinned in PINNED_RERANK.items():
        out = tmp_path / ("out" + "".join(flags))
        assert main([
            "rerank", "--proposals", str(proposals), "--out", str(out), "--raw", *flags,
        ]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned
        }
        assert digests == pinned, flags


HUGE = 2**70


def test_huge_frame_and_proposal_ids_round_trip(tmp_path):
    records = [
        {"video": "v", "query": "q", "frame": HUGE, "x": 1, "y": 0, "w": 10, "h": 10,
         "score": 0.5, "objectness": 1, "id": HUGE},
        {"video": "v", "query": "q", "frame": 1, "x": 0, "y": 0, "w": 10, "h": 10,
         "score": 0.9, "objectness": 0.8, "id": HUGE},
        {"video": "v", "query": "q", "frame": 1, "x": 20.5, "y": 0, "w": 10, "h": 10,
         "score": 0.9, "objectness": 0.8, "id": 3},
    ]
    path = tmp_path / "proposals.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    assert main(["rerank", "--proposals", str(path), "--out", str(out), "--raw"]) == 0
    head = '{"video": "v", "query": "q", "frame": '
    assert (out / "scores.jsonl").read_text() == (
        head + '1, "id": 3, "new_score": 0.0}\n'
        + head + '1, "id": 1180591620717411303424, "new_score": 3.1186213057999243e-22}\n'
        + head + '1180591620717411303424, "id": 1180591620717411303424, '
        '"new_score": 2.4948970446399397e-22}\n'
    )
    far = head + '1180591620717411303424, "x": 1.0, "y": 0.0, "w": 10.0, "h": 10.0}\n'
    # Raw scores and objectness tie in frame 1, so the lower id 3 is the raw pick.
    assert (out / "tracks.jsonl").read_text() == (
        head + '1, "x": 0.0, "y": 0.0, "w": 10.0, "h": 10.0}\n' + far
    )
    assert (out / "raw_tracks.jsonl").read_text() == (
        head + '1, "x": 20.5, "y": 0.0, "w": 10.0, "h": 10.0}\n' + far
    )


# ---------------------------------------------------------------------------
# Selection against the per-row definitions
# ---------------------------------------------------------------------------

def select_track_by_max(scored):
    """Per frame, ``max`` over candidates of (new score, raw score, objectness, -id)."""
    entries = {}
    for frame, candidates in scored.items():
        if not candidates:
            continue
        best = max(
            candidates,
            key=lambda sp: (
                sp.new_score,
                sp.proposal.score,
                sp.proposal.objectness,
                -sp.proposal.proposal_id,
            ),
        )
        entries[frame] = best.proposal.box
    return entries


def raw_select_by_max(vp):
    entries = {}
    for frame, candidates in vp.frames.items():
        if not candidates:
            continue
        best = max(candidates, key=lambda p: (p.score, p.objectness, -p.proposal_id))
        entries[frame] = best.box
    return entries


def oracle_assign_by_max(vp, gt_boxes):
    entries = {}
    for frame, gt in gt_boxes.items():
        candidates = vp.frames.get(frame, [])
        if not candidates:
            continue
        best = max(candidates, key=lambda p: (box_iou(p.box, gt), -p.proposal_id))
        entries[frame] = best.box
    return entries


# Few distinct values, so that ties fall on every key; zero is common, so
# that supports and new scores are often zero.
_tied = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_boxes = st.sampled_from(
    [Box(0, 0, 10, 10), Box(5, 0, 10, 10), Box(40, 40, 4, 4), Box(0, 0, 10, 10.5)]
)
_frames = st.one_of(st.integers(1, 6), st.sampled_from([10**9, 2**63, HUGE]))
_ids = st.one_of(st.integers(0, 5), st.sampled_from([2**63, HUGE]))


@st.composite
def tied_videos(draw):
    """Videos with empty frames, sparse and huge frame ids and proposal ids."""
    return VideoProposals.from_proposals([
        Proposal(frame, draw(_boxes), draw(_tied), draw(_tied), pid)
        for frame in draw(st.sets(_frames, min_size=1, max_size=5))
        for pid in draw(st.lists(_ids, unique=True, max_size=5))
    ])


# Every key ties in both frames: the lower id wins, 5 before 2**63.
ALL_TIED = VideoProposals.from_proposals([
    Proposal(frame, Box(0, 0, 10, 10), 0.5, 0.5, pid)
    for frame in (1, 10**9) for pid in (2**63, 5)
])


@settings(max_examples=200, deadline=None)
@given(vp=tied_videos(), window=st.sampled_from([None, 1, 2]), top_k=st.sampled_from([None, 1, 2]))
@example(vp=ALL_TIED, window=None, top_k=1)
def test_select_track_equals_max(vp, window, top_k):
    scored = rerank_scores(vp, window=window, top_k=top_k)
    assert select_track(scored) == select_track_by_max(scored)


@settings(max_examples=200, deadline=None)
@given(tied_videos())
@example(ALL_TIED)
def test_raw_select_equals_max(vp):
    assert raw_select(vp) == raw_select_by_max(vp)


@settings(max_examples=200, deadline=None)
@given(vp=tied_videos(), data=st.data())
def test_oracle_assign_equals_max(vp, data):
    # Ground truth covers any subset of the proposals' frames and of 1 and 7.
    frames = data.draw(st.sets(st.sampled_from(sorted(set(vp.frames) | {1, 7}))))
    gt = {frame: data.draw(_boxes) for frame in sorted(frames)}
    assert oracle_assign(vp, gt) == oracle_assign_by_max(vp, gt)


# ---------------------------------------------------------------------------
# Writers against json.dumps
# ---------------------------------------------------------------------------

_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 0.1]),
)
_side = st.one_of(st.floats(min_value=5e-324, allow_infinity=False), st.just(5e-324))
# Box rejects sides whose product underflows to 0, as the readers do.
_sides = st.tuples(_side, _side).filter(lambda wh: wh[0] * wh[1] > 0)
_weight = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 5e-324])
)
_name = st.one_of(
    st.text(max_size=6), st.sampled_from(['{}', '{0}', '}{', 'a"b\\', 'é\U0001f600'])
)


@st.composite
def tables(draw):
    proposals = [
        Proposal(frame, Box(draw(_value), draw(_value), *draw(_sides)),
                 draw(_weight), draw(_weight), pid)
        for frame in draw(st.sets(st.one_of(st.integers(1, 4), st.sampled_from([2**63, HUGE])),
                                  max_size=3))
        for pid in draw(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([-HUGE, 2**64])),
                                 unique=True, max_size=3))
    ]
    return VideoProposals.from_proposals(proposals)


def _expected(records):
    return "".join(json.dumps(record) + "\n" for record in records)


def _records(key, vp):
    for frame, props in sorted(vp.frames.items()):
        for p in sorted(props, key=lambda p: p.proposal_id):
            yield {
                "video": key[0], "query": key[1], "frame": frame,
                "x": p.box.x, "y": p.box.y, "w": p.box.w, "h": p.box.h,
                "score": p.score, "objectness": p.objectness, "id": p.proposal_id,
            }


def _score_records(key, vp, new_scores):
    """The rows of ``scores.jsonl``: the join key with the proposals file, then the score."""
    for record, new_score in zip(_records(key, vp), new_scores, strict=True):
        yield {
            "video": record["video"], "query": record["query"], "frame": record["frame"],
            "id": record["id"], "new_score": new_score,
        }


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(_name, _name), tables(), max_size=3))
def test_write_proposals_equals_json_dumps(tmp_path_factory, videos):
    path = tmp_path_factory.mktemp("w") / "proposals.jsonl"
    write_proposals(path, videos)
    expected = _expected(record for key in sorted(videos) for record in _records(key, videos[key]))
    assert path.read_text(encoding="utf-8") == expected


@settings(max_examples=200, deadline=None)
@given(key=st.tuples(_name, _name), vp=tables(), data=st.data())
def test_write_scores_equals_json_dumps(tmp_path_factory, key, vp, data):
    new_scores = [data.draw(_value) for _ in vp.ids]
    scored = ScoredVideo(vp, np.array(new_scores))
    path = tmp_path_factory.mktemp("w") / "scores.jsonl"
    write_scores(path, {key: scored})
    assert path.read_text(encoding="utf-8") == _expected(_score_records(key, vp, new_scores))
