import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackref

from trackref.cli import main
from trackref.geometry import Box, rasterize_box, read_mask, write_mask
from trackref.rerank import read_tracks, write_tracks

TOY_PROPOSALS = [
    {"video": "vid", "query": "q", "frame": 1, "x": 0, "y": 0, "w": 10, "h": 10,
     "score": 0.9, "objectness": 0.8, "id": 0},
    {"video": "vid", "query": "q", "frame": 1, "x": 20, "y": 0, "w": 10, "h": 10,
     "score": 0.5, "objectness": 0.9, "id": 1},
    {"video": "vid", "query": "q", "frame": 2, "x": 0, "y": 0, "w": 10, "h": 10,
     "score": 0.4, "objectness": 0.8, "id": 0},
    {"video": "vid", "query": "q", "frame": 2, "x": 20, "y": 0, "w": 10, "h": 10,
     "score": 0.8, "objectness": 0.9, "id": 1},
]

SCENE_SPEC = """
width = 48
height = 32
num_frames = 6
object1.box = 4 6 10 8
object1.motion = 1 0 2 0 1 0
"""

CLEAN_CORRUPTION = """
distractors_per_frame = 0
score_noise_sd = 0
id_switch_prob = 0
box_jitter_fraction = 0
seed = 5
"""

# Renders 20 frames; frame 21 fails (see test_shrinking_scene_renders_every_frame_it_can).
SHRINKING_SCENE = (
    "width = 48\nheight = 32\nnum_frames = {}\nobject1.box = 4 6 40 24\n"
    "object1.motion = 0.5 0 0 0 0.5 0\n"
)


MASK_ATTRIBUTES = [
    {"video": "v", "object": "1", "annotator": "a", "is_coco": True,
     "has_spatial": False, "has_verb": False, "length_bin": "short",
     "num_objects_bin": "2-3", "annotation_type": "first_frame"},
    {"video": "v", "object": "2", "annotator": "a", "is_coco": False,
     "has_spatial": True, "has_verb": False, "length_bin": "long",
     "num_objects_bin": "2-3", "annotation_type": "first_frame"},
]

MASK_BREAKDOWN_TEXT = """\
mask_query_count = 2
query/v/1/j_mean = 1.0000
query/v/1/j_recall = 1.0000
query/v/1/j_decay = 0.0000
query/v/1/f_mean = 1.0000
query/v/1/f_recall = 1.0000
query/v/1/f_decay = 0.0000
query/v/1/t_proxy = 0.0000
query/v/1/jf = 1.0000
query/v/2/j_mean = 0.7100
query/v/2/j_recall = 0.6667
query/v/2/j_decay = 0.6479
query/v/2/f_mean = 0.8611
query/v/2/f_recall = 1.0000
query/v/2/f_decay = 0.4167
query/v/2/t_proxy = 0.0000
query/v/2/jf = 0.7855
aggregate/j_mean = 0.8550
aggregate/j_recall = 0.8334
aggregate/j_decay = 0.3240
aggregate/f_mean = 0.9305
aggregate/f_recall = 1.0000
aggregate/f_decay = 0.2084
aggregate/t_proxy = 0.0000
aggregate/jf = 0.8927
breakdown/jf/coco = 1.0000
breakdown/jf/non_coco = 0.7855
breakdown/jf/spatial = 0.7855
breakdown/jf/non_spatial = 1.0000
breakdown/jf/no_verb = 0.8927
breakdown/jf/length_short = 1.0000
breakdown/jf/length_long = 0.7855
breakdown/jf/objects_2_3 = 0.8927
breakdown/jf/first_frame = 0.8927
"""

MASK_BREAKDOWN_JSON = """\
{
  "mask_query_count": 2,
  "queries": {
    "v/1": {
      "j_mean": 1.0,
      "j_recall": 1.0,
      "j_decay": 0.0,
      "f_mean": 1.0,
      "f_recall": 1.0,
      "f_decay": 0.0,
      "t_proxy": 0.0,
      "jf": 1.0
    },
    "v/2": {
      "j_mean": 0.71,
      "j_recall": 0.6667,
      "j_decay": 0.6479,
      "f_mean": 0.8611,
      "f_recall": 1.0,
      "f_decay": 0.4167,
      "t_proxy": 0.0,
      "jf": 0.7855
    }
  },
  "aggregate": {
    "j_mean": 0.855,
    "j_recall": 0.8334,
    "j_decay": 0.324,
    "f_mean": 0.9305,
    "f_recall": 1.0,
    "f_decay": 0.2084,
    "t_proxy": 0.0,
    "jf": 0.8927
  },
  "breakdown": {
    "jf": {
      "coco": 1.0,
      "non_coco": 0.7855,
      "spatial": 0.7855,
      "non_spatial": 1.0,
      "no_verb": 0.8927,
      "length_short": 1.0,
      "length_long": 0.7855,
      "objects_2_3": 0.8927,
      "first_frame": 0.8927
    }
  }
}
"""


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def write_mask_tree(root, key, frames, mask):
    directory = root / key[0] / key[1]
    directory.mkdir(parents=True)
    for frame in frames:
        write_mask(directory / f"{frame:05d}.rle", mask)


def tree_bytes(root):
    """Every file under ``root`` by its path relative to ``root``, as bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def no_hard_links(src, dst, **kwargs):
    raise OSError(errno.EXDEV, "Invalid cross-device link", str(src), None, str(dst))


@st.composite
def scene_specs(draw):
    """A scene spec of 1-6 frames and 1-2 objects whose first boxes lie in the frame."""
    width, height = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    lines = [f"width = {width}", f"height = {height}",
             f"num_frames = {draw(st.integers(1, 6))}"]
    for index in range(1, draw(st.integers(1, 2)) + 1):
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        x, y = draw(st.integers(0, width - w)), draw(st.integers(0, height - h))
        lines.append(f"object{index}.box = {x} {y} {w} {h}")
        scale = draw(st.sampled_from(["1", "1.1", "0.9"]))
        tx, ty = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        lines.append(f"object{index}.motion = {scale} 0 {tx} 0 {scale} {ty}")
    return "\n".join(lines) + "\n"


def run_with_src(args, **kwargs):
    """Run a Python child process that imports trackref from this checkout."""
    src = str(Path(trackref.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
        **kwargs,
    )


@pytest.fixture
def toy_proposals_file(tmp_path):
    path = tmp_path / "proposals.jsonl"
    write_jsonl(path, TOY_PROPOSALS)
    return path


_coordinate = st.one_of(st.floats(-1e6, 1e6), st.integers(-(10**6), 10**6))
_side = st.one_of(st.floats(1e-3, 1e6), st.integers(1, 10**6))
_weight = st.one_of(st.floats(0, 1), st.sampled_from([0, 1]))


@st.composite
def proposal_lines(draw):
    """Proposal records in any order that re-rank to finite scores: 1-3 keys,
    sparse and huge frame ids, and 1-3 proposals per frame, with ids up to
    2**64 in either sign."""
    lines = []
    for video, query in draw(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                                      min_size=1, max_size=3, unique=True)):
        frames = draw(st.sets(st.one_of(st.integers(1, 6), st.sampled_from([2**31, 2**63, 10**30])),
                              min_size=1, max_size=4))
        for frame in frames:
            for pid in draw(st.sets(st.one_of(st.integers(-3, 3), st.sampled_from([-(2**64), 2**64])),
                                    min_size=1, max_size=3)):
                lines.append({"video": video, "query": query, "frame": frame, "id": pid,
                              "x": draw(_coordinate), "y": draw(_coordinate),
                              "w": draw(_side), "h": draw(_side),
                              "score": draw(_weight), "objectness": draw(_weight)})
    return draw(st.permutations(lines))


_POISON_BOX = {"x": 1e308, "y": 0, "w": 1e308, "h": 5}


@st.composite
def poisoned_inputs(draw):
    """Proposal and ground-truth records, in any order, for 1-4 keys, and the
    poisoned key and frame.  One proposal of that frame has ``score =
    objectness = 1e200``, so its source weight overflows, and a box whose
    ``x + w`` overflows, as has the frame's ground-truth box, so their IoU is
    NaN.  Every other value is small, so only that key can fail."""
    keys = draw(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                         min_size=1, max_size=4, unique=True))
    poisoned = draw(st.sampled_from(keys))
    proposals, gt = [], []
    for video, query in keys:
        count = draw(st.integers(1, 3))
        if (video, query) == poisoned:
            bad_frame = draw(st.integers(1, count))
        for frame in range(1, count + 1):
            key = {"video": video, "query": query, "frame": frame}
            box = {"x": frame, "y": 0, "w": 5, "h": 5}
            bad = (video, query) == poisoned and frame == bad_frame
            gt.append({**key, **(_POISON_BOX if bad else box)})
            for pid in range(draw(st.integers(1, 2))):
                row = {**key, **box, "score": 0.5, "objectness": 0.5, "id": pid}
                if bad and pid == 0:
                    row.update(_POISON_BOX, score=1e200, objectness=1e200)
                proposals.append(row)
    return draw(st.permutations(proposals)), draw(st.permutations(gt)), poisoned, bad_frame


class TestRerankCommand:
    def test_selects_consistent_tube(self, tmp_path, toy_proposals_file):
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(toy_proposals_file), "--out", str(out)]) == 0
        tracks = read_tracks(out / "tracks.jsonl")
        assert tracks[("vid", "q")] == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }
        scores = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert len(scores) == 4
        assert all("new_score" in record for record in scores)

    @settings(max_examples=60, deadline=None)
    @given(lines=proposal_lines(),
           flags=st.sampled_from([[], ["--window", "2"], ["--top-k", "1"], ["--raw"]]))
    def test_scores_hold_one_key_and_score_row_per_proposal(self, lines, flags):
        with tempfile.TemporaryDirectory() as tmp:
            proposals, out = Path(tmp, "p.jsonl"), Path(tmp, "out")
            write_jsonl(proposals, lines)
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(["rerank", "--proposals", str(proposals), "--out", str(out),
                             *flags]) == 0
            rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        # Pairs sorted by (video, query), rows in (frame, id) order within each.
        assert [(r["video"], r["query"], r["frame"], r["id"]) for r in rows] == sorted(
            (line["video"], line["query"], line["frame"], line["id"]) for line in lines
        )
        assert all(list(r) == ["video", "query", "frame", "id", "new_score"] for r in rows)
        assert all(type(r["new_score"]) is float for r in rows)

    def test_raw_flag_writes_baseline(self, tmp_path, toy_proposals_file):
        out = tmp_path / "out"
        assert main([
            "rerank", "--proposals", str(toy_proposals_file), "--out", str(out), "--raw",
        ]) == 0
        baseline = read_tracks(out / "raw_tracks.jsonl")
        assert baseline[("vid", "q")] == {
            1: Box(0, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }

    def test_empty_file_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["rerank", "--proposals", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no proposals" in capsys.readouterr().err

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(TOY_PROPOSALS[0]) + "\n{broken\n")
        code = main(["rerank", "--proposals", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_field_warns_but_succeeds(self, tmp_path, capsys):
        records = [dict(TOY_PROPOSALS[0], extra=1), dict(TOY_PROPOSALS[3], extra=2)]
        path = tmp_path / "extra.jsonl"
        write_jsonl(path, records)
        assert main(["rerank", "--proposals", str(path), "--out", str(tmp_path / "o")]) == 0
        assert "extra" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path):
        code = main(["rerank", "--proposals", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_window_and_top_k_flags(self, tmp_path, toy_proposals_file):
        out = tmp_path / "out"
        assert main([
            "rerank", "--proposals", str(toy_proposals_file), "--out", str(out),
            "--window", "1", "--top-k", "2", "--jobs", "2",
        ]) == 0
        tracks = read_tracks(out / "tracks.jsonl")
        assert tracks[("vid", "q")] == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }

    @pytest.mark.parametrize("first, second, message", [
        # objectness x score overflows to infinity
        ({}, {"score": 1e200, "objectness": 1e200},
         "vid/q: source weight objectness x score is not finite in frame 2, id 0"),
        # finite weights, but score x support overflows
        ({"score": 1e200, "objectness": 0.5}, {"score": 1e200, "objectness": 0.5},
         "vid/q: re-ranked score is not finite in frame 1, id 0"),
    ])
    def test_non_finite_new_score_is_a_data_error(self, tmp_path, capsys, first, second, message):
        path = tmp_path / "proposals.jsonl"
        write_jsonl(path, [dict(TOY_PROPOSALS[0], **first), dict(TOY_PROPOSALS[2], **second)])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out), "--raw"]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_distance_beyond_float_range_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "proposals.jsonl"
        write_jsonl(path, [dict(TOY_PROPOSALS[0], frame=frame) for frame in (1, 2, 10**400)])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: vid/q: frame distance does not fit a float: "
            f"frames 2 and {10**400}\n"
        )
        assert not out.exists()
        # Within a window of 1 the far frame draws no support and needs no weight.
        assert main(["rerank", "--proposals", str(path), "--out", str(out), "--window", "1"]) == 0
        scores = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert [(row["frame"], row["new_score"] > 0) for row in scores] == [
            (1, True), (2, True), (10**400, False),
        ]


class TestEvalCommand:
    def test_perfect_boxes(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        tracks = {
            ("v", "1"): {1: Box(0, 0, 4, 4), 2: Box(1, 0, 4, 4)},
        }
        write_tracks(gt, tracks)
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt), "--out", str(out),
        ]) == 0
        report = read_report(out)
        assert report["aggregate"]["track_miou"] == 1.0
        assert report["queries"]["v/1"]["track_miou"] == 1.0

    def test_perfect_masks(self, tmp_path):
        mask = rasterize_box(Box(2, 2, 5, 4), 16, 12)
        for root in ("pred", "gt"):
            directory = tmp_path / root / "v" / "1"
            directory.mkdir(parents=True)
            for frame in (1, 2, 3):
                write_mask(directory / f"{frame:05d}.rle", mask)
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "pred"),
            "--gt-masks", str(tmp_path / "gt"), "--out", str(out),
        ]) == 0
        report = read_report(out)
        assert report["aggregate"]["jf"] == 1.0
        assert report["aggregate"]["j_mean"] == 1.0
        assert report["aggregate"]["t_proxy"] == 0.0

    def test_text_and_json_agree(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): {1: Box(0, 0, 4, 4)}})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {("v", "1"): {1: Box(2, 0, 4, 4)}})
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt), "--out", str(out),
        ]) == 0
        text = (out / "report.txt").read_text()
        report = read_report(out)
        for line in text.splitlines():
            key, value = line.split(" = ")
            if key == "query/v/1/track_miou":
                assert float(value) == report["queries"]["v/1"]["track_miou"]

    def test_aggregate_is_mean_of_reported_queries(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {
            ("v", "1"): {1: Box(0, 0, 10, 10)},
            ("v", "2"): {1: Box(0, 0, 10, 10)},
        })
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "1"): {1: Box(0, 0, 10, 10)},
            ("v", "2"): {1: Box(5, 0, 10, 10)},
        })
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt), "--out", str(out),
        ]) == 0
        report = read_report(out)
        queries = report["queries"]
        recomputed = sum(q["track_miou"] for q in queries.values()) / len(queries)
        assert report["aggregate"]["track_miou"] == round(recomputed, 4)

    def test_prediction_without_gt_aborts_listing_key(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): {1: Box(0, 0, 4, 4)}})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {("v", "2"): {1: Box(0, 0, 4, 4)}})
        code = main(["eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt)])
        assert code == 2
        assert "v/2" in capsys.readouterr().err

    def test_attrs_breakdown(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {
            ("v", "1"): {1: Box(0, 0, 10, 10)},
            ("v", "2"): {1: Box(0, 0, 10, 10)},
        })
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "1"): {1: Box(0, 0, 10, 10)},
            ("v", "2"): {1: Box(90, 90, 10, 10)},
        })
        attrs = tmp_path / "attrs.jsonl"
        write_jsonl(attrs, [
            {"video": "v", "object": "1", "annotator": "a", "is_coco": True,
             "has_spatial": False, "has_verb": False, "length_bin": "short",
             "num_objects_bin": "2-3", "annotation_type": "first_frame"},
            {"video": "v", "object": "2", "annotator": "a", "is_coco": False,
             "has_spatial": True, "has_verb": False, "length_bin": "long",
             "num_objects_bin": "2-3", "annotation_type": "first_frame"},
        ])
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt),
            "--attrs", str(attrs), "--out", str(out),
        ]) == 0
        report = read_report(out)
        assert report["breakdown"]["track_miou"]["coco"] == 1.0
        assert report["breakdown"]["track_miou"]["non_coco"] == 0.0
        assert report["breakdown"]["track_miou"]["objects_2_3"] == 0.5

    def test_attrs_breakdown_with_masks_pins_report(self, tmp_path):
        gt_mask = rasterize_box(Box(2, 2, 8, 6), 16, 12)
        shifted = [rasterize_box(Box(x, y, 8, 6), 16, 12) for x, y in ((3, 2), (5, 3))]
        write_mask_tree(tmp_path / "gt", ("v", "1"), (1, 2, 3), gt_mask)
        write_mask_tree(tmp_path / "gt", ("v", "2"), (1, 2, 3), gt_mask)
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1, 2, 3), gt_mask)
        write_mask_tree(tmp_path / "pred", ("v", "2"), (1,), gt_mask)
        for frame, mask in zip((2, 3), shifted):
            write_mask(tmp_path / "pred" / "v" / "2" / f"{frame:05d}.rle", mask)
        attrs = tmp_path / "attrs.jsonl"
        write_jsonl(attrs, MASK_ATTRIBUTES)
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "pred"), "--gt-masks", str(tmp_path / "gt"),
            "--attrs", str(attrs), "--out", str(out),
        ]) == 0
        assert (out / "report.txt").read_text() == MASK_BREAKDOWN_TEXT
        assert (out / "report.json").read_text() == MASK_BREAKDOWN_JSON

    def test_usage_error_on_half_specified_inputs(self, tmp_path):
        assert main(["eval", "--pred-tracks", str(tmp_path / "x.jsonl")]) == 1
        assert main(["eval"]) == 1

    def test_usage_error_on_pred_masks_without_gt_masks(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "masks"), "--out", str(out),
        ]) == 1
        message = "usage error: --pred-masks and --gt-masks must be given together"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layout, message", [
        ("missing", "mask directory not found: {root}"),
        ("bad-name", "mask filename is not a frame index: {root}/v/1/first.rle"),
        ("0.rle", "mask filename is not a frame index: {root}/v/1/0.rle"),
        ("-2.rle", "mask filename is not a frame index: {root}/v/1/-2.rle"),
        ("+2.pbm", "mask filename is not a frame index: {root}/v/1/+2.pbm"),
        ("\uff12.rle", "mask filename is not a frame index: {root}/v/1/\uff12.rle"),
        ("1.rle", "two mask files name frame 1: {root}/v/1/00001.rle and {root}/v/1/1.rle"),
        ("00001.pbm",
         "two mask files name frame 1: {root}/v/1/00001.pbm and {root}/v/1/00001.rle"),
        ("empty", "no masks found under {root}"),
    ])
    def test_mask_tree_errors(self, tmp_path, capsys, layout, message):
        root = tmp_path / "masks"
        if layout == "bad-name":
            write_mask_tree(root, ("v", "1"), (1,), rasterize_box(Box(1, 1, 2, 2), 6, 4))
            (root / "v" / "1" / "00001.rle").rename(root / "v" / "1" / "first.rle")
        elif layout.endswith((".rle", ".pbm")):  # a second file beside 00001.rle
            mask = rasterize_box(Box(1, 1, 2, 2), 6, 4)
            write_mask_tree(root, ("v", "1"), (1,), mask)
            write_mask(root / "v" / "1" / layout, mask)
        elif layout == "empty":
            (root / "v" / "1").mkdir(parents=True)
            (root / "v" / "1" / "notes.txt").write_text("not a mask\n")
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(root), "--gt-masks", str(root), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"error: {message.format(root=root)}\n"
        assert not out.exists()

    def test_mask_size_mismatch_names_both_trees_and_frame(self, tmp_path, capsys):
        write_mask_tree(tmp_path / "a", ("v", "1"), (1, 2), rasterize_box(Box(4, 4, 8, 6), 48, 32))
        write_mask_tree(tmp_path / "b", ("v", "1"), (1, 2), rasterize_box(Box(2, 2, 4, 3), 24, 16))
        pred, gt, out = tmp_path / "b", tmp_path / "a", tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(pred), "--gt-masks", str(gt), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {pred} vs {gt}: v/1: "
            "mask dimensions differ at frame 1: (16, 24) vs (32, 48)\n"
        )
        assert not out.exists()

    def test_mask_size_change_between_frames_names_both_frames(self, tmp_path, capsys):
        for root in ("pred", "gt"):
            write_mask_tree(tmp_path / root, ("v", "1"), (1,), rasterize_box(Box(1, 1, 2, 2), 6, 4))
            write_mask(tmp_path / root / "v" / "1" / "2.pbm", rasterize_box(Box(1, 1, 2, 5), 6, 8))
        pred, gt, out = tmp_path / "pred", tmp_path / "gt", tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(pred), "--gt-masks", str(gt), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {pred} vs {gt}: v/1: "
            "mask size changes between frames 1 and 2: (4, 6) vs (8, 6)\n"
        )
        assert not out.exists()

    def test_unreadable_mask_file_is_named(self, tmp_path, capsys):
        root = tmp_path / "masks"
        (root / "v" / "1").mkdir(parents=True)
        bad = root / "v" / "1" / "00001.pbm"
        bad.write_text("P1\n2 2\n0 1 2 1\n")
        assert main(["eval", "--pred-masks", str(root), "--gt-masks", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: PBM payload contains characters other than 0/1\n"
        )

    @pytest.mark.parametrize("unused", ["v/2/00001.pbm", "v/1/00002.pbm"])
    def test_corrupt_mask_that_no_ground_truth_uses_is_named(self, tmp_path, capsys, unused):
        # A predicted key, or a predicted frame, that the ground truth lacks.
        mask = rasterize_box(Box(1, 1, 2, 2), 6, 4)
        write_mask_tree(tmp_path / "gt", ("v", "1"), (1,), mask)
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1,), mask)
        bad = tmp_path / "pred" / unused
        bad.parent.mkdir(exist_ok=True)
        bad.write_text("P1\n2 2\n0 1 2 1\n")
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "pred"), "--gt-masks", str(tmp_path / "gt"),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: PBM payload contains characters other than 0/1\n"
        )
        assert not out.exists()

    def test_oversized_rle_mask_file_is_a_data_error(self, tmp_path, capsys):
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1,), rasterize_box(Box(1, 1, 2, 2), 6, 4))
        bad = tmp_path / "gt" / "v" / "1" / "00001.rle"
        bad.parent.mkdir(parents=True)
        bad.write_text("RLE 99999999999999999999 1 99999999999999999999")
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "pred"), "--gt-masks", str(tmp_path / "gt"),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: mask size 99999999999999999999x1 exceeds the limit of 268435456 "
            "pixels\n"
        )
        assert not out.exists()

    def test_rle_mask_above_the_size_cap_is_a_data_error(self, tmp_path, capsys):
        # 34 bytes whose runs sum to the size, 10**12 pixels: refused before
        # any array is allocated.
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1,), rasterize_box(Box(1, 1, 2, 2), 6, 4))
        bad = tmp_path / "gt" / "v" / "1" / "00001.rle"
        bad.parent.mkdir(parents=True)
        bad.write_text("RLE 1000000 1000000 1000000000000\n")
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "pred"), "--gt-masks", str(tmp_path / "gt"),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: mask size 1000000x1000000 exceeds the limit of 268435456 pixels\n"
        )
        assert not out.exists()

    def test_f_tolerance_flag_absorbs_small_shifts(self, tmp_path):
        gt_mask = rasterize_box(Box(4, 4, 6, 5), 24, 20)
        pred_mask = rasterize_box(Box(5, 5, 6, 5), 24, 20)
        for root, mask in (("pred", pred_mask), ("gt", gt_mask)):
            directory = tmp_path / root / "v" / "1"
            directory.mkdir(parents=True)
            for frame in (1, 2):
                write_mask(directory / f"{frame:05d}.rle", mask)
        reports = {}
        for tol in ("1", "4"):
            out = tmp_path / f"report_{tol}"
            assert main([
                "eval", "--pred-masks", str(tmp_path / "pred"),
                "--gt-masks", str(tmp_path / "gt"), "--f-tol", tol, "--out", str(out),
            ]) == 0
            reports[tol] = read_report(out)["aggregate"]["f_mean"]
        assert reports["4"] == 1.0
        assert reports["1"] <= reports["4"]

    @pytest.mark.parametrize("tolerance", [10**6, 10**9, 2**62])
    def test_huge_f_tolerance_equals_longer_side(self, tmp_path, tolerance):
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1, 2),
                        rasterize_box(Box(10, 10, 30, 20), 100, 80))
        write_mask_tree(tmp_path / "gt", ("v", "1"), (1, 2),
                        rasterize_box(Box(50, 40, 30, 25), 100, 80))
        reports = []
        for tol in ("100", str(tolerance)):
            out = tmp_path / f"report_{tol}"
            start = time.perf_counter()
            assert main([
                "eval", "--pred-masks", str(tmp_path / "pred"),
                "--gt-masks", str(tmp_path / "gt"), "--f-tol", tol, "--out", str(out),
            ]) == 0
            assert time.perf_counter() - start < 1.0  # milliseconds, whatever the tolerance
            reports.append([(out / name).read_bytes() for name in ("report.txt", "report.json")])
        assert reports[0] == reports[1]
        assert read_report(tmp_path / f"report_{tolerance}")["aggregate"]["f_mean"] == 1.0

    def test_failure_leaves_no_partial_report(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): {1: Box(0, 0, 4, 4)}})
        attrs = tmp_path / "attrs.jsonl"
        attrs.write_text("")  # no attribute record for v/1
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt),
            "--attrs", str(attrs), "--out", str(out),
        ])
        assert code == 2
        assert not (out / "report.txt").exists()
        assert not (out / "report.json").exists()


class TestCrossFileErrors:
    """A key one input has and another lacks aborts naming both files."""

    def _expect_abort(self, capsys, argv, out, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_attributes_file_lacks_a_query(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): {1: Box(0, 0, 4, 4)}})
        attrs = tmp_path / "a.jsonl"
        write_jsonl(attrs, [
            {"video": "w", "object": "1", "is_coco": True, "has_spatial": False,
             "has_verb": False, "length_bin": "short", "num_objects_bin": "1",
             "annotation_type": "first_frame"},
        ])
        out = tmp_path / "report"
        self._expect_abort(capsys, [
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt),
            "--attrs", str(attrs), "--out", str(out),
        ], out, f"attributes file {attrs} has no entry for v/1 (from {gt})")

    def test_attributes_file_lacks_a_mask_query(self, tmp_path, capsys):
        mask = rasterize_box(Box(2, 2, 5, 4), 16, 12)
        write_mask_tree(tmp_path / "masks", ("v", "1"), (1, 2), mask)
        attrs = tmp_path / "a.jsonl"
        attrs.write_text("")
        out = tmp_path / "report"
        masks = tmp_path / "masks"
        self._expect_abort(capsys, [
            "eval", "--pred-masks", str(masks), "--gt-masks", str(masks),
            "--attrs", str(attrs), "--out", str(out),
        ], out, f"attributes file {attrs} has no entry for v/1 (from {masks})")

    def test_predicted_tracks_without_ground_truth(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): {1: Box(0, 0, 4, 4)}})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "2"): {1: Box(0, 0, 4, 4)},
            ("w", "1"): {1: Box(0, 0, 4, 4)},
        })
        out = tmp_path / "report"
        self._expect_abort(capsys, [
            "eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt), "--out", str(out),
        ], out, f"ground-truth file {gt} has no entry for v/2, w/1 (from {pred})")

    def test_missing_predicted_mask_query(self, tmp_path, capsys):
        mask = rasterize_box(Box(2, 2, 5, 4), 16, 12)
        write_mask_tree(tmp_path / "gt", ("v", "1"), (1, 2), mask)
        write_mask_tree(tmp_path / "gt", ("v", "2"), (1, 2), mask)
        write_mask_tree(tmp_path / "pred", ("v", "1"), (1, 2), mask)
        pred, gt, out = tmp_path / "pred", tmp_path / "gt", tmp_path / "report"
        self._expect_abort(capsys, [
            "eval", "--pred-masks", str(pred), "--gt-masks", str(gt), "--out", str(out),
        ], out, f"predicted mask tree {pred} has no entry for v/2 (from {gt})")

    def test_missing_predicted_mask_frames(self, tmp_path, capsys):
        mask = rasterize_box(Box(2, 2, 5, 4), 16, 12)
        write_mask_tree(tmp_path / "gt", ("v", "1"), (1, 2, 3), mask)
        write_mask_tree(tmp_path / "pred", ("v", "1"), (2,), mask)
        pred, gt, out = tmp_path / "pred", tmp_path / "gt", tmp_path / "report"
        self._expect_abort(capsys, [
            "eval", "--pred-masks", str(pred), "--gt-masks", str(gt), "--out", str(out),
        ], out, f"predicted mask tree {pred} has no masks for v/1 frames [1, 3] (from {gt})")

    def test_oracle_proposals_without_ground_truth(self, tmp_path, capsys):
        proposals = tmp_path / "proposals.jsonl"
        write_jsonl(proposals, TOY_PROPOSALS)
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("vid", "other"): {1: Box(0, 0, 4, 4)}})
        out = tmp_path / "out"
        self._expect_abort(capsys, [
            "oracle", "--proposals", str(proposals), "--gt-boxes", str(gt), "--out", str(out),
        ], out, f"ground-truth file {gt} has no entry for vid/q (from {proposals})")


class TestRecordErrors:
    """Bad field values are data errors naming file:line; nothing is written."""

    GOOD_TRACK = {"video": "v", "query": "1", "frame": 3, "x": 0, "y": 0, "w": 4, "h": 4}
    GOOD_ATTRS = {
        "video": "v", "object": "1", "is_coco": True, "has_spatial": False,
        "has_verb": False, "length_bin": "short", "num_objects_bin": "1",
        "annotation_type": "first_frame",
    }

    @pytest.mark.parametrize("bad", [
        {"x": None}, {"x": 10**400}, {"frame": "two"}, {"frame": 0}, {"frame": 1.9},
        {"frame": True},
        {"w": 1e-200, "h": 1e-200},  # positive sides, but w * h underflows to 0
    ])
    def test_bad_track_field(self, tmp_path, capsys, bad):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [self.GOOD_TRACK, {**self.GOOD_TRACK, "frame": 2, **bad}])
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt), "--out", str(out),
        ])
        assert code == 2
        assert f"{gt}:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_track_frame_names_the_key(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [self.GOOD_TRACK, {**self.GOOD_TRACK, "frame": 2}, self.GOOD_TRACK])
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {gt}:3: duplicate frame 3 for v/1\n"
        assert not out.exists()

    def test_zero_area_proposal_box(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [
            {**TOY_PROPOSALS[0], "w": 1e-200, "h": 1e-200},
            {**TOY_PROPOSALS[2], "w": 1e-200, "h": 1e-200},
        ])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        assert f"error: {path}:1: box area w * h is 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_box_iou(self, tmp_path, capsys):
        # x + w overflows, so the IoU of the box with itself is NaN.
        pred = tmp_path / "pred.jsonl"
        write_jsonl(pred, [{**self.GOOD_TRACK, "x": 1e308, "w": 1e308}])
        gt = tmp_path / "gt.jsonl"
        gt.write_bytes(pred.read_bytes())
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: {pred} vs {gt}: v/1: box IoU at frame 3 is not finite: nan\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("frame", [1.9, True, "2"])
    def test_non_integer_proposal_frame(self, tmp_path, capsys, frame):
        path = tmp_path / "proposals.jsonl"
        write_jsonl(path, [TOY_PROPOSALS[0], dict(TOY_PROPOSALS[2], frame=frame)])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        assert f"{path}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("proposal_id", [1.9, True, "1", None, 1.0])
    def test_non_integer_proposal_id(self, tmp_path, capsys, proposal_id):
        path = tmp_path / "proposals.jsonl"
        write_jsonl(path, [TOY_PROPOSALS[0], dict(TOY_PROPOSALS[1], id=proposal_id)])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out)]) == 2
        assert f"{path}:2: id must be an integer" in capsys.readouterr().err
        assert not out.exists()

    GOOD_CORPUS = {
        "video": "v", "object": "1", "annotator": "a", "type": "first_frame",
        "text": "a dog on the left",
    }

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '"text"',
        json.dumps(dict(GOOD_CORPUS, is_coco="false")),
        json.dumps(dict(GOOD_CORPUS, is_coco=None)),
        json.dumps(dict(GOOD_CORPUS, is_coco=0)),
        json.dumps(dict(GOOD_CORPUS, invalid_over_time="false")),
        json.dumps(dict(GOOD_CORPUS, invalid_over_time=1)),
    ], ids=[
        "array", "string", "is_coco-string", "is_coco-null", "is_coco-zero",
        "invalid_over_time-string", "invalid_over_time-one",
    ])
    def test_bad_corpus_record(self, tmp_path, capsys, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(self.GOOD_CORPUS) + "\n" + line + "\n")
        out = tmp_path / "stats"
        assert main(["stats", "--corpus", str(corpus), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{corpus}:2: " in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["is_coco", "has_spatial", "has_verb"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_attribute_flag(self, tmp_path, capsys, flag, value):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [self.GOOD_TRACK])
        attrs = tmp_path / "attrs.jsonl"
        write_jsonl(attrs, [dict(self.GOOD_ATTRS, **{flag: value})])
        out = tmp_path / "report"
        code = main([
            "eval", "--pred-tracks", str(gt), "--gt-boxes", str(gt),
            "--attrs", str(attrs), "--out", str(out),
        ])
        assert code == 2
        assert f"{attrs}:1: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def _specs(self, tmp_path, corruption=CLEAN_CORRUPTION):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC)
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(corruption)
        return scene, corrupt

    @pytest.mark.filterwarnings("error")
    def test_huge_translation_leaves_the_frame_silently(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        scene.write_text(SCENE_SPEC.replace("1 0 2 0 1 0", "1 0 1e308 0 1 0"))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        masks = out / "masks" / "scene_000" / "1"
        assert read_mask(masks / "00001.rle").any()
        assert not read_mask(masks / "00002.rle").any()

    def test_deterministic_manifest(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                "--out", str(out), "--seed", "3",
            ]) == 0
            manifests.append((out / "MANIFEST.txt").read_text())
        assert manifests[0] == manifests[1]
        assert manifests[0] in capsys.readouterr().out

    def test_single_frame_scene(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("width = 8\nheight = 8\nnum_frames = 1\nobject1.box = 1 1 4 4\n")
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)
        out = tmp_path / "out"
        assert main([
            "simulate", "--scene", str(scene), "--corrupt", str(corrupt), "--out", str(out),
        ]) == 0
        assert (out / "masks" / "scene_000" / "1" / "00001.rle").exists()

    def test_sweep_creates_scene_directories(self, tmp_path):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "sweep"
        assert main([
            "simulate", "--scene", str(scene), "--corrupt", str(corrupt),
            "--out", str(out), "--scenes", "5",
        ]) == 0
        dirs = sorted(p.name for p in (out / "masks").iterdir())
        assert dirs == [f"scene_{i:03d}" for i in range(5)]

    def test_scene_above_the_mask_size_cap_is_a_data_error(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        scene.write_text(SCENE_SPEC.replace("width = 48", "width = 100000")
                         .replace("height = 32", "height = 100000"))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {scene}: mask size 100000x100000 exceeds the limit of 268435456 pixels\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_spec_key_aborts(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC + "warp = yes\n")
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)
        code = main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("scene_text, where, message", [
        ("width = 48\nheigth = 32\n", ":2", "unknown scene spec key: 'heigth'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nbackground = 1 0 0 0 1 0\n", ":4",
         "unknown scene spec key: 'background'"),
        ("width = 48\nheight = 32\nnum_frames = x\nobject1.box = 4 6 10 8\n", ":3",
         "key 'num_frames' expects an integer, got 'x'"),
        ("width = 48\nheight = 32\nnum_frames = 0\nobject1.box = 4 6 10 8\n", ":3",
         "key 'num_frames' must be >= 1, got 0"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject1.motion = 1 0 2\n", ":4",
         "key 'object1.motion' expects 6 numbers, got 3"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject1.motion = 1 0 2 0 1 x\n",
         ":4", "key 'object1.motion' expects a number, got 'x'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject1.motion = nan 0 0 0 1 0\n",
         ":4", "key 'object1.motion' expects finite numbers, got 'nan 0 0 0 1 0'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject1.motion = 1 0 inf 0 1 0\n",
         ":4", "key 'object1.motion' expects finite numbers, got '1 0 inf 0 1 0'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 1e-200 1e-200\n", ":3",
         "box area w * h is 0, got w=1e-200, h=1e-200"),
        ("width = 48\nobject1.box = 4 6 10 8\nobject2.motion = 1 0 2 0 1 0\n", ":3",
         "motion given for undefined object 2"),
        ("width = 48\nheight = 32\nobject1.motion = 1 0 2 0 1 0\n", ":3",
         "motion given for undefined object 1"),
        ("width = 48\nheight = 32\n", "", "scene spec defines no objects"),
        ("width = 48\nheight = 32\nobject2.box = 4 6 10 8\n", "",
         "object indices must be contiguous from 1, got [2]"),
        ("width = 8\nheight = 8\nobject1.box = 4 6 10 8\n", "",
         "object 1 initial box outside image bounds"),
        # An object index has one spelling: these would alias object1 or object10.
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject01.box = 1 1 2 2\n", ":4",
         "unknown scene spec key: 'object01.box'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject+1.motion = 1 0 9 0 1 0\n",
         ":4", "unknown scene spec key: 'object+1.motion'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject1_0.box = 1 1 2 2\n", ":4",
         "unknown scene spec key: 'object1_0.box'"),
        ("width = 48\nheight = 32\nobject1.box = 4 6 10 8\nobject 1.motion = 1 0 9 0 1 0\n",
         ":4", "unknown scene spec key: 'object 1.motion'"),
        ("width = 48\nheight = 32\nobject\uff11.box = 4 6 10 8\n", ":3",
         "unknown scene spec key: 'object\uff11.box'"),
        ("width = 48\nheight = 32\nobject-1.box = 4 6 10 8\n", ":3",
         "unknown scene spec key: 'object-1.box'"),
    ])
    def test_scene_spec_errors_name_the_file(self, tmp_path, capsys, scene_text, where, message):
        scene, corrupt = self._specs(tmp_path)
        scene.write_text(scene_text)
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {scene}{where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("corrupt_text, where, message", [
        ("seed = 5\ndistractors_per_frame = -1\n", ":2", "distractors_per_frame must be >= 0"),
        ("distractors_per_frame = 1.5\n", ":1",
         "key 'distractors_per_frame' expects an integer, got '1.5'"),
        ("score_noise_sd = nan\n", ":1", "score_noise_sd must be finite and >= 0"),
        ("box_jitter_fraction = inf\n", ":1", "box_jitter_fraction must be finite and >= 0"),
        ("jitters = 1\n", ":1", "unknown corruption spec key: 'jitters'"),
    ])
    def test_corruption_spec_errors_name_the_file(
        self, tmp_path, capsys, corrupt_text, where, message
    ):
        scene, corrupt = self._specs(tmp_path, corrupt_text)
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {corrupt}{where}: {message}\n"
        assert not out.exists()

    def test_shrinking_scene_renders_every_frame_it_can(self, tmp_path, capsys):
        # The 20-frame scene needs the motion composed 19 times, determinant
        # 0.25 ** 19 ~ 3.6e-12; the 21st frame needs 0.25 ** 20 ~ 9.1e-13, below
        # the 1e-12 floor.  Nothing is composed for a frame that is not rendered.
        scene, corrupt = self._specs(tmp_path)
        scene.write_text(SHRINKING_SCENE.format(20))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 0
        manifest = (out / "MANIFEST.txt").read_text()
        assert manifest == capsys.readouterr().out
        listed = [line.split("  ") for line in manifest.splitlines()]
        assert len(listed) == 22  # gt_boxes, proposals and 20 masks
        for digest, relative in listed:
            assert digest == hashlib.sha256((out / relative).read_bytes()).hexdigest()
        assert (out / "masks" / "scene_000" / "1" / "00020.rle").exists()

        scene.write_text(SHRINKING_SCENE.format(21))
        out = tmp_path / "out21"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {scene}: object 1, frame 21: "
            "affine transform is not invertible (determinant ~ 0)\n"
        )
        assert not out.exists()

    def test_a_failure_part_way_through_rendering_leaves_out_as_it_was(self, tmp_path, capsys):
        # Frame 21 fails after 20 masks of each scene are written, under names
        # that the earlier run's files hold too.
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        assert self._simulate(scene, corrupt, out, "--scenes", "2") == 0
        capsys.readouterr()
        before = tree_state(out)
        scene.write_text(SHRINKING_SCENE.format(21))
        assert self._simulate(scene, corrupt, out, "--scenes", "2") == 2
        assert capsys.readouterr().err == (
            f"error: {scene}: object 1, frame 21: "
            "affine transform is not invertible (determinant ~ 0)\n"
        )
        assert tree_state(out) == before
        for line in (out / "MANIFEST.txt").read_text().splitlines():
            digest, relative = line.split("  ")
            assert digest == hashlib.sha256((out / relative).read_bytes()).hexdigest()
        assert not list(out.glob(".trackref-*"))

    def test_spec_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        corrupt.write_bytes(b"seed = 5 # \xff\n")
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {corrupt}: ")

    @pytest.mark.parametrize("mask_format", ["rle", "pbm"])
    def test_manifest_hashes_the_files_and_scenes_share_masks(self, tmp_path, mask_format):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        assert main([
            "simulate", "--scene", str(scene), "--corrupt", str(corrupt),
            "--out", str(out), "--scenes", "3", "--mask-format", mask_format,
        ]) == 0
        listed = {}
        for line in (out / "MANIFEST.txt").read_text().splitlines():
            digest, relative = line.split("  ")
            listed[relative] = digest
        on_disk = sorted(
            str(p.relative_to(out)) for p in out.rglob("*")
            if p.is_file() and p.name != "MANIFEST.txt"
        )
        assert sorted(listed) == on_disk
        for relative, digest in listed.items():
            assert digest == hashlib.sha256((out / relative).read_bytes()).hexdigest()
        first = out / "masks" / "scene_000"
        names = sorted(str(p.relative_to(first)) for p in first.rglob(f"*.{mask_format}"))
        assert len(names) == 6  # one object, six frames
        for scene_dir in ("scene_001", "scene_002"):
            other = out / "masks" / scene_dir
            assert sorted(str(p.relative_to(other)) for p in other.rglob("*.*")) == names
            for name in names:
                assert (other / name).read_bytes() == (first / name).read_bytes()

    def _simulate(self, scene, corrupt, out, *extra):
        return main([
            "simulate", "--scene", str(scene), "--corrupt", str(corrupt), "--out", str(out),
            *extra,
        ])

    @pytest.mark.parametrize("mask_format", ["rle", "pbm"])
    def test_scenes_mask_files_are_hard_links_to_scene_000(self, tmp_path, mask_format):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        assert self._simulate(scene, corrupt, out, "--scenes", "3",
                              "--mask-format", mask_format) == 0
        first = out / "masks" / "scene_000"
        names = sorted(p.relative_to(first) for p in first.rglob(f"*.{mask_format}"))
        assert len(names) == 6
        for name in names:
            stat = (first / name).stat()
            assert stat.st_nlink == 3
            for scene_dir in ("scene_001", "scene_002"):
                assert (out / "masks" / scene_dir / name).stat().st_ino == stat.st_ino

    @pytest.mark.parametrize("mask_format", ["rle", "pbm"])
    def test_without_hard_links_scenes_get_identical_copies(
        self, tmp_path, monkeypatch, mask_format
    ):
        scene, corrupt = self._specs(tmp_path)
        linked, copied = tmp_path / "linked", tmp_path / "copied"
        args = ("--scenes", "3", "--mask-format", mask_format)
        assert self._simulate(scene, corrupt, linked, *args) == 0
        monkeypatch.setattr(os, "link", no_hard_links)
        assert self._simulate(scene, corrupt, copied, *args) == 0
        assert tree_bytes(copied) == tree_bytes(linked)
        lines = (copied / "MANIFEST.txt").read_text().splitlines()
        assert len(lines) == 3 * 6 + 2  # three scenes' masks, gt_boxes and proposals
        for line in lines:
            digest, relative = line.split("  ")
            assert digest == hashlib.sha256((copied / relative).read_bytes()).hexdigest()
            assert (copied / relative).stat().st_nlink == 1

    def test_directory_at_a_mask_path_is_a_data_error(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        blocker = out / "masks" / "scene_002" / "1" / "00003.rle"
        blocker.mkdir(parents=True)
        assert self._simulate(scene, corrupt, out, "--scenes", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    def test_rerun_replaces_mask_files_and_never_writes_through_them(self, tmp_path, capsys):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        assert self._simulate(scene, corrupt, out, "--scenes", "3") == 0
        outside = tmp_path / "kept.rle"
        os.link(out / "masks" / "scene_000" / "1" / "00002.rle", outside)
        kept = outside.read_bytes()
        scene.write_text(SCENE_SPEC.replace("4 6 10 8", "9 3 12 12"))
        assert self._simulate(scene, corrupt, out, "--scenes", "2") == 0
        assert outside.read_bytes() == kept
        fresh = tmp_path / "fresh"
        assert self._simulate(scene, corrupt, fresh, "--scenes", "2") == 0
        assert (out / "masks" / "scene_000" / "1" / "00002.rle").read_bytes() != kept
        assert (out / "MANIFEST.txt").read_text() == (fresh / "MANIFEST.txt").read_text()

    @settings(max_examples=30, deadline=None)
    @given(spec=scene_specs(), scenes=st.integers(1, 4),
           mask_format=st.sampled_from(["rle", "pbm"]))
    def test_manifest_and_shared_masks_hold_for_any_scene(self, spec, scenes, mask_format):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            tmp = Path(tmp)
            scene, corrupt = tmp / "scene.txt", tmp / "corrupt.txt"
            scene.write_text(spec)
            corrupt.write_text(CLEAN_CORRUPTION)
            trees = []
            for out, link in ((tmp / "linked", os.link), (tmp / "copied", no_hard_links)):
                patch.setattr(os, "link", link)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert self._simulate(scene, corrupt, out, "--scenes", str(scenes),
                                          "--mask-format", mask_format) == 0
                files = tree_bytes(out)
                trees.append(dict(files))
                manifest = files.pop("MANIFEST.txt").decode()
                listed = dict(line.split("  ")[::-1] for line in manifest.splitlines())
                assert sorted(listed) == sorted(files)
                for relative, digest in listed.items():
                    assert digest == hashlib.sha256(files[relative]).hexdigest()
                first = tree_bytes(out / "masks" / "scene_000")
                assert first
                for index in range(1, scenes):
                    assert tree_bytes(out / "masks" / f"scene_{index:03d}") == first
            assert trees[0] == trees[1]

    def test_pbm_format_option(self, tmp_path):
        scene, corrupt = self._specs(tmp_path)
        out = tmp_path / "out"
        assert main([
            "simulate", "--scene", str(scene), "--corrupt", str(corrupt),
            "--out", str(out), "--mask-format", "pbm",
        ]) == 0
        first = out / "masks" / "scene_000" / "1" / "00001.pbm"
        assert first.read_text().startswith("P1\n")
        report = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(out / "masks"),
            "--gt-masks", str(out / "masks"), "--out", str(report),
        ]) == 0
        assert read_report(report)["aggregate"]["jf"] == 1.0


class TestOracleAndPipeline:
    def test_ground_truth_boxes_score_the_upper_bound(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC)
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)
        sim = tmp_path / "sim"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(sim)]) == 0
        report_out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(sim / "gt_boxes.jsonl"),
            "--gt-boxes", str(sim / "gt_boxes.jsonl"), "--out", str(report_out),
        ]) == 0
        assert read_report(report_out)["aggregate"]["track_miou"] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), distractors=st.integers(0, 3))
    def test_oracle_on_clean_proposals_is_the_ground_truth_of_objects_leaving(
        self, data, distractors
    ):
        # Translations of up to 12 px a frame carry objects out of a frame of
        # 8-24 px; ground truth keeps only the frames where the mask has pixels.
        width, height = data.draw(st.integers(8, 24)), data.draw(st.integers(8, 24))
        lines = [f"width = {width}", f"height = {height}",
                 f"num_frames = {data.draw(st.integers(1, 6))}"]
        for index in range(1, data.draw(st.integers(1, 2)) + 1):
            w, h = data.draw(st.integers(2, width)), data.draw(st.integers(2, height))
            x, y = data.draw(st.integers(0, width - w)), data.draw(st.integers(0, height - h))
            tx, ty = (data.draw(st.integers(-24, 24)) / 2 for _ in range(2))
            lines += [f"object{index}.box = {x} {y} {w} {h}",
                      f"object{index}.motion = 1 0 {tx} 0 1 {ty}"]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scene, corrupt = tmp / "scene.txt", tmp / "corrupt.txt"
            scene.write_text("\n".join(lines) + "\n")
            corrupt.write_text(CLEAN_CORRUPTION.replace(
                "distractors_per_frame = 0", f"distractors_per_frame = {distractors}"))
            sim, oracle = tmp / "sim", tmp / "oracle"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                             "--out", str(sim)]) == 0
            assert main(["oracle", "--proposals", str(sim / "proposals.jsonl"),
                         "--gt-boxes", str(sim / "gt_boxes.jsonl"), "--out", str(oracle)]) == 0
            seen = {
                (path.parent.name, int(path.stem))
                for path in (sim / "masks" / "scene_000").rglob("*.rle") if read_mask(path).any()
            }
            gt = read_tracks(sim / "gt_boxes.jsonl")
            assert {(query, frame) for (_, query), track in gt.items() for frame in track} == seen
            assert (oracle / "tracks.jsonl").read_bytes() == (sim / "gt_boxes.jsonl").read_bytes()

    def test_oracle_on_clean_proposals_of_a_sliver_is_the_ground_truth(self, tmp_path):
        # Frame 2 cuts the object to a 2 x 1 sliver at the top edge.
        scene, corrupt = tmp_path / "scene.txt", tmp_path / "corrupt.txt"
        scene.write_text("width = 8\nheight = 8\nnum_frames = 2\n"
                         "object1.box = 0 0 2 2\nobject1.motion = 1 0 0 0 1 -0.5\n")
        corrupt.write_text(CLEAN_CORRUPTION)
        sim, oracle = tmp_path / "sim", tmp_path / "oracle"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                         "--out", str(sim)]) == 0
        assert main(["oracle", "--proposals", str(sim / "proposals.jsonl"),
                     "--gt-boxes", str(sim / "gt_boxes.jsonl"), "--out", str(oracle)]) == 0
        assert read_tracks(sim / "gt_boxes.jsonl")[("scene_000", "1")][2] == Box(0, 0, 2, 1)
        assert (oracle / "tracks.jsonl").read_bytes() == (sim / "gt_boxes.jsonl").read_bytes()

    def test_oracle_grounding_assigns_best_overlap(self, tmp_path):
        proposals = tmp_path / "proposals.jsonl"
        write_jsonl(proposals, TOY_PROPOSALS)
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("vid", "q"): {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }})
        out = tmp_path / "out"
        assert main([
            "oracle", "--proposals", str(proposals), "--gt-boxes", str(gt), "--out", str(out),
        ]) == 0
        tracks = read_tracks(out / "tracks.jsonl")
        assert tracks[("vid", "q")] == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }

    def test_oracle_grounding_non_finite_overlap_is_a_data_error(self, tmp_path, capsys, recwarn):
        # x + w overflows, so the ground-truth IoU of the identical box is NaN.
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video": "v", "query": "1", "frame": 1,
                          "x": 1e308, "y": 0, "w": 1e308, "h": 5}])
        proposals = tmp_path / "props.jsonl"
        write_jsonl(proposals, [
            {"video": "v", "query": "1", "frame": 1, "id": 0, "x": 1e308, "y": 0,
             "w": 1e308, "h": 5, "score": 0.5, "objectness": 0.5},
            {"video": "v", "query": "1", "frame": 1, "id": 1, "x": 0, "y": 0,
             "w": 5, "h": 5, "score": 0.5, "objectness": 0.5},
        ])
        out = tmp_path / "out"
        assert main([
            "oracle", "--proposals", str(proposals), "--gt-boxes", str(gt), "--out", str(out),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {proposals} vs {gt}: v/1: ground-truth IoU is not finite in frame 1, id 0\n"
        )
        assert captured.out == ""
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()

    def test_oracle_grounding_requires_proposals(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "q"): {1: Box(0, 0, 2, 2)}})
        assert main(["oracle", "--gt-boxes", str(gt), "--out", str(tmp_path / "o")]) == 1

    def test_oracle_flag_is_a_usage_error(self, tmp_path, toy_proposals_file, capsys):
        # oracle has one mode and takes no --oracle flag.
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("vid", "q"): {1: Box(0, 0, 10, 10), 2: Box(20, 0, 10, 10)}})
        out = tmp_path / "out"
        assert main([
            "oracle", "--oracle", "grounding", "--proposals", str(toy_proposals_file),
            "--gt-boxes", str(gt), "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert "usage error: unrecognized arguments: --oracle grounding" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_reranked_tracks_score_at_least_raw(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC.replace("num_frames = 6", "num_frames = 20"))
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(
            "distractors_per_frame = 3\nscore_noise_sd = 0.05\n"
            "id_switch_prob = 0.4\nbox_jitter_fraction = 0.1\nseed = 23\n"
        )
        sim = tmp_path / "sim"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(sim), "--scenes", "4"]) == 0
        rr = tmp_path / "rr"
        assert main(["rerank", "--proposals", str(sim / "proposals.jsonl"),
                     "--out", str(rr), "--raw"]) == 0
        scores = {}
        for name in ("tracks", "raw_tracks"):
            out = tmp_path / f"report_{name}"
            assert main([
                "eval", "--pred-tracks", str(rr / f"{name}.jsonl"),
                "--gt-boxes", str(sim / "gt_boxes.jsonl"), "--out", str(out),
            ]) == 0
            scores[name] = read_report(out)["aggregate"]["track_miou"]
        assert scores["tracks"] >= scores["raw_tracks"]


class TestPerKeyErrors:
    """A command that holds a (video, query) key names it in that key's error."""

    @settings(max_examples=50, deadline=None)
    @given(inputs=poisoned_inputs())
    def test_rerank_and_grounding_oracle_name_the_failing_key(self, inputs):
        proposal_lines, gt_lines, (video, query), frame = inputs
        with tempfile.TemporaryDirectory() as tmp:
            proposals, gt, out = Path(tmp, "p.jsonl"), Path(tmp, "gt.jsonl"), Path(tmp, "out")
            write_jsonl(proposals, proposal_lines)
            write_jsonl(gt, gt_lines)
            runs = [
                (["rerank", "--proposals", str(proposals), "--raw"],
                 f"error: {proposals}: {video}/{query}: "
                 f"source weight objectness x score is not finite in frame {frame}, id 0\n"),
                (["oracle", "--proposals", str(proposals), "--gt-boxes", str(gt)],
                 f"error: {proposals} vs {gt}: {video}/{query}: "
                 f"ground-truth IoU is not finite in frame {frame}, id 0\n"),
            ]
            for argv, message in runs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert main([*argv, "--out", str(out)]) == 2
                assert err.getvalue() == message
                assert not out.exists()


class TestJitterCommand:
    def test_zero_fraction_reproduces_input(self, tmp_path):
        boxes = tmp_path / "boxes.jsonl"
        write_tracks(boxes, {("v", "1"): {
            1: Box(4.0, 6.0, 10.0, 8.0), 2: Box(6.0, 6.0, 10.0, 8.0),
        }})
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(boxes), "--fraction", "0",
            "--width", "48", "--height", "32", "--out", str(out),
        ]) == 0
        assert (out / "jittered.jsonl").read_bytes() == boxes.read_bytes()

    def test_jitter_moves_boxes_within_bounds(self, tmp_path):
        boxes = tmp_path / "boxes.jsonl"
        write_tracks(boxes, {("v", "1"): {
            f: Box(4.0, 6.0, 10.0, 8.0) for f in range(1, 30)
        }})
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(boxes), "--fraction", "0.2",
            "--width", "48", "--height", "32", "--out", str(out), "--seed", "9",
        ]) == 0
        jittered = read_tracks(out / "jittered.jsonl")[("v", "1")]
        moved = sum(1 for f, b in jittered.items() if b != Box(4.0, 6.0, 10.0, 8.0))
        assert moved > 20
        for box in jittered.values():
            assert box.x >= 0 and box.y >= 0
            assert box.x + box.w <= 48 and box.y + box.h <= 32

    def test_underflowing_box_names_its_source(self, tmp_path, capsys):
        # A frame this small forces 1e-300-sided boxes, whose area is 0.
        boxes = tmp_path / "gt.jsonl"
        write_tracks(boxes, {("v", "1"): {1: Box(4.0, 6.0, 10.0, 8.0)}})
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(boxes), "--fraction", "0.1",
            "--width", "1e-300", "--height", "1e-300", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {boxes}: v/1, frame 1: box area w * h is 0, got w=1e-300, h=1e-300\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--fraction", "nan", "must be finite and >= 0, got nan"),
        ("--fraction", "inf", "must be finite and >= 0, got inf"),
        ("--fraction", "-1", "must be finite and >= 0, got -1.0"),
        ("--fraction", "x", "invalid float value: 'x'"),
        ("--width", "-5", "must be finite and > 0, got -5.0"),
        ("--width", "0", "must be finite and > 0, got 0.0"),
        ("--width", "inf", "must be finite and > 0, got inf"),
        ("--height", "nan", "must be finite and > 0, got nan"),
    ])
    def test_bad_flag_is_a_usage_error_before_reading(self, tmp_path, capsys, flag, value, message):
        flags = {"--fraction": "0.1", "--width": "48", "--height": "32", flag: value}
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(tmp_path / "missing.jsonl"), "--out", str(out),
            *(item for pair in flags.items() for item in pair),
        ]) == 1
        assert f"usage error: argument {flag}: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommand:
    def test_bundled_corpus_summary(self, tmp_path, capsys):
        out = tmp_path / "stats"
        assert main(["stats", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "group/first_frame/count = 12" in stdout
        assert "group/full_video/count = 12" in stdout
        attrs = (out / "attributes.jsonl").read_text().splitlines()
        assert len(attrs) == 24
        parsed = json.loads(attrs[0])
        assert {"video", "object", "annotator", "length_bin"} <= parsed.keys()

    def test_stats_json_matches_text(self, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--out", str(out)]) == 0
        document = json.loads((out / "stats.json").read_text())
        text = (out / "stats.txt").read_text()
        mean = document["groups"]["first_frame"]["mean_length"]
        assert f"group/first_frame/mean_length = {mean:.4f}" in text

    def test_lexicons_dir_is_read_like_the_bundled_lists(self, tmp_path):
        # The bundled words with a comment, a blank line and a capital give
        # the same bytes as the bundled lists themselves.
        data = Path(trackref.__file__).parent / "data"
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        spatial = (data / "spatial_words.txt").read_text()
        (lexicons / "spatial_words.txt").write_text(
            "# where the object is\n\n" + spatial.replace("left\n", "Left  # the usual one\n", 1)
        )
        (lexicons / "verb_words.txt").write_text((data / "verb_words.txt").read_text().upper())
        outputs = []
        for name, extra in (("bundled", []), ("dir", ["--lexicons", str(lexicons)])):
            out = tmp_path / name
            assert main(["stats", "--out", str(out), *extra]) == 0
            outputs.append([
                (out / file).read_bytes()
                for file in ("stats.txt", "stats.json", "attributes.jsonl")
            ])
        assert outputs[0] == outputs[1]

    def test_lexicons_dir_replaces_the_bundled_lists(self, tmp_path, capsys):
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        (lexicons / "spatial_words.txt").write_text("zzz\n")
        (lexicons / "verb_words.txt").write_text("walking\n")
        assert main(["stats", "--lexicons", str(lexicons)]) == 0
        stdout = capsys.readouterr().out
        assert "group/first_frame/spatial_fraction = 0.0000" in stdout
        assert "group/full_video/spatial_fraction = 0.0000" in stdout

    @pytest.mark.parametrize("content", ["", "\n# only a comment\n"])
    def test_empty_lexicon_names_its_file(self, tmp_path, capsys, content):
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        (lexicons / "spatial_words.txt").write_text(content)
        (lexicons / "verb_words.txt").write_text("walking\n")
        out = tmp_path / "stats"
        assert main(["stats", "--lexicons", str(lexicons), "--out", str(out)]) == 2
        path = lexicons / "spatial_words.txt"
        assert capsys.readouterr().err == f"error: {path}: spatial_words lexicon is empty\n"
        assert not out.exists()

    def test_lexicon_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        (lexicons / "spatial_words.txt").write_text("left\n")
        (lexicons / "verb_words.txt").write_bytes(b"walking\n\xff\n")
        assert main(["stats", "--lexicons", str(lexicons)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {lexicons / 'verb_words.txt'}: ")


# Each command's argv after the subcommand, given the input directory and --out,
# and the files it writes there.
_OUTPUT_COMMANDS = {
    "rerank": (lambda d, out: ["--proposals", str(d / "sim" / "proposals.jsonl"),
                               "--out", str(out), "--raw"],
               ["tracks.jsonl", "scores.jsonl", "raw_tracks.jsonl"]),
    "eval": (lambda d, out: ["--pred-tracks", str(d / "sim" / "gt_boxes.jsonl"),
                             "--gt-boxes", str(d / "sim" / "gt_boxes.jsonl"), "--out", str(out)],
             ["report.txt", "report.json"]),
    "jitter": (lambda d, out: ["--gt-boxes", str(d / "sim" / "gt_boxes.jsonl"),
                               "--fraction", "0.1", "--width", "48", "--height", "32",
                               "--out", str(out)],
               ["jittered.jsonl"]),
    "stats": (lambda d, out: ["--out", str(out)],
              ["stats.txt", "stats.json", "attributes.jsonl"]),
    "oracle": (lambda d, out: ["--proposals", str(d / "sim" / "proposals.jsonl"),
                               "--gt-boxes", str(d / "sim" / "gt_boxes.jsonl"), "--out", str(out)],
               ["tracks.jsonl"]),
    "simulate": (lambda d, out: ["--scene", str(d / "scene.txt"),
                                 "--corrupt", str(d / "corrupt.txt"), "--out", str(out)],
                 ["gt_boxes.jsonl", "proposals.jsonl", "MANIFEST.txt"]),
}


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    """Scene and corruption specs, and one simulated run of them under ``sim``."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "scene.txt").write_text(SCENE_SPEC)
    (root / "corrupt.txt").write_text(CLEAN_CORRUPTION)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *_OUTPUT_COMMANDS["simulate"][0](root, root / "sim")]) == 0
    return root


@st.composite
def blocked_runs(draw):
    """A command that writes an existing --out, files that an earlier run left
    there, and one of its output paths blocked: a directory where a file goes,
    or a file where a directory goes."""
    command = draw(st.sampled_from(sorted(_OUTPUT_COMMANDS)))
    extra, files, dirs = [], list(_OUTPUT_COMMANDS[command][1]), []
    if command == "simulate":
        scenes, mask_format = draw(st.integers(1, 3)), draw(st.sampled_from(["rle", "pbm"]))
        extra = ["--scenes", str(scenes), "--mask-format", mask_format]
        scene = f"masks/scene_{draw(st.integers(0, scenes - 1)):03d}"
        files.append(f"{scene}/1/00002.{mask_format}")
        dirs = ["masks", scene, f"{scene}/1"]
    blocked, kind = draw(st.sampled_from(
        [(name, "dir") for name in files] + [(name, "file") for name in dirs]
    ))
    earlier = draw(st.dictionaries(
        st.sampled_from(["notes.txt", "old/run.log", *files]), st.binary(max_size=8), max_size=3
    ))
    earlier = {
        name: data for name, data in earlier.items()
        if not (name == blocked or name.startswith(f"{blocked}/"))
    }
    return command, extra, blocked, kind, earlier


def tree_state(root):
    """Every path under ``root``, hidden ones included, mapped to its bytes or "dir"."""
    return {
        str(p.relative_to(root)): "dir" if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


class TestOutputDirectory:
    """A failed run leaves --out as it was; a missing --out is removed again."""

    @settings(max_examples=30, deadline=None)
    @given(run=blocked_runs())
    def test_a_blocked_output_leaves_an_existing_out_as_it_was(self, pipeline_inputs, run):
        command, extra, blocked, kind, earlier = run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            out.mkdir()
            for name, data in earlier.items():
                (out / name).parent.mkdir(parents=True, exist_ok=True)
                (out / name).write_bytes(data)
            target = out / blocked
            if kind == "dir":
                target.mkdir(parents=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(b"in the way")
            before = tree_state(out)
            argv = [command, *_OUTPUT_COMMANDS[command][0](pipeline_inputs, out), *extra]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert err.getvalue().startswith("error: ") and str(target) in err.getvalue()
            assert tree_state(out) == before
            assert not list(out.rglob(".trackref-*"))

    @pytest.mark.parametrize("module, name, command", [
        (trackref.rerank, "write_scores", "rerank"),
        (trackref.cli, "write_mask", "simulate"),
    ])
    def test_a_failed_write_removes_a_missing_out(
        self, pipeline_inputs, tmp_path, monkeypatch, capsys, module, name, command
    ):
        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(module, name, fail)
        out = tmp_path / "a" / "b" / "out"
        assert main([command, *_OUTPUT_COMMANDS[command][0](pipeline_inputs, out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, blocked", [("stats", "stats.json"), ("eval", "report.json")])
    def test_a_failed_report_write_prints_nothing(
        self, pipeline_inputs, tmp_path, capsys, command, blocked
    ):
        out = tmp_path / "st"
        (out / blocked).mkdir(parents=True)
        before = tree_state(out)
        assert main([command, *_OUTPUT_COMMANDS[command][0](pipeline_inputs, out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {out / blocked}: a file and a directory clash\n"
        )
        assert tree_state(out) == before

    def test_stats_into_the_current_directory_twice(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["stats", "--out", "."]) == 0
        first = tree_state(tmp_path)
        assert main(["stats", "--out", "."]) == 0
        assert tree_state(tmp_path) == first
        assert sorted(first) == ["attributes.jsonl", "stats.json", "stats.txt"]

    def test_rerun_into_an_existing_out_keeps_the_hard_links(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", *_OUTPUT_COMMANDS["simulate"][0](pipeline_inputs, out),
                "--scenes", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            (out / "notes.txt").write_text("kept")
            assert main(argv) == 0
        assert (out / "notes.txt").read_text() == "kept"
        first = out / "masks" / "scene_000" / "1"
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 6
        for name in names:
            inode = (first / name).stat().st_ino
            for scene_dir in ("scene_001", "scene_002"):
                assert (out / "masks" / scene_dir / "1" / name).stat().st_ino == inode

    def test_messages_name_out_and_not_the_staging_directory(
        self, pipeline_inputs, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = ["rerank", *_OUTPUT_COMMANDS["rerank"][0](pipeline_inputs, out)]
        for _ in range(2):  # into a missing --out, then into the existing one
            assert main(argv) == 0
            assert capsys.readouterr().err == f"reranked 1 (video, query) pairs into {out}\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(_OUTPUT_COMMANDS["rerank"][1])


def traced_peak(argv):
    """The ``tracemalloc`` peak, in bytes, of ``main(argv)``, which must succeed."""
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestMemory:
    """``simulate`` holds one mask at a time, and ``eval`` two frames of each tree.

    Each pair of runs follows an untraced warm-up run, so that one-time
    allocations count in neither.  The masks are 256x256, one byte a pixel.
    """

    MASK_BYTES = 256 * 256

    def test_simulate_peak_does_not_grow_with_frames(self, tmp_path):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)

        def argv(frames, out):
            scene = tmp_path / f"scene_{frames}.txt"
            scene.write_text(
                f"width = 256\nheight = 256\nnum_frames = {frames}\n"
                "object1.box = 8 8 64 64\nobject1.motion = 1 0 2 0 1 1\n"
            )
            return ["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                    "--out", str(tmp_path / out)]

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv(10, "warm-up")) == 0
        short, long = traced_peak(argv(10, "short")), traced_peak(argv(40, "long"))
        assert abs(long - short) < 2 * self.MASK_BYTES

    def test_eval_peak_does_not_grow_with_keys(self, tmp_path):
        mask = rasterize_box(Box(8, 8, 64, 64), 256, 256)
        for keys in (1, 4):
            for query in range(1, keys + 1):
                write_mask_tree(tmp_path / str(keys), ("v", str(query)), range(1, 11), mask)

        def argv(keys, out):
            tree = str(tmp_path / str(keys))
            return ["eval", "--pred-masks", tree, "--gt-masks", tree, "--out", str(tmp_path / out)]

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv(1, "warm-up")) == 0
        one, four = traced_peak(argv(1, "one")), traced_peak(argv(4, "four"))
        assert abs(four - one) < 2 * 10 * self.MASK_BYTES  # one key's masks in both trees


    def test_eval_holds_at_most_two_frames_of_each_tree(self, tmp_path, monkeypatch):
        # Each decoded array, or the array owning its memory, is counted from
        # read_mask's return until it is freed: the parent held all 12 frames.
        mask = rasterize_box(Box(8, 8, 64, 64), 256, 256)
        for tree in ("pred", "gt"):
            write_mask_tree(tmp_path / tree, ("v", "1"), range(1, 13), mask)
        alive, peak = Counter(), Counter()

        def freed(tree):
            alive[tree] -= 1

        def tracked_read_mask(path):
            decoded = read_mask(path)
            owner = decoded
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            tree = Path(path).relative_to(tmp_path).parts[0]
            alive[tree] += 1
            peak[tree] = max(peak[tree], alive[tree])
            weakref.finalize(owner, freed, tree)
            return decoded

        monkeypatch.setattr(trackref.cli, "read_mask", tracked_read_mask)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--pred-masks", str(tmp_path / "pred"),
                         "--gt-masks", str(tmp_path / "gt")]) == 0
        assert peak == {"pred": 2, "gt": 2}
        assert alive == {"pred": 0, "gt": 0}


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["rerank"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("flag", ["--window", "--top-k"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_rerank_rejects_non_positive_window_and_top_k(
        self, tmp_path, toy_proposals_file, capsys, flag, value
    ):
        out = tmp_path / "out"
        assert main([
            "rerank", "--proposals", str(toy_proposals_file), "--out", str(out), flag, value,
        ]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    # oracle takes none of these options, whatever the value.
    @pytest.mark.parametrize("flag", ["--window", "--top-k", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-2", "1"])
    def test_oracle_rejects_non_positive_window_and_top_k(
        self, tmp_path, toy_proposals_file, capsys, flag, value
    ):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("vid", "q"): {1: Box(0, 0, 4, 4), 2: Box(1, 0, 4, 4)}})
        out = tmp_path / "out"
        assert main([
            "oracle", "--proposals", str(toy_proposals_file), "--gt-boxes", str(gt),
            "--out", str(out), flag, value,
        ]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_negative_f_tolerance(self, tmp_path, capsys):
        mask = rasterize_box(Box(2, 2, 5, 4), 12, 10)
        write_mask_tree(tmp_path / "gt", ("v", "1"), [1], mask)
        out = tmp_path / "report"
        assert main([
            "eval", "--pred-masks", str(tmp_path / "gt"), "--gt-masks", str(tmp_path / "gt"),
            "--f-tol", "-1", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert "usage error: argument --f-tol: must be >= 0, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_simulate_rejects_non_positive_scenes_before_reading(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main([
            "simulate", "--scene", str(tmp_path / "missing.txt"),
            "--corrupt", str(tmp_path / "missing.txt"), "--out", str(out), "--scenes", value,
        ]) == 1
        message = f"usage error: argument --scenes: must be >= 1, got {value}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("module", ["trackref", "trackref.cli"])
    def test_runs_as_module(self, module):
        done = run_with_src(["-m", module, "rerank"])
        assert done.returncode == 1
        assert "usage error" in done.stderr


class TestNumpyOnlyRuntime:
    """The package runs on numpy alone; scipy is a test-only dependency."""

    def test_cli_import_loads_no_scipy(self):
        done = run_with_src(["-c", (
            "import sys, trackref.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )])
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_mask_pipeline_runs_with_scipy_blocked(self, tmp_path):
        (tmp_path / "scene.txt").write_text(SCENE_SPEC)
        (tmp_path / "corrupt.txt").write_text(CLEAN_CORRUPTION)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "import trackref\n"
            "from trackref.cli import main\n"
            "assert main(['simulate', '--scene', 'scene.txt', '--corrupt', 'corrupt.txt',\n"
            "             '--out', 'sim', '--mask-format', 'pbm']) == 0\n"
            "assert main(['eval', '--pred-masks', 'sim/masks', '--gt-masks', 'sim/masks',\n"
            "             '--out', 'report']) == 0\n"
        )
        done = run_with_src(["-c", script], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert read_report(tmp_path / "report")["aggregate"]["jf"] == 1.0
