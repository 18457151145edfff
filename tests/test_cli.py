import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trackref

from trackref.cli import main
from trackref.geometry import Box, rasterize_box, write_mask
from trackref.rerank import Track, read_tracks, write_tracks

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


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def write_mask_tree(root, key, frames, mask):
    directory = root / key[0] / key[1]
    directory.mkdir(parents=True)
    for frame in frames:
        write_mask(directory / f"{frame:05d}.rle", mask)


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


class TestRerankCommand:
    def test_selects_consistent_tube(self, tmp_path, toy_proposals_file):
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(toy_proposals_file), "--out", str(out)]) == 0
        tracks = read_tracks(out / "tracks.jsonl")
        assert tracks[("vid", "q")].entries == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }
        scores = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert len(scores) == 4
        assert all("new_score" in record for record in scores)

    def test_raw_flag_writes_baseline(self, tmp_path, toy_proposals_file):
        out = tmp_path / "out"
        assert main([
            "rerank", "--proposals", str(toy_proposals_file), "--out", str(out), "--raw",
        ]) == 0
        baseline = read_tracks(out / "raw_tracks.jsonl")
        assert baseline[("vid", "q")].entries == {
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
        assert tracks[("vid", "q")].entries == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }

    @pytest.mark.parametrize("first, second, message", [
        # objectness x score overflows to infinity
        ({}, {"score": 1e200, "objectness": 1e200},
         "source weight objectness x score is not finite in vid/q, frame 2, id 0"),
        # finite weights, but score x support overflows
        ({"score": 1e200, "objectness": 0.5}, {"score": 1e200, "objectness": 0.5},
         "re-ranked score is not finite in vid/q, frame 1, id 0"),
    ])
    def test_non_finite_new_score_is_a_data_error(self, tmp_path, capsys, first, second, message):
        path = tmp_path / "proposals.jsonl"
        write_jsonl(path, [dict(TOY_PROPOSALS[0], **first), dict(TOY_PROPOSALS[2], **second)])
        out = tmp_path / "out"
        assert main(["rerank", "--proposals", str(path), "--out", str(out), "--raw"]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_perfect_boxes(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        tracks = {
            ("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4), 2: Box(1, 0, 4, 4)}),
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
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4)})})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {("v", "1"): Track("v", "1", {1: Box(2, 0, 4, 4)})})
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
            ("v", "1"): Track("v", "1", {1: Box(0, 0, 10, 10)}),
            ("v", "2"): Track("v", "2", {1: Box(0, 0, 10, 10)}),
        })
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "1"): Track("v", "1", {1: Box(0, 0, 10, 10)}),
            ("v", "2"): Track("v", "2", {1: Box(5, 0, 10, 10)}),
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
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4)})})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {("v", "2"): Track("v", "2", {1: Box(0, 0, 4, 4)})})
        code = main(["eval", "--pred-tracks", str(pred), "--gt-boxes", str(gt)])
        assert code == 2
        assert "v/2" in capsys.readouterr().err

    def test_attrs_breakdown(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {
            ("v", "1"): Track("v", "1", {1: Box(0, 0, 10, 10)}),
            ("v", "2"): Track("v", "2", {1: Box(0, 0, 10, 10)}),
        })
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "1"): Track("v", "1", {1: Box(0, 0, 10, 10)}),
            ("v", "2"): Track("v", "2", {1: Box(90, 90, 10, 10)}),
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

    def test_usage_error_on_half_specified_inputs(self, tmp_path):
        assert main(["eval", "--pred-tracks", str(tmp_path / "x.jsonl")]) == 1
        assert main(["eval"]) == 1

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
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4)})})
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
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4)})})
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
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4)})})
        pred = tmp_path / "pred.jsonl"
        write_tracks(pred, {
            ("v", "2"): Track("v", "2", {1: Box(0, 0, 4, 4)}),
            ("w", "1"): Track("w", "1", {1: Box(0, 0, 4, 4)}),
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
        write_tracks(gt, {("vid", "other"): Track("vid", "other", {1: Box(0, 0, 4, 4)})})
        out = tmp_path / "out"
        self._expect_abort(capsys, [
            "oracle", "--oracle", "grounding", "--proposals", str(proposals),
            "--gt-boxes", str(gt), "--out", str(out),
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

    def test_invalid_spec_key_aborts(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC + "warp = yes\n")
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)
        code = main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "warp" in capsys.readouterr().err

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
    def test_oracle_boxes_recovers_ground_truth(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_SPEC)
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(CLEAN_CORRUPTION)
        sim = tmp_path / "sim"
        assert main(["simulate", "--scene", str(scene), "--corrupt", str(corrupt),
                     "--out", str(sim)]) == 0
        oracle_out = tmp_path / "oracle"
        assert main([
            "oracle", "--oracle", "boxes", "--gt-boxes", str(sim / "gt_boxes.jsonl"),
            "--out", str(oracle_out),
        ]) == 0
        report_out = tmp_path / "report"
        assert main([
            "eval", "--pred-tracks", str(oracle_out / "tracks.jsonl"),
            "--gt-boxes", str(sim / "gt_boxes.jsonl"), "--out", str(report_out),
        ]) == 0
        assert read_report(report_out)["aggregate"]["track_miou"] == 1.0

    def test_oracle_boxes_non_finite_new_score_is_a_data_error(self, tmp_path, capsys):
        # x + w overflows, so the IoU of the two boxes is NaN.
        gt = tmp_path / "gt.jsonl"
        box = Box(1e308, 0, 1e308, 10)
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: box, 2: box})})
        out = tmp_path / "out"
        assert main(["oracle", "--oracle", "boxes", "--gt-boxes", str(gt), "--out", str(out)]) == 2
        assert f"error: {gt}: re-ranked score is not finite in v/1" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_grounding_assigns_best_overlap(self, tmp_path):
        proposals = tmp_path / "proposals.jsonl"
        write_jsonl(proposals, TOY_PROPOSALS)
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("vid", "q"): Track("vid", "q", {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        })})
        out = tmp_path / "out"
        assert main([
            "oracle", "--oracle", "grounding", "--proposals", str(proposals),
            "--gt-boxes", str(gt), "--out", str(out),
        ]) == 0
        tracks = read_tracks(out / "tracks.jsonl")
        assert tracks[("vid", "q")].entries == {
            1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10),
        }

    def test_oracle_grounding_requires_proposals(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "q"): Track("v", "q", {1: Box(0, 0, 2, 2)})})
        assert main([
            "oracle", "--oracle", "grounding", "--gt-boxes", str(gt),
            "--out", str(tmp_path / "o"),
        ]) == 1

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


class TestJitterCommand:
    def test_zero_fraction_reproduces_input(self, tmp_path):
        boxes = tmp_path / "boxes.jsonl"
        write_tracks(boxes, {("v", "1"): Track("v", "1", {
            1: Box(4.0, 6.0, 10.0, 8.0), 2: Box(6.0, 6.0, 10.0, 8.0),
        })})
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(boxes), "--fraction", "0",
            "--width", "48", "--height", "32", "--out", str(out),
        ]) == 0
        assert (out / "jittered.jsonl").read_bytes() == boxes.read_bytes()

    def test_jitter_moves_boxes_within_bounds(self, tmp_path):
        boxes = tmp_path / "boxes.jsonl"
        write_tracks(boxes, {("v", "1"): Track("v", "1", {
            f: Box(4.0, 6.0, 10.0, 8.0) for f in range(1, 30)
        })})
        out = tmp_path / "out"
        assert main([
            "jitter", "--gt-boxes", str(boxes), "--fraction", "0.2",
            "--width", "48", "--height", "32", "--out", str(out), "--seed", "9",
        ]) == 0
        jittered = read_tracks(out / "jittered.jsonl")[("v", "1")]
        moved = sum(1 for f, b in jittered.entries.items() if b != Box(4.0, 6.0, 10.0, 8.0))
        assert moved > 20
        for box in jittered.entries.values():
            assert box.x >= 0 and box.y >= 0
            assert box.x + box.w <= 48 and box.y + box.h <= 32


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

    @pytest.mark.parametrize("flag", ["--window", "--top-k"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_oracle_rejects_non_positive_window_and_top_k(self, tmp_path, capsys, flag, value):
        gt = tmp_path / "gt.jsonl"
        write_tracks(gt, {("v", "1"): Track("v", "1", {1: Box(0, 0, 4, 4), 2: Box(1, 0, 4, 4)})})
        out = tmp_path / "out"
        assert main([
            "oracle", "--oracle", "boxes", "--gt-boxes", str(gt), "--out", str(out), flag, value,
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
