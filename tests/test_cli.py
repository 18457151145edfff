import json
import os
import subprocess
import sys
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

    @pytest.mark.parametrize("module", ["trackref", "trackref.cli"])
    def test_runs_as_module(self, module):
        src = str(Path(trackref.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", module, "rerank"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert "usage error" in done.stderr
