"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
live); stated runtime budgets are asserted with ``time.perf_counter``.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

from test_rerank import brute_force_scores, random_instance

from trackref.cli import main
from trackref.geometry import (
    AffineTransform,
    Box,
    box_iou,
    empty_mask,
    mask_iou,
    pbm_dumps,
    pbm_loads,
    rasterize_box,
    read_mask,
    rle_dumps,
    rle_loads,
    write_mask,
)
from trackref.metrics import (
    auc_success,
    boundary_f,
    series_stats,
    track_miou,
)
from trackref.rerank import (
    Proposal,
    VideoProposals,
    raw_select,
    rerank_scores,
    select_track,
)
from trackref.rng import SplitRng
from trackref.simulate import (
    CorruptionSpec,
    ObjectSpec,
    SceneSpec,
    flow_magnitude_image,
    generate_proposals,
    generate_scene,
    jitter_box,
)
from trackref.expressions import Lexicons, QueryRecord, tag_query


@contextmanager
def criterion(index: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {index:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {index:02d}] {name}: PASS")


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_01_oracle_anchor(tmp_path):
    with criterion(1, "oracle anchor: ground-truth proposals score a perfect mIoU"):
        gt_lines = []
        proposal_lines = []
        for v in range(10):
            spec = SceneSpec(
                width=64, height=48, num_frames=20,
                objects=(ObjectSpec(
                    Box(6 + v, 8, 14, 10),
                    AffineTransform.translation(1.0 if v % 2 else -0.25, 0.25),
                ),),
            )
            boxes = generate_scene(spec, lambda *_: None)
            for frame, box in sorted(boxes[1].items()):
                base = {
                    "video": f"video_{v:02d}", "query": "1", "frame": frame,
                    "x": box.x, "y": box.y, "w": box.w, "h": box.h,
                }
                gt_lines.append(base)
                proposal_lines.append(dict(base, score=1.0, objectness=1.0, id=0))
        gt_path = tmp_path / "gt_boxes.jsonl"
        _write_jsonl(gt_path, gt_lines)
        proposals_path = tmp_path / "proposals.jsonl"
        _write_jsonl(proposals_path, proposal_lines)

        started = time.perf_counter()
        assert main([
            "rerank", "--proposals", str(proposals_path), "--out", str(tmp_path / "rr"),
        ]) == 0
        assert main([
            "eval", "--pred-tracks", str(tmp_path / "rr" / "tracks.jsonl"),
            "--gt-boxes", str(gt_path), "--out", str(tmp_path / "report"),
        ]) == 0
        elapsed = time.perf_counter() - started

        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["aggregate"]["track_miou"] == 1.0  # 100.00 on the percent scale
        assert all(q["track_miou"] == 1.0 for q in report["queries"].values())
        assert report["box_query_count"] == 10
        assert elapsed < 1.0, f"oracle anchor took {elapsed:.2f}s"


def test_02_formula_golden():
    with criterion(2, "two-frame golden scores and tube selection"):
        p1 = Proposal(1, Box(0, 0, 10, 10), 0.9, 0.8, 0)
        p2 = Proposal(1, Box(20, 0, 10, 10), 0.5, 0.9, 1)
        p3 = Proposal(2, Box(0, 0, 10, 10), 0.4, 0.8, 0)
        p4 = Proposal(2, Box(20, 0, 10, 10), 0.8, 0.9, 1)
        vp = VideoProposals.from_proposals([p1, p2, p3, p4])
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
        tube = select_track(scored)
        assert tube == {1: p2.box, 2: p4.box}
        baseline = raw_select(vp)
        assert baseline == {1: p1.box, 2: p4.box}


def test_03_brute_force_equivalence():
    with criterion(3, "re-ranking matches the brute-force oracle on 200 instances"):
        started = time.perf_counter()
        rng = SplitRng(2024, "acceptance")
        checked = 0
        for index in range(200):
            vp = random_instance(rng.child(index), max_frames=10, max_per_frame=8)
            scored = rerank_scores(vp)
            oracle = brute_force_scores(vp)
            for frame, sps in scored.items():
                for sp in sps:
                    assert abs(
                        sp.new_score - oracle[(frame, sp.proposal.proposal_id)]
                    ) <= 1e-12
                    checked += 1
        elapsed = time.perf_counter() - started
        assert checked > 1000
        assert elapsed < 5.0, f"equivalence sweep took {elapsed:.2f}s"


def test_04_coherence_improvement():
    with criterion(4, "re-ranking beats raw selection across 100 simulated scenes"):
        started = time.perf_counter()
        directions = [(-1.0, 0.3), (1.0, -0.3), (0.5, 0.3), (-0.5, -0.3)]
        wins = 0
        reranked_means = []
        raw_means = []
        for index in range(100):
            dx, dy = directions[index % len(directions)]
            spec = SceneSpec(
                width=96, height=64, num_frames=30,
                objects=(ObjectSpec(
                    Box(38, 25, 20, 14), AffineTransform.translation(dx, dy)
                ),),
            )
            boxes = generate_scene(spec, lambda *_: None)
            corruption = CorruptionSpec(
                distractors_per_frame=3, score_noise_sd=0.05,
                id_switch_prob=0.3, box_jitter_fraction=0.1, seed=index,
            )
            vp = generate_proposals(spec, boxes, corruption)["1"]
            reranked = select_track(rerank_scores(vp))
            baseline = raw_select(vp)
            reranked_miou = track_miou(reranked, boxes[1])
            raw_miou = track_miou(baseline, boxes[1])
            reranked_means.append(reranked_miou)
            raw_means.append(raw_miou)
            if reranked_miou > raw_miou:
                wins += 1
        elapsed = time.perf_counter() - started
        assert fmean(reranked_means) > fmean(raw_means)
        assert wins >= 90, f"re-ranking won only {wins}/100 scenes"
        assert elapsed < 30.0, f"coherence sweep took {elapsed:.2f}s"


def test_05_metric_invariants():
    with criterion(5, "metric identities hold exactly"):
        shape = empty_mask(8, 8)
        shape[2:5, 2:5] = True
        assert mask_iou(shape, shape) == 1.0
        assert mask_iou(empty_mask(8, 8), empty_mask(8, 8)) == 1.0

        assert boundary_f(shape, shape) == 1.0
        far = empty_mask(16, 16)
        far[1:3, 1:3] = True
        apart = empty_mask(16, 16)
        apart[12:14, 12:14] = True
        assert boundary_f(far, apart, tolerance=1) == 0.0
        shifted = empty_mask(8, 8)
        shifted[3:6, 3:6] = True
        assert boundary_f(shifted, shape, tolerance=1) == 1.0

        assert series_stats([0.8, 0.8, 0.8, 0.8]).decay == 0.0
        assert series_stats([0.7] * 7).decay == 0.0
        assert series_stats([1, 1, 0, 0]).decay == 1.0

        assert auc_success([0.0, 0.0, 0.0]) == 0.0
        assert auc_success([1.0, 1.0, 1.0]) == 20 / 21


def test_06_codec_round_trips(tmp_path):
    with criterion(6, "mask codecs round-trip 1000 randomized masks bit-exactly"):
        rng = np.random.RandomState(608)
        for index in range(1000):
            height = rng.randint(1, 129)
            width = rng.randint(1, 129)
            density = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
            mask = rng.rand(height, width) < density
            assert np.array_equal(rle_loads(rle_dumps(mask)), mask)
            assert np.array_equal(pbm_loads(pbm_dumps(mask)), mask)
            if index % 20 == 0:
                for extension in (".pbm", ".rle"):
                    path = tmp_path / f"mask_{index}{extension}"
                    write_mask(path, mask)
                    assert np.array_equal(read_mask(path), mask)


def test_07_jitter_envelope():
    with criterion(7, "jitter offsets stay within the per-edge 20% envelope"):
        box = Box(10, 10, 100, 50)
        root = SplitRng(7701, "envelope")
        for draw in range(10_000):
            out = jitter_box(box, 0.2, root.child(draw), 200, 100)
            assert abs(out.x - box.x) <= 20.0
            assert abs((out.x + out.w) - (box.x + box.w)) <= 20.0
            assert abs(out.y - box.y) <= 10.0
            assert abs((out.y + out.h) - (box.y + box.h)) <= 10.0
        assert jitter_box(box, 0.0, SplitRng(1), 200, 100) == box


def test_08_flow_normalization_chain():
    with criterion(8, "median subtraction cancels uniform motion; output spans [0, 255]"):
        rng = np.random.RandomState(808)
        for _ in range(10):
            constant = rng.randn(2) * 20
            fwd = np.tile(constant, (9, 11, 1))
            bwd = np.tile(-constant * 0.5, (9, 11, 1))
            image = flow_magnitude_image(fwd, bwd)
            assert np.array_equal(image, np.zeros((9, 11)))
        for _ in range(20):
            fwd = rng.randn(8, 10, 2) * rng.uniform(0.1, 30)
            bwd = rng.randn(8, 10, 2) * rng.uniform(0.1, 30)
            image = flow_magnitude_image(fwd, bwd)
            assert image.min() >= 0.0
            assert image.max() <= 255.0


def test_09_expression_binning():
    with criterion(9, "token counts 1..20 map to exactly one length bin"):
        lexicons = Lexicons(
            spatial_words=frozenset({"left"}), verb_words=frozenset({"running"})
        )
        for count in range(1, 21):
            record = QueryRecord("v", "1", "a", "first_frame", " ".join(["word"] * count))
            attrs = tag_query(record, lexicons, 1)
            matches = [
                attrs.length_bin == "short" and count < 4,
                attrs.length_bin == "medium" and 4 <= count <= 6,
                attrs.length_bin == "long" and count > 6,
            ]
            assert sum(matches) == 1


SCENE_SPEC_TEXT = """
width = 64
height = 40
num_frames = 12
object1.box = 6 6 12 10
object1.motion = 1 0 1.5 0 1 0.5
object2.box = 40 20 14 12
object2.motion = 1 0 -1 0 1 0
"""

CORRUPTION_TEXT = """
distractors_per_frame = 2
score_noise_sd = 0.05
id_switch_prob = 0.3
box_jitter_fraction = 0.1
seed = 17
"""


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _run_pipeline(base: Path, jobs: int) -> dict[str, str]:
    base.mkdir(parents=True, exist_ok=True)
    scene = base / "scene.txt"
    scene.write_text(SCENE_SPEC_TEXT)
    corrupt = base / "corrupt.txt"
    corrupt.write_text(CORRUPTION_TEXT)
    sim = base / "sim"
    assert main([
        "simulate", "--scene", str(scene), "--corrupt", str(corrupt),
        "--out", str(sim), "--scenes", "3", "--seed", "5", "--jobs", str(jobs),
    ]) == 0
    rr = base / "rerank"
    assert main([
        "rerank", "--proposals", str(sim / "proposals.jsonl"),
        "--out", str(rr), "--raw", "--jobs", str(jobs),
    ]) == 0
    report = base / "report"
    assert main([
        "eval", "--pred-tracks", str(rr / "tracks.jsonl"),
        "--gt-boxes", str(sim / "gt_boxes.jsonl"),
        "--out", str(report), "--jobs", str(jobs),
    ]) == 0
    return {
        **{f"sim/{k}": v for k, v in _tree_digest(sim).items()},
        **{f"rerank/{k}": v for k, v in _tree_digest(rr).items()},
        **{f"report/{k}": v for k, v in _tree_digest(report).items()},
    }


def test_10_pipeline_determinism(tmp_path):
    with criterion(10, "simulate->rerank->eval is byte-identical across runs and jobs"):
        first = _run_pipeline(tmp_path / "serial_a", jobs=1)
        second = _run_pipeline(tmp_path / "serial_b", jobs=1)
        threaded = _run_pipeline(tmp_path / "threads", jobs=8)
        assert first == second
        assert first == threaded
        assert any(key.startswith("sim/masks/") for key in first)
