"""The benchmark's workloads: input files made from a seed, and CLI stages.

Every workload drives the real pipeline (simulate -> rerank -> eval) through
``trackref.cli.main`` with ``--jobs 1``.  The seed reaches the program only
through the spec files and flags written here, so the same seed gives the
same inputs.  The frame and scene counts are scaled down from the first
measured shapes (300 frames; 20 scenes; 120 frames) so that one pipeline pass
takes 2.5 to 3 seconds on a 2-core machine.  A run then repeats the pass
about ten times and reports medians.  Each workload keeps the layer balance
its description gives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 17

# The ROADMAP's two bench objects: one drifting right and down, one drifting
# left and down, both visible for every frame.
_ROADMAP_OBJECTS = {
    "object1.box": "20 20 40 30",
    "object1.motion": "1 0 1.0 0 1 0.5",
    "object2.box": "200 120 50 40",
    "object2.motion": "1 0 -0.5 0 1 0.2",
}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation; ``kind`` names the end-to-end metric it adds to."""

    kind: str  # "simulate" | "rerank" | "eval"
    label: str
    out: str  # output directory, relative to the run directory
    argv: tuple[str, ...]


@dataclass
class Workload:
    name: str
    stages: list[Stage]
    inputs: dict[str, str]
    # Outputs that must match digests.json on the default seed: the simulate
    # MANIFESTs and the mask-eval report, relative to the run directory.
    digested: tuple[str, ...]
    window: int | None = None
    top_k: int | None = None


def _spec(entries: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def _corruption(seed: int, distractors: int) -> str:
    return _spec({
        "distractors_per_frame": distractors,
        "score_noise_sd": 0.05,
        "id_switch_prob": 0.3,
        "box_jitter_fraction": 0.1,
        "seed": seed,
    })


def _simulate(label, scene, corrupt, out, seed, *extra) -> Stage:
    return Stage("simulate", label, out, (
        "simulate", "--scene", scene, "--corrupt", corrupt, "--out", out,
        "--seed", str(seed), "--jobs", "1", *extra,
    ))


def _rerank(*extra) -> Stage:
    # The output checks read these two paths.
    return Stage("rerank", "rerank", "tracks", (
        "rerank", "--proposals", "sim/proposals.jsonl", "--out", "tracks", "--raw",
        "--jobs", "1", *extra,
    ))


def _eval(label, out, *extra) -> Stage:
    return Stage("eval", label, out, ("eval", "--out", out, "--jobs", "1", *extra))


def tube_full(seed: int, scale: str) -> Workload:
    """One long scene re-ranked with the full double sum: rerank dominates."""
    frames = 140 if scale == "full" else 12
    distractors = 9 if scale == "full" else 3
    scene = _spec({"width": 320, "height": 240, "num_frames": frames, **_ROADMAP_OBJECTS})
    return Workload(
        name="tube-full",
        inputs={"scene.txt": scene, "corrupt.txt": _corruption(seed, distractors)},
        stages=[
            _simulate("simulate", "in/scene.txt", "in/corrupt.txt", "sim", seed),
            _rerank(),
            _eval("eval", "eval", "--pred-tracks", "tracks/tracks.jsonl",
                  "--gt-boxes", "sim/gt_boxes.jsonl"),
            _eval("eval-raw", "eval_raw", "--pred-tracks", "tracks/raw_tracks.jsonl",
                  "--gt-boxes", "sim/gt_boxes.jsonl"),
        ],
        digested=("sim/MANIFEST.txt",),
    )


def _attributes(seed: int, scenes: int) -> str:
    rng = random.Random(seed)
    lines = []
    for index in range(scenes):
        for query in ("1", "2"):
            lines.append(json.dumps({
                "video": f"scene_{index:03d}", "object": query,
                "is_coco": rng.random() < 0.5,
                "has_spatial": rng.random() < 0.5,
                "has_verb": rng.random() < 0.5,
                "length_bin": rng.choice(("short", "medium", "long")),
                "num_objects_bin": rng.choice(("1", "2-3", ">3")),
                "annotation_type": rng.choice(("first_frame", "full_video")),
            }))
    return "\n".join(lines) + "\n"


def many_short(seed: int, scale: str) -> Workload:
    """Many short scenes with 30 proposals per frame, windowed + top-k rerank.

    Compute is small here, so JSONL reading and writing and the simulator's
    key derivation carry the run.
    """
    scenes, frames, distractors = (5, 60, 29) if scale == "full" else (3, 10, 5)
    window, top_k = (5, 10) if scale == "full" else (3, 2)
    scene = _spec({"width": 320, "height": 240, "num_frames": frames, **_ROADMAP_OBJECTS})
    return Workload(
        name="many-short",
        inputs={
            "scene.txt": scene,
            "corrupt.txt": _corruption(seed, distractors),
            "attrs.jsonl": _attributes(seed, scenes),
        },
        stages=[
            _simulate("simulate", "in/scene.txt", "in/corrupt.txt", "sim", seed,
                      "--scenes", str(scenes)),
            _rerank("--window", str(window), "--top-k", str(top_k)),
            _eval("eval", "eval", "--pred-tracks", "tracks/tracks.jsonl",
                  "--gt-boxes", "sim/gt_boxes.jsonl", "--attrs", "in/attrs.jsonl"),
        ],
        digested=("sim/MANIFEST.txt",),
        window=window,
        top_k=top_k,
    )


def masks_hd(seed: int, scale: str) -> Workload:
    """Large frames with one small and one large, growing object.

    The ground-truth tree is written as RLE; the prediction is the same scene
    with seed-perturbed boxes and motion, written as PBM.  Mask eval (both
    codecs, boundary F, the temporal proxy) carries the run, and the small
    object's masks cover a small share of the frame.
    """
    width, height, frames = (640, 480, 30) if scale == "full" else (160, 120, 6)
    small = (60, 60, 48, 36) if scale == "full" else (10, 10, 16, 12)
    large = (300, 200, 260, 200) if scale == "full" else (70, 40, 70, 60)
    rng = random.Random(seed)

    def jiggle(value, spread):
        return round(value + rng.uniform(-spread, spread), 3)

    def scene(boxes, motions):
        entries = {"width": width, "height": height, "num_frames": frames}
        for index, (box, motion) in enumerate(zip(boxes, motions), start=1):
            entries[f"object{index}.box"] = " ".join(str(v) for v in box)
            entries[f"object{index}.motion"] = " ".join(str(v) for v in motion)
        return _spec(entries)

    motions = [(1, 0, 1.5, 0, 1, 0.8), (1.003, 0, -1.3, 0, 1.003, -0.9)]
    truth = scene([small, large], motions)
    # Every box lies at least 10 px inside the frame, so changing x, y, w and
    # h by up to 2 px each keeps the prediction inside it.
    pred_boxes = [tuple(jiggle(v, 2) for v in box) for box in (small, large)]
    pred_motions = [
        (jiggle(a, 0.0005), 0, jiggle(tx, 0.05), 0, jiggle(d, 0.0005), jiggle(ty, 0.05))
        for a, _, tx, _, d, ty in motions
    ]
    prediction = scene(pred_boxes, pred_motions)
    return Workload(
        name="masks-hd",
        inputs={
            "scene.txt": truth,
            "pred_scene.txt": prediction,
            "corrupt.txt": _corruption(seed, 1),
        },
        stages=[
            _simulate("simulate", "in/scene.txt", "in/corrupt.txt", "sim", seed),
            _simulate("simulate-pred", "in/pred_scene.txt", "in/corrupt.txt", "pred", seed,
                      "--mask-format", "pbm"),
            _rerank(),
            _eval("eval", "eval", "--pred-tracks", "tracks/tracks.jsonl",
                  "--gt-boxes", "sim/gt_boxes.jsonl",
                  "--pred-masks", "pred/masks", "--gt-masks", "sim/masks"),
        ],
        digested=("sim/MANIFEST.txt", "pred/MANIFEST.txt", "eval/report.json"),
    )


WORKLOADS = {"tube-full": tube_full, "many-short": many_short, "masks-hd": masks_hd}


def build(name: str, seed: int, scale: str, root: Path) -> Workload:
    """Make the workload and write its input files under ``root/in``."""
    workload = WORKLOADS[name](seed, scale)
    inputs = root / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    for filename, text in workload.inputs.items():
        (inputs / filename).write_text(text, encoding="utf-8")
    return workload
