"""Output checks, run untimed after the stage they check.

Each check raises ``CheckError`` (or any other exception) when an output is
wrong.  The rerank check compares against a vectorized reference owned by the
benchmark: it evaluates the whole double sum of one (video, query) as dense
IoU blocks, so it shares no code with ``trackref.rerank``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict
from pathlib import Path
from statistics import fmean

import numpy as np

SCORE_TOLERANCE = 1e-12  # the tests' brute-force oracle tolerance
REPORT_TOLERANCE = 6e-5  # reports round to 4 decimals
SWITCH_IOU = 0.5  # ROADMAP: a switch is consecutive selections with IoU < 0.5
_CHUNK = 64  # reference rows per IoU block, which keeps the check's memory small


class CheckError(Exception):
    pass


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _records(path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def _box(record) -> tuple[float, float, float, float]:
    return (record["x"], record["y"], record["w"], record["h"])


def read_tracks(path) -> dict[tuple[str, str], dict[int, tuple]]:
    tracks: dict[tuple[str, str], dict[int, tuple]] = defaultdict(dict)
    for record in _records(path):
        tracks[(record["video"], record["query"])][record["frame"]] = _box(record)
    return dict(tracks)


def box_iou(a, b) -> float:
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def id_switches(tracks) -> int:
    """Consecutive selected boxes with IoU below 0.5, summed over tracks."""
    total = 0
    for entries in tracks.values():
        frames = sorted(entries)
        total += sum(
            box_iou(entries[f], entries[g]) < SWITCH_IOU for f, g in zip(frames, frames[1:])
        )
    return total


def check_manifest(out_dir: Path) -> None:
    """Every MANIFEST line names a written file and its true SHA-256."""
    lines = (out_dir / "MANIFEST.txt").read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CheckError(f"{out_dir}/MANIFEST.txt is empty")
    for line in lines:
        digest, name = line.split("  ", 1)
        if sha256(out_dir / name) != digest:
            raise CheckError(f"{out_dir}/{name} does not match its MANIFEST digest")


def check_box_report(report_path, tracks_path, gt_path) -> float:
    """Eval's per-query and aggregate track mIoU match an independent count.

    Returns the report's ``aggregate/track_miou``.
    """
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    tracks, gt = read_tracks(tracks_path), read_tracks(gt_path)
    reported = []
    for (video, query), gt_entries in sorted(gt.items()):
        pred = tracks.get((video, query), {})
        expected = fmean(
            box_iou(pred[f], box) if f in pred else 0.0 for f, box in gt_entries.items()
        )
        value = report["queries"][f"{video}/{query}"]["track_miou"]
        if abs(value - expected) > REPORT_TOLERANCE:
            raise CheckError(f"{video}/{query}: track_miou {value}, expected {expected}")
        reported.append(value)
    aggregate = report["aggregate"]["track_miou"]
    if abs(aggregate - fmean(reported)) > REPORT_TOLERANCE:
        raise CheckError(f"aggregate track_miou {aggregate}, expected {fmean(reported)}")
    return aggregate


def reference_new_scores(props: np.ndarray, window, top_k) -> np.ndarray:
    """Re-ranked scores of one (video, query), evaluated as one dense sum.

    ``props`` has one row per proposal: frame, id, x, y, w, h, score,
    objectness.  Source j adds IoU(i, j) * objectness_j * score_j /
    |frame_i - frame_j| to proposal i, for every j in another frame within
    ``window``; with ``top_k`` only the K best proposals of each frame by
    (score desc, objectness desc, id asc) are sources.
    """
    frame, pid = props[:, 0], props[:, 1]
    x0, y0 = props[:, 2], props[:, 3]
    x1, y1 = x0 + props[:, 4], y0 + props[:, 5]
    score, objectness = props[:, 6], props[:, 7]
    area = (x1 - x0) * (y1 - y0)
    weight = objectness * score
    if top_k is not None:
        order = np.lexsort((pid, -objectness, -score, frame))
        sorted_frames = frame[order]
        first = np.searchsorted(sorted_frames, sorted_frames, side="left")
        rank = np.empty(len(props), dtype=int)
        rank[order] = np.arange(len(props)) - first
        weight = np.where(rank < top_k, weight, 0.0)
    support = np.empty(len(props))
    for start in range(0, len(props), _CHUNK):
        rows = slice(start, start + _CHUNK)
        ix = np.minimum(x1[rows, None], x1) - np.maximum(x0[rows, None], x0)
        iy = np.minimum(y1[rows, None], y1) - np.maximum(y0[rows, None], y0)
        inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
        iou = inter / (area[rows, None] + area - inter)
        distance = np.abs(frame[rows, None] - frame)
        valid = distance > 0
        if window is not None:
            valid &= distance <= window
        contribution = np.where(valid, weight / np.where(valid, distance, 1.0), 0.0)
        support[rows] = (iou * contribution).sum(axis=1)
    return score * support


def check_rerank(run_dir: Path, seed: int, window, top_k) -> None:
    """Scores and both selections match the reference on two sampled keys.

    The seed picks two (video, query) pairs, so the check covers different
    pairs on different seeds.
    """
    keys = sorted(read_tracks(run_dir / "sim/gt_boxes.jsonl"))
    keys = random.Random(seed).sample(keys, min(2, len(keys)))
    rows = defaultdict(list)
    for r in _records(run_dir / "sim/proposals.jsonl"):
        key = (r["video"], r["query"])
        if key in keys:
            rows[key].append((r["frame"], r["id"], *_box(r), r["score"], r["objectness"]))
    new_scores = defaultdict(dict)
    for r in _records(run_dir / "tracks/scores.jsonl"):
        key = (r["video"], r["query"])
        if key in keys:
            new_scores[key][(r["frame"], r["id"])] = r["new_score"]
    tracks = read_tracks(run_dir / "tracks/tracks.jsonl")
    raw_tracks = read_tracks(run_dir / "tracks/raw_tracks.jsonl")
    for key in keys:
        props = np.array(rows[key], dtype=float)
        reference = reference_new_scores(props, window, top_k)
        written = new_scores[key]
        if len(written) != len(props):
            raise CheckError(f"{key}: {len(written)} scores for {len(props)} proposals")
        by_frame = defaultdict(list)
        for i, row in enumerate(rows[key]):
            frame, pid = row[0], row[1]
            if abs(written[(frame, pid)] - reference[i]) > SCORE_TOLERANCE:
                raise CheckError(
                    f"{key} frame {frame} id {pid}: new_score {written[(frame, pid)]!r}, "
                    f"reference {reference[i]!r}"
                )
            by_frame[frame].append(i)
        boxes = [row[2:6] for row in rows[key]]
        for frame, indices in by_frame.items():
            # Documented tie-break: new score, then raw score, objectness, lower id.
            best = max(indices, key=lambda i: (
                reference[i], props[i, 6], props[i, 7], -props[i, 1]))
            chosen = tracks[key].get(frame)
            # A pick within the tolerance of the best reference score is a tie
            # the reference cannot resolve, not an error.
            if chosen != boxes[best] and not any(
                boxes[i] == chosen and reference[i] >= reference[best] - SCORE_TOLERANCE
                for i in indices
            ):
                raise CheckError(f"{key} frame {frame}: selected {chosen}, reference {boxes[best]}")
            raw_best = max(indices, key=lambda i: (props[i, 6], props[i, 7], -props[i, 1]))
            if raw_tracks[key].get(frame) != boxes[raw_best]:
                raise CheckError(f"{key} frame {frame}: raw argmax differs")


def rerank_work(proposals_path, window, top_k) -> tuple[int, int, int]:
    """Proposals, frame pairs and IoU entries of a re-rank, from its input.

    A frame pair is an ordered pair of distinct non-empty frames of one
    (video, query) within ``window``; each contributes (proposals of the
    target frame) x (source proposals of the other frame) IoU entries.
    """
    per_key: dict = defaultdict(Counter)
    for r in _records(proposals_path):
        per_key[(r["video"], r["query"])][r["frame"]] += 1
    records = pairs = entries = 0
    for counts in per_key.values():
        frames = np.array(sorted(counts))
        n = np.array([counts[f] for f in frames])
        sources = n if top_k is None else np.minimum(n, top_k)
        if window is None:
            lo, hi = np.zeros(len(frames), int), np.full(len(frames), len(frames))
        else:
            lo = np.searchsorted(frames, frames - window, side="left")
            hi = np.searchsorted(frames, frames + window, side="right")
        prefix = np.concatenate(([0], np.cumsum(sources)))
        pairs += int((hi - lo - 1).sum())
        entries += int((n * (prefix[hi] - prefix[lo] - sources)).sum())
        records += int(n.sum())
    return records, pairs, entries
