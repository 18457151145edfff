"""Temporal-consistency re-ranking of per-frame scored box proposals.

Image-trained grounding models score each frame independently, which makes
the per-frame argmax jump between objects.  Re-ranking rewards proposals
whose boxes overlap strongly with high-scoring, high-objectness proposals in
*other* frames, discounted by temporal distance: a proposal's new score is
its own matching score times the sum, over every proposal j in every other
frame, of ``overlap(i, j) * objectness(j) * score(j) / |frame(i) - frame(j)|``.
Selecting the per-frame maximum of the new score then favors boxes that form
a spatio-temporal tube instead of one-frame wonders.

Same-frame proposals never contribute to the sum: their temporal distance is
zero, so they are excluded rather than dividing by it.

The sum is evaluated one offset k at a time between the sorted non-empty
frames: one batched IoU block pairs every frame with the frame k positions
later, and because IoU is symmetric each block adds support in both
directions.  The cost is one block per offset; ``window`` stops the offsets
once every pair lies beyond it.  Weights use the true frame distances, so
sparse or huge frame ids cost nothing extra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, box_iou


@dataclass(frozen=True)
class Proposal:
    """One candidate box in one frame, with grounding and detector scores."""

    frame: int
    box: Box
    score: float
    objectness: float
    proposal_id: int

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (np.isfinite(self.score) and self.score >= 0):
            raise ValueError(f"score must be finite and non-negative, got {self.score}")
        if not (np.isfinite(self.objectness) and self.objectness >= 0):
            raise ValueError(
                f"objectness must be finite and non-negative, got {self.objectness}"
            )


@dataclass(frozen=True)
class ScoredProposal:
    proposal: Proposal
    new_score: float


@dataclass
class VideoProposals:
    """All proposals of one video for one query, grouped by frame index."""

    video_id: str
    query_id: str
    frames: dict[int, list[Proposal]]
    num_frames: int

    def __post_init__(self):
        if self.num_frames < 1:
            raise ValueError("a video needs at least one frame")
        for frame, props in self.frames.items():
            if not 1 <= frame <= self.num_frames:
                raise ValueError(
                    f"frame {frame} outside [1, {self.num_frames}] "
                    f"for {self.video_id}/{self.query_id}"
                )
            ids = [p.proposal_id for p in props]
            if len(set(ids)) != len(ids):
                raise ValueError(
                    f"duplicate proposal ids in frame {frame} "
                    f"of {self.video_id}/{self.query_id}"
                )
            for p in props:
                if p.frame != frame:
                    raise ValueError(
                        f"proposal filed under frame {frame} carries frame {p.frame}"
                    )

    @classmethod
    def from_proposals(
        cls, video_id: str, query_id: str, proposals, num_frames: int | None = None
    ) -> "VideoProposals":
        frames: dict[int, list[Proposal]] = {}
        for p in proposals:
            frames.setdefault(p.frame, []).append(p)
        if num_frames is None:
            num_frames = max(frames) if frames else 1
        return cls(video_id, query_id, frames, num_frames)


@dataclass
class Track:
    """One selected box per frame (frames may be absent = no selection)."""

    video_id: str
    query_id: str
    entries: dict[int, Box] = field(default_factory=dict)

    def box_at(self, frame: int) -> Box | None:
        return self.entries.get(frame)


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (..., N, 4) / (..., M, 4) corner arrays (x0, y0, x1, y1).

    Leading axes broadcast, so a stack of frame pairs gives a (..., N, M) block.
    """
    ix = np.minimum(a[..., :, None, 2], b[..., None, :, 2]) - np.maximum(
        a[..., :, None, 0], b[..., None, :, 0]
    )
    iy = np.minimum(a[..., :, None, 3], b[..., None, :, 3]) - np.maximum(
        a[..., :, None, 1], b[..., None, :, 1]
    )
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a[..., :, None] + area_b[..., None, :] - inter)


# IoU entries per block: bounds the kernel's scratch memory (a handful of
# float64 arrays of this size) whatever the number of frames or proposals.
_BLOCK_ENTRIES = 1 << 16


def _pack(vp: VideoProposals, top_k: int | None):
    """Columnar copy of the non-empty frames, in frame and proposal-id order.

    Returns the sorted frame ids (an object array of Python ints, so that
    distances between huge ids stay exact), the per-frame proposals in id
    order, ``(P, N, 4)`` corners, ``(P, N)`` raw scores and ``(P, N)`` source
    weights (objectness x score).  Padding rows hold a unit box and weight 0;
    with ``top_k`` the weights of all but the K best proposals of a frame (by
    score, then objectness, then lower id) are 0 as well.
    """
    frame_ids = sorted(f for f, props in vp.frames.items() if props)
    rows = [sorted(vp.frames[f], key=lambda p: p.proposal_id) for f in frame_ids]
    width = max(map(len, rows), default=0)
    corners = np.tile([0.0, 0.0, 1.0, 1.0], (len(rows), width, 1))
    scores = np.zeros((len(rows), width))
    weights = np.zeros((len(rows), width))
    for i, props in enumerate(rows):
        n = len(props)
        corners[i, :n] = [
            (p.box.x, p.box.y, p.box.x + p.box.w, p.box.y + p.box.h) for p in props
        ]
        scores[i, :n] = [p.score for p in props]
        weights[i, :n] = [p.objectness * p.score for p in props]
        if top_k is not None and n > top_k:
            ranked = sorted(range(n), key=lambda j: (-props[j].score, -props[j].objectness, j))
            weights[i, ranked[top_k:]] = 0.0
    return np.array(frame_ids, dtype=object), rows, corners, scores, weights


def rerank_scores(
    vp: VideoProposals,
    window: int | None = None,
    top_k: int | None = None,
) -> dict[int, list[ScoredProposal]]:
    """Compute the temporal-consistency score for every proposal.

    ``window`` limits contributing frames to a temporal distance of at most
    ``window``; ``top_k`` keeps only the K best-scoring proposals per frame as
    contribution *sources* (every proposal still receives a score).  The
    defaults (both off) evaluate the full double sum.

    A single-frame video has no other frames to draw support from, so every
    new score is zero there.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    frames, rows, corners, scores, weights = _pack(vp, top_k)
    limit = np.inf if window is None else window
    count, width = scores.shape
    block_rows = max(1, _BLOCK_ENTRIES // max(1, width * width))
    support = np.zeros_like(scores)
    # Offset k pairs frame row i with row i + k.  IoU is symmetric, so each
    # block feeds both directions.  Distances only grow with k, so the loop
    # ends at the first offset whose pairs all lie beyond the window.
    for k in range(1, count):
        gaps = frames[k:] - frames[:-k]
        near = np.flatnonzero(gaps <= limit)
        if near.size == 0:
            break
        for start in range(0, near.size, block_rows):
            i = near[start:start + block_rows]
            j = i + k
            distance = gaps[i].astype(float)[:, None]
            overlaps = _iou_matrix(corners[i], corners[j])
            support[i] += np.einsum("rpq,rq->rp", overlaps, weights[j] / distance)
            support[j] += np.einsum("rpq,rp->rq", overlaps, weights[i] / distance)
    new_scores = scores * support

    result: dict[int, list[ScoredProposal]] = {}
    for f, props, values in zip(frames.tolist(), rows, new_scores):
        by_id = {p.proposal_id: float(s) for p, s in zip(props, values)}
        result[f] = [ScoredProposal(p, by_id[p.proposal_id]) for p in vp.frames[f]]
    return result


def _pick(candidates, key):
    best = None
    best_key = None
    for item in candidates:
        k = key(item)
        if best is None or k > best_key:
            best, best_key = item, k
    return best


def select_track(
    scored: dict[int, list[ScoredProposal]], video_id: str = "", query_id: str = ""
) -> Track:
    """Per frame, the box of the maximum new score.

    Ties break on higher raw score, then higher objectness, then lower
    proposal id, so the output is deterministic.
    """
    entries: dict[int, Box] = {}
    for frame, candidates in scored.items():
        if not candidates:
            continue
        best = _pick(
            candidates,
            key=lambda sp: (
                sp.new_score,
                sp.proposal.score,
                sp.proposal.objectness,
                -sp.proposal.proposal_id,
            ),
        )
        entries[frame] = best.proposal.box
    return Track(video_id, query_id, entries)


def raw_select(vp: VideoProposals) -> Track:
    """Baseline selection: per-frame argmax of the raw matching score."""
    entries: dict[int, Box] = {}
    for frame, candidates in vp.frames.items():
        if not candidates:
            continue
        best = _pick(
            candidates,
            key=lambda p: (p.score, p.objectness, -p.proposal_id),
        )
        entries[frame] = best.box
    return Track(vp.video_id, vp.query_id, entries)


def oracle_assign(vp: VideoProposals, gt_boxes: dict[int, Box | None]) -> Track:
    """Per frame, the proposal box with the highest ground-truth overlap.

    Frames without a ground-truth box or without proposals get no entry.
    Ties (including all-zero overlap) go to the lowest proposal id.
    """
    entries: dict[int, Box] = {}
    for frame, gt in gt_boxes.items():
        if gt is None:
            continue
        candidates = vp.frames.get(frame, [])
        if not candidates:
            continue
        best = _pick(candidates, key=lambda p: (box_iou(p.box, gt), -p.proposal_id))
        entries[frame] = best.box
    return Track(vp.video_id, vp.query_id, entries)


def hybrid_track(gt_first: Box, reranked: Track) -> Track:
    """Replace the first-frame entry with a known box, keeping the rest."""
    entries = dict(reranked.entries)
    entries[1] = gt_first
    return Track(reranked.video_id, reranked.query_id, entries)


# ---------------------------------------------------------------------------
# JSON Lines formats
# ---------------------------------------------------------------------------

_PROPOSAL_FIELDS = {
    "video", "query", "frame", "x", "y", "w", "h", "score", "objectness", "id",
}
_TRACK_FIELDS = {"video", "query", "frame", "x", "y", "w", "h"}


def _parse_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: expected a JSON object")
            yield number, record


def _require(record, fields, path, number):
    missing = sorted(fields - record.keys())
    if missing:
        raise ValueError(f"{path}:{number}: missing fields {', '.join(missing)}")


def read_proposals(path) -> tuple[dict[tuple[str, str], VideoProposals], set[str]]:
    """Read a proposals JSONL file, grouping by (video, query).

    Returns the grouped proposals and the set of unknown field names seen
    (the caller decides whether to warn).  Malformed lines raise ValueError
    with the offending line number.
    """
    grouped: dict[tuple[str, str], list[Proposal]] = {}
    unknown: set[str] = set()
    for number, record in _parse_jsonl(path):
        _require(record, _PROPOSAL_FIELDS, path, number)
        unknown.update(record.keys() - _PROPOSAL_FIELDS)
        try:
            proposal = Proposal(
                frame=int(record["frame"]),
                box=Box(
                    float(record["x"]), float(record["y"]),
                    float(record["w"]), float(record["h"]),
                ),
                score=float(record["score"]),
                objectness=float(record["objectness"]),
                proposal_id=int(record["id"]),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
        grouped.setdefault((str(record["video"]), str(record["query"])), []).append(proposal)
    videos = {
        key: VideoProposals.from_proposals(key[0], key[1], props)
        for key, props in sorted(grouped.items())
    }
    return videos, unknown


def write_proposals(path, videos: dict[tuple[str, str], VideoProposals]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for (video, query) in sorted(videos):
            vp = videos[(video, query)]
            for frame in sorted(vp.frames):
                for p in sorted(vp.frames[frame], key=lambda p: p.proposal_id):
                    record = {
                        "video": video, "query": query, "frame": frame,
                        "x": p.box.x, "y": p.box.y, "w": p.box.w, "h": p.box.h,
                        "score": p.score, "objectness": p.objectness,
                        "id": p.proposal_id,
                    }
                    handle.write(json.dumps(record) + "\n")


def read_tracks(path) -> dict[tuple[str, str], Track]:
    """Read a track JSONL file (also used for ground-truth box files)."""
    tracks: dict[tuple[str, str], Track] = {}
    for number, record in _parse_jsonl(path):
        _require(record, _TRACK_FIELDS, path, number)
        key = (str(record["video"]), str(record["query"]))
        track = tracks.setdefault(key, Track(key[0], key[1]))
        frame = int(record["frame"])
        if frame in track.entries:
            raise ValueError(f"{path}:{number}: duplicate frame {frame} for {key}")
        try:
            track.entries[frame] = Box(
                float(record["x"]), float(record["y"]),
                float(record["w"]), float(record["h"]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
    return tracks


def write_tracks(path, tracks: dict[tuple[str, str], Track]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for key in sorted(tracks):
            track = tracks[key]
            for frame in sorted(track.entries):
                box = track.entries[frame]
                record = {
                    "video": track.video_id, "query": track.query_id, "frame": frame,
                    "x": box.x, "y": box.y, "w": box.w, "h": box.h,
                }
                handle.write(json.dumps(record) + "\n")


def write_scores(path, scored_by_key: dict[tuple[str, str], dict[int, list[ScoredProposal]]]) -> None:
    """Dump every proposal with its re-ranked score."""
    with open(path, "w", encoding="utf-8") as handle:
        for (video, query) in sorted(scored_by_key):
            scored = scored_by_key[(video, query)]
            for frame in sorted(scored):
                for sp in sorted(scored[frame], key=lambda sp: sp.proposal.proposal_id):
                    p = sp.proposal
                    record = {
                        "video": video, "query": query, "frame": frame,
                        "x": p.box.x, "y": p.box.y, "w": p.box.w, "h": p.box.h,
                        "score": p.score, "objectness": p.objectness,
                        "id": p.proposal_id, "new_score": sp.new_score,
                    }
                    handle.write(json.dumps(record) + "\n")
