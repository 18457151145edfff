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
frames, on a table with one lane per frame, the innermost axis, and one slot
per proposal.  With ``top_k`` below the widest frame the slots rank best
first, so a frame's K sources are its first K slots.  Offset k pairs the
first F - k lanes with the last F - k, two slices of the table.  Per pair,
one IoU block of every slot of the earlier frame against the later frame's
sources feeds both sides, since IoU is symmetric; a second takes the later
frame's other slots against the earlier sources.  That is 2PK - K^2 IoU
entries for P proposals per frame, P^2 with ``top_k`` off.  With ``window``,
an offset with pairs beyond it takes only its near lanes, and the offsets
stop once every pair lies beyond it.  Weights use the true frame distances,
so sparse or huge frame ids cost nothing extra.

Proposals live in one columnar table per (video, query),
:class:`VideoProposals`, with rows kept in (frame, id) order: one
constructor takes its columns, and one builder, ``from_proposals``, checks
library input.  The kernel scores it into a ``new_score`` column, and the
selections are one ``np.lexsort`` each.  A table, like a track (a plain
``{frame: Box}`` dict, as ground truth is), is named only by the (video,
query) key that holds it: its errors name frames and ids, and the caller
names the key.  One row writer formats proposals, scores and tracks.  Two
library views, ``VideoProposals.frames`` and the ``ScoredVideo`` mapping,
build ``Proposal``/``ScoredProposal`` objects.  A source weight or a new
score that is not finite (``1e200 * 1e200``, say), or a frame distance
beyond the float range, raises ValueError instead of reaching the output.

The proposal and track readers first take the bulk path of
:mod:`trackref.jsonl`, which reads a file as the package's writers write it
(every line their exact row, (video, query) keys sorted, rows in (frame, id)
order) as numpy columns, checked against the strict reader's rules as whole
columns.  Any other file, and any file that fails a check, is read by the
strict reader, so the tables and every ``file:line`` error are the strict
reader's.  The proposal and track writers return the SHA-256 digest of the
bytes they write.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import chain, compress, islice, starmap

import numpy as np

from .geometry import Box
from .jsonl import INTEGER, NAME, NUMBER, read_jsonl, read_written


@dataclass(frozen=True)
class Proposal:
    """One candidate box in one frame, with grounding and detector scores."""

    frame: int
    box: Box
    score: float
    objectness: float
    proposal_id: int

    def __post_init__(self):
        # ``_rows_valid`` states these rules for whole columns; change it with them.
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (math.isfinite(self.score) and self.score >= 0):
            raise ValueError(f"score must be finite and non-negative, got {self.score}")
        if not (math.isfinite(self.objectness) and self.objectness >= 0):
            raise ValueError(
                f"objectness must be finite and non-negative, got {self.objectness}"
            )


def _rows_valid(frame, x, y, w, h, score=0.0, objectness=0.0):
    """Whether ``Proposal(frame, Box(x, y, w, h), score, objectness, id)`` would
    be accepted, or with no weights a track row ``frame: Box(x, y, w, h)``:
    a bool, or elementwise over numpy columns (where ``w * h`` may overflow
    to inf, which is valid, or be ``inf * 0``, which is not).  The readers
    check rows with it instead of building the objects, so it must change
    with ``Box`` and ``Proposal``; a test holds it to both on the float
    extremes, NaN and the infinities.
    """
    inf = math.inf
    return ((frame >= 1) & (abs(x) < inf) & (abs(y) < inf) & (0 < w) & (w < inf) & (0 < h)
            & (h < inf) & (0 < w * h) & (0 <= score) & (score < inf) & (0 <= objectness)
            & (objectness < inf))


@dataclass(frozen=True)
class ScoredProposal:
    proposal: Proposal
    new_score: float


class VideoProposals:
    """All proposals of one video for one query, one row per proposal.

    The table holds no name: the (video, query) key that holds it is its
    name.  Rows are kept in (frame, id) order, as columns:

    * ``frame_ids``: the sorted distinct frames of the rows, as Python ints
      (so distances between huge ids stay exact), and ``frame_of``, each
      row's index into them;
    * ``ids``: the proposal ids, a list of Python ints;
    * ``boxes``: ``(n, 4)`` float64 ``x, y, w, h``;
    * ``scores`` and ``objectness``: ``(n,)`` float64.

    The constructor takes the columns as they are; the reader and the
    simulator build them already in order and checked.  Library callers use
    :meth:`from_proposals`, and ``frames`` gives ``{frame: [Proposal, ...]}``
    back, built on first access.
    """

    def __init__(self, frame_ids, frame_of, ids, boxes, scores, objectness):
        self.frame_ids, self.frame_of, self.ids = frame_ids, frame_of, ids
        self.boxes, self.scores, self.objectness = boxes, scores, objectness

    @classmethod
    def from_proposals(cls, proposals) -> "VideoProposals":
        """The table of ``Proposal`` objects in any order; a repeated (frame, id) raises."""
        rows = sorted(
            (p.frame, p.proposal_id, p.box.x, p.box.y, p.box.w, p.box.h, p.score, p.objectness)
            for p in proposals
        )
        for previous, row in zip(rows, rows[1:]):
            if previous[:2] == row[:2]:
                raise ValueError(f"duplicate proposal id {row[1]} in frame {row[0]}")
        return cls(*_row_columns(rows))

    @cached_property
    def frames(self) -> dict[int, list[Proposal]]:
        """``{frame: [Proposal, ...]}`` in (frame, id) order."""
        frames: dict[int, list[Proposal]] = {frame: [] for frame in self.frame_ids}
        for frame, pid, box, score, objectness in zip(
            self.row_frames(), self.ids, self.boxes.tolist(), self.scores.tolist(),
            self.objectness.tolist(),
        ):
            frames[frame].append(Proposal(frame, Box(*box), score, objectness, pid))
        return frames

    def row_frames(self) -> list[int]:
        """Each row's frame id."""
        return np.array(self.frame_ids, dtype=object)[self.frame_of].tolist()

    def frame_starts(self) -> np.ndarray:
        """The first row of each frame of ``frame_ids``."""
        return np.searchsorted(self.frame_of, np.arange(len(self.frame_ids)))


def _columns(frames, ids, values: np.ndarray) -> tuple:
    """The table columns ``frame_ids, frame_of, ids, boxes, scores, objectness``
    of rows in (frame, id) order, given as their frames and ids (Python ints)
    and their ``(6, n)`` values ``x, y, w, h, score, objectness``."""
    frame_ids = list(dict.fromkeys(frames))
    index = dict(zip(frame_ids, range(len(frame_ids))))
    frame_of = np.fromiter(map(index.__getitem__, frames), np.intp, len(frames))
    return frame_ids, frame_of, list(ids), values[:4].T, values[4], values[5]


def _row_columns(rows: list[tuple]) -> tuple:
    """:func:`_columns` of ``(frame, id, x, y, w, h, score, objectness)`` rows
    in (frame, id) order."""
    frames, ids, *values = list(zip(*rows)) or [()] * 8
    return _columns(frames, ids, np.array(values, dtype=float).reshape(6, -1))


class ScoredVideo(Mapping):
    """The re-ranked scores of one table: ``new_score`` holds one per row.

    As a mapping it is ``{frame: [ScoredProposal, ...]}`` in (frame, id)
    order, built on first use.
    """

    def __init__(self, table: VideoProposals, new_score: np.ndarray):
        self.table = table
        self.new_score = new_score

    @cached_property
    def _lists(self) -> dict[int, list[ScoredProposal]]:
        values = iter(self.new_score.tolist())
        return {
            frame: [ScoredProposal(p, next(values)) for p in props]
            for frame, props in self.table.frames.items()
        }

    def __getitem__(self, frame: int) -> list[ScoredProposal]:
        return self._lists[frame]

    def __iter__(self):
        return iter(self.table.frame_ids)

    def __len__(self) -> int:
        return len(self.table.frame_ids)


def _overlap_support(rows, sources, weights, scratch, back_weights=None) -> tuple:
    """What every row slot draws from the source slots: ``(to_rows, to_sources)``.

    ``rows`` and ``sources`` are ``(5, slots, lanes)`` parts of the kernel's
    table (``x0, y0, x1, y1, area``); lane l of both holds the two frames of
    one pair, and ``weights`` holds the sources' weights over that pair's
    distance.  The IoU block is computed a few row slots at a time, in place
    in ``scratch``: fresh arrays per block give the same scores to the bit
    but ran slower, 46.4 against 41.2 ms of ``rerank_scores`` on tube-full
    and 32.6 against 30.2 on many-short (medians of 15, 2-CPU Xeon).  With
    ``back_weights``, the weights of the first row slots, the same block
    also gives ``to_sources``, what those slots send to the sources;
    without, ``to_sources`` is None.
    """
    slots, lanes = rows.shape[1:]
    entries = len(weights) * lanes
    step = max(1, _BLOCK_ENTRIES // entries)
    rx0, ry0, rx1, ry1, rarea = rows[:, :, None]
    sx0, sy0, sx1, sy1, sarea = sources[:, None]
    to_rows = np.empty((slots, lanes))
    to_sources = None if back_weights is None else np.zeros(weights.shape)
    for start in range(0, slots, step):
        stop = min(start + step, slots)
        ix, iy, low = scratch[:, :(stop - start) * entries].reshape(3, -1, *weights.shape)
        np.minimum(rx1[start:stop], sx1, out=ix)
        ix -= np.maximum(rx0[start:stop], sx0, out=low)
        np.maximum(ix, 0.0, out=ix)
        np.minimum(ry1[start:stop], sy1, out=iy)
        iy -= np.maximum(ry0[start:stop], sy0, out=low)
        np.maximum(iy, 0.0, out=iy)
        overlaps = np.multiply(ix, iy, out=ix)
        np.add(rarea[start:stop], sarea, out=iy)
        iy -= overlaps
        overlaps /= iy
        np.einsum("rkl,kl->rl", overlaps, weights, out=to_rows[start:stop])
        if to_sources is not None and start < len(back_weights):
            end = min(stop, len(back_weights))
            to_sources += np.einsum("rkl,rl->kl", overlaps[:end - start],
                                    back_weights[start:end])
    return to_rows, to_sources


# IoU entries per block: bounds the kernel's scratch memory (three float64
# arrays of this size) whatever the number of frames or proposals, down to a
# floor of one slot against the sources of every frame pair of an offset.
_BLOCK_ENTRIES = 1 << 15


def _best_first(vp: VideoProposals, *keys: np.ndarray) -> np.ndarray:
    """Row indices grouped by frame, each frame's rows best first.

    Rows rank by ``keys`` in turn, higher first, then by the lower proposal
    id: the sort is stable and rows are in (frame, id) order.  A frame's
    best row is at its ``frame_starts()`` position.
    """
    return np.lexsort((*(-key for key in reversed(keys)), vp.frame_of))


def _require_finite(vp: VideoProposals, values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"{what} is not finite in frame {vp.frame_ids[vp.frame_of[row]]}, id {vp.ids[row]}"
        )


def _distance_error(early, late) -> ValueError:
    """The error for the first pair of frames farther apart than the largest float."""
    a, b = next((a, b) for a, b in zip(early, late) if b - a > sys.float_info.max)
    return ValueError(f"frame distance does not fit a float: frames {a} and {b}")


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
def rerank_scores(
    vp: VideoProposals,
    window: int | None = None,
    top_k: int | None = None,
) -> ScoredVideo:
    """Compute the temporal-consistency score for every proposal.

    ``window`` limits contributing frames to a temporal distance of at most
    ``window``; ``top_k`` keeps only the K best-scoring proposals per frame as
    contribution *sources* (by score, then objectness, then lower id; every
    proposal still receives a score).  The defaults (both off) evaluate the
    full double sum.

    A single-frame video has no other frames to draw support from, so every
    new score is zero there.  A source weight (objectness x score) or a new
    score that is not finite, or a frame distance within ``window`` that does
    not fit a float (frames 1 and 10**400, say), raises ValueError naming the
    frame and id, or the two frames; the caller names the (video, query).
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    sources = vp.objectness * vp.scores
    _require_finite(vp, sources, "source weight objectness x score")
    # One lane per non-empty frame, the innermost axis, and one slot per
    # proposal in it; padding is a unit box with weight 0.  When K is below
    # the widest frame, slots rank best first, so that a frame's K sources
    # are its first K slots; otherwise every slot is a source and they stay
    # in id order.
    count, every_row = len(vp.frame_ids), np.arange(len(vp.ids))
    starts = vp.frame_starts()
    width = int(np.diff(starts, append=len(every_row)).max(initial=0))
    k_top = width if top_k is None else min(top_k, width)
    order = _best_first(vp, vp.scores, vp.objectness) if k_top < width else every_row
    slot = np.empty_like(vp.frame_of)
    slot[order] = every_row - starts[vp.frame_of]
    cells = (slot, vp.frame_of)
    table = np.zeros((5, width, count))
    table[2:] = 1.0
    (x0, y0), (x1, y1) = vp.boxes[:, :2].T, (vp.boxes[:, :2] + vp.boxes[:, 2:]).T
    for side, values in enumerate((x0, y0, x1, y1, (x1 - x0) * (y1 - y0))):
        table[side][cells] = values
    weights = np.zeros((width, count))
    weights[cells] = sources
    frames = np.array(vp.frame_ids, dtype=object)
    scratch = np.empty((3, max(_BLOCK_ENTRIES, k_top * count)))
    support = np.zeros((width, count))
    # Offset k pairs early lane i with late lane i + k: IoU of every early
    # slot against the late sources, which also sends the early sources'
    # support to the late ones, then of the other late slots against the
    # early sources.  The lanes are two slices of the table; when some pairs
    # lie beyond the window, only the near lanes are taken, so a far pair
    # costs nothing and its distance is never converted.  Distances only
    # grow with k, so the loop ends at the first offset with no near pair.
    for k in range(1, count):
        gaps = frames[k:] - frames[:count - k]
        early, late = slice(0, count - k), slice(k, count)
        if window is not None:
            near = np.flatnonzero(gaps <= window)
            if near.size == 0:
                break
            if near.size < gaps.size:
                early, late, gaps = near, near + k, gaps[near]
        try:
            distance = gaps.astype(float)
        except OverflowError:
            raise _distance_error(frames[early], frames[late]) from None
        boxes_early, boxes_late = table[:, :, early], table[:, :, late]
        to_early = weights[:k_top, early] / distance
        to_late = weights[:k_top, late] / distance
        to_rows, to_sources = _overlap_support(boxes_early, boxes_late[:, :k_top], to_late,
                                               scratch, back_weights=to_early)
        support[:, early] += to_rows
        support[:k_top, late] += to_sources
        if k_top < width:
            to_rows, _ = _overlap_support(boxes_late[:, k_top:], boxes_early[:, :k_top],
                                          to_early, scratch)
            support[k_top:, late] += to_rows
    new_score = vp.scores * support[cells]
    _require_finite(vp, new_score, "re-ranked score")
    return ScoredVideo(vp, new_score)


def _track(vp: VideoProposals, frames, rows: np.ndarray) -> dict[int, Box]:
    """The track ``{frames[i]: box of rows[i]}``; frames absent have no selection."""
    return {frame: Box(*box) for frame, box in zip(frames, vp.boxes[rows].tolist())}


def select_track(scored: ScoredVideo) -> dict[int, Box]:
    """Per frame, the box of the maximum new score.

    Ties break on higher raw score, then higher objectness, then lower
    proposal id, so the output is deterministic.  ``scored`` is what
    :func:`rerank_scores` returns.
    """
    vp = scored.table
    best = _best_first(vp, scored.new_score, vp.scores, vp.objectness)[vp.frame_starts()]
    return _track(vp, vp.frame_ids, best)


def raw_select(vp: VideoProposals) -> dict[int, Box]:
    """Baseline selection: per-frame argmax of the raw matching score."""
    best = _best_first(vp, vp.scores, vp.objectness)[vp.frame_starts()]
    return _track(vp, vp.frame_ids, best)


@np.errstate(over="ignore", invalid="ignore")  # non-finite overlaps raise below
def oracle_assign(vp: VideoProposals, gt_boxes: Mapping[int, Box]) -> dict[int, Box]:
    """Per frame, the proposal box with the highest ground-truth overlap.

    ``gt_boxes`` is a ground-truth ``{frame: box}`` track like any other;
    frames outside it or without proposals get no entry.  Ties (including
    all-zero overlap) go to the lowest proposal id.  An overlap that is not
    finite (boxes of side 1e308, say) raises ValueError.
    """
    known = [frame in gt_boxes for frame in vp.frame_ids]
    gt = np.array([astuple(gt_boxes.get(f, Box(0, 0, 1, 1))) for f in vp.frame_ids])
    # geometry.box_iou's arithmetic, for every row at once.
    (x, y, w, h), (gx, gy, gw, gh) = vp.boxes.T, gt.reshape(-1, 4)[vp.frame_of].T
    ix = np.minimum(x + w, gx + gw) - np.maximum(x, gx)
    iy = np.minimum(y + h, gy + gh) - np.maximum(y, gy)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    overlap = np.where((ix <= 0) | (iy <= 0), 0.0, inter / (w * h + gw * gh - inter))
    _require_finite(vp, overlap, "ground-truth IoU")
    best = _best_first(vp, overlap)[vp.frame_starts()[known]]
    return _track(vp, compress(vp.frame_ids, known), best)


# ---------------------------------------------------------------------------
# JSON Lines formats
# ---------------------------------------------------------------------------

_BOX_FIELDS = {"x": NUMBER, "y": NUMBER, "w": NUMBER, "h": NUMBER}
_TRACK_FIELDS = {"video": NAME, "query": NAME, "frame": INTEGER, **_BOX_FIELDS}
_PROPOSAL_FIELDS = {
    **_TRACK_FIELDS, "score": NUMBER, "objectness": NUMBER, "id": INTEGER,
}


def read_proposals(path) -> tuple[dict[tuple[str, str], VideoProposals], set[str]]:
    """Read a proposals JSONL file, grouping by (video, query).

    Returns the grouped proposals and the set of unknown field names seen
    (the caller decides whether to warn).  A file as ``write_proposals``
    writes it is read in bulk; any other is read by
    :func:`trackref.jsonl.read_jsonl`, with the same result for the same
    rows, so malformed lines raise ValueError naming ``path:line``.
    """
    videos = _read_written_proposals(path)
    if videos is not None:
        return videos, set()
    return _read_proposals_strictly(path)


def _read_proposals_strictly(path) -> tuple[dict[tuple[str, str], VideoProposals], set[str]]:
    """:func:`read_proposals` line by line, through the strict reader."""
    groups: dict[tuple[str, str], tuple[list, set]] = {}

    def add(video, query, frame, x, y, w, h, score, objectness, proposal_id):
        group = groups.get((video, query))
        if group is None:
            group = groups[(video, query)] = ([], set())
        rows, seen = group
        key = (frame, proposal_id)
        if key in seen:
            raise ValueError(
                f"duplicate proposal id {proposal_id} in frame {frame} of {video}/{query}"
            )
        seen.add(key)
        if not _rows_valid(frame, x, y, w, h, score, objectness):
            # the classes' own checks raise the error for the first bad field
            Proposal(frame, Box(x, y, w, h), score, objectness, proposal_id)
        rows.append((frame, proposal_id, x, y, w, h, score, objectness))

    unknown = read_jsonl(path, _PROPOSAL_FIELDS, add)
    videos = {}
    for (video, query), (rows, _) in sorted(groups.items()):
        rows.sort()
        videos[(video, query)] = VideoProposals(*_row_columns(rows))
    return videos, unknown


def _read_written_proposals(path) -> dict[tuple[str, str], VideoProposals] | None:
    """The tables of a file as ``write_proposals`` writes it, or None for any other file."""
    columns = read_written(path, _PROPOSAL_FIELDS)
    if columns is None:
        return None
    video, query, frame, x, y, w, h, score, objectness, ids = columns
    later = (frame[1:] > frame[:-1]) | ((frame[1:] == frame[:-1]) & (ids[1:] > ids[:-1]))
    runs = _written_runs(video, query, later)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = _rows_valid(frame, x, y, w, h, score, objectness).all()
    if runs is None or not valid:
        return None
    values = np.stack((x, y, w, h, score, objectness))
    return {
        key: VideoProposals(*_columns(frame[a:b].tolist(), ids[a:b].tolist(), values[:, a:b]))
        for key, a, b in runs
    }


def _written_runs(video: np.ndarray, query: np.ndarray, later: np.ndarray) -> list | None:
    """``[((video, query), start, stop), ...]``, the row span of each key, or None.

    The writers' order, which the strict reader's results keep: the rows of
    a key form one run, keys increase from run to run, and within a run
    ``later`` holds, which says of each row but the first whether it comes
    after the row before it.
    """
    new_key = (video[1:] != video[:-1]) | (query[1:] != query[:-1])
    if not (new_key | later).all():
        return None
    bounds = [0, *(np.flatnonzero(new_key) + 1).tolist(), len(video)]
    keys = [(video[i].decode(), query[i].decode()) for i in bounds[:-1]]
    if any(key >= following for key, following in zip(keys, keys[1:])):
        return None
    return list(zip(keys, bounds, bounds[1:]))


def _literal(text: str) -> str:
    """``text`` JSON-encoded, with its braces doubled for ``str.format``."""
    return json.dumps(text).replace("{", "{{").replace("}", "}}")


def _row_template(*fields: str) -> str:
    """``str.format`` template of one JSONL row with these keys, in order."""
    return "{{" + ", ".join(f"{key}: {{}}" for key in map(_literal, fields)) + "}}\n"


_PROPOSAL_ROW = _row_template(*_PROPOSAL_FIELDS)
_SCORE_ROW = _row_template("video", "query", "frame", "id", "new_score")
_TRACK_ROW = _row_template(*_TRACK_FIELDS)


def _rows(template: str, video: str, query: str, *columns):
    """One JSONL row per position of ``columns``, the values after video and query.

    Values are plain finite floats and ints, so ``str.format`` writes each
    as its ``repr``, which is what ``json.dumps`` writes.
    """
    head, between, rest = template.split("{}", 2)
    row = (head + _literal(video) + between + _literal(query) + rest).format
    return map(row, *columns)


# Rows encoded, hashed and written at a time: bounds a writer's buffer.  At
# 1024 rows, simulate's traced Python peak rose from 1.0 to 1.4 MB on a
# 2,800-row table; at 256 it is 0.9 MB, and the writer is no slower.
_WRITE_ROWS = 256


def _write_lines(path, lines, digest=None) -> None:
    """Write the rows ``lines`` to ``path`` as UTF-8, feeding the bytes to
    ``digest`` (a ``hashlib`` object) as they are written, if one is given."""
    lines = iter(lines)
    with open(path, "wb") as handle:
        while block := "".join(islice(lines, _WRITE_ROWS)).encode("utf-8"):
            handle.write(block)
            if digest is not None:
                digest.update(block)


def _write_hashed(path, lines) -> str:
    """:func:`_write_lines`, returning the SHA-256 hex digest of the file."""
    digest = hashlib.sha256()
    _write_lines(path, lines, digest)
    return digest.hexdigest()


def write_proposals(path, videos) -> str:
    """Write every table's rows; return the file's SHA-256 hex digest.

    ``videos`` is a ``{(video, query): table}`` mapping, written in sorted key
    order, or an iterable of ``(key, table)`` pairs already in that order,
    each written as it comes, so that a caller can make one table at a time.
    """
    if isinstance(videos, Mapping):
        videos = [(key, videos[key]) for key in sorted(videos)]

    def rows(item):
        key, vp = item
        return _rows(_PROPOSAL_ROW, *key, vp.row_frames(), *vp.boxes.T.tolist(),
                     vp.scores.tolist(), vp.objectness.tolist(), vp.ids)

    return _write_hashed(path, chain.from_iterable(map(rows, videos)))


def read_tracks(path) -> dict[tuple[str, str], dict[int, Box]]:
    """Read a track JSONL file (also used for ground-truth box files).

    A file as ``write_tracks`` writes it is read in bulk; any other is read
    by :func:`trackref.jsonl.read_jsonl`, with the same result for the same
    rows, so malformed lines raise ValueError naming ``path:line``.
    """
    tracks = _read_written_tracks(path)
    return _read_tracks_strictly(path) if tracks is None else tracks


def _read_tracks_strictly(path) -> dict[tuple[str, str], dict[int, Box]]:
    """:func:`read_tracks` line by line, through the strict reader."""
    tracks: dict[tuple[str, str], dict[int, Box]] = {}

    def add(video, query, frame, x, y, w, h):
        if frame < 1:
            raise ValueError(f"frame index must be >= 1, got {frame}")
        box = Box(x, y, w, h)
        track = tracks.setdefault((video, query), {})
        if frame in track:
            raise ValueError(f"duplicate frame {frame} for {video}/{query}")
        track[frame] = box

    read_jsonl(path, _TRACK_FIELDS, add)
    return tracks


def _read_written_tracks(path) -> dict[tuple[str, str], dict[int, Box]] | None:
    """The tracks of a file as ``write_tracks`` writes it, or None for any other file."""
    columns = read_written(path, _TRACK_FIELDS)
    if columns is None:
        return None
    video, query, frame, *box = columns
    runs = _written_runs(video, query, frame[1:] > frame[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        valid = _rows_valid(frame, *box).all()
    if runs is None or not valid:
        return None
    frames, boxes = frame.tolist(), np.stack(box, axis=1).tolist()
    return {key: dict(zip(frames[a:b], starmap(Box, boxes[a:b]))) for key, a, b in runs}


def write_tracks(path, tracks: Mapping[tuple[str, str], Mapping[int, Box]]) -> str:
    """Write every track in frame order, each row named by the track's key;
    box fields as floats.  Returns the file's SHA-256 hex digest."""
    def rows(key):
        track = tracks[key]
        frames = sorted(track)
        boxes = [track[frame] for frame in frames]
        return _rows(_TRACK_ROW, *key, frames,
                     *([float(getattr(box, side)) for box in boxes] for side in "xywh"))

    return _write_hashed(path, chain.from_iterable(map(rows, sorted(tracks))))


def write_scores(path, scored_by_key: dict[tuple[str, str], ScoredVideo]) -> None:
    """Write each row's ``new_score`` under its join key with the proposals file
    (video, query, frame, id), in the row order of ``write_proposals``."""
    def rows(key):
        scored = scored_by_key[key]
        return _rows(_SCORE_ROW, *key, scored.table.row_frames(), scored.table.ids,
                     scored.new_score.tolist())

    return _write_lines(path, chain.from_iterable(map(rows, sorted(scored_by_key))))
