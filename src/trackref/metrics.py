"""Track and mask evaluation: region overlap, boundary accuracy, stability.

Per-frame region similarity is mask IoU (Jaccard); boundary accuracy is the
F-measure between mask contours under a pixel tolerance.  Each per-frame
series is summarized as mean / recall / decay:

* mean    - arithmetic mean over frames
* recall  - fraction of frames strictly above 0.5
* decay   - mean of the first temporal quartile minus mean of the last,
            with frames split into 4 contiguous bins of near-equal size
            (remainder frames go to the earliest bins)

Temporal stability is reported as a proxy: the mean centroid-aligned
dissimilarity of consecutive masks.  It lives in its own field and is never
folded into the combined region-and-boundary score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, mean
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box, Mask, box_iou, boundary_pixels, mask_bbox, mask_iou
from .rerank import Track

SUCCESS_THRESHOLD_COUNT = 21  # thresholds 0.00, 0.05, ..., 1.00


@dataclass(frozen=True)
class SeriesStats:
    mean: float
    recall: float
    decay: float


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one (video, query) mask evaluation."""

    j_mean: float
    j_recall: float
    j_decay: float
    f_mean: float
    f_recall: float
    f_decay: float
    t_proxy: float
    jf: float
    j_series: tuple[float, ...]
    f_series: tuple[float, ...]


@dataclass(frozen=True)
class QueryAttributes:
    """Per-query tags driving the attribute breakdown tables."""

    is_coco: bool
    has_spatial: bool
    has_verb: bool
    length_bin: str  # "short" | "medium" | "long"
    num_objects_bin: str  # "1" | "2-3" | ">3"
    annotation_type: str  # "first_frame" | "full_video"

    def __post_init__(self):
        if self.length_bin not in ("short", "medium", "long"):
            raise ValueError(f"invalid length_bin {self.length_bin!r}")
        if self.num_objects_bin not in ("1", "2-3", ">3"):
            raise ValueError(f"invalid num_objects_bin {self.num_objects_bin!r}")
        if self.annotation_type not in ("first_frame", "full_video"):
            raise ValueError(f"invalid annotation_type {self.annotation_type!r}")


def track_iou_series(pred: Track, gt_boxes: Mapping[int, Box | None]) -> list[float]:
    """Per-frame overlap of a track against ground-truth boxes.

    Frames with a ground-truth box define the evaluation set; a missing
    prediction on such a frame contributes 0.  An overlap that is not finite
    (boxes near the float range overflow it) raises ValueError naming the
    frame.
    """
    frames = sorted(f for f, box in gt_boxes.items() if box is not None)
    if not frames:
        raise ValueError("no ground-truth frames to evaluate")
    series = []
    for frame in frames:
        predicted = pred.box_at(frame)
        series.append(0.0 if predicted is None else box_iou(predicted, gt_boxes[frame]))
        if not math.isfinite(series[-1]):
            raise ValueError(f"box IoU at frame {frame} is not finite: {series[-1]}")
    return series


def track_miou(pred: Track, gt_boxes: Mapping[int, Box | None]) -> float:
    return fmean(track_iou_series(pred, gt_boxes))


def _quartile_bins(n: int) -> list[int]:
    base, remainder = divmod(n, 4)
    return [base + (1 if i < remainder else 0) for i in range(4)]


def series_stats(values: Sequence[float]) -> SeriesStats:
    if len(values) == 0:
        raise ValueError("cannot summarize an empty series")
    values = [float(v) for v in values]
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ValueError("series values must lie in [0, 1]")
    mean_value = fmean(values)
    recall = sum(1 for v in values if v > 0.5) / len(values)
    sizes = _quartile_bins(len(values))
    bins: list[list[float]] = []
    start = 0
    for size in sizes:
        bins.append(values[start:start + size])
        start += size
    first = bins[0]
    last = next(b for b in reversed(bins) if b)  # series < 4 frames leave empty bins
    # statistics.mean is exact over rationals, so constant series decay to 0.0
    decay = float(mean(first) - mean(last))
    return SeriesStats(mean_value, recall, decay)


def default_boundary_tolerance(height: int, width: int) -> int:
    """0.8% of the image diagonal, rounded up, at least one pixel."""
    return max(1, math.ceil(0.008 * math.hypot(height, width)))


def _square_dilation(mask: Mask, radius: int) -> Mask:
    """Dilation by the (2 * radius + 1)-pixel square, zero outside the array.

    Equal to ``maximum_filter(mask, size=2 * radius + 1, mode="constant")``.
    Separable: on each axis, a map of reach r ORed with its shifts by s each
    way has reach r + s while s <= r + 1 (a longer shift would lose pixels
    at the edge), so the reach doubles per step and stops at the axis
    length: O(pixels * log(side)) whatever the radius.  The overlapping
    in-place ORs are safe because numpy buffers an input that overlaps the
    output.
    """
    out = mask.copy()
    for view in (out, out.T):
        reach, limit = 0, min(radius, view.shape[0] - 1)
        while reach < limit:
            step = min(reach + 1, limit - reach)
            view[step:] |= view[:-step]
            view[:-step] |= view[step:]
            reach += step
    return out


def boundary_f(pred: Mask, gt: Mask, tolerance: int | None = None) -> float:
    """Boundary F-measure under a Chebyshev pixel tolerance.

    Precision is the fraction of predicted boundary pixels within
    ``tolerance`` (Chebyshev) of some ground-truth boundary pixel; recall is
    symmetric.  Matching uses square dilation of the opposite boundary, a
    standard deterministic approximation of contour matching.  The dilation
    is exact for any tolerance >= 0, and its cost is bounded by the union
    bbox of the two masks, not by the tolerance: a tolerance at or past the
    frame's longer side gives the same F as that side.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"mask dimensions differ: {pred.shape} vs {gt.shape}")
    if tolerance is None:
        tolerance = default_boundary_tolerance(*pred.shape)
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    window = mask_bbox(pred | gt)
    if window is None:
        return 1.0  # both masks empty; any non-empty mask has a boundary pixel
    # Every count below is unchanged by the crop: no boundary pixel lies
    # outside the union bbox, the zero padding at its edge stands in for the
    # unset pixels there, and the reach maps are only read at boundary pixels.
    pred, gt = pred[window], gt[window]
    pred_boundary = boundary_pixels(pred)
    gt_boundary = boundary_pixels(gt)
    pred_count = int(pred_boundary.sum())
    gt_count = int(gt_boundary.sum())
    if pred_count == 0 or gt_count == 0:
        return 0.0
    gt_reach = _square_dilation(gt_boundary, tolerance)
    pred_reach = _square_dilation(pred_boundary, tolerance)
    precision = int((pred_boundary & gt_reach).sum()) / pred_count
    recall = int((gt_boundary & pred_reach).sum()) / gt_count
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _centroid(mask: Mask) -> tuple[float, float]:
    # Integer moments from the row and column sums inside the bbox; exact
    # below 2**53, so each coordinate is the correctly rounded mean index.
    rows, cols = mask_bbox(mask)
    crop = mask[rows, cols]
    row_counts = np.count_nonzero(crop, axis=1)
    col_counts = np.count_nonzero(crop, axis=0)
    total = int(row_counts.sum())
    return (
        int(row_counts @ np.arange(rows.start, rows.stop)) / total,
        int(col_counts @ np.arange(cols.start, cols.stop)) / total,
    )


def _translate(mask: Mask, dr: int, dc: int) -> Mask:
    """Integer translation with zero fill (content shifted out is lost)."""
    height, width = mask.shape
    out = np.zeros_like(mask)
    src_r0, src_r1 = max(0, -dr), min(height, height - dr)
    src_c0, src_c1 = max(0, -dc), min(width, width - dc)
    if src_r0 < src_r1 and src_c0 < src_c1:
        out[src_r0 + dr:src_r1 + dr, src_c0 + dc:src_c1 + dc] = (
            mask[src_r0:src_r1, src_c0:src_c1]
        )
    return out


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def temporal_stability_proxy(masks: Sequence[Mask]) -> float:
    """Mean centroid-aligned dissimilarity of consecutive mask pairs.

    Each mask is translated so set-pixel centroids coincide (integer shift)
    before comparing, which cancels pure translation.  A pair with exactly
    one empty mask contributes 1; two empty masks contribute 0.
    """
    if len(masks) < 2:
        raise ValueError("temporal stability needs at least two frames")
    contributions = []
    for current, following in zip(masks, masks[1:]):
        current_empty = not current.any()
        following_empty = not following.any()
        if current_empty and following_empty:
            contributions.append(0.0)
            continue
        if current_empty or following_empty:
            contributions.append(1.0)
            continue
        r0, c0 = _centroid(current)
        r1, c1 = _centroid(following)
        aligned = _translate(current, _round_half_up(r1 - r0), _round_half_up(c1 - c0))
        contributions.append(1.0 - mask_iou(aligned, following))
    return fmean(contributions)


def evaluate_masks(
    pred: Mapping[int, Mask],
    gt: Mapping[int, Mask],
    tolerance: int | None = None,
) -> EvalReport:
    """Full per-query mask evaluation over aligned frame sets."""
    if set(pred) != set(gt):
        missing = sorted(set(gt) - set(pred))
        extra = sorted(set(pred) - set(gt))
        raise ValueError(
            f"frame sets differ (missing predictions: {missing}, extra: {extra})"
        )
    if not pred:
        raise ValueError("no frames to evaluate")
    frames = sorted(pred)
    j_series = [mask_iou(pred[f], gt[f]) for f in frames]
    f_series = [boundary_f(pred[f], gt[f], tolerance) for f in frames]
    j_stats = series_stats(j_series)
    f_stats = series_stats(f_series)
    if len(frames) >= 2:
        t_proxy = temporal_stability_proxy([pred[f] for f in frames])
    else:
        t_proxy = 0.0  # a single frame cannot jitter
    return EvalReport(
        j_mean=j_stats.mean, j_recall=j_stats.recall, j_decay=j_stats.decay,
        f_mean=f_stats.mean, f_recall=f_stats.recall, f_decay=f_stats.decay,
        t_proxy=t_proxy,
        jf=(j_stats.mean + f_stats.mean) / 2,
        j_series=tuple(j_series),
        f_series=tuple(f_series),
    )


def auc_success(ious: Sequence[float]) -> float:
    """Mean success rate over 21 overlap thresholds 0.00, 0.05, ..., 1.00.

    Success at threshold t is the fraction of frames whose overlap strictly
    exceeds t, so a perfect series scores 20/21 (it fails only at t = 1).
    """
    if len(ious) == 0:
        raise ValueError("cannot compute success AUC of an empty series")
    values = np.asarray(ious, dtype=float)
    if ((values < 0.0) | (values > 1.0)).any():
        raise ValueError("series values must lie in [0, 1]")
    total = 0.0
    for i in range(SUCCESS_THRESHOLD_COUNT):
        threshold = i / 20.0
        total += float((values > threshold).mean())
    return total / SUCCESS_THRESHOLD_COUNT


_BREAKDOWN_GROUPS = (
    ("coco", lambda a: a.is_coco),
    ("non_coco", lambda a: not a.is_coco),
    ("spatial", lambda a: a.has_spatial),
    ("non_spatial", lambda a: not a.has_spatial),
    ("verb", lambda a: a.has_verb),
    ("no_verb", lambda a: not a.has_verb),
    ("length_short", lambda a: a.length_bin == "short"),
    ("length_medium", lambda a: a.length_bin == "medium"),
    ("length_long", lambda a: a.length_bin == "long"),
    ("objects_1", lambda a: a.num_objects_bin == "1"),
    ("objects_2_3", lambda a: a.num_objects_bin == "2-3"),
    ("objects_over_3", lambda a: a.num_objects_bin == ">3"),
    ("first_frame", lambda a: a.annotation_type == "first_frame"),
    ("full_video", lambda a: a.annotation_type == "full_video"),
)


def attribute_breakdown(
    metric_by_query: Mapping, attrs_by_query: Mapping
) -> dict[str, float]:
    """Mean of a scalar metric over queries sharing each attribute value.

    Every query in ``metric_by_query`` must have an attribute record; empty
    groups are omitted from the output.
    """
    missing = sorted(str(q) for q in metric_by_query if q not in attrs_by_query)
    if missing:
        raise ValueError(f"missing attributes for queries: {', '.join(missing)}")
    ordered = sorted(metric_by_query)
    out: dict[str, float] = {}
    for name, matches in _BREAKDOWN_GROUPS:
        values = [metric_by_query[q] for q in ordered if matches(attrs_by_query[q])]
        if values:
            out[name] = fmean(values)
    return out
