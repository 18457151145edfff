"""Track and mask evaluation: region overlap, boundary accuracy, stability.

A box track is a plain ``{frame: Box}`` mapping, the shape of ground truth
too, so evaluation needs nothing from the re-ranker.

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


# Each tag's values and the breakdown group each one names, in report order.
ATTRIBUTE_GROUPS = {
    "is_coco": {True: "coco", False: "non_coco"},
    "has_spatial": {True: "spatial", False: "non_spatial"},
    "has_verb": {True: "verb", False: "no_verb"},
    "length_bin": {"short": "length_short", "medium": "length_medium", "long": "length_long"},
    "num_objects_bin": {"1": "objects_1", "2-3": "objects_2_3", ">3": "objects_over_3"},
    "annotation_type": {"first_frame": "first_frame", "full_video": "full_video"},
}


@dataclass(frozen=True)
class QueryAttributes:
    """Per-query tags driving the attribute breakdown tables."""

    is_coco: bool
    has_spatial: bool
    has_verb: bool
    length_bin: str
    num_objects_bin: str
    annotation_type: str

    def __post_init__(self):
        for name, groups in ATTRIBUTE_GROUPS.items():
            value = getattr(self, name)
            # A tuple compares by ==, so an unhashable value is invalid, not a TypeError.
            if value not in tuple(groups):
                raise ValueError(f"invalid {name} {value!r}")


def track_iou_series(pred: Mapping[int, Box], gt_boxes: Mapping[int, Box]) -> list[float]:
    """Per-frame overlap of a track against a ground-truth ``{frame: box}`` track.

    The ground-truth frames are the evaluation set: a missing prediction on
    such a frame contributes 0, and a predicted frame outside it is ignored.
    An overlap that is not finite (boxes near the float range overflow it)
    raises ValueError naming the frame.
    """
    frames = sorted(gt_boxes)
    if not frames:
        raise ValueError("no ground-truth frames to evaluate")
    series = []
    for frame in frames:
        predicted = pred.get(frame)
        series.append(0.0 if predicted is None else box_iou(predicted, gt_boxes[frame]))
        if not math.isfinite(series[-1]):
            raise ValueError(f"box IoU at frame {frame} is not finite: {series[-1]}")
    return series


def track_miou(pred: Mapping[int, Box], gt_boxes: Mapping[int, Box]) -> float:
    return fmean(track_iou_series(pred, gt_boxes))


def series_stats(values: Sequence[float]) -> SeriesStats:
    if len(values) == 0:
        raise ValueError("cannot summarize an empty series")
    values = [float(v) for v in values]
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ValueError("series values must lie in [0, 1]")
    mean_value = fmean(values)
    recall = sum(1 for v in values if v > 0.5) / len(values)
    # Of the four bins only the first and the last non-empty one are read:
    # the first holds ceil(n / 4) values, the last non-empty max(n // 4, 1).
    first = values[:-(-len(values) // 4)]
    last = values[-max(len(values) // 4, 1):]
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
    pred_count = np.count_nonzero(pred_boundary)
    gt_count = np.count_nonzero(gt_boundary)
    if pred_count == 0 or gt_count == 0:
        return 0.0
    gt_reach = _square_dilation(gt_boundary, tolerance)
    pred_reach = _square_dilation(pred_boundary, tolerance)
    precision = np.count_nonzero(pred_boundary & gt_reach) / pred_count
    recall = np.count_nonzero(gt_boundary & pred_reach) / gt_count
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _object(mask: Mask) -> tuple[int, int, Mask, int, tuple[float, float]] | None:
    """Top row, left column, tight crop, pixel count and centroid of the set
    pixels; None when the mask is empty."""
    window = mask_bbox(mask)
    if window is None:
        return None
    rows, cols = window
    crop = mask[window]
    # Integer moments from the row and column sums inside the bbox; exact
    # below 2**53, so each coordinate is the correctly rounded mean index.
    row_counts = np.count_nonzero(crop, axis=1)
    col_counts = np.count_nonzero(crop, axis=0)
    total = int(row_counts.sum())
    centroid = (
        int(row_counts @ np.arange(rows.start, rows.stop)) / total,
        int(col_counts @ np.arange(cols.start, cols.stop)) / total,
    )
    return rows.start, cols.start, crop, total, centroid


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _dissimilarity(a, b, shape: tuple[int, int]) -> float:
    """One minus the IoU of two ``_object``s of ``shape``-sized masks, once
    ``a`` is shifted by the integer step that best aligns the centroids.

    Content shifted out of the frame is lost.  Exactly one empty mask gives
    1, two give 0.  The overlap is counted on the shifted crops, so the IoU
    is the full-frame one, integer counts and all.
    """
    if a is None or b is None:
        return 0.0 if a is b else 1.0
    height, width = shape
    top_a, left_a, crop_a, count_a, (r0, c0) = a
    top_b, left_b, crop_b, count_b, (r1, c1) = b
    top_a += _round_half_up(r1 - r0)
    left_a += _round_half_up(c1 - c0)
    kept = crop_a[max(0, -top_a):max(0, height - top_a),
                  max(0, -left_a):max(0, width - left_a)]
    if kept.shape != crop_a.shape:
        count_a = np.count_nonzero(kept)
    # b's crop lies inside the frame, so the overlap of the two boxes does.
    r_lo, r_hi = max(top_a, top_b), min(top_a + crop_a.shape[0], top_b + crop_b.shape[0])
    c_lo, c_hi = max(left_a, left_b), min(left_a + crop_a.shape[1], left_b + crop_b.shape[1])
    inter = 0
    if r_lo < r_hi and c_lo < c_hi:
        inter = np.count_nonzero(
            crop_a[r_lo - top_a:r_hi - top_a, c_lo - left_a:c_hi - left_a]
            & crop_b[r_lo - top_b:r_hi - top_b, c_lo - left_b:c_hi - left_b]
        )
    return 1.0 - inter / (count_a + count_b - inter)


def temporal_stability_proxy(masks: Sequence[Mask]) -> float:
    """Mean centroid-aligned dissimilarity of consecutive mask pairs.

    Each mask is translated so set-pixel centroids coincide (integer shift)
    before comparing, which cancels pure translation.  Each mask's crop,
    pixel count and centroid are found once.  ``evaluate_masks`` computes
    the same mean as it walks the frames, without calling this function.
    """
    if len(masks) < 2:
        raise ValueError("temporal stability needs at least two frames")
    objects = [_object(mask) for mask in masks]
    contributions = []
    for current, following, a, b in zip(masks, masks[1:], objects, objects[1:]):
        if a is not None and b is not None and current.shape != following.shape:
            raise ValueError(f"mask dimensions differ: {current.shape} vs {following.shape}")
        contributions.append(_dissimilarity(a, b, following.shape))
    return fmean(contributions)


def evaluate_masks(
    pred: Mapping[int, Mask],
    gt: Mapping[int, Mask],
    tolerance: int | None = None,
) -> EvalReport:
    """Full per-query mask evaluation over aligned frame sets.

    Every mask must have the same size.  The frames are walked once in
    order, and each frame's masks are looked up once, so a mapping that
    decodes on access holds two frames of each side: the current one, and
    the previous prediction for the temporal proxy.  Whole masks go to
    ``mask_iou`` and ``boundary_f``, and each crops the pair to the union of
    their bboxes; ``boundary_f`` takes its default tolerance from the frame
    size.
    """
    if set(pred) != set(gt):
        missing = sorted(set(gt) - set(pred))
        extra = sorted(set(pred) - set(gt))
        raise ValueError(
            f"frame sets differ (missing predictions: {missing}, extra: {extra})"
        )
    if not pred:
        raise ValueError("no frames to evaluate")
    j_series, f_series, t_series = [], [], []
    previous = None  # (frame, shape, object) of the previous prediction
    for f in sorted(pred):
        p, g = pred[f], gt[f]
        if p.shape != g.shape:
            raise ValueError(f"mask dimensions differ at frame {f}: {p.shape} vs {g.shape}")
        if previous is not None and p.shape != previous[1]:
            raise ValueError(
                f"mask size changes between frames {previous[0]} and {f}: "
                f"{previous[1]} vs {p.shape}"
            )
        j_series.append(mask_iou(p, g))
        f_series.append(boundary_f(p, g, tolerance))
        current = _object(p)
        if previous is not None:
            t_series.append(_dissimilarity(previous[2], current, p.shape))
        previous = f, p.shape, current
    j_stats = series_stats(j_series)
    f_stats = series_stats(f_series)
    t_proxy = fmean(t_series) if t_series else 0.0  # a single frame cannot jitter
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
    for tag, groups in ATTRIBUTE_GROUPS.items():
        for value, name in groups.items():
            values = [metric_by_query[q] for q in ordered
                      if getattr(attrs_by_query[q], tag) == value]
            if values:
                out[name] = fmean(values)
    return out
