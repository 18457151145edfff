import math
import re
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import astuple
from statistics import fmean, mean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import empty_mask

from trackref.geometry import (
    Box, box_iou, mask_iou, pbm_dumps, pbm_loads, rasterize_box,
)
from trackref.metrics import (
    QueryAttributes,
    SeriesStats,
    attribute_breakdown,
    auc_success,
    boundary_f,
    default_boundary_tolerance,
    evaluate_masks,
    series_stats,
    temporal_stability_proxy,
    track_iou_series,
    track_miou,
)

# Independent oracles, written before the operations they check.


def scan_boundary(mask):
    height, width = mask.shape
    out = np.zeros_like(mask)
    for r in range(height):
        for c in range(width):
            if not mask[r, c]:
                continue
            on_border = r in (0, height - 1) or c in (0, width - 1)
            has_unset_neighbor = not (
                mask[r - 1, c] and mask[r + 1, c] and mask[r, c - 1] and mask[r, c + 1]
            ) if not on_border else True
            out[r, c] = on_border or has_unset_neighbor
    return out


def boundary_f_by_distance(pred, gt, tol):
    """Brute-force contour F: per-pixel Chebyshev nearest-distance thresholding."""
    pred_pts = list(zip(*np.nonzero(scan_boundary(pred))))
    gt_pts = list(zip(*np.nonzero(scan_boundary(gt))))
    if not pred_pts and not gt_pts:
        return 1.0
    if not pred_pts or not gt_pts:
        return 0.0

    def matched(points, targets):
        hits = 0
        for r, c in points:
            if min(max(abs(r - tr), abs(c - tc)) for tr, tc in targets) <= tol:
                hits += 1
        return hits / len(points)

    precision = matched(pred_pts, gt_pts)
    recall = matched(gt_pts, pred_pts)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _attrs(**overrides):
    base = dict(
        is_coco=True, has_spatial=False, has_verb=False,
        length_bin="short", num_objects_bin="1", annotation_type="first_frame",
    )
    base.update(overrides)
    return QueryAttributes(**base)


class TestTrackMiou:
    def test_perfect_track(self):
        gt = {1: Box(0, 0, 4, 4), 2: Box(2, 0, 4, 4)}
        track = dict(gt)
        assert track_miou(track, gt) == 1.0

    def test_missing_predictions_score_zero(self):
        gt = {1: Box(0, 0, 4, 4), 2: Box(2, 0, 4, 4)}
        assert track_miou({}, gt) == 0.0

    def test_mixed_overlap(self):
        gt = {1: Box(0, 0, 10, 10), 2: Box(0, 0, 10, 10)}
        track = {1: Box(0, 0, 10, 10), 2: Box(5, 0, 10, 10)}
        assert track_miou(track, gt) == pytest.approx((1.0 + 1 / 3) / 2, abs=1e-12)

    def test_predicted_frames_outside_ground_truth_ignored(self):
        # Ground truth has no frame 2 (the object is off-frame there): neither
        # a prediction at frame 2 nor one past the last ground-truth frame counts.
        gt = {1: Box(0, 0, 4, 4), 3: Box(2, 0, 4, 4)}
        track = {1: Box(0, 0, 4, 4), 2: Box(9, 9, 1, 1), 3: Box(2, 0, 4, 4), 4: Box(0, 0, 1, 1)}
        assert track_iou_series(track, gt) == [1.0, 1.0]
        assert track_iou_series({1: Box(0, 0, 4, 4)}, gt) == [1.0, 0.0]

    def test_no_gt_frames_rejected(self):
        with pytest.raises(ValueError, match="no ground-truth frames"):
            track_miou({}, {})
        with pytest.raises(ValueError, match="no ground-truth frames"):
            track_iou_series({1: Box(0, 0, 4, 4)}, {})


class TestSeriesStats:
    def test_constant_series(self):
        stats = series_stats([0.8, 0.8, 0.8, 0.8])
        assert (stats.mean, stats.recall, stats.decay) == (0.8, 1.0, 0.0)

    def test_step_series(self):
        stats = series_stats([1, 1, 0, 0])
        assert (stats.mean, stats.recall, stats.decay) == (0.5, 0.5, 1.0)

    def test_recall_is_strict(self):
        assert series_stats([0.6, 0.4, 0.7]).recall == pytest.approx(2 / 3)
        assert series_stats([0.5, 0.5]).recall == 0.0

    def test_remainder_frames_go_to_early_bins(self):
        # 5 frames -> bins of sizes 2, 1, 1, 1
        stats = series_stats([1.0, 1.0, 1.0, 0.0, 0.0])
        assert stats.decay == 1.0

    def test_short_series_uses_last_nonempty_bin(self):
        assert series_stats([0.9, 0.3]).decay == pytest.approx(0.6)
        assert series_stats([0.9]).decay == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_stats([])

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            series_stats([0.5, 1.2])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            auc_success([-0.1, 0.5])

    def test_ranges(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            values = rng.rand(rng.randint(1, 30)).tolist()
            stats = series_stats(values)
            assert 0.0 <= stats.mean <= 1.0
            assert 0.0 <= stats.recall <= 1.0
            assert -1.0 <= stats.decay <= 1.0
        for n in (1, 2, 3, 4, 7, 11):
            assert series_stats([0.4] * n).decay == 0.0


def four_bin_stats(values):
    """Mean, recall and decay with all four quartile bins built, remainders first."""
    base, remainder = divmod(len(values), 4)
    bins, start = [], 0
    for index in range(4):
        size = base + (1 if index < remainder else 0)
        bins.append(values[start:start + size])
        start += size
    last = next(b for b in reversed(bins) if b)  # short series leave empty bins
    decay = float(mean(bins[0]) - mean(last))
    return SeriesStats(fmean(values), sum(v > 0.5 for v in values) / len(values), decay)


_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200).flatmap(lambda n: st.lists(_unit, min_size=n, max_size=n)))
def test_series_stats_equals_four_bin_construction(values):
    assert series_stats(values) == four_bin_stats(values)


def test_series_stats_decay_bins_for_every_length():
    # Distinct values per position, so a bin boundary off by one moves the decay.
    for n in range(1, 201):
        values = [(index * 37 % 101) / 100 for index in range(n)]
        assert series_stats(values) == four_bin_stats(values), n


class TestBoundaryF:
    def test_identity(self):
        mask = empty_mask(8, 8)
        mask[2:5, 2:5] = True
        assert boundary_f(mask, mask) == 1.0

    def test_empty_prediction(self):
        gt = empty_mask(8, 8)
        gt[2:5, 2:5] = True
        assert boundary_f(empty_mask(8, 8), gt) == 0.0

    def test_both_empty(self):
        assert boundary_f(empty_mask(8, 8), empty_mask(8, 8)) == 1.0

    def test_one_pixel_shift_within_tolerance(self):
        gt = empty_mask(8, 8)
        gt[2:5, 2:5] = True
        pred = empty_mask(8, 8)
        pred[3:6, 3:6] = True
        assert boundary_f(pred, gt, tolerance=1) == 1.0
        assert boundary_f_by_distance(pred, gt, 1) == 1.0

    def test_matches_distance_oracle(self):
        rng = np.random.RandomState(41)
        for _ in range(25):
            pred = rng.rand(10, 12) > 0.6
            gt = rng.rand(10, 12) > 0.6
            for tol in (0, 1, 2):
                assert boundary_f(pred, gt, tolerance=tol) == pytest.approx(
                    boundary_f_by_distance(pred, gt, tol), abs=1e-12
                )

    def test_symmetry(self):
        rng = np.random.RandomState(43)
        for _ in range(20):
            a = rng.rand(9, 9) > 0.5
            b = rng.rand(9, 9) > 0.5
            assert boundary_f(a, b) == pytest.approx(boundary_f(b, a), abs=1e-12)

    def test_monotone_in_tolerance(self):
        rng = np.random.RandomState(47)
        for _ in range(20):
            a = rng.rand(12, 12) > 0.6
            b = rng.rand(12, 12) > 0.6
            values = [boundary_f(a, b, tolerance=t) for t in (0, 1, 2, 4)]
            assert values == sorted(values)

    def test_default_tolerance(self):
        assert default_boundary_tolerance(8, 8) == 1
        assert default_boundary_tolerance(480, 854) == math.ceil(
            0.008 * math.hypot(480, 854)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            boundary_f(empty_mask(4, 4), empty_mask(4, 5))

    @pytest.mark.parametrize("tolerance", [10**6, 10**9, 2**62])
    def test_huge_tolerance_equals_longer_side(self, tolerance):
        pred = rasterize_box(Box(10, 10, 30, 20), 100, 80)
        gt = rasterize_box(Box(50, 40, 30, 25), 100, 80)
        assert boundary_f(pred, gt, 1) < 1.0
        start = time.perf_counter()
        value = boundary_f(pred, gt, tolerance)
        # The dilation is bounded by the masks' bbox, not by the tolerance:
        # a few milliseconds here, where a tolerance-sized filter takes seconds.
        assert time.perf_counter() - start < 0.5
        assert value == boundary_f(pred, gt, 100) == 1.0


class TestTemporalStabilityProxy:
    def test_identical_masks(self):
        mask = empty_mask(8, 8)
        mask[2:5, 2:5] = True
        assert temporal_stability_proxy([mask, mask, mask]) == 0.0

    def test_pure_translation_cancels(self):
        masks = []
        for step in range(4):
            mask = empty_mask(10, 24)
            mask[3:7, 2 + 3 * step:6 + 3 * step] = True
            masks.append(mask)
        assert temporal_stability_proxy(masks) == 0.0

    def test_alternating_full_and_empty(self):
        full = np.ones((4, 4), dtype=bool)
        empty = empty_mask(4, 4)
        assert temporal_stability_proxy([full, empty, full]) == 1.0

    def test_both_empty_pair_contributes_zero(self):
        empty = empty_mask(4, 4)
        assert temporal_stability_proxy([empty, empty]) == 0.0

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            temporal_stability_proxy([empty_mask(4, 4)])

    def test_each_pair_is_compared_at_its_own_size(self):
        small, large = empty_mask(4, 6), empty_mask(8, 6)
        small[1, 1] = large[6, 1] = True
        # An empty frame between sizes is compared with neither shape.
        assert temporal_stability_proxy([small, empty_mask(8, 6), large, large]) == 2 / 3
        with pytest.raises(ValueError, match=r"mask dimensions differ: \(4, 6\) vs \(8, 6\)"):
            temporal_stability_proxy([small, small, large])


class TestEvaluateMasks:
    def _shape(self, offset):
        mask = empty_mask(12, 12)
        mask[3 + offset:7 + offset, 3:8] = True
        return mask

    def test_perfect_prediction(self):
        gt = {f: self._shape(0) for f in range(1, 5)}
        report = evaluate_masks(dict(gt), gt)
        assert report.j_mean == report.f_mean == report.jf == 1.0
        assert report.j_recall == report.f_recall == 1.0
        assert report.j_decay == report.f_decay == 0.0
        assert report.t_proxy == 0.0

    def test_empty_prediction(self):
        gt = {f: self._shape(0) for f in range(1, 4)}
        pred = {f: empty_mask(12, 12) for f in range(1, 4)}
        report = evaluate_masks(pred, gt)
        assert report.j_mean == 0.0
        assert report.f_mean == 0.0
        assert report.jf == 0.0

    def test_composed_from_per_frame_values(self):
        gt = {1: self._shape(0), 2: self._shape(0), 3: self._shape(0), 4: self._shape(0)}
        pred = {1: self._shape(0), 2: self._shape(1), 3: self._shape(0), 4: empty_mask(12, 12)}
        report = evaluate_masks(pred, gt, tolerance=1)
        expected_j = [mask_iou(pred[f], gt[f]) for f in (1, 2, 3, 4)]
        expected_f = [boundary_f(pred[f], gt[f], 1) for f in (1, 2, 3, 4)]
        assert report.j_series == tuple(expected_j)
        assert report.f_series == tuple(expected_f)
        assert report.j_mean == pytest.approx(fmean(expected_j))
        assert report.jf == pytest.approx((report.j_mean + report.f_mean) / 2)
        assert report.t_proxy == temporal_stability_proxy([pred[f] for f in (1, 2, 3, 4)])

    def test_single_frame_has_zero_stability(self):
        gt = {1: self._shape(0)}
        assert evaluate_masks(dict(gt), gt).t_proxy == 0.0

    def test_frame_mismatch_rejected(self):
        gt = {1: self._shape(0), 2: self._shape(0)}
        with pytest.raises(ValueError, match="frame sets differ"):
            evaluate_masks({1: self._shape(0)}, gt)

    def test_size_change_between_frames_names_both_frames(self):
        small, large = empty_mask(4, 6), empty_mask(8, 6)
        masks = {1: small, 2: small, 3: large}
        with pytest.raises(ValueError, match=(
            r"^mask size changes between frames 2 and 3: \(4, 6\) vs \(8, 6\)$"
        )):
            evaluate_masks(masks, dict(masks))


class _Decoding(Mapping):
    """Masks stored as PBM text; each access decodes a new array, and is counted."""

    def __init__(self, masks):
        self._texts = {frame: pbm_dumps(mask) for frame, mask in masks.items()}
        self.reads = Counter()

    def __getitem__(self, frame):
        self.reads[frame] += 1
        return pbm_loads(self._texts[frame])

    def __iter__(self):
        return iter(self._texts)

    def __len__(self):
        return len(self._texts)


@st.composite
def mask_keys(draw):
    """``(pred, gt)`` frame dicts of one key: 1-5 frames, some masks empty, and
    at times one frame of both sides at another size."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    frames = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    resized = draw(st.sampled_from([None, *frames]))

    def mask(frame):
        shape = (height + 1, width) if frame == resized else (height, width)
        kind = draw(st.sampled_from(["empty", "full", "bits"]))
        if kind != "bits":
            return np.full(shape, kind == "full")
        bits = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        return np.array(bits, dtype=bool).reshape(shape)

    return {f: mask(f) for f in frames}, {f: mask(f) for f in frames}


def _outcome(pred, gt):
    try:
        return repr(astuple(evaluate_masks(pred, gt)))  # repr tells -0.0 from 0.0
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(mask_keys())
def test_evaluate_masks_over_decoding_mappings_equals_over_dicts(key):
    pred, gt = key
    lazy_pred, lazy_gt = _Decoding(pred), _Decoding(gt)
    outcome = _outcome(lazy_pred, lazy_gt)
    assert outcome == _outcome(pred, gt)
    if not outcome.startswith("ValueError"):
        assert set(lazy_pred.reads.values()) == set(lazy_gt.reads.values()) == {1}
        frames = sorted(gt)
        ordered = [pred[f] for f in frames]
        expected = (
            [mask_iou(pred[f], gt[f]) for f in frames],
            [boundary_f(pred[f], gt[f]) for f in frames],
            temporal_stability_proxy(ordered) if len(frames) > 1 else 0.0,
        )
        report = evaluate_masks(pred, gt)
        assert (list(report.j_series), list(report.f_series), report.t_proxy) == expected


class TestAucSuccess:
    def test_all_zero(self):
        assert auc_success([0.0, 0.0, 0.0]) == 0.0

    def test_all_one(self):
        assert auc_success([1.0, 1.0]) == pytest.approx(20 / 21, abs=1e-15)

    def test_all_half(self):
        assert auc_success([0.5] * 7) == pytest.approx(10 / 21, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc_success([])

    def test_monotone_in_series(self):
        rng = np.random.RandomState(53)
        for _ in range(30):
            low = rng.rand(12)
            high = np.minimum(low + rng.rand(12) * 0.3, 1.0)
            assert auc_success(high) >= auc_success(low)


class TestAttributeBreakdown:
    def test_grouping_mean(self):
        metric = {"a": 0.4, "b": 0.6}
        attrs = {"a": _attrs(), "b": _attrs()}
        out = attribute_breakdown(metric, attrs)
        assert out["length_short"] == pytest.approx(0.5)
        assert "length_medium" not in out

    def test_singleton_groups(self):
        metric = {"a": 0.4, "b": 0.6}
        attrs = {"a": _attrs(length_bin="short"), "b": _attrs(length_bin="long")}
        out = attribute_breakdown(metric, attrs)
        assert out["length_short"] == pytest.approx(0.4)
        assert out["length_long"] == pytest.approx(0.6)

    def test_coco_split(self):
        metric = {"a": 0.8, "b": 0.2}
        attrs = {"a": _attrs(is_coco=True), "b": _attrs(is_coco=False)}
        out = attribute_breakdown(metric, attrs)
        assert out["coco"] == pytest.approx(0.8)
        assert out["non_coco"] == pytest.approx(0.2)

    def test_missing_attributes_rejected_with_query_id(self):
        with pytest.raises(ValueError, match="mystery"):
            attribute_breakdown({"mystery": 0.5}, {})

    def test_group_means_are_convex(self):
        rng = np.random.RandomState(59)
        metric = {f"q{i}": float(rng.rand()) for i in range(20)}
        bins = ["short", "medium", "long"]
        attrs = {
            key: _attrs(length_bin=bins[rng.randint(3)], is_coco=bool(rng.randint(2)))
            for key in metric
        }
        out = attribute_breakdown(metric, attrs)
        for value in out.values():
            assert min(metric.values()) <= value <= max(metric.values())

    def test_invalid_bin_rejected(self):
        with pytest.raises(ValueError):
            _attrs(length_bin="tiny")

    @pytest.mark.parametrize("name, value", [
        ("is_coco", 2),
        ("has_verb", None),
        ("length_bin", ["short"]),
        ("num_objects_bin", 1),
        ("annotation_type", "first-frame"),
    ])
    def test_invalid_value_names_its_tag(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"invalid {name} {value!r}")):
            _attrs(**{name: value})


class TestCrossModuleConsistency:
    def test_rasterized_track_j_equals_box_miou(self):
        rng = np.random.RandomState(61)
        for _ in range(20):
            gt_boxes = {}
            pred_entries = {}
            ious = []
            for frame in range(1, 6):
                def int_box():
                    x, y = rng.randint(0, 20, size=2)
                    w, h = rng.randint(1, 12, size=2)
                    return Box(float(x), float(y), float(w), float(h))

                gt_boxes[frame] = int_box()
                pred_entries[frame] = int_box()
                j = mask_iou(
                    rasterize_box(pred_entries[frame], 32, 32),
                    rasterize_box(gt_boxes[frame], 32, 32),
                )
                iou = box_iou(pred_entries[frame], gt_boxes[frame])
                assert abs(j - iou) < 1e-9
                ious.append(iou)
            track = pred_entries
            assert track_miou(track, gt_boxes) == pytest.approx(fmean(ious), abs=1e-9)
