"""Bbox-limited mask kernels and the array mask codecs against their oracles.

The oracles below are the full-frame implementations the fast kernels
replaced, and the integer-diff RLE encoder.  Every property asserts exact equality: the fast kernels skip only
pixels that provably cannot change the result.  scipy is a test-only
dependency: its ``maximum_filter`` is the independent reference for boundary
F's square dilation.
"""

import math
import os
import tempfile
from statistics import fmean

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter

from trackref.geometry import (
    AffineTransform,
    _warp_window,
    boundary_pixels,
    box_from_mask,
    mask_bbox,
    mask_iou,
    RleMask,
    pbm_dumps,
    pbm_loads,
    read_mask,
    rle_decode,
    rle_encode,
    rle_line_dumps,
    rle_line_loads,
    warp_mask,
)
from trackref.metrics import (
    _object,
    _square_dilation,
    boundary_f,
    default_boundary_tolerance,
    evaluate_masks,
    temporal_stability_proxy,
)


def warp_mask_full_frame(mask, transform):
    height, width = mask.shape
    inv = transform.inverse()
    cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    src_x = inv.a * cols + inv.b * rows + inv.tx
    src_y = inv.c * cols + inv.d * rows + inv.ty
    src_c = np.floor(src_x + 0.5).astype(np.int64)
    src_r = np.floor(src_y + 0.5).astype(np.int64)
    inside = (src_r >= 0) & (src_r < height) & (src_c >= 0) & (src_c < width)
    out = np.zeros_like(mask)
    out[inside] = mask[src_r[inside], src_c[inside]]
    return out


def mask_iou_full_frame(a, b):
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(a, b).sum()) / union


def boundary_f_full_frame(pred, gt, tolerance):
    pred_boundary = boundary_pixels(pred)
    gt_boundary = boundary_pixels(gt)
    pred_count = int(pred_boundary.sum())
    gt_count = int(gt_boundary.sum())
    if pred_count == 0 and gt_count == 0:
        return 1.0
    if pred_count == 0 or gt_count == 0:
        return 0.0
    size = 2 * tolerance + 1
    gt_reach = maximum_filter(gt_boundary.astype(np.uint8), size=size, mode="constant") > 0
    pred_reach = maximum_filter(pred_boundary.astype(np.uint8), size=size, mode="constant") > 0
    precision = int((pred_boundary & gt_reach).sum()) / pred_count
    recall = int((gt_boundary & pred_reach).sum()) / gt_count
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def centroid_by_nonzero(mask):
    rows, cols = np.nonzero(mask)
    return float(rows.mean()), float(cols.mean())


def translate_full_frame(mask, dr, dc):
    """Pixel-by-pixel integer shift; content shifted out of the frame is lost."""
    height, width = mask.shape
    out = np.zeros_like(mask)
    for row, col in zip(*np.nonzero(mask)):
        if 0 <= row + dr < height and 0 <= col + dc < width:
            out[row + dr, col + dc] = True
    return out


def temporal_stability_proxy_full_frame(masks):
    """The proxy on whole frames: shift each mask by the rounded centroid
    difference, then take the full-frame IoU with the next mask."""
    contributions = []
    for current, following in zip(masks, masks[1:]):
        if not current.any() or not following.any():
            contributions.append(0.0 if current.any() == following.any() else 1.0)
            continue
        (r0, c0), (r1, c1) = centroid_by_nonzero(current), centroid_by_nonzero(following)
        aligned = translate_full_frame(
            current, math.floor(r1 - r0 + 0.5), math.floor(c1 - c0 + 0.5)
        )
        contributions.append(1.0 - mask_iou_full_frame(aligned, following))
    return fmean(contributions)


def evaluate_masks_full_frame(pred, gt, tolerance):
    """Per-frame J and F on whole frames (the default tolerance from each
    frame's size) and the full-frame proxy (0 for a single frame)."""
    frames = sorted(gt)
    j_series = tuple(mask_iou_full_frame(pred[f], gt[f]) for f in frames)
    f_series = tuple(
        boundary_f_full_frame(
            pred[f], gt[f],
            default_boundary_tolerance(*gt[f].shape) if tolerance is None else tolerance,
        )
        for f in frames
    )
    masks = [pred[f] for f in frames]
    t_proxy = temporal_stability_proxy_full_frame(masks) if len(masks) > 1 else 0.0
    return j_series, f_series, t_proxy


def pbm_loads_by_tokens(text):
    """The token-by-token PBM parser: split on whitespace, join the payload."""
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    tokens = " ".join(lines).split()
    if len(tokens) < 3 or tokens[0] != "P1":
        raise ValueError("not an ASCII PBM document (missing P1 header)")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise ValueError("malformed PBM dimensions") from exc
    if width < 1 or height < 1:
        raise ValueError(f"invalid PBM dimensions {width}x{height}")
    bits = "".join(tokens[3:])
    if len(bits) != width * height:
        raise ValueError(
            f"PBM payload has {len(bits)} bits, expected {width * height}"
        )
    if bits.strip("01"):
        raise ValueError("PBM payload contains characters other than 0/1")
    flat = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    return flat.reshape(height, width)


def rle_encode_by_diff(mask):
    """The RLE encoder that diffs an int8 copy of the mask."""
    flat = mask.ravel().astype(np.int8)
    change_points = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], change_points, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return RleMask(mask.shape[0], mask.shape[1], tuple(int(r) for r in runs))


@st.composite
def masks(draw, shape=None):
    """Sparse or dense pixels inside a random sub-window, often at the border."""
    if shape is None:
        shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    height, width = shape
    r0 = draw(st.integers(0, height - 1))
    r1 = draw(st.integers(r0 + 1, height))
    c0 = draw(st.integers(0, width - 1))
    c1 = draw(st.integers(c0 + 1, width))
    density = draw(st.sampled_from([0.0, 0.05, 0.4, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    mask = np.zeros(shape, dtype=bool)
    mask[r0:r1, c0:c1] = np.random.default_rng(seed).random((r1 - r0, c1 - c0)) < density
    if density:  # only density 0 gives an empty mask
        mask[draw(st.integers(r0, r1 - 1)), draw(st.integers(c0, c1 - 1))] = True
    return mask


@st.composite
def mask_pairs(draw):
    first = draw(masks())
    return first, draw(masks(shape=first.shape))


@st.composite
def warp_cases(draw):
    """A mask and a rotation, shear, axis-aligned scaling (flips included) or
    general or near-singular linear map about the frame center, plus a shift,
    so that content often stays in view."""
    mask = draw(masks())
    kind = draw(st.sampled_from(["similar", "shear", "axis_aligned", "general", "near_singular"]))
    if kind == "axis_aligned":  # warp_mask's separable gather; zeros of either sign
        a, d = (draw(st.floats(0.2, 5.0)) * draw(st.sampled_from([1, -1])) for _ in range(2))
        b, c = (draw(st.sampled_from([0.0, -0.0])) for _ in range(2))
    elif kind == "similar":
        angle = draw(st.floats(-math.pi, math.pi))
        scale = draw(st.floats(0.2, 5.0))
        a, b = scale * math.cos(angle), -scale * math.sin(angle)
        c, d = -b, a
    elif kind == "shear":
        a, d = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
        b, c = draw(st.floats(-3, 3)), 0.0
    elif kind == "general":
        a, b, c, d = (draw(st.floats(-3, 3)) for _ in range(4))
    else:  # |det| from about 1e-3 down to about 1e-9
        a, b, c = (draw(st.floats(0.1, 3.0)) for _ in range(3))
        d = b * c / a + draw(st.sampled_from([1e-3, -1e-6, 1e-9, -1e-9]))
    shift = st.one_of(st.floats(-8, 8), st.integers(-16, 16).map(lambda v: v / 2))
    cy, cx = (mask.shape[0] - 1) / 2, (mask.shape[1] - 1) / 2
    tx = cx - (a * cx + b * cy) + draw(shift)
    ty = cy - (c * cx + d * cy) + draw(shift)
    try:
        transform = AffineTransform(a, b, tx, c, d, ty)
        if draw(st.booleans()):
            transform = transform.inverse()  # the near-singular map becomes the inverse
        transform.inverse()
    except ValueError:
        assume(False)
    return mask, transform


class TestMaskBbox:
    @given(masks())
    def test_matches_nonzero_extent(self, mask):
        rows, cols = np.nonzero(mask)
        if rows.size == 0:
            assert mask_bbox(mask) is None and box_from_mask(mask) is None
            return
        expected = (slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1))
        assert mask_bbox(mask) == expected


_RANDOM_MASK = np.random.RandomState(7).rand(7, 9) > 0.5


class TestWarpMaskOracle:
    @settings(max_examples=300, deadline=None)
    @given(warp_cases())
    @example((_RANDOM_MASK, AffineTransform(-1.0, -0.0, 8.0, 0.0, -1.0, 6.0)))  # both flipped
    @example((_RANDOM_MASK, AffineTransform(1.003, 0.0, -1.3, -0.0, 1.003, -0.9)))
    def test_equals_full_frame(self, case):
        mask, transform = case
        assert np.array_equal(warp_mask(mask, transform), warp_mask_full_frame(mask, transform))

    @pytest.mark.parametrize("shift", [-0.5, 0.5, 1.5, 2.5 - 2**-40])
    def test_half_pixel_shifts_at_the_border(self, shift):
        mask = np.zeros((7, 9), dtype=bool)
        mask[0, 0] = mask[6, 8] = mask[3, 4] = True
        transform = AffineTransform.translation(shift, -shift)
        assert np.array_equal(warp_mask(mask, transform), warp_mask_full_frame(mask, transform))


@st.composite
def bbox_edge_ties(draw, height=8, width=64):
    """A source bbox and an inverse map sending some output pixel within a few
    ulps of the rounding tie at one of the bbox edges."""
    row0 = draw(st.integers(0, height - 1))
    row1 = draw(st.integers(row0 + 1, height))
    col0 = draw(st.integers(0, width - 1))
    col1 = draw(st.integers(col0 + 1, width))
    coefficient = st.floats(-40, 40) | st.integers(-50, 50).filter(bool).map(lambda n: 1 / n)
    a, b, c, d = (draw(coefficient | st.just(0.0)) for _ in range(4))
    assume(abs(a * d - b * c) > 1e-6)
    col, row = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    tie_x = draw(st.sampled_from([col0, col1])) - 0.5
    tie_y = draw(st.sampled_from([row0, row1])) - 0.5
    tx = tie_x - a * col - b * row
    ty = tie_y - c * col - d * row
    tx += draw(st.integers(-4, 4)) * math.ulp(tx)
    ty += draw(st.integers(-4, 4)) * math.ulp(ty)
    return (row0, row1, col0, col1), AffineTransform(a, b, tx, c, d, ty)


class TestWarpWindow:
    @settings(max_examples=300, deadline=None)
    @given(bbox_edge_ties())
    @example(((0, 1, 0, 1), AffineTransform(0.0, -0.5, -5e-324, 1.0, 0.0, -0.5)))
    @example(((0, 8, 27, 54), AffineTransform(-1 / 3, 0.0, 43.166666666666664, 0.0, 1.0, 0.0)))
    def test_holds_every_pixel_rounding_into_the_source_bbox(self, case):
        (row0, row1, col0, col1), inv = case
        height, width = 8, 64
        cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
        src_c = np.floor(inv.a * cols + inv.b * rows + inv.tx + 0.5)
        src_r = np.floor(inv.c * cols + inv.d * rows + inv.ty + 0.5)
        reached = (src_r >= row0) & (src_r < row1) & (src_c >= col0) & (src_c < col1)
        source = (slice(row0, row1), slice(col0, col1))
        top, bottom, left, right = _warp_window(inv, source, height, width)
        window = np.zeros_like(reached)
        window[top:bottom, left:right] = True
        assert not (reached & ~window).any()


class TestMaskIouOracle:
    @given(mask_pairs())
    def test_equals_full_frame(self, pair):
        assert mask_iou(*pair) == mask_iou_full_frame(*pair)


def _first_pixel_set(height, width):
    mask = np.zeros((height, width), dtype=bool)
    mask[0, 0] = True
    return mask


def _border_frame(height, width):
    mask = np.zeros((height, width), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return mask


class TestSquareDilationOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(masks),
           st.integers(0, 50))
    @example(np.zeros((40, 40), dtype=bool), 50)
    @example(np.ones((1, 1), dtype=bool), 50)
    @example(np.eye(1, 40, 39, dtype=bool), 0)
    @example(np.eye(1, 40, 39, dtype=bool), 38)
    @example(np.eye(40, 1, dtype=bool), 39)
    @example(_border_frame(40, 33), 7)
    @example(_first_pixel_set(40, 40), 40)
    def test_equals_maximum_filter(self, mask, radius):
        expected = maximum_filter(mask, size=2 * radius + 1, mode="constant")
        dilated = _square_dilation(mask, radius)
        assert dilated.dtype == bool and np.array_equal(dilated, expected)


class TestBoundaryFOracle:
    @settings(max_examples=300, deadline=None)
    @given(mask_pairs(), st.integers(0, 12))
    def test_equals_full_frame(self, pair, tolerance):
        assert boundary_f(*pair, tolerance) == boundary_f_full_frame(*pair, tolerance)

    @given(mask_pairs())
    def test_default_tolerance_equals_full_frame(self, pair):
        tolerance = default_boundary_tolerance(*pair[0].shape)
        assert boundary_f(*pair) == boundary_f_full_frame(*pair, tolerance)


class TestCentroidOracle:
    @given(masks())
    def test_equals_nonzero_mean(self, mask):
        assume(mask.any())
        assert _object(mask)[4] == centroid_by_nonzero(mask)


@st.composite
def mask_sequences(draw, shape, length):
    """Frames of one size: drawn masks (empty ones among them), empty,
    one-pixel and border masks, and copies of the previous frame shifted by
    up to the frame's size, so that content often leaves the frame."""
    height, width = shape
    frames = []
    for _ in range(length):
        kind = draw(st.sampled_from(["drawn", "empty", "pixel", "border", "shifted"]))
        if kind == "shifted" and frames:
            dr, dc = draw(st.integers(-height, height)), draw(st.integers(-width, width))
            frames.append(translate_full_frame(frames[-1], dr, dc))
        elif kind == "empty":
            frames.append(np.zeros(shape, dtype=bool))
        elif kind == "pixel":
            mask = np.zeros(shape, dtype=bool)
            mask[draw(st.sampled_from([0, height - 1]) | st.integers(0, height - 1)),
                 draw(st.sampled_from([0, width - 1]) | st.integers(0, width - 1))] = True
            frames.append(mask)
        elif kind == "border":
            frames.append(_border_frame(height, width))
        else:
            frames.append(draw(masks(shape=shape)))
    return frames


@st.composite
def sequence_pairs(draw, min_length=1):
    # Frames from 100 px square up have a default boundary tolerance of 2.
    side = st.integers(100, 140) if draw(st.integers(0, 7)) == 0 else st.integers(1, 24)
    shape = draw(side), draw(side)
    length = draw(st.integers(min_length, 6))
    return draw(mask_sequences(shape, length)), draw(mask_sequences(shape, length))


# A border frame, then one pixel in its corner: the aligned border is shifted
# by (-2, -4) and loses most of its pixels off the frame.
_OFF_FRAME = [_border_frame(6, 9), _first_pixel_set(6, 9)]


def _square(size, top, side):
    mask = np.zeros((size, size), dtype=bool)
    mask[top:top + side, top:top + side] = True
    return mask


# Boundaries 2 px apart: F is 1 under the 130 px frame's default tolerance of
# 2, and less under the tolerance of 1 that the masks' 22 px bbox would give.
_TWO_PX_APART = ([_square(130, 12, 20)], [_square(130, 10, 20)])


class TestTemporalProxyOracle:
    @settings(max_examples=300, deadline=None)
    @given(sequence_pairs(min_length=2).map(lambda pair: pair[0]))
    @example(_OFF_FRAME)
    @example([_first_pixel_set(5, 1), np.zeros((5, 1), dtype=bool), _border_frame(5, 1)])
    @example([np.ones((3, 4), dtype=bool), np.eye(3, 4, 2, dtype=bool)])
    def test_equals_full_frame(self, masks):
        assert temporal_stability_proxy(masks) == temporal_stability_proxy_full_frame(masks)


class TestEvaluateMasksOracle:
    @settings(max_examples=300, deadline=None)
    @given(sequence_pairs(), st.none() | st.integers(0, 12))
    @example((_OFF_FRAME, _OFF_FRAME[::-1]), None)
    @example(_TWO_PX_APART, None)
    @example(([np.zeros((4, 7), dtype=bool)] * 2, [_border_frame(4, 7)] * 2), 0)
    def test_equals_full_frame(self, pair, tolerance):
        pred_masks, gt_masks = pair
        pred = dict(enumerate(pred_masks, start=1))
        gt = dict(enumerate(gt_masks, start=1))
        report = evaluate_masks(pred, gt, tolerance)
        j_series, f_series, t_proxy = evaluate_masks_full_frame(pred, gt, tolerance)
        assert report.j_series == j_series
        assert report.f_series == f_series
        assert report.t_proxy == t_proxy


def _outcome(parse, text):
    try:
        return "mask", parse(text)
    except ValueError as exc:
        return "error", str(exc)


# Bits, every ASCII whitespace str.split accepts, line ends str.splitlines
# accepts, non-ASCII whitespace, comment marks and stray characters.
_PBM_CHARS = "01" * 6 + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f" + "#P2x_+-" + "\xa0\x85\u2028\u3000\xe9"


@st.composite
def pbm_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(alphabet=_PBM_CHARS, max_size=40).map(lambda t: "P1 " + t))
    separator = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u3000", min_size=1, max_size=3)
    line_end = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"])
    comment = st.tuples(st.text(alphabet="01 #xP\x1f\t", max_size=6), line_end).map(
        lambda parts: "#" + "".join(parts)
    )
    gap = st.lists(st.one_of(separator, comment), min_size=1, max_size=3).map("".join)
    width, height = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    bits = draw(st.text(alphabet="01", min_size=max(0, width * height - 1),
                        max_size=width * height + 1))
    payload = [bits[i:i + draw(st.integers(1, 4))] for i in range(0, len(bits), 3)]
    parts = ["P1", str(width), str(height), *payload]
    return draw(gap).lstrip("\n") + "".join(p + draw(gap) for p in parts)


def _loads_encoded(text):
    """What ``pbm_loads(text)`` must give: the token oracle's result on
    ASCII text; a non-ASCII character gives the ascii codec's error."""
    try:
        text.encode("ascii")
    except UnicodeEncodeError as exc:
        return "error", str(exc)
    return _outcome(pbm_loads_by_tokens, text)


class TestPbmLoadsOracle:
    @settings(max_examples=250, deadline=None)
    @given(pbm_texts())
    @example("P1\x1c2\x1f1\x0b1\x0c0")
    @example("P1 2 1 1\xa00")
    @example("P1 1 1 \xe9")
    @example("P1 2 1 1 0 # 1\x1d1")
    @example("P1 +2 1_0 " + "1" * 20)
    def test_equals_tokenizer(self, text):
        kind, value = _outcome(pbm_loads, text)
        expected_kind, expected = _loads_encoded(text)
        assert kind == expected_kind
        if kind == "error":
            assert value == expected
        else:
            assert value.dtype == expected.dtype and np.array_equal(value, expected)

    @given(masks())
    def test_round_trip_equals_tokenizer(self, mask):
        text = pbm_dumps(mask)
        assert np.array_equal(pbm_loads(text), pbm_loads_by_tokens(text))


def _pieces(alphabet, **sizes):
    return st.lists(st.sampled_from(alphabet), **sizes).map(b"".join)


_SEPARATOR_BYTES = [b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c",
                    b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
_LINE_END_BYTES = [b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e"]
# NUL and bytes that are not ASCII; 0x85 and 0xa0 are whitespace in Latin-1.
_STRAY_BYTES = [b"\x00", b"\x80", b"\x85", b"\xa0", b"\xe9", b"\xff"]


@st.composite
def mask_files(draw):
    """A .pbm or .rle file's bytes: a document whose gaps mix separators,
    CR and CRLF line ends and (PBM) comments, sometimes with a stray byte
    put anywhere; or loose bytes after the magic."""
    suffix = draw(st.sampled_from([".pbm", ".rle"]))
    if draw(st.integers(0, 3)) == 0:
        magic = b"P1 " if suffix == ".pbm" else b"RLE "
        loose = [b"0", b"1", b"2", b"#", b"x", *_SEPARATOR_BYTES, *_STRAY_BYTES]
        return suffix, magic + draw(_pieces(loose, max_size=40))
    separator = _pieces(_SEPARATOR_BYTES, min_size=1, max_size=3)
    comment = st.tuples(
        _pieces([b"0", b"1", b" ", b"#", b"x", b"\x1f", b"\t", *_STRAY_BYTES], max_size=6),
        st.sampled_from(_LINE_END_BYTES),
    ).map(lambda parts: b"#" + b"".join(parts))
    gap = st.lists(separator | comment if suffix == ".pbm" else separator,
                   min_size=1, max_size=3).map(b"".join)
    mask = draw(masks(shape=(draw(st.integers(1, 4)), draw(st.integers(1, 4)))))
    if suffix == ".pbm":
        bits = pbm_dumps(mask).split(maxsplit=3)[3].replace("\n", " ").encode()
        tokens = [b"P1", b"%d" % mask.shape[1], b"%d" % mask.shape[0], *bits.split()]
    else:
        tokens = rle_line_dumps(rle_encode(mask)).encode().split()
    data = draw(gap).lstrip(b"\n") + b"".join(token + draw(gap) for token in tokens)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_STRAY_BYTES + [b"#", b"2"])) + data[at:]
    return suffix, data


def _read_decoded(path, data):
    """What reading ``data`` from ``path`` must give: the file's ASCII text
    parsed by the token oracle (PBM) or the RLE line parser, with errors
    prefixed by the path; non-ASCII bytes give the ascii codec's error."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        return "error", f"{path}: {exc}"
    if path.endswith(".pbm"):
        kind, value = _outcome(pbm_loads_by_tokens, text)
    else:
        kind, value = _outcome(lambda line: rle_decode(rle_line_loads(line)), text)
    return kind, f"{path}: {value}" if kind == "error" else value


class TestReadMaskBytes:
    @settings(max_examples=400, deadline=None)
    @given(mask_files())
    @example((".pbm", b"P1\x1c2\x1f1\x0b1\x0c0"))
    @example((".pbm", b"P1\r\n# caf\xc3\xa9\r\n2 1\r\n1 0\r\n"))
    @example((".pbm", b"P1 2 1\r1\x000"))
    @example((".pbm", b"P1#\r2\x1d1 #\x1f\t1\x0c0"))
    @example((".rle", b"RLE\r\n2 x\r\n1"))
    @example((".rle", b"RLE 1 2\x1c0\x1f2\r\n"))
    @example((".rle", b"RLE 1 2 0 2 \xff"))
    def test_equals_decoded_text(self, case):
        suffix, data = case
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "00001" + suffix)
            with open(path, "wb") as handle:
                handle.write(data)
            kind, value = _outcome(read_mask, path)
            expected_kind, expected = _read_decoded(path, data)
        assert kind == expected_kind
        if kind == "error":
            assert value == expected
        else:
            assert value.dtype == expected.dtype and np.array_equal(value, expected)


class TestRleEncodeOracle:
    @settings(max_examples=200, deadline=None)
    @given(masks())
    @example(np.zeros((5, 3), dtype=bool))
    @example(np.ones((3, 7), dtype=bool))
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.ones((1, 1), dtype=bool))
    @example(_first_pixel_set(4, 9))
    @example(_first_pixel_set(9, 1))
    @example(np.eye(6, 4, dtype=bool))
    def test_equals_int8_diff(self, mask):
        encoded = rle_encode(mask)
        assert encoded == rle_encode_by_diff(mask)
        assert all(type(run) is int for run in encoded.runs)
