import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_mask, empty_mask

from trackref.geometry import (
    MAX_MASK_PIXELS,
    AffineTransform,
    Box,
    boundary_pixels,
    box_from_mask,
    box_iou,
    check_mask_size,
    mask_iou,
    pbm_dumps,
    pbm_loads,
    rasterize_box,
    read_mask,
    rle_dumps,
    rle_loads,
    warp_mask,
    write_mask,
)

# Independent oracles, written before the operations they check.


def rasterized_iou(a: Box, b: Box, size: int) -> float:
    """Pixel-counting IoU oracle on a size x size grid."""
    ra = rasterize_box(a, size, size)
    rb = rasterize_box(b, size, size)
    union = np.logical_or(ra, rb).sum()
    return float(np.logical_and(ra, rb).sum() / union) if union else 0.0


def boundary_by_scan(mask) -> np.ndarray:
    """Brute-force neighbor scan: set pixel with an unset 4-neighbor or on the border."""
    height, width = mask.shape
    out = np.zeros_like(mask)
    for r in range(height):
        for c in range(width):
            if not mask[r, c]:
                continue
            if r in (0, height - 1) or c in (0, width - 1):
                out[r, c] = True
                continue
            if not (mask[r - 1, c] and mask[r + 1, c] and mask[r, c - 1] and mask[r, c + 1]):
                out[r, c] = True
    return out


finite_boxes = st.builds(
    Box,
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    w=st.floats(0.1, 60),
    h=st.floats(0.1, 60),
)


class TestBox:
    def test_rejects_degenerate_sides(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 5)
        with pytest.raises(ValueError):
            Box(0, 0, 5, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            Box(0, float("inf"), 1, 1)

    def test_rejects_underflowing_area(self):
        with pytest.raises(ValueError, match=r"^box area w \* h is 0, got w=1e-200, h=1e-200$"):
            Box(0, 0, 1e-200, 1e-200)


class TestBoxIou:
    def test_identity(self):
        assert box_iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert box_iou(Box(0, 0, 10, 10), Box(20, 0, 10, 10)) == 0.0

    def test_half_overlap_is_one_third(self):
        value = box_iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert abs(value - rasterized_iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10), 30)) < 1e-12
        assert abs(value - 1 / 3) < 1e-12

    @given(a=finite_boxes, b=finite_boxes)
    def test_symmetry(self, a, b):
        assert box_iou(a, b) == box_iou(b, a)

    def test_matches_rasterization_oracle_for_integer_boxes(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            def sample():
                x = rng.randint(0, 60)
                y = rng.randint(0, 60)
                w = rng.randint(1, 64 - x + 1)
                h = rng.randint(1, 64 - y + 1)
                return Box(float(x), float(y), float(w), float(h))

            a, b = sample(), sample()
            assert abs(box_iou(a, b) - rasterized_iou(a, b, 64)) < 1e-9


class TestMaskIou:
    def test_identity_nonempty(self):
        mask = as_mask([[1, 0], [0, 1]])
        assert mask_iou(mask, mask) == 1.0

    def test_both_empty_is_one(self):
        assert mask_iou(empty_mask(3, 3), empty_mask(3, 3)) == 1.0

    def test_one_empty_is_zero(self):
        assert mask_iou(as_mask([[1]]), as_mask([[0]])) == 0.0

    def test_hand_counted_overlap(self):
        a = empty_mask(4, 4)
        a[0:2, 0:2] = True
        b = empty_mask(4, 4)
        b[1:3, 1:3] = True
        assert mask_iou(a, b) == 1 / 7

    def test_symmetry(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            a = rng.rand(6, 5) > 0.5
            b = rng.rand(6, 5) > 0.5
            assert mask_iou(a, b) == mask_iou(b, a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            mask_iou(empty_mask(2, 2), empty_mask(2, 3))


class TestBoxFromMask:
    def test_empty_mask_gives_none(self):
        assert box_from_mask(empty_mask(4, 4)) is None

    def test_single_pixel(self):
        mask = empty_mask(5, 5)
        mask[2, 3] = True
        assert box_from_mask(mask) == Box(3, 2, 1, 1)

    def test_full_mask(self):
        assert box_from_mask(np.ones((4, 4), dtype=bool)) == Box(0, 0, 4, 4)

    def test_round_trip_with_rasterize(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            x, y = rng.randint(0, 20, size=2)
            w, h = rng.randint(1, 12, size=2)
            box = Box(float(x), float(y), float(w), float(h))
            assert box_from_mask(rasterize_box(box, 32, 32)) == box


class TestWarpMask:
    def test_identity(self):
        rng = np.random.RandomState(5)
        mask = rng.rand(9, 13) > 0.6
        assert np.array_equal(warp_mask(mask, AffineTransform.identity()), mask)

    def test_translation_moves_pixel(self):
        mask = empty_mask(3, 4)
        mask[1, 0] = True
        moved = warp_mask(mask, AffineTransform.translation(1, 0))
        expected = empty_mask(3, 4)
        expected[1, 1] = True
        assert np.array_equal(moved, expected)

    def test_translation_clips_at_border(self):
        mask = empty_mask(3, 4)
        mask[1, 3] = True
        moved = warp_mask(mask, AffineTransform.translation(1, 0))
        assert not moved.any()

    @pytest.mark.parametrize("transform", [
        AffineTransform.translation(1e308, 0),
        AffineTransform(0.8, -0.6, 1e308, 0.6, 0.8, 0),  # a rotation, so no separable path
        AffineTransform(1e300, 0, 0, 0, 1e-300, 0),
        AffineTransform(2e-309, 0, 0, 0, 1e297, 0),  # the inverse's a is inf, and inf * 0 NaN
    ])
    def test_huge_motion_leaves_the_frame_silently(self, transform):
        mask = empty_mask(40, 8)  # 40 rows, so the 1e300 case warps the full frame
        mask[2:4, 3:6] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not warp_mask(mask, transform).any()

    def test_non_invertible_transform_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            AffineTransform(1, 0, 0, 1, 0, 0)

    def test_forward_then_inverse_stays_within_dilation(self):
        rng = np.random.RandomState(23)
        for _ in range(30):
            mask = empty_mask(24, 24)
            mask[6:15, 8:18] = True
            transform = AffineTransform.rotation(
                rng.uniform(-0.25, 0.25), center=(12, 12)
            ).compose(AffineTransform.scaling(rng.uniform(0.85, 1.2))).compose(
                AffineTransform.translation(rng.uniform(-3, 3), rng.uniform(-3, 3))
            )
            round_trip = warp_mask(warp_mask(mask, transform), transform.inverse())
            padded = np.zeros((26, 26), dtype=bool)
            padded[1:-1, 1:-1] = mask
            dilated = (
                padded[1:-1, 1:-1] | padded[:-2, 1:-1] | padded[2:, 1:-1]
                | padded[1:-1, :-2] | padded[1:-1, 2:]
                | padded[:-2, :-2] | padded[:-2, 2:] | padded[2:, :-2] | padded[2:, 2:]
            )
            assert not (round_trip & ~dilated).any()


class TestBoundaryPixels:
    def test_empty(self):
        assert not boundary_pixels(empty_mask(4, 4)).any()

    def test_full_grid_is_border_ring(self):
        # Every set pixel on the image border is boundary; the center of a
        # full 3x3 has four set neighbors and is interior.
        result = boundary_pixels(np.ones((3, 3), dtype=bool))
        assert np.array_equal(result, boundary_by_scan(np.ones((3, 3), dtype=bool)))
        assert result.sum() == 8
        assert not result[1, 1]

    def test_centered_block_leaves_ring(self):
        mask = empty_mask(5, 5)
        mask[1:4, 1:4] = True
        result = boundary_pixels(mask)
        assert np.array_equal(result, boundary_by_scan(mask))
        assert result.sum() == 8
        assert not result[2, 2]

    def test_matches_scan_oracle_on_random_masks(self):
        rng = np.random.RandomState(17)
        for _ in range(50):
            mask = rng.rand(8, 9) > 0.5
            assert np.array_equal(boundary_pixels(mask), boundary_by_scan(mask))


class TestRle:
    def test_all_zero(self):
        assert rle_dumps(empty_mask(2, 2)) == "RLE 2 2 4"

    def test_all_one(self):
        assert rle_dumps(np.ones((2, 2), dtype=bool)) == "RLE 2 2 0 4"

    def test_scan_example(self):
        assert rle_dumps(as_mask([[0, 1, 1, 0]])) == "RLE 1 4 1 2 1"

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            rle_loads("RLE 2 2 1 2")

    def test_rejects_zero_interior_run(self):
        with pytest.raises(ValueError, match="leading"):
            rle_loads("RLE 1 4 1 0 3")

    @pytest.mark.parametrize("height, width, runs", [
        (10**20, 1, (10**20,)),
        (sys.maxsize + 1, 1, (0, sys.maxsize + 1)),
        (2**32, 2**32, (2**63, 2**63)),
        # Just above the cap, with runs that pass every other check.
        (16384, 16385, (16384 * 16385,)),
        (MAX_MASK_PIXELS + 1, 1, (0, MAX_MASK_PIXELS + 1)),
    ])
    def test_rejects_a_size_beyond_the_array_limit(self, height, width, runs):
        text = " ".join(map(str, ("RLE", height, width, *runs)))
        message = f"^mask size {height}x{width} exceeds the limit of 268435456 pixels$"
        with pytest.raises(ValueError, match=message):
            rle_loads(text)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.booleans(), min_size=1, max_size=12), min_size=1, max_size=12).filter(
        lambda rows: len({len(r) for r in rows}) == 1
    ))
    def test_round_trip(self, rows):
        mask = as_mask(rows)
        assert np.array_equal(rle_loads(rle_dumps(mask)), mask)


class TestRleLineFormat:
    def test_round_trip(self):
        mask = as_mask([[0, 1], [1, 1]])
        line = rle_dumps(mask)
        assert line == "RLE 2 2 1 3"
        assert np.array_equal(rle_loads(line), mask)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            rle_loads("RLF 2 2 1 3")
        with pytest.raises(ValueError):
            rle_loads("RLE 2 two 1 3")


class TestPbm:
    def test_round_trip(self):
        rng = np.random.RandomState(29)
        for _ in range(20):
            mask = rng.rand(rng.randint(1, 20), rng.randint(1, 20)) > 0.5
            assert np.array_equal(pbm_loads(pbm_dumps(mask)), mask)

    def test_reads_spaced_digits_and_comments(self):
        text = "P1\n# tight two by two\n2 2\n1 0\n0 1\n"
        assert np.array_equal(pbm_loads(text), as_mask([[1, 0], [0, 1]]))

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="P1"):
            pbm_loads("P4\n2 2\n1 0 0 1")

    def test_rejects_short_payload(self):
        with pytest.raises(ValueError, match="bits"):
            pbm_loads("P1\n2 2\n1 0 0")

    def test_rejects_non_binary_payload(self):
        with pytest.raises(ValueError, match="other than 0/1"):
            pbm_loads("P1\n2 2\n1 0 0 2")

    def test_rejects_a_size_just_above_the_cap(self):
        # The header gives width, then height; the cap is checked before
        # the payload, whose length would not match either.
        message = "^mask size 16384x16385 exceeds the limit of 268435456 pixels$"
        with pytest.raises(ValueError, match=message):
            pbm_loads("P1\n16385 16384\n0")


class TestMaskSizeCap:
    def test_the_cap_is_allowed_and_one_more_pixel_is_not(self):
        check_mask_size(1 << 14, 1 << 14)
        check_mask_size(1, MAX_MASK_PIXELS)
        with pytest.raises(ValueError, match="^mask size 1x268435457 exceeds the limit"):
            check_mask_size(1, MAX_MASK_PIXELS + 1)


class TestMaskFiles:
    @pytest.mark.parametrize("extension", [".pbm", ".rle"])
    def test_write_read_round_trip(self, tmp_path, extension):
        rng = np.random.RandomState(31)
        mask = rng.rand(11, 7) > 0.4
        path = tmp_path / f"mask{extension}"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda h: st.integers(1, 9).flatmap(lambda w: st.lists(
            st.booleans(), min_size=h * w, max_size=h * w).map(
                lambda bits: np.array(bits, dtype=bool).reshape(h, w)))),
        st.sampled_from([".pbm", ".rle"]),
    )
    def test_write_returns_the_digest_of_the_file(self, mask, extension):
        # A PBM file is its header and one "0"/"1" per pixel, a space after
        # each but the last of a row, which ends in a newline.
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / f"mask{extension}"
            digest = write_mask(path, mask)
            data = path.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
        if extension == ".pbm":
            rows = "".join(" ".join("01"[bit] for bit in row) + "\n" for row in mask.tolist())
            assert data == f"P1\n{mask.shape[1]} {mask.shape[0]}\n{rows}".encode("ascii")
            assert data.decode("ascii") == pbm_dumps(mask)
        else:
            assert data == (rle_dumps(mask) + "\n").encode("ascii")

    def test_unsupported_extension(self, tmp_path):
        with pytest.raises(ValueError, match="extension"):
            write_mask(tmp_path / "mask.png", empty_mask(2, 2))
        assert not (tmp_path / "mask.png").exists()
