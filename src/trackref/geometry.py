"""Boxes, binary masks, affine warps and mask codecs.

Conventions used throughout the package:

* Boxes are continuous: ``Box(x, y, w, h)`` covers the half-open region
  ``[x, x + w) x [y, y + h)`` with ``x`` growing rightwards (columns) and
  ``y`` downwards (rows).  Box overlap is computed analytically.
* Masks are discrete: 2-D boolean numpy arrays indexed ``[row, col]``.  The
  pixel at ``(row, col)`` has center coordinates ``(x, y) = (col, row)``; a
  pixel belongs to a box when its center lies inside the half-open region.
* Each mask codec is a text pair, ``pbm_dumps``/``pbm_loads`` and
  ``rle_dumps``/``rle_loads``; ``write_mask`` and ``read_mask`` pick one by
  file extension.  ``write_mask`` hashes the bytes as it writes them and
  returns their digest, so no caller reads a mask file back.
* All functions are pure; none mutates its inputs.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from .jsonl import located

Mask = np.ndarray  # 2-D bool array, shape (height, width)

# The most pixels a mask may have: a little over 32 frames of 4K UHD, and
# 256 MiB as bools.  Mask files and scene specs past it are data errors,
# caught before any array is allocated.
MAX_MASK_PIXELS = 1 << 28


def check_mask_size(height: int, width: int) -> None:
    """Raise ValueError if a ``height`` x ``width`` mask exceeds ``MAX_MASK_PIXELS``."""
    if height * width > MAX_MASK_PIXELS:
        raise ValueError(
            f"mask size {height}x{width} exceeds the limit of {MAX_MASK_PIXELS} pixels"
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: left edge, top edge, width, height (pixels)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        # ``rerank._rows_valid`` states these rules for whole columns of boxes;
        # change it with them.
        for name in ("x", "y", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} is not finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        if self.w * self.h == 0:  # positive sides whose product underflows
            raise ValueError(f"box area w * h is 0, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class AffineTransform:
    """Plane transform mapping (x, y) to (a*x + b*y + tx, c*x + d*y + ty)."""

    a: float
    b: float
    tx: float
    c: float
    d: float
    ty: float

    def __post_init__(self):
        if abs(self.determinant) < 1e-12:
            raise ValueError("affine transform is not invertible (determinant ~ 0)")

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def compose(self, inner: "AffineTransform") -> "AffineTransform":
        """Transform equal to applying ``inner`` first, then this one."""
        return AffineTransform(
            a=self.a * inner.a + self.b * inner.c,
            b=self.a * inner.b + self.b * inner.d,
            tx=self.a * inner.tx + self.b * inner.ty + self.tx,
            c=self.c * inner.a + self.d * inner.c,
            d=self.c * inner.b + self.d * inner.d,
            ty=self.c * inner.tx + self.d * inner.ty + self.ty,
        )

    def inverse(self) -> "AffineTransform":
        det = self.determinant
        ia, ib = self.d / det, -self.b / det
        ic, id_ = -self.c / det, self.a / det
        return AffineTransform(
            a=ia, b=ib, tx=-(ia * self.tx + ib * self.ty),
            c=ic, d=id_, ty=-(ic * self.tx + id_ * self.ty),
        )

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    @classmethod
    def translation(cls, dx: float, dy: float) -> "AffineTransform":
        return cls(1.0, 0.0, dx, 0.0, 1.0, dy)

    @classmethod
    def scaling(cls, sx: float, sy: float | None = None) -> "AffineTransform":
        sy = sx if sy is None else sy
        return cls(sx, 0.0, 0.0, 0.0, sy, 0.0)

    @classmethod
    def rotation(cls, radians: float, center: tuple[float, float] = (0.0, 0.0)) -> "AffineTransform":
        cos_t, sin_t = math.cos(radians), math.sin(radians)
        cx, cy = center
        return cls(
            a=cos_t, b=-sin_t, tx=cx - cos_t * cx + sin_t * cy,
            c=sin_t, d=cos_t, ty=cy - sin_t * cx - cos_t * cy,
        )


def as_mask(values) -> Mask:
    """Coerce nested lists / arrays to a validated 2-D boolean mask."""
    mask = np.asarray(values, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2-D grid, got shape {mask.shape}")
    return mask


def empty_mask(height: int, width: int) -> Mask:
    return np.zeros((height, width), dtype=bool)


def box_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, computed analytically."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def mask_iou(a: Mask, b: Mask) -> float:
    """Jaccard overlap of two equal-sized masks.

    Two empty masks are in perfect agreement, so the overlap is defined as
    1.0; one empty and one non-empty mask give 0.0.
    """
    if a.shape != b.shape:
        raise ValueError(f"mask dimensions differ: {a.shape} vs {b.shape}")
    window = mask_bbox(a | b)
    if window is None:
        return 1.0
    a, b = a[window], b[window]  # no set pixel lies outside the union's bbox
    union = int(np.logical_or(a, b).sum())
    inter = int(np.logical_and(a, b).sum())
    return inter / union


def mask_bbox(mask: Mask) -> tuple[slice, slice] | None:
    """Row and column slices of the tightest box holding every set pixel.

    ``mask[mask_bbox(mask)]`` is the tight crop; None when the mask is empty.
    Columns are scanned only within the rows that hold set pixels.
    """
    rows = mask.any(axis=1)
    if not rows.any():
        return None
    top, bottom = int(rows.argmax()), rows.size - int(rows[::-1].argmax())
    cols = mask[top:bottom].any(axis=0)
    return slice(top, bottom), slice(int(cols.argmax()), cols.size - int(cols[::-1].argmax()))


def box_from_mask(mask: Mask) -> Box | None:
    """Tight box over the set pixels of ``mask``; None when empty."""
    extent = mask_bbox(mask)
    if extent is None:
        return None
    rows, cols = extent
    return Box(float(cols.start), float(rows.start),
               float(cols.stop - cols.start), float(rows.stop - rows.start))


def rasterize_box(box: Box, width: int, height: int) -> Mask:
    """Mask of pixels whose centers fall inside the half-open box region."""
    cols = np.arange(width)
    rows = np.arange(height)
    in_x = (cols >= box.x) & (cols < box.x + box.w)
    in_y = (rows >= box.y) & (rows < box.y + box.h)
    return np.logical_and.outer(in_y, in_x)


def _warp_window(
    inv: AffineTransform, source: tuple[slice, slice], height: int, width: int
) -> tuple[int, int, int, int]:
    """Output rows/columns ``(row0, row1, col0, col1)`` that ``warp_mask`` can set.

    ``inv`` maps output pixel centers to source locations and ``source``,
    from ``mask_bbox``, spans the set source pixels: rows ``[row0, row1)``,
    columns ``[col0, col1)``.  With the coefficients of ``inv`` read as exact
    rationals, write ``x(p) = a*col + b*row + tx`` for the exact source
    column of output pixel ``p`` (rows alike).  ``warp_mask`` evaluates
    ``floor(fl(fl(fl(fl(a*col) + fl(b*row)) + tx) + 0.5))`` on exact integer
    ``col``/``row``.  Each of the five roundings has relative error at most
    u = 2**-53, so with ``S = |a|*(width - 1) + |b|*(height - 1) + |tx|``
    bounding the terms over the frame, the value passed to ``floor`` is off
    from ``x + 1/2`` by at most ``gamma3*S + u*((1 + gamma3)*S + 1/2) <
    4.0001*u*S + u < (S + 1) / 2**50`` (subnormal results add less than u,
    and ``S < 2**1000`` rules out overflow).  A pixel is set only if it
    rounds into ``[col0, col1)``, so ``x(p)`` lies in ``[col0 - 1/2 - E,
    col1 - 1/2 + E]`` with ``E = (S + 1) / 2**50``, and likewise for rows.
    Such ``p`` lie in the preimage of that rectangle under the exact affine
    map, a parallelogram whose corners are computed exactly in integers
    (every float is an integer over a power of two); its integer hull,
    clipped to the frame, is the window.  So every pixel outside the window
    is unset for any transform, however ill-conditioned: the float error is
    bounded in source units and mapped back exactly.  Non-finite or
    overflowing coefficients, or an exactly singular map, fall back to the
    full frame.
    """
    full = (0, height, 0, width)
    coefficients = (inv.a, inv.b, inv.tx, inv.c, inv.d, inv.ty)
    if not all(math.isfinite(v) for v in coefficients):
        return full
    # Coefficients times a common power-of-two scale, as exact integers.
    ratios = [v.as_integer_ratio() for v in coefficients]
    scale = max(den for _, den in ratios)
    a, b, tx, c, d, ty = (num * (scale // den) for num, den in ratios)
    det = a * d - b * c
    reach_x = abs(a) * (width - 1) + abs(b) * (height - 1) + abs(tx)
    reach_y = abs(c) * (width - 1) + abs(d) * (height - 1) + abs(ty)
    if det == 0 or max(reach_x, reach_y) >= scale << 1000:  # no float overflow
        return full
    # Rectangle corners relative to the translation, times 2**51 * scale:
    # (edge - 1/2 -+ E) * 2**51 * scale - t * 2**51 with E * 2**51 * scale =
    # 2 * (reach + scale).
    src_rows, src_cols = source
    row0, row1, col0, col1 = src_rows.start, src_rows.stop, src_cols.start, src_cols.stop
    xs = (
        ((2 * col0 - 1) * scale << 50) - 2 * (reach_x + scale) - (tx << 51),
        ((2 * col1 - 1) * scale << 50) + 2 * (reach_x + scale) - (tx << 51),
    )
    ys = (
        ((2 * row0 - 1) * scale << 50) - 2 * (reach_y + scale) - (ty << 51),
        ((2 * row1 - 1) * scale << 50) + 2 * (reach_y + scale) - (ty << 51),
    )
    # p = M^-1 (q - t) with M^-1 = [[d, -b], [-c, a]] / det
    den = det << 51
    sign = 1 if den > 0 else -1
    cols = [sign * (d * x - b * y) for x in xs for y in ys]
    rows = [sign * (a * y - c * x) for x in xs for y in ys]
    den *= sign
    return (
        max(0, min(rows) // den), min(height, max(rows) // den + 1),
        max(0, min(cols) // den), min(width, max(cols) // den + 1),
    )


@np.errstate(over="ignore", invalid="ignore")  # non-finite indices fail the in-frame test
def warp_mask(mask: Mask, transform: AffineTransform) -> Mask:
    """Warp a mask by an affine transform using inverse nearest-neighbor mapping.

    Output pixel (row, col) is set iff the inverse-mapped source location
    rounds (half-up) to a set source pixel inside bounds.  Output dimensions
    equal input dimensions; content mapped outside the grid is clipped.
    Only the output window that the source bbox can reach is evaluated (see
    ``_warp_window``), with the same per-pixel arithmetic as the full frame,
    so the cost scales with the object rather than the frame.

    The source column of output pixel (row, col) is
    ``fl(fl(fl(a*col) + fl(b*row)) + tx)`` over ``inv``'s coefficients, and
    its source row likewise.  When ``inv`` is axis-aligned (``b == c == 0``,
    as for every translation and scaling), ``fl(b*row)`` is a zero whose
    sign is that of ``b`` for every row >= 0, so the source column depends on
    ``col`` alone and the source row on ``row`` alone: they are computed on
    the window's columns and rows, adding ``fl(b*row0)`` and ``fl(c*col0)``
    so that every rounding is the general path's.  The window is then one
    gather of source rows followed by one of source columns (out-of-frame
    indices replaced by 0, and their rows and columns cleared after).
    The general path broadcasts 1-D products, which gives the same
    roundings as a full grid.  Ties round towards +inf, so inverse warps
    leave no holes.  Indices stay floats through the in-frame test and only
    in-frame ones are cast, so a huge or NaN index is just out of frame.
    """
    height, width = mask.shape
    inv = transform.inverse()
    out = np.zeros_like(mask)
    source = mask_bbox(mask)
    if source is None:
        return out
    row0, row1, col0, col1 = _warp_window(inv, source, height, width)
    if row0 >= row1 or col0 >= col1:
        return out
    cols = np.arange(col0, col1, dtype=float)
    rows = np.arange(row0, row1, dtype=float)
    if inv.b == 0 and inv.c == 0:
        src_c = np.floor(inv.a * cols + inv.b * float(row0) + inv.tx + 0.5)
        src_r = np.floor(inv.c * float(col0) + inv.d * rows + inv.ty + 0.5)
        in_c = (src_c >= 0) & (src_c < width)
        in_r = (src_r >= 0) & (src_r < height)
        gathered = mask[np.where(in_r, src_r, 0).astype(np.intp)]
        gathered = gathered[:, np.where(in_c, src_c, 0).astype(np.intp)]
        out[row0:row1, col0:col1] = gathered & in_r[:, None] & in_c
        return out
    rows = rows[:, None]
    src_c = np.floor(inv.a * cols + inv.b * rows + inv.tx + 0.5)
    src_r = np.floor(inv.c * cols + inv.d * rows + inv.ty + 0.5)
    inside = (src_r >= 0) & (src_r < height) & (src_c >= 0) & (src_c < width)
    out[row0:row1, col0:col1][inside] = mask[
        src_r[inside].astype(np.intp), src_c[inside].astype(np.intp)]
    return out


def boundary_pixels(mask: Mask) -> Mask:
    """Set pixels with an unset 4-neighbor, or lying on the image border.

    Padding the grid with zeros makes the border rule fall out of the
    neighbor rule: a set border pixel always sees a padded unset neighbor.
    """
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    all_neighbors_set = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return mask & ~all_neighbors_set


# ---------------------------------------------------------------------------
# Mask codecs and mask files
# ---------------------------------------------------------------------------


def rle_dumps(mask: Mask) -> str:
    """One-line RLE text: ``RLE <height> <width> <run1> <run2> ...``.

    Runs are row-major and alternate unset/set, starting with unset pixels,
    so a mask whose first pixel is set starts with a zero run.
    """
    height, width = mask.shape
    flat = mask.ravel()
    change_points = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], change_points, [flat.size]))).tolist()
    lead = "0 " if flat[0] else ""
    return f"RLE {height} {width} {lead}{' '.join(map(str, runs))}"


def rle_loads(text: str) -> Mask:
    """Parse the text of :func:`rle_dumps` back to its mask, exactly.

    Sizes beyond ``MAX_MASK_PIXELS`` are rejected before any array is
    allocated.
    """
    tokens = text.split()
    if len(tokens) < 3 or tokens[0] != "RLE":
        raise ValueError(f"not an RLE mask line: {text[:40]!r}")
    try:
        height, width = int(tokens[1]), int(tokens[2])
        runs = list(map(int, tokens[3:]))
    except ValueError as exc:
        raise ValueError(f"malformed RLE mask line: {text[:40]!r}") from exc
    if height < 1 or width < 1:
        raise ValueError(f"invalid RLE dimensions {height}x{width}")
    if runs and min(runs) < 0:
        raise ValueError("RLE runs must be non-negative")
    if 0 in runs[1:]:
        raise ValueError("only the leading RLE run may be zero")
    total = sum(runs)
    if total != height * width:
        raise ValueError(f"RLE runs sum to {total}, expected {height * width}")
    check_mask_size(height, width)
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    return np.repeat(values, runs).reshape(height, width)


def _pbm_parts(mask: Mask) -> tuple[bytes, np.ndarray]:
    """ASCII PBM as its header (magic P1, then width and height) and its payload.

    The payload is one little-endian 16-bit word per pixel, ``"0 "`` or
    ``"1 "``, and ``"0\\n"`` or ``"1\\n"`` in the last column: one row of
    bits per line, encoded in a single array the size of the file.
    """
    height, width = mask.shape
    words = mask.astype("<u2")
    words += 0x2030  # b"0 " + the bit
    words[:, -1] ^= 0x2A00  # b" " ^ b"\n"
    return b"P1\n%d %d\n" % (width, height), words


def pbm_dumps(mask: Mask) -> str:
    """Serialize a mask as ASCII PBM text (the bytes ``write_mask`` writes)."""
    header, words = _pbm_parts(mask)
    return (header + words.tobytes()).decode("ascii")


# Whitespace is what ``str.split`` splits on; in ASCII that includes
# \x1c-\x1f, which ``bytes.split`` keeps.  A comment runs from '#' to the end
# of its line, where lines end as in ``str.splitlines``.  In the payload a
# comment is deleted; in the header it is one more gap between tokens, and
# it must reach its line end, so that a failed match cannot retry it shorter.
_ASCII_SPACE = bytes(code for code in range(128) if chr(code).isspace())
_SPACE = re.escape(_ASCII_SPACE)
_LINE_END = rb"\n\r\x0b\x0c\x1c-\x1e"
_PBM_COMMENT = re.compile(rb"#[^%s]*" % _LINE_END)
_PBM_GAP = rb"(?:[%s]|#[^%s]*(?![^%s]))" % (_SPACE, _LINE_END, _LINE_END)
_PBM_TOKEN = rb"([^%s#]+)" % _SPACE
# Matches iff the first token is P1 and two more follow: width and height.
_PBM_HEADER = re.compile(_PBM_GAP + b"*P1" + (_PBM_GAP + b"+" + _PBM_TOKEN) * 2)


def _pbm_parse(data: bytes) -> Mask:
    """Parse an ASCII PBM document given as bytes."""
    header = _PBM_HEADER.match(data)
    if header is None:
        raise ValueError("not an ASCII PBM document (missing P1 header)")
    try:
        width, height = (int(data[header.start(g):header.end(g)]) for g in (1, 2))
    except ValueError as exc:
        raise ValueError("malformed PBM dimensions") from exc
    if width < 1 or height < 1:
        raise ValueError(f"invalid PBM dimensions {width}x{height}")
    check_mask_size(height, width)
    payload = data[header.end():]
    if b"#" in payload:
        payload = _PBM_COMMENT.sub(b"", payload)
    bits = payload.translate(None, _ASCII_SPACE)
    if len(bits) != width * height:
        raise ValueError(
            f"PBM payload has {len(bits)} bits, expected {width * height}"
        )
    flat = np.frombuffer(bits, dtype=np.uint8) - ord("0")  # wraps below '0'
    if (flat > 1).any():
        raise ValueError("PBM payload contains characters other than 0/1")
    return flat.view(bool).reshape(height, width)


def pbm_loads(text: str) -> Mask:
    """Parse ASCII PBM; accepts packed or whitespace-separated bits and comments.

    The text goes to the parser of ``read_mask`` as its ASCII bytes.  A
    non-ASCII character raises the ``ascii`` codec's error (a ValueError),
    as a non-ASCII byte in a mask file does.
    """
    return _pbm_parse(text.encode("ascii"))


def write_mask(path, mask: Mask) -> str:
    """Write a mask file, format chosen by extension (.pbm or .rle); return
    the SHA-256 hex digest of its bytes.

    A PBM file's header and payload are written and hashed in turn, so no
    copy of the whole file is made.
    """
    path = str(path)
    if path.endswith(".pbm"):
        parts = _pbm_parts(mask)
    elif path.endswith(".rle"):
        parts = ((rle_dumps(mask) + "\n").encode("ascii"),)
    else:
        raise ValueError(f"unsupported mask file extension: {path}")
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for part in parts:
            handle.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_mask(path) -> Mask:
    """Read a mask file by extension; a malformed file raises ValueError naming it.

    The file is read as bytes.  A non-ASCII byte raises the ``ascii``
    codec's error, which gives its position; a PBM file is then parsed as
    bytes, an RLE file as its ASCII text.
    """
    path = str(path)
    if not path.endswith((".pbm", ".rle")):
        raise ValueError(f"unsupported mask file extension: {path}")
    with located(path):
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.isascii():
            data.decode("ascii")  # raises UnicodeDecodeError, a ValueError
        if path.endswith(".pbm"):
            return _pbm_parse(data)
        return rle_loads(data.decode("ascii"))
