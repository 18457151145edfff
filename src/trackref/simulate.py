"""Synthetic scenes, corrupted proposals, and training-data preparation ops.

The simulator renders rectangles moving under affine motion, then corrupts
the resulting ground truth the way an unstable per-frame grounding model
would: jittered target boxes, random distractor boxes, score noise, and
occasional identity switches where the target's score trades places with a
distractor's.  Everything is driven by the counter-based generator in
:mod:`trackref.rng`, so outputs are byte-identical for a given seed.

Also here: the box jitter used to harden a box-guided segmenter against
sloppy localization (each edge offset drawn uniformly within a fraction of
the box side), synthetic optical flow from foreground/background affine
motion, the flow-magnitude normalization chain, and the 5-channel guidance
stack (RGB + flow magnitude + box interior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    AffineTransform,
    Box,
    Mask,
    box_from_mask,
    check_mask_size,
    rasterize_box,
    warp_mask,
)
from .jsonl import located
from .rerank import VideoProposals
from .rng import (
    SplitRng, box_muller_array, fold_children, fold_keys, key_randints, key_units, scale_unit,
)

TARGET_BASE_SCORE = 0.8
DISTRACTOR_BASE_SCORE = 0.3
PROPOSAL_OBJECTNESS = 0.9


@dataclass(frozen=True)
class ObjectSpec:
    initial_box: Box
    motion: AffineTransform  # applied once per frame step


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    num_frames: int
    objects: tuple[ObjectSpec, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"invalid scene size {self.width}x{self.height}")
        check_mask_size(self.height, self.width)
        if self.num_frames < 1:
            raise ValueError("a scene needs at least one frame")
        if not self.objects:
            raise ValueError("a scene needs at least one object")
        for index, obj in enumerate(self.objects, start=1):
            box = obj.initial_box
            if box.x < 0 or box.y < 0 or box.x + box.w > self.width or box.y + box.h > self.height:
                raise ValueError(f"object {index} initial box outside image bounds")


@dataclass(frozen=True)
class CorruptionSpec:
    distractors_per_frame: int = 0
    score_noise_sd: float = 0.0
    id_switch_prob: float = 0.0
    box_jitter_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.distractors_per_frame < 0:
            raise ValueError("distractors_per_frame must be >= 0")
        if not 0 <= self.score_noise_sd < math.inf:
            raise ValueError("score_noise_sd must be finite and >= 0")
        if not 0.0 <= self.id_switch_prob <= 1.0:
            raise ValueError("id_switch_prob must be within [0, 1]")
        if not 0 <= self.box_jitter_fraction < math.inf:
            raise ValueError("box_jitter_fraction must be finite and >= 0")


# The most proposal rows one ``simulate`` run may draw.  A row costs 208 bytes
# of proposals.jsonl and, while its scene is drawn and written, about 320
# bytes of memory (measured over 50,000 to 400,000 rows in one scene), so the
# cap bounds a run near 0.7 GB and a 440 MB file.
MAX_PROPOSAL_ROWS = 1 << 21


def check_proposal_rows(spec: SceneSpec, corruption: CorruptionSpec, scenes: int) -> None:
    """Raise ValueError if ``scenes`` runs of ``spec`` under ``corruption`` may
    draw more than ``MAX_PROPOSAL_ROWS`` rows: frames x (1 + distractors) x
    objects x scenes, counting each object as visible in every frame."""
    rows = spec.num_frames * (1 + corruption.distractors_per_frame) * len(spec.objects) * scenes
    if rows > MAX_PROPOSAL_ROWS:
        raise ValueError(
            f"{rows} proposal rows (frames x (1 + distractors) x objects x scenes) "
            f"exceed the limit of {MAX_PROPOSAL_ROWS}"
        )


# ---------------------------------------------------------------------------
# Spec files: flat "key = value" lines with # comments
# ---------------------------------------------------------------------------

def _parse_kv(text: str, path: str = "<spec>") -> dict[str, tuple[int, str]]:
    """``{key: (line number, value)}`` of the ``key = value`` lines."""
    entries: dict[str, tuple[int, str]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{number}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}:{number}: empty key")
        if key in entries:
            raise ValueError(f"{path}:{number}: duplicate key {key!r}")
        entries[key] = (number, value)
    return entries


def _convert(kind, value: str, key: str):
    """``kind(value)`` for ``kind`` int or float; a bad value names the key."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"key {key!r} expects {noun}, got {value!r}") from None


def _parse_floats(value: str, count: int, key: str) -> list[float]:
    parts = value.split()
    if len(parts) != count:
        raise ValueError(f"key {key!r} expects {count} numbers, got {len(parts)}")
    return [_convert(float, p, key) for p in parts]


def _parse_affine(value: str, key: str) -> AffineTransform:
    coefficients = _parse_floats(value, 6, key)
    if not all(map(math.isfinite, coefficients)):
        raise ValueError(f"key {key!r} expects finite numbers, got {value!r}")
    return AffineTransform(*coefficients)


def parse_scene_spec(text: str, path: str = "<scene spec>") -> SceneSpec:
    """Parse a scene spec file.

    Recognized keys: ``width``, ``height``, ``num_frames``, and per object
    ``object<k>.box`` (``x y w h``) / ``object<k>.motion`` (six affine
    coefficients ``a b tx c d ty``), with k counting from 1 and written in
    ASCII digits without a leading zero.  Any other key is an error.
    Random draws are keyed by the corruption spec's seed and ``--seed``, so
    a scene spec has no ``seed`` key.  Every error starts with ``path``, and
    an error about one key with ``path:line``.
    """
    scalars = {"width": 1, "height": 1, "num_frames": 1}
    boxes: dict[int, Box] = {}
    motions: dict[int, tuple[int, AffineTransform]] = {}
    identity = AffineTransform.identity()
    for key, (number, value) in _parse_kv(text, path).items():
        with located(f"{path}:{number}"):
            if key in scalars:
                scalars[key] = _convert(int, value, key)
                if scalars[key] < 1:
                    raise ValueError(f"key {key!r} must be >= 1, got {scalars[key]}")
            elif key.startswith("object") and "." in key:
                head, _, field = key.partition(".")
                digits = head[len("object"):]
                # One spelling per index: object01 or object+1 must not alias object1.
                if not (digits.isascii() and digits.isdigit() and str(int(digits)) == digits):
                    raise ValueError(f"unknown scene spec key: {key!r}")
                index = int(digits)
                if field == "box":
                    boxes[index] = Box(*_parse_floats(value, 4, key))
                elif field == "motion":
                    motions[index] = (number, _parse_affine(value, key))
                else:
                    raise ValueError(f"unknown scene spec key: {key!r}")
            else:
                raise ValueError(f"unknown scene spec key: {key!r}")
    for index, (number, _) in sorted(motions.items()):
        if index not in boxes:
            raise ValueError(f"{path}:{number}: motion given for undefined object {index}")
    with located(path):
        if not boxes:
            raise ValueError("scene spec defines no objects")
        indices = sorted(boxes)
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError(f"object indices must be contiguous from 1, got {indices}")
        return SceneSpec(
            width=scalars["width"], height=scalars["height"], num_frames=scalars["num_frames"],
            objects=tuple(
                ObjectSpec(boxes[i], motions[i][1] if i in motions else identity) for i in indices
            ),
        )


_CORRUPTION_KEYS = {f.name: type(f.default) for f in fields(CorruptionSpec)}


def parse_corruption_spec(text: str, path: str = "<corruption spec>") -> CorruptionSpec:
    """Parse a corruption spec file; every error starts with ``path:line``."""
    kwargs = {}
    for key, (number, value) in _parse_kv(text, path).items():
        with located(f"{path}:{number}"):
            if key not in _CORRUPTION_KEYS:
                raise ValueError(f"unknown corruption spec key: {key!r}")
            kwargs[key] = _convert(_CORRUPTION_KEYS[key], value, key)
            # Each field's check is independent of the others, so it runs
            # here, with the others at their defaults, and names this line.
            CorruptionSpec(**{key: kwargs[key]})
    return CorruptionSpec(**kwargs)


# ---------------------------------------------------------------------------
# Data-preparation operations
# ---------------------------------------------------------------------------

JITTER_RETRIES = 10  # draws tried before jitter_box falls back to the clamped box


def jitter_box(
    box: Box, fraction: float, rng: SplitRng, image_width: float, image_height: float
) -> Box:
    """Randomly perturb each box edge within +-fraction of the box side.

    The two x-edges move independently by at most ``fraction * w`` and the
    two y-edges by at most ``fraction * h``; the result is clamped into the
    image.  Draws producing a side of one pixel or less are retried up to
    ``JITTER_RETRIES`` times, after which the input box clamped into the
    image is returned, a side under one pixel widened to one pixel inside
    the image.  ``fraction`` must be finite and >= 0.
    """
    return Box(*_jittered(box, fraction, rng, image_width, image_height))


def _jittered(box, fraction, rng, image_width, image_height):
    """:func:`jitter_box`'s ``(x, y, w, h)``."""
    if not 0 <= fraction < math.inf:
        raise ValueError(f"jitter fraction must be finite and >= 0, got {fraction}")
    for _ in range(JITTER_RETRIES):
        x0 = box.x + rng.uniform(-fraction * box.w, fraction * box.w)
        x1 = box.x + box.w + rng.uniform(-fraction * box.w, fraction * box.w)
        y0 = box.y + rng.uniform(-fraction * box.h, fraction * box.h)
        y1 = box.y + box.h + rng.uniform(-fraction * box.h, fraction * box.h)
        x0, x1 = max(x0, 0.0), min(x1, image_width)
        y0, y1 = max(y0, 0.0), min(y1, image_height)
        if x1 - x0 > 1.0 and y1 - y0 > 1.0:
            return x0, y0, x1 - x0, y1 - y0
    x0, w = _clamped_side(box.x, box.w, image_width)
    y0, h = _clamped_side(box.y, box.h, image_height)
    return x0, y0, w, h


def _clamped_side(start, size, limit):
    """Start and length of ``[start, start + size)`` clamped into ``[0, limit]``;
    one shorter than a pixel is widened to one pixel inside it, or to all of
    it when the image is narrower."""
    lo, hi = min(max(start, 0.0), limit), min(max(start + size, 0.0), limit)
    if hi - lo < 1.0:
        lo = min(lo, max(limit - 1.0, 0.0))
        hi = min(lo + 1.0, limit)
    return lo, hi - lo


def synth_flow(
    fg_mask: Mask, fg: AffineTransform, bg: AffineTransform
) -> np.ndarray:
    """Dense flow field (H, W, 2) from foreground and background motion.

    The flow at pixel p is ``motion(p) - p`` using the foreground transform
    inside the mask and the background transform elsewhere.
    """
    height, width = fg_mask.shape
    cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    flow = np.empty((height, width, 2), dtype=float)
    for transform, region in ((bg, ~fg_mask), (fg, fg_mask)):
        dx = transform.a * cols + transform.b * rows + transform.tx - cols
        dy = transform.c * cols + transform.d * rows + transform.ty - rows
        flow[region, 0] = dx[region]
        flow[region, 1] = dy[region]
    return flow


def flow_magnitude_image(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """Normalized motion-magnitude image in [0, 255].

    The per-field component-wise median vector is subtracted from each field
    (cancelling global/camera motion), magnitudes of the forward and backward
    fields are averaged, and the result is min-max scaled to [0, 255].  A
    constant magnitude field maps to all zeros.
    """
    fwd = np.asarray(fwd, dtype=float)
    bwd = np.asarray(bwd, dtype=float)
    if fwd.shape != bwd.shape or fwd.ndim != 3 or fwd.shape[2] != 2:
        raise ValueError(f"flow fields must share shape (H, W, 2): {fwd.shape} vs {bwd.shape}")
    magnitudes = []
    for field in (fwd, bwd):
        centered = field - np.median(field.reshape(-1, 2), axis=0)
        magnitudes.append(np.hypot(centered[..., 0], centered[..., 1]))
    combined = (magnitudes[0] + magnitudes[1]) / 2.0
    low, high = float(combined.min()), float(combined.max())
    if high - low <= 0.0:
        return np.zeros_like(combined)
    return (combined - low) / (high - low) * 255.0


def guidance_channels(rgb: np.ndarray, flow_magnitude: np.ndarray, box: Box) -> np.ndarray:
    """Stack (H, W, 5): R, G, B, flow magnitude, box-interior channel.

    The box channel is 255 at pixels whose centers lie inside the box and 0
    elsewhere.
    """
    rgb = np.asarray(rgb, dtype=float)
    flow_magnitude = np.asarray(flow_magnitude, dtype=float)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"rgb must have shape (H, W, 3), got {rgb.shape}")
    if flow_magnitude.shape != rgb.shape[:2]:
        raise ValueError(
            f"flow magnitude shape {flow_magnitude.shape} does not match image {rgb.shape[:2]}"
        )
    height, width = flow_magnitude.shape
    box_channel = rasterize_box(box, width, height).astype(float) * 255.0
    return np.dstack([rgb, flow_magnitude, box_channel])


# ---------------------------------------------------------------------------
# Scene generation and corruption
# ---------------------------------------------------------------------------

def generate_scene(spec: SceneSpec, sink) -> dict[int, dict[int, Box]]:
    """Ground truth ``{object: {frame: box}}``, each object's tight boxes as a track.

    Each mask goes to ``sink(object, frame, mask)`` as it is rendered,
    objects then frames in order, and none is kept.  Frame t carries the
    initial rectangle warped by the object's motion composed t-1 times
    (composition, not repeated warping, so rounding does not accumulate).
    Like any track, it has no entry for a frame whose mask is empty (the
    object has left the image).  A transform that is not invertible at a
    rendered frame raises ValueError starting ``object <k>, frame <t>``.
    """
    boxes: dict[int, dict[int, Box]] = {}
    for index, obj in enumerate(spec.objects, start=1):
        base = rasterize_box(obj.initial_box, spec.width, spec.height)
        per_frame = boxes[index] = {}
        transform = AffineTransform.identity()
        for frame in range(1, spec.num_frames + 1):
            mask = base
            if frame > 1:
                with located(f"object {index}, frame {frame}"):
                    transform = obj.motion.compose(transform)
                    mask = warp_mask(base, transform)
            sink(index, frame, mask)
            if (box := box_from_mask(mask)) is not None:
                per_frame[frame] = box
    return boxes


def _jittered_rows(true: np.ndarray, fraction, keys: np.ndarray, image_width, image_height):
    """:func:`_jittered` of each ``(x, y, w, h)`` row of ``true``, row ``i``
    drawing from the stream keyed by ``keys[i]``, as column operations.

    Attempt ``a`` reads draws ``4a + 1 .. 4a + 4`` on the rows that every
    earlier attempt failed; rows that fail them all are clamped.
    """
    out = np.empty_like(true)
    pending = np.arange(len(true))
    for attempt in range(JITTER_RETRIES):
        x, y, w, h = true[pending].T
        ux0, ux1, uy0, uy1 = key_units(keys[pending], 4, 4 * attempt).T
        x0 = x + scale_unit(ux0, -fraction * w, fraction * w)
        x1 = x + w + scale_unit(ux1, -fraction * w, fraction * w)
        y0 = y + scale_unit(uy0, -fraction * h, fraction * h)
        y1 = y + h + scale_unit(uy1, -fraction * h, fraction * h)
        # max(v, 0.0) and min(v, limit), with Python's tie rules.
        x0, x1 = np.where(0.0 > x0, 0.0, x0), np.where(image_width < x1, image_width, x1)
        y0, y1 = np.where(0.0 > y0, 0.0, y0), np.where(image_height < y1, image_height, y1)
        done = (x1 - x0 > 1.0) & (y1 - y0 > 1.0)
        out[pending[done]] = np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)[done]
        pending = pending[~done]
        if not len(pending):
            return out
    for row in pending.tolist():
        x, y, w, h = true[row].tolist()
        x0, w = _clamped_side(x, w, image_width)
        y0, h = _clamped_side(y, h, image_height)
        out[row] = x0, y0, w, h
    return out


def _distractor_boxes(units: np.ndarray, width: int, height: int) -> np.ndarray:
    """``(n, 4)`` random boxes from ``(n, 4)`` units: width, height, left edge, top edge.

    Float64 numpy arithmetic rounds as Python's does, so each box equals the
    one drawn from the same units one at a time.
    """
    uw, uh, ux, uy = units.T
    w = np.maximum(scale_unit(uw, 0.1, 0.5) * width, 1.0)
    h = np.maximum(scale_unit(uh, 0.1, 0.5) * height, 1.0)
    x = scale_unit(ux, 0.0, np.maximum(width - w, 0.0))
    y = scale_unit(uy, 0.0, np.maximum(height - h, 0.0))
    return np.stack([x, y, w, h], axis=1)


def _noisy_scores(keys: np.ndarray, base: float, noise_sd: float) -> np.ndarray:
    """``min(max(base + noise, 0.0), 1.0)`` for each stream keyed by ``keys``,
    with Python's tie rules; the noise is ``normal(0.0, noise_sd)`` of draws 1-2."""
    u1, u2 = key_units(keys, 2).T
    scores = base + box_muller_array(u1, u2, 0.0, noise_sd)
    scores = np.where(0.0 > scores, 0.0, scores)
    return np.where(1.0 < scores, 1.0, scores)


def generate_proposals(
    spec: SceneSpec,
    boxes: dict[int, dict[int, Box]],
    corruption: CorruptionSpec,
    rng: SplitRng | None = None,
) -> dict[str, VideoProposals]:
    """Corrupted per-frame proposals of a scene, ``{query: table}``, one query per object.

    ``boxes`` is what :func:`generate_scene` returns for ``spec``.  Per frame
    and object: the true box jittered by ``box_jitter_fraction`` with score
    clamp01(0.8 + noise) and proposal id 0, plus ``distractors_per_frame``
    boxes drawn independently each frame with score clamp01(0.3 + noise) and
    ids 1..D.  With probability ``id_switch_prob`` the target's score trades
    places with one distractor's for that frame.  All draws come from streams
    keyed by (seed, object, frame, purpose), so output is reproducible and
    independent of evaluation order.  Each purpose is drawn for all of an
    object's frames at once, from an array of the frames' stream keys.
    """
    if rng is None:
        rng = SplitRng(corruption.seed)
    count = corruption.distractors_per_frame
    frames = range(1, spec.num_frames + 1)
    out: dict[str, VideoProposals] = {}
    for obj_index in sorted(boxes):
        track = boxes[obj_index]
        # keys[f - 1] is the key of rng.child("object", obj_index, "frame", f).
        keys = rng.child("object", obj_index, "frame").child_keys(frames)
        visible = np.array([frame in track for frame in frames], dtype=bool)
        # A frame's rows: its target if visible, then distractors 1..count.
        sizes = visible + count
        starts = np.cumsum(sizes) - sizes
        targets = starts[visible]
        row_in_frame = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
        ids = row_in_frame + 1 - np.repeat(visible, sizes)
        xywh = np.empty((len(ids), 4))
        scores = np.empty(len(ids))

        target_keys = keys[visible]
        true = np.array(
            [(b.x, b.y, b.w, b.h) for b in map(track.get, np.flatnonzero(visible) + 1)],
            dtype=np.float64,
        ).reshape(-1, 4)
        xywh[targets] = _jittered_rows(
            true, corruption.box_jitter_fraction, fold_keys(target_keys, "jitter"),
            spec.width, spec.height,
        )
        scores[targets] = _noisy_scores(
            fold_keys(target_keys, "target-score"), TARGET_BASE_SCORE, corruption.score_noise_sd
        )
        if count:
            # Distractor d reads draws 1-2 (score noise) and 3-6 (box) of its
            # frame's child("distractor", d).
            rows = ((starts + visible)[:, None] + np.arange(count)).ravel()
            distractor_keys = fold_children(
                fold_keys(keys, "distractor"), range(1, count + 1)
            ).ravel()
            scores[rows] = _noisy_scores(
                distractor_keys, DISTRACTOR_BASE_SCORE, corruption.score_noise_sd
            )
            xywh[rows] = _distractor_boxes(
                key_units(distractor_keys, 4, 2), spec.width, spec.height
            )
            switch = key_units(fold_keys(target_keys, "switch"), 1)[:, 0]
            switched = switch < corruption.id_switch_prob
            first = targets[switched]
            victim = first + key_randints(fold_keys(target_keys[switched], "victim"), 1, count)
            scores[first], scores[victim] = scores[victim], scores[first]
        kept = sizes > 0
        out[str(obj_index)] = VideoProposals(
            (np.flatnonzero(kept) + 1).tolist(),
            np.repeat(np.arange(int(kept.sum())), sizes[kept]),
            ids.tolist(), xywh, scores, np.full(len(ids), PROPOSAL_OBJECTNESS),
        )
    return out
