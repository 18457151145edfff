"""Deterministic counter-based random number generation.

Simulation results must be byte-identical across runs, platforms and degrees
of parallelism, so nothing here depends on a platform RNG or on global state.
The generator is a keyed SplitMix64 stream:

    mix64(z):  the SplitMix64 finalizer
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
        z = z ^ (z >> 31)

    key derivation: starting from mix64(seed), each path component folds in
        integers:  key = mix64(key ^ mix64(component + GOLDEN))
        strings:   fold the byte length, then each UTF-8 byte the same way

    draw i of a stream:  mix64((key + (i + 1) * GOLDEN) mod 2^64)

GOLDEN is the 64-bit golden-ratio constant 0x9E3779B97F4A7C15.  Because every
draw is a pure function of (key, counter), independent work units can consume
their own streams in any order without affecting each other.

Batch form: functions over ``np.uint64`` arrays of stream keys run the same
formulas through ``mix64_array``, whose arithmetic wraps mod 2^64 like the
masked integer version, so each entry is bit-identical to the scalar one.
``fold_keys`` and ``fold_children`` fold path parts into keys, ``key_draws``,
``key_units`` and ``key_randints`` draw from them, and
``SplitRng.child_keys`` starts an array.  ``box_muller_array`` keeps
``math.log`` and ``math.cos`` as scalar libm calls, since numpy's own may
differ in the last bit.  The scalar ``SplitRng`` stays the definition of
the stream; the batch form only removes per-draw overhead.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer over unsigned 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` element-wise over a ``np.uint64`` array.

    Array arithmetic on uint64 wraps mod 2^64 without a warning (0-d numpy
    scalars would warn on overflow, so callers pass arrays).
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def scale_unit(unit: float, low: float, high: float) -> float:
    """Map a unit in [0, 1) onto [low, high)."""
    return low + (high - low) * unit


def box_muller(u1: float, u2: float, mean: float = 0.0, sd: float = 1.0) -> float:
    """Gaussian draw from two units in [0, 1) (the Box-Muller transform)."""
    if u1 <= 0.0:
        u1 = 2.0 ** -53
    radius = math.sqrt(-2.0 * math.log(u1))
    return mean + sd * radius * math.cos(2.0 * math.pi * u2)


def box_muller_array(u1: np.ndarray, u2: np.ndarray, mean: float = 0.0, sd: float = 1.0):
    """:func:`box_muller` of each pair of units, as a float array."""
    u1 = np.where(u1 <= 0.0, 2.0 ** -53, u1)
    log = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
    cos = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, len(u2))
    return mean + sd * np.sqrt(-2.0 * log) * cos


# mix64(byte + GOLDEN) for every byte value: the inner mix of a string fold.
_BYTE_MIX = tuple(mix64(byte + _GOLDEN) for byte in range(256))


def _fold(key: int, part: int | str) -> int:
    if isinstance(part, str):
        data = part.encode("utf-8")
        key = mix64(key ^ mix64(len(data) + _GOLDEN))
        for byte in data:
            key = mix64(key ^ _BYTE_MIX[byte])
        return key
    return mix64(key ^ mix64((int(part) + _GOLDEN) & _MASK64))


def fold_keys(keys: np.ndarray, part: int | str) -> np.ndarray:
    """The key of ``child(part)`` of each stream keyed by ``keys``."""
    if isinstance(part, str):
        data = part.encode("utf-8")
        keys = mix64_array(keys ^ np.uint64(mix64(len(data) + _GOLDEN)))
        for byte in data:
            keys = mix64_array(keys ^ np.uint64(_BYTE_MIX[byte]))
        return keys
    return fold_children(keys, [part])[:, 0]


def fold_children(keys: np.ndarray, parts) -> np.ndarray:
    """``(len(keys), len(parts))`` keys: ``[i, j]`` is that of ``child(parts[j])``
    of the stream keyed by ``keys[i]``, for integer parts."""
    # Reduced in Python first, so negative and huge parts fold as in _fold.
    folded = np.array(
        [(operator.index(p) + _GOLDEN) & _MASK64 for p in parts], dtype=np.uint64
    )
    return mix64_array(keys[:, None] ^ mix64_array(folded))


def key_draws(keys: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """``(len(keys), count)`` u64 draws: ``[i, c]`` is ``next_u64`` number
    ``start + c + 1`` of the stream keyed by ``keys[i]``."""
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return mix64_array(keys[:, None] + steps)


def key_units(keys: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """:func:`key_draws` as units, each equal to the stream's ``unit()``."""
    return (key_draws(keys, count, start) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def key_randints(keys: np.ndarray, low: int, high: int) -> np.ndarray:
    """``randint(low, high)`` of each stream keyed by ``keys``, as ``np.int64``.

    A lane whose first draw is rejected is drawn again by the scalar loop.
    """
    if not -(1 << 63) <= low <= high < 1 << 63:
        raise ValueError(f"integer range [{low}, {high}] is empty or outside int64")
    span = high - low + 1
    values = key_draws(keys, 1)[:, 0]
    offsets = values if span > _MASK64 else values % np.uint64(span)
    # Wrapping mod 2^64 and reading the bits as int64 gives low + offset exactly.
    out = (offsets + np.uint64(low & _MASK64)).view(np.int64)
    for lane in np.flatnonzero(values < np.uint64((1 << 64) % span)).tolist():
        out[lane] = SplitRng._keyed(int(keys[lane])).randint(low, high)
    return out


class SplitRng:
    """A splittable, counter-based random stream.

    ``SplitRng(seed, *path)`` identifies one stream; ``child(*path)`` derives
    an independent stream without disturbing the parent's counter.
    """

    __slots__ = ("_key", "_count")

    def __init__(self, seed: int, *path: int | str):
        key = mix64(seed & _MASK64)
        for part in path:
            key = _fold(key, part)
        self._key = key
        self._count = 0

    @staticmethod
    def _keyed(key: int) -> "SplitRng":
        """The stream whose key is ``key``, its counter at 0."""
        rng = SplitRng.__new__(SplitRng)
        rng._key = key
        rng._count = 0
        return rng

    def child(self, *path: int | str) -> "SplitRng":
        key = self._key
        for part in path:
            key = _fold(key, part)
        return SplitRng._keyed(key)

    def child_keys(self, parts) -> np.ndarray:
        """The keys of ``self.child(p)`` for each integer ``p`` of ``parts``, as ``np.uint64``."""
        return fold_children(np.array([self._key], dtype=np.uint64), parts)[0]

    def child_units(self, parts, count: int) -> np.ndarray:
        """Units of many integer children at once, as a ``(len(parts), count)`` array.

        Entry ``[i, c]`` equals draw ``c + 1`` of ``self.child(parts[i]).unit()``;
        no counter moves.
        """
        return key_units(self.child_keys(parts), count)

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._key + self._count * _GOLDEN) & _MASK64)

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        return scale_unit(self.unit(), low, high)

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw via the Box-Muller transform (two u64 draws)."""
        u1 = (self.next_u64() >> 11) * (2.0 ** -53)
        u2 = (self.next_u64() >> 11) * (2.0 ** -53)
        return box_muller(u1, u2, mean, sd)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], unbiased via rejection."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        span = high - low + 1
        threshold = (1 << 64) % span
        while True:
            value = self.next_u64()
            if value >= threshold:
                return low + value % span
