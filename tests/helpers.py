"""Definitions that only tests call.

``box_muller``, ``normal`` and ``child_units`` are the scalar and batch
draws that ``trackref.rng``'s array primitives are checked against;
``as_mask`` and ``empty_mask`` build masks for the geometry and metrics
suites.
"""

import math

import numpy as np

from trackref.rng import key_units


def box_muller(u1: float, u2: float, mean: float = 0.0, sd: float = 1.0) -> float:
    """Gaussian draw from two units in [0, 1) (the Box-Muller transform)."""
    if u1 <= 0.0:
        u1 = 2.0 ** -53
    radius = math.sqrt(-2.0 * math.log(u1))
    return mean + sd * radius * math.cos(2.0 * math.pi * u2)


def normal(rng, mean: float = 0.0, sd: float = 1.0) -> float:
    """Gaussian draw from the next two units of ``rng`` (a ``SplitRng``)."""
    u1 = rng.unit()
    u2 = rng.unit()
    return box_muller(u1, u2, mean, sd)


def child_units(rng, parts, count: int) -> np.ndarray:
    """Units of many integer children at once, as a ``(len(parts), count)`` array.

    Entry ``[i, c]`` equals draw ``c + 1`` of ``rng.child(parts[i]).unit()``;
    no counter moves.
    """
    return key_units(rng.child_keys(parts), count)


def as_mask(values) -> np.ndarray:
    """Coerce nested lists / arrays to a validated 2-D boolean mask."""
    mask = np.asarray(values, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2-D grid, got shape {mask.shape}")
    return mask


def empty_mask(height: int, width: int) -> np.ndarray:
    return np.zeros((height, width), dtype=bool)
