"""Deterministic random streams.

Every sampling site receives an explicit generator; there is no global RNG
state anywhere in the package. Streams are Philox (64-bit counter-based), so
a (seed, tag) pair fully determines the draw sequence, independent of call
order elsewhere in the program.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fold_tags(*tags) -> int:
    """FNV-1a hash of the tag tuple, for deriving named substream keys."""
    h = _FNV_OFFSET
    for tag in tags:
        for byte in str(tag).encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        h = ((h ^ 0x7C) * _FNV_PRIME) & _MASK64  # separator so ("ab",) != ("a","b")
    return h


def make_rng(seed: int | None, *tags) -> np.random.Generator | None:
    """Philox stream keyed by (seed, folded tags).

    seed None gives no stream, and ``truncated_normal`` then returns zeros:
    the parameter layout of an init function without drawing it."""
    if seed is None:
        return None
    key = np.array([seed & _MASK64, fold_tags(*tags)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def truncated_normal(
    rng: np.random.Generator,
    shape,
    std: float = 1.0,
    bound: float = 2.0,
    dtype=np.float64,
) -> np.ndarray:
    """Normal draws with |x| > bound redrawn, then scaled by std; zeros
    when rng is None."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    x = rng.standard_normal(shape).reshape(-1)
    bad = np.flatnonzero(np.abs(x) > bound)
    while bad.size:  # recheck only the redrawn entries
        x[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(x[bad]) > bound]
    return (x * std).astype(dtype).reshape(shape)
