"""Frozen reference for the exhaustive oracle: the per-point block evaluator.

Every assignment's excess is summed equation by equation over a vectorized
parity, in 2^16-point blocks enumerated with z_1 most significant; the merge
keeps the best value with the smallest index.  It costs O(m 2^n) and only
covers scaled weights within the int64 headroom.  Tests compare the fast
oracle in ``maxlin.excess`` against it.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from maxlin import Assignment, LinearSystem
from maxlin.f2core import reverse_bits

_BLOCK_BITS = 16
_INT64_SAFE = 1 << 62


def _block_best(eq_data, start: int, stop: int) -> tuple[int, int]:
    idx = np.arange(start, stop, dtype=np.uint64)
    acc = np.zeros(stop - start, dtype=np.int64)
    for mask, rhs, weight in eq_data:
        x = idx & np.uint64(mask)
        for shift in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(shift))
        falsified = (x & np.uint64(1)).astype(np.int64) ^ rhs
        acc += weight * (1 - 2 * falsified)
    pos = int(np.argmax(acc))
    return int(acc[pos]), start + pos


def reference_max_excess(sys: LinearSystem) -> tuple[Fraction, Assignment]:
    """Exact maximum excess and its lexicographically smallest maximizer."""
    scale = math.lcm(*(eq.weight.denominator for eq in sys.equations), 1)
    eq_data = [
        (reverse_bits(eq.lhs.bits, sys.n), eq.rhs, int(eq.weight * scale))
        for eq in sys.equations
    ]
    if sum(w for _, _, w in eq_data) >= _INT64_SAFE:
        raise ValueError("scaled weights exceed the int64 headroom of the reference")
    span = 1 << sys.n
    results = [
        _block_best(eq_data, s, min(s + (1 << _BLOCK_BITS), span))
        for s in range(0, span, 1 << _BLOCK_BITS)
    ]
    best_val, best_at = results[0]
    for val, at in results[1:]:
        if val > best_val or (val == best_val and at < best_at):
            best_val, best_at = val, at
    return Fraction(best_val, scale), Assignment(sys.n, reverse_bits(best_at, sys.n))
