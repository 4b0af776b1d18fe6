"""Maximum-excess machinery: constructive lower bound, exhaustive oracle,
and the above-average decision pipeline.

The lower bound marks a sum-independent set of equations first, which
guarantees k markings at full weight; the oracle finds the exact maximum
over all assignments with a fast Walsh-Hadamard transform on integer-scaled
weights, one 2^16-point block at a time, in O(n 2^n + m 2^(n-16)).  Its
buffers use the narrowest of int16, int32 and int64 that holds the sum of
the scaled weights (Python ints beyond), and its stages run on contiguous
runs of entries.  The decision procedure routes each instance to whichever
of the two applies.

Only the oracle uses numpy, and it imports numpy on its first call: the
reduction, the marking run and the lower bound are integer work, so a
process that never reaches the oracle never loads numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import (
    MaxlinError,
    NonIntegralWeightError,
    OracleCapError,
    PreconditionError,
)
from .f2core import Assignment, LinearSystem, _is_int, evaluate, reverse_bits
from .kset import VectorSet, find_kset
from .algoh import reconstruct, run_h
from .reduce import lift_assignment, make_irreducible

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AaInstance",
    "ExcessWitness",
    "lower_bound_assignment",
    "brute_force_max_excess",
    "decide_aa",
    "regime_exponent",
    "DEFAULT_ORACLE_CAP",
    "MAX_ORACLE_N",
]

DEFAULT_ORACLE_CAP = 24
# hard ceiling on any cap: 2^14 blocks of 2^16 points (and at most the 32
# bits that _reversed_masks reverses)
MAX_ORACLE_N = 30
_BLOCK_BITS = 16


@dataclass(frozen=True)
class AaInstance:
    """An integral-weight system plus the above-average parameter k."""

    system: LinearSystem
    k: int

    def __post_init__(self) -> None:
        if not self.system.has_integral_weights():
            raise NonIntegralWeightError("above-average instances require integral weights")
        if not _is_int(self.k) or self.k < 1:
            raise MaxlinError(f"parameter k must be a positive integer, got {self.k!r}")


@dataclass(frozen=True)
class ExcessWitness:
    """An assignment together with its exact excess and how it was found."""

    assignment: Assignment
    excess: Fraction
    method: str  # "marking" or "brute_force"


def regime_exponent(m: int, n: int) -> int:
    """The largest q with (m+2)^q <= 2^n for counts m, n >= 0, in exact integers.

    So (m+2)^(k-1) <= 2^n exactly when k - 1 <= regime_exponent(m, n).  With
    b the bit length of m+2, 2^(b-1) <= m+2 < 2^b puts q between n // b and
    n // (b-1); a binary search over that range settles it.
    """
    base, limit = m + 2, 1 << n
    b = base.bit_length()
    lo, hi = n // b, n // (b - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if base**mid <= limit:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _in_marking_regime(sys: LinearSystem, k: int) -> bool:
    """k <= m and (m+2)^(k-1) <= 2^n: the lower bound then reaches k * w_min."""
    return k <= sys.m and k - 1 <= regime_exponent(sys.m, sys.n)


def _marking_witness(
    sys: LinearSystem, first: Iterable[int] = ()
) -> tuple[ExcessWitness, Fraction]:
    """Mark ``first`` in order, then the lowest live id, and back-substitute
    the transcript; returns the witness and the total marked weight."""
    run = run_h(sys, first)
    assignment = reconstruct(run.records, sys.n)
    witness = ExcessWitness(assignment, evaluate(sys, assignment), "marking")
    return witness, run.total_marked_weight


def lower_bound_assignment(sys: LinearSystem, k: int) -> ExcessWitness:
    """Constructively achieve excess >= k * w_min on an irreducible system.

    Requires k >= 2, k <= m and (m+2)^(k-1) <= 2^n (exact integers).  Puts
    the rows' lhs bits, as stored, and 0 in a VectorSet, extracts k of them
    with no sum of two or more in the set, marks those equations first —
    none can be touched before its turn — and back-substitutes the
    transcript into an assignment.

    Irreducibility is tested as distinct left-hand sides plus
    ``members.spans()`` (0 adds nothing to the span), and find_kset reuses
    that one rank test, so a call eliminates over the rows once.  Every step
    is polynomial in n, m and k: each greedy level of the search is one pass
    over the m + 1 vectors, checking its answer costs O(m k) XORs (see
    verify_kset), and the marking run costs what run_h costs.
    """
    if not _is_int(k) or k < 2:
        raise PreconditionError("k_too_small", f"k must be an integer >= 2, got {k!r}")
    by_bits = {row[0]: row[3] for row in sys.rows}
    members = VectorSet(sys.n, [*by_bits, 0])
    if len(by_bits) != sys.m or not members.spans():
        raise PreconditionError("not_irreducible", "system must be irreducible (rules 1-2)")
    m = sys.m
    if k > m:
        raise PreconditionError("m_less_than_k", f"need k <= m, got k={k}, m={m}")
    if k - 1 > regime_exponent(m, sys.n):
        raise PreconditionError(
            "threshold_exceeded", f"need (m+2)^(k-1) <= 2^n, got ({m}+2)^{k - 1} > 2^{sys.n}"
        )
    marked_first = find_kset(members, k - 1)
    ids = [by_bits[b] for b in marked_first]
    witness, marked = _marking_witness(sys, ids)
    if witness.excess < k * sys.min_weight or witness.excess < marked:
        raise MaxlinError("internal error: marking lower bound not met")
    return witness


def _butterflies(
    block: np.ndarray, scratch: np.ndarray, bits: range
) -> tuple[np.ndarray, np.ndarray]:
    """Transform the given index bits, one stage per bit: stage j reads the
    halves of every run of 2^(j+1) entries and writes their sum and
    difference to the same places in the other buffer.  Returns the buffer
    holding the result, then the other one."""
    import numpy as np

    for j in bits:
        pairs, out = block.reshape(-1, 2, 1 << j), scratch.reshape(-1, 2, 1 << j)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
        block, scratch = scratch, block
    return block, scratch


def _walsh_hadamard(block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 2^L block, returned in
    natural order from a block scattered in swapped order.

    With s = L // 2, index x = hi << s | lo must sit at lo << (L - s) | hi,
    i.e. the block is the (2^s, 2^(L-s)) transpose of natural order.  The
    stages for bits L-s..L-1 there transform lo; one transpose into the
    other buffer restores natural order, and the stages for bits s..L-1
    transform hi.  So every stage reads and writes contiguous runs of at
    least 2^min(s, L-s) entries.  Returns whichever of the two buffers holds
    the result.
    """
    bits = block.size.bit_length() - 1
    s = bits // 2
    block, scratch = _butterflies(block, scratch, range(bits - s, bits))
    scratch.reshape(1 << (bits - s), 1 << s)[...] = block.reshape(1 << s, 1 << (bits - s)).T
    block, _ = _butterflies(scratch, block, range(s, bits))
    return block


# the stages that reverse the bits of each 32-bit lane: swap neighbouring
# runs of 1, 2, 4, 8 and 16 bits
_LANE_SWAPS = ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF), (16, 0x0000FFFF))


def _reversed_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """reverse_bits(mask, n) for every mask of n <= 32 bits at once, with
    the same few array operations whatever the number of masks."""
    for shift, keep in _LANE_SWAPS:
        masks = (masks >> shift) & keep | (masks & keep) << shift
    return masks >> (32 - n)


def _check_cap(cap) -> None:
    """Raise unless the oracle cap is an int; a bool is refused."""
    if not _is_int(cap):
        raise MaxlinError(f"oracle cap must be an int, got {cap!r}")


def brute_force_max_excess(sys: LinearSystem, *, cap: int = DEFAULT_ORACLE_CAP) -> ExcessWitness:
    """Exact maximum excess with the lexicographically smallest maximizer.

    Indexing assignments with z_1 most significant, the excess at z is
    sum_e s_e (-1)^<a_e, z> with s_e = +-w_e, i.e. the Walsh-Hadamard
    transform of the signed weights placed at their (reversed-bit) masks.
    The index is split into L = min(n, 16) low bits and n - L high bits:
    for each high pattern, in ascending order, the equations' signs on the
    high bits are folded into their weights, scattered into one block over
    the low bits and transformed there (see _walsh_hadamard for the
    block's layout).  The cost is O(L 2^n + m 2^(n-16)), and memory stays
    at two block-sized buffers whatever n is.

    Every scattered sum, every stage's entry and the result is a signed sum
    of some of the scaled weights, so |entry| <= sum |w| bounds them all
    exactly: the buffers use the narrowest of int16, int32 and int64 that
    holds that sum, and Python ints beyond it.  A block's first maximum
    replaces the best so far only if strictly greater, which keeps the
    lexicographically smallest maximizer.
    """
    _check_cap(cap)
    limit = min(cap, MAX_ORACLE_N)
    if sys.n > limit:
        raise OracleCapError(f"{sys.n} variables exceed the oracle cap of {limit}")
    import numpy as np

    rows = sys.rows
    scale = math.lcm(*(w.denominator for _, _, w, _ in rows), 1)
    scaled = [w.numerator * (scale // w.denominator) for _, _, w, _ in rows]
    total = sum(scaled)
    dtype = next((t for t in (np.int16, np.int32, np.int64) if total <= np.iinfo(t).max), object)
    signed = np.array(scaled, dtype=dtype)
    np.negative(signed, out=signed, where=np.fromiter((row[1] for row in rows), bool, len(rows)))
    masks = _reversed_masks(np.fromiter((row[0] for row in rows), np.uint64, len(rows)), sys.n)
    low_bits = min(sys.n, _BLOCK_BITS)
    s = low_bits // 2
    lows = (masks & ((1 << low_bits) - 1)).astype(np.intp)
    lows = (lows & ((1 << s) - 1)) << (low_bits - s) | lows >> s
    highs = masks >> low_bits
    block = np.empty(1 << low_bits, dtype=dtype)
    scratch = np.empty_like(block)
    best_val, best_at = None, 0
    for zh in range(1 << (sys.n - low_bits)):
        odd = (np.bitwise_count(highs & np.uint64(zh)) & 1).astype(bool)
        block.fill(0)
        np.add.at(block, lows, np.where(odd, -signed, signed))
        values = _walsh_hadamard(block, scratch)
        pos = int(np.argmax(values))
        if best_val is None or values[pos] > best_val:
            best_val, best_at = int(values[pos]), zh << low_bits | pos
    assignment = Assignment(sys.n, reverse_bits(best_at, sys.n))
    return ExcessWitness(assignment, Fraction(best_val, scale), "brute_force")


def decide_aa(
    inst: AaInstance, *, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, ExcessWitness]:
    """Decide whether the maximum excess reaches k; always returns a witness.

    Pipeline: reduce to an irreducible system; an empty result answers no
    (for k >= 1); k = 1 on a nonempty system is always yes, with the plain
    marking run as witness; k <= m with (m+2)^(k-1) <= 2^n is yes through
    the marking lower bound (integral weights make w_min >= 1); otherwise
    n <= m holds after reduction, the exponent is small, and exhaustive
    search settles it.  Yes-witnesses achieve excess >= k; no-witnesses are
    exact maximizers.  Everything is lifted back to the original variables.
    The oracle cap is checked on every route, as brute_force_max_excess
    checks it.
    """
    _check_cap(oracle_cap)
    original = inst.system
    k = inst.k
    reduced, transcript = make_irreducible(original)

    def lifted(witness: ExcessWitness) -> ExcessWitness:
        assignment = lift_assignment(transcript, witness.assignment)
        excess = evaluate(original, assignment)
        if excess != witness.excess:
            raise MaxlinError("internal error: lifting changed the excess")
        return ExcessWitness(assignment, excess, witness.method)

    if reduced.m == 0:
        witness = brute_force_max_excess(reduced, cap=oracle_cap)
        return False, lifted(witness)
    if k == 1:
        witness, _ = _marking_witness(reduced)
        if witness.excess < 1:
            raise MaxlinError("internal error: nonempty irreducible system has excess >= 1")
        return True, lifted(witness)
    if _in_marking_regime(reduced, k):
        witness = lower_bound_assignment(reduced, k)
        if witness.excess < k:
            raise MaxlinError("internal error: lower bound below k despite integral weights")
        return True, lifted(witness)
    witness = brute_force_max_excess(reduced, cap=oracle_cap)
    return witness.excess >= k, lifted(witness)
