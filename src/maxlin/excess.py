"""Maximum-excess machinery: constructive lower bound, exhaustive oracle,
and the above-average decision pipeline.

The lower bound marks a sum-independent set of equations first, which
guarantees k markings at full weight; the oracle finds the exact maximum
over all assignments with a fast Walsh-Hadamard transform on integer-scaled
weights, one 2^16-point block at a time, in O(n 2^n) whatever m is.  The
decision procedure routes each instance to whichever of the two applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    MaxlinError,
    NonIntegralWeightError,
    OracleCapError,
    PreconditionError,
)
from .f2core import Assignment, F2Vector, LinearSystem, evaluate, reverse_bits
from .kset import VectorSet, find_kset
from .algoh import reconstruct, run_h, sequence_chooser
from .reduce import lift_assignment, make_irreducible

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
# hard ceiling on any cap: 2^14 blocks of 2^16 points
MAX_ORACLE_N = 30
_BLOCK_BITS = 16
# scaled weights must leave headroom in int64 accumulation
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class AaInstance:
    """An integral-weight system plus the above-average parameter k."""

    system: LinearSystem
    k: int

    def __post_init__(self) -> None:
        if not self.system.has_integral_weights():
            raise NonIntegralWeightError("above-average instances require integral weights")
        if not isinstance(self.k, int) or self.k < 1:
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


def lower_bound_assignment(sys: LinearSystem, k: int) -> ExcessWitness:
    """Constructively achieve excess >= k * w_min on an irreducible system.

    Requires k >= 2, k <= m and (m+2)^(k-1) <= 2^n (exact integers).  Builds
    the lhs vectors plus zero, extracts k of them with no sum of two or more
    in the set, marks those equations first — none can be touched before its
    turn — and back-substitutes the transcript into an assignment.

    Irreducibility is tested as distinct left-hand sides plus
    ``members.spans()`` (0 adds nothing to the span), and find_kset reuses
    that one rank test, so a call eliminates over the rows once.  Every step
    is polynomial in n, m and k: each greedy level of the search is one pass
    over the m + 1 vectors, checking its answer costs O(m k) XORs (see
    verify_kset), and the marking run costs what run_h costs.
    """
    if not isinstance(k, int) or k < 2:
        raise PreconditionError("k_too_small", f"k must be an integer >= 2, got {k!r}")
    members = VectorSet(sys.n, [eq.lhs for eq in sys.equations] + [F2Vector.zero(sys.n)])
    if sys.has_duplicate_lhs() or not members.spans():
        raise PreconditionError("not_irreducible", "system must be irreducible (rules 1-2)")
    m = sys.m
    if k > m:
        raise PreconditionError("m_less_than_k", f"need k <= m, got k={k}, m={m}")
    if k - 1 > regime_exponent(m, sys.n):
        raise PreconditionError(
            "threshold_exceeded", f"need (m+2)^(k-1) <= 2^n, got ({m}+2)^{k - 1} > 2^{sys.n}"
        )
    marked_first = find_kset(members, k - 1)
    by_bits = {eq.lhs.bits: eq.eq_id for eq in sys.equations}
    ids = [by_bits[v.bits] for v in marked_first]
    run = run_h(sys, sequence_chooser(ids, require_present=True))
    assignment = reconstruct(run.records, sys.n)
    excess = evaluate(sys, assignment).excess
    if excess < k * sys.min_weight or excess < run.total_marked_weight:
        raise MaxlinError("internal error: marking lower bound not met")
    return ExcessWitness(assignment, excess, "marking")


def _scaled_equations(sys: LinearSystem) -> tuple[list[tuple[int, int, int]], int]:
    """Equations as (reversed-bit mask, rhs, integer weight) plus the scale."""
    scale = math.lcm(*(eq.weight.denominator for eq in sys.equations), 1)
    data = [
        (reverse_bits(eq.lhs.bits, sys.n), eq.rhs, int(eq.weight * scale))
        for eq in sys.equations
    ]
    return data, scale


def _walsh_hadamard(block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 2^L block.

    Constant-geometry form: every stage writes x[i] + x[i + 2^(L-1)] and
    x[i] - x[i + 2^(L-1)] to entries 2i and 2i + 1 of the other buffer, so
    each stage transforms the top index bit and rotates it to the bottom,
    and after L stages the order is natural again.  Reading two contiguous
    halves is what makes this faster than the in-place butterfly.  Returns
    whichever of the two buffers holds the result.
    """
    for _ in range(block.size.bit_length() - 1):
        halves = block.reshape(2, -1)
        pairs = scratch.reshape(-1, 2)
        np.add(halves[0], halves[1], out=pairs[:, 0])
        np.subtract(halves[0], halves[1], out=pairs[:, 1])
        block, scratch = scratch, block
    return block


def brute_force_max_excess(sys: LinearSystem, *, cap: int = DEFAULT_ORACLE_CAP) -> ExcessWitness:
    """Exact maximum excess with the lexicographically smallest maximizer.

    Indexing assignments with z_1 most significant, the excess at z is
    sum_e s_e (-1)^<a_e, z> with s_e = +-w_e, i.e. the Walsh-Hadamard
    transform of the signed weights placed at their (reversed-bit) masks.
    The index is split into low and high bits: for each high pattern, in
    ascending order, the equations' signs on the high bits are folded into
    their weights, scattered into one block over the low bits and
    transformed there.  Memory stays at two block-sized buffers whatever n
    is, and the cost is O(n 2^n + m 2^(n-16)).  A block's first maximum replaces the best so
    far only if strictly greater, which keeps the lexicographically
    smallest maximizer.
    """
    limit = min(cap, MAX_ORACLE_N)
    if sys.n > limit:
        raise OracleCapError(f"{sys.n} variables exceed the oracle cap of {limit}")
    eq_data, scale = _scaled_equations(sys)
    # Python ints past the int64 headroom, so the sums stay exact
    dtype = np.int64 if sum(w for _, _, w in eq_data) < _INT64_SAFE else object
    low_bits = min(sys.n, _BLOCK_BITS)
    lows = np.array([mask & ((1 << low_bits) - 1) for mask, _, _ in eq_data], dtype=np.intp)
    highs = np.array([mask >> low_bits for mask, _, _ in eq_data], dtype=np.uint64)
    signed = np.array([-w if rhs else w for _, rhs, w in eq_data], dtype=dtype)
    scratch = np.empty(1 << low_bits, dtype=dtype)
    best_val, best_at = None, 0
    for zh in range(1 << (sys.n - low_bits)):
        odd = (np.bitwise_count(highs & np.uint64(zh)) & 1).astype(bool)
        block = np.zeros(1 << low_bits, dtype=dtype)
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
    """
    original = inst.system
    k = inst.k
    reduced, transcript = make_irreducible(original)

    def lifted(witness: ExcessWitness) -> ExcessWitness:
        assignment = lift_assignment(transcript, witness.assignment)
        excess = evaluate(original, assignment).excess
        if excess != witness.excess:
            raise MaxlinError("internal error: lifting changed the excess")
        return ExcessWitness(assignment, excess, witness.method)

    if reduced.m == 0:
        witness = brute_force_max_excess(reduced, cap=oracle_cap)
        return False, lifted(witness)
    if k == 1:
        run = run_h(reduced)
        assignment = reconstruct(run.records, reduced.n)
        excess = evaluate(reduced, assignment).excess
        if excess < 1:
            raise MaxlinError("internal error: nonempty irreducible system has excess >= 1")
        return True, lifted(ExcessWitness(assignment, excess, "marking"))
    if k <= reduced.m and k - 1 <= regime_exponent(reduced.m, reduced.n):
        witness = lower_bound_assignment(reduced, k)
        if witness.excess < k:
            raise MaxlinError("internal error: lower bound below k despite integral weights")
        return True, lifted(witness)
    witness = brute_force_max_excess(reduced, cap=oracle_cap)
    return witness.excess >= k, lifted(witness)
