"""Maximum-excess machinery: constructive lower bound, exhaustive oracle,
and the above-average decision pipeline.

The lower bound marks a sum-independent set of equations first, which
guarantees k markings at full weight; the oracle finds the exact maximum
over all assignments.  The maximum is the total weight W exactly when the
system is consistent, so where m (n + 4) <= 2^max(9, n - 5) the oracle
first runs one elimination over the rows, O(m rank) XORs, and answers a
consistent system with W at its lexicographically smallest solution; an
inconsistent one of rank n stops after about n + 1 rows.  An inconsistent
system with at most 3 rows past its rank (a square one of rank n - 1, say)
is answered too, by the lightest set of rows whose flip makes it
consistent: at most 3 rows, found by a second elimination of the m rows
and a search over at most 63 sets of check patterns.  Otherwise it runs
a fast Walsh-Hadamard transform on integer-scaled weights over 2^rank
points, not 2^n: the excess depends only on Az, so the rows are projected
onto their rank's worth of rightmost independent columns, found from the
elimination's basis (where the elimination did not run, onto the columns
they use), and the maximizer is put back there.  Over those c columns the
transform takes one block of 2^L points (L = min(c, 16)) at a time.  It
evaluates each block's low b index bits directly from the rows, and runs
butterfly stages over the other L - b bits only: a pruned transform, with
b chosen from m and L so that the direct part stays within a quarter
block (b = 0, the full transform, where that does not pay).  The cost is
O((L - b) 2^c + m 2^(c-L+b)), never more than O(L 2^c + m 2^(c-16)).  Its
buffers use the narrowest of int16, int32 and int64 that holds the sum of
the scaled weights (Python ints beyond), and its stages run on contiguous
runs of entries.  The decision procedure routes each instance to whichever
of the two applies.

Only the transform uses numpy, and it imports numpy on its first call: the
reduction, the marking run, the lower bound and the oracle's elimination are
integer work, so a process that never reaches the transform never loads
numpy.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    MaxlinError,
    NonIntegralWeightError,
    OracleCapError,
    PreconditionError,
)
from .f2core import (
    Assignment,
    LinearSystem,
    _is_int,
    _pivot_basis,
    _Row,
    _scaled,
    _support,
    evaluate,
    reverse_bits,
)
from .kset import VectorSet, find_kset
from .algoh import reconstruct, run_h
from .reduce import _drop_columns, lift_assignment, make_irreducible

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
# the most rows beyond its rank that an inconsistent system may have for
# the oracle's elimination to answer it
_MAX_CHECKS = 3


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
    that one rank test, so a call eliminates over the rows once.  A system
    that make_irreducible returned is known to pass, and is not tested
    again, so a solve eliminates over its rows once in all.  Every step
    is polynomial in n, m and k: each greedy level of the search is one pass
    over the m + 1 vectors, checking its answer costs O(m k) XORs (see
    verify_kset), and the marking run costs what run_h costs.
    """
    if not _is_int(k) or k < 2:
        raise PreconditionError("k_too_small", f"k must be an integer >= 2, got {k!r}")
    by_bits = {row[0]: row[3] for row in sys.rows}
    if sys._irreducible:
        members = VectorSet._spanning(sys.n, [*by_bits, 0])
    else:
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


def _walsh_hadamard(block: np.ndarray, scratch: np.ndarray, direct: int, split: int) -> np.ndarray:
    """Finish the Walsh-Hadamard transform of a 2^L block whose low
    ``direct`` bits b are already transformed, returning it in natural order.

    The t = L - b high bits g = gh << split | gl of index g << b | xl must
    sit at (gl << (t - split) | gh) << b | xl.  The stages for the top
    ``split`` bits of that layout transform gl; one transpose into the other
    buffer restores natural order, and the stages for bits b + split..L-1
    transform gh.  With split = max(0, L // 2 - b) every stage reads and
    writes contiguous runs of at least 2^(L // 2) entries.  Returns
    whichever of the two buffers holds the result.
    """
    bits = block.size.bit_length() - 1
    high = bits - direct
    block, scratch = _butterflies(block, scratch, range(bits - split, bits))
    if split:
        gl, gh, xl = 1 << split, 1 << (high - split), 1 << direct
        scratch.reshape(gh, gl, xl)[...] = block.reshape(gl, gh, xl).transpose(1, 0, 2)
        block, scratch = scratch, block
    block, _ = _butterflies(block, scratch, range(direct + split, bits))
    return block


def _direct_bits(m: int, low_bits: int) -> int:
    """How many low index bits b of a block to evaluate directly from the m
    rows: the largest b with m * 2^b at most a quarter of the block, or 0
    when that b is below 5 or the block has fewer than 2^15 points.  On one
    block, placing rows of up to 16 entries costs about what the stages
    they save do, and the stages of a smaller block cost about what the
    direct part's setup, a few dozen small array calls, does."""
    b = low_bits - 2 - (m - 1).bit_length()
    return b if b >= 5 and low_bits >= 15 else 0


def _placed_rows(
    signed: np.ndarray, masks: np.ndarray, low_bits: int, direct: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows in the order a block places them, with equal masks merged.

    Rows with one mask get one row, whose signed weight is their sum: every
    block signs them alike.  Then one row of each group (the mask bits
    direct..low_bits-1) comes first, in ascending group order, and the
    rows that repeat a group follow; a block takes each leading row by
    assignment and adds the others.  Returns the signed weights, the masks
    and the number of groups.
    """
    import numpy as np

    def leading(values: np.ndarray) -> np.ndarray:
        """Which entries of a sorted array differ from the one before."""
        lead = np.empty(len(values), dtype=bool)
        lead[0] = True
        np.not_equal(values[1:], values[:-1], out=lead[1:])
        return lead

    order = np.argsort(masks)
    masks = masks[order]
    starts = np.flatnonzero(leading(masks))
    signed = np.add.reduceat(signed[order], starts, dtype=signed.dtype)
    masks = masks[starts]
    groups = (masks & ((1 << low_bits) - 1)) >> direct
    order = np.argsort(groups)
    first = leading(groups[order])
    order = np.concatenate((order[first], order[~first]))
    return signed[order], masks[order], int(np.count_nonzero(first))


def _direct_table(masks: np.ndarray, signed: np.ndarray, direct: int) -> np.ndarray:
    """The rows' part of a block's low ``direct`` bits b, one row of 2^b
    entries per equation: row e is s_e times row a_e mod 2^b of the 2^b
    Hadamard matrix, i.e. s_e (-1)^popcount(a_e & x) at column x.

    It is built one column bit at a time down the columns, where each step
    is one product over contiguous runs of m entries, and then laid out a
    row per equation.
    """
    import numpy as np

    flips = 1 - 2 * (masks >> np.arange(direct, dtype=np.uint64)[:, None] & 1).astype(signed.dtype)
    columns = np.empty((1 << direct, len(signed)), dtype=signed.dtype)
    columns[0] = signed
    for j in range(direct):
        np.multiply(columns[: 1 << j], flips[j], out=columns[1 << j : 2 << j])
    return np.ascontiguousarray(columns.T)


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


def _tries_elimination(m: int, n: int) -> bool:
    """Whether the oracle first decides consistency by elimination: where
    m (n + 4) <= 2^max(9, n - 5).

    A consistent system reads all m rows, at about (n + 4) / 20 us a row,
    and reverses the bits of at most n of them, while the transform costs
    75-270 us at n <= 16, 1 ms at n = 18 and 6 ms at n = 20, plus about
    0.3 us a row.  On consistent random dense systems (2-core Xeon,
    Python 3.11, numpy 2.4) the elimination took 0.16-0.37 of the
    transform's time at the rule's edge (m = 102 at n = 1, 28 at n = 14,
    102 at n = 16, 1365 at n = 20) and 0.23-0.60 at twice those m.  An
    inconsistent system that reads every row, which only a rank r below n
    allows, then transforms 2^r points, not 2^n: on random ones at the
    rule's edge (n = 14-20) the whole call took 0.78-1.30 of the 2^n
    transform's time at r = n - 1 and 0.28-0.71 at r = n / 2.  One of rank
    n stops after about n + 1 rows, 8-18 us at n = 14-20.  Every system
    _lightest_flip answers, m <= n + 3, is inside the rule; on inconsistent
    random systems of rank n - 1 with m - rank = 1 to 3 the whole oracle
    call took 0.42-0.71 of the transform's time at n = 2-12, 0.30-0.37 at
    n = 16 and 0.05-0.07 at n = 20 (83-135 us from n = 16 to 22)."""
    return m * (n + 4) <= 1 << max(9, n - 5)


def _nearest_solution(
    rows: Sequence[_Row], n: int, basis: dict[int, int]
) -> tuple[int, tuple[int, ...]] | None:
    """The lexicographically smallest maximizer, as assignment bits, and the
    indices of the rows it violates, for a consistent system (none violated)
    or one with at most _MAX_CHECKS more rows than its rank; None otherwise.

    ``basis`` is one elimination over the rows, each as lhs bits | rhs << n
    (_pivot_basis over n + 1 bits), which decides consistency: a pivot key
    of 1 << n is the equation 0 = 1, and the other keys count the rank.  An
    inconsistent system goes on to _lightest_flip.  The basis of a
    consistent system, at most n rows with the same solutions, is
    eliminated again with each lhs bit-reversed, z_1 most significant.  Its
    keys are lowest bits, so every free variable lies above its pivot rows'
    keys: setting the free variables to 0 and solving the pivots from the
    highest key down gives the solution least as an integer, which is the
    transform's tie-break among the maximizers.  Only those rows are
    reversed.
    """
    if 1 << n in basis:
        if len(rows) - (len(basis) - 1) > _MAX_CHECKS:
            return None
        return _lightest_flip(rows, n)
    basis = _pivot_basis((reverse_bits(row, n) | row >> n << n for row in basis.values()), n + 1)
    point = 0
    for low in sorted(basis, reverse=True):
        row = basis[low]
        # row >> n is the rhs; point holds only variables above low
        if (row & point).bit_count() + (row >> n) & 1:
            point |= low
    return reverse_bits(point, n), ()


def _rightmost_columns(rows: Iterable[int]) -> list[int]:
    """The rightmost independent columns of independent rows, ascending.

    An elimination keyed by each row's top bit: the keys are the top bits
    of the nonzero vectors of the row space, and column j is one of them
    exactly when no kernel vector has j as its lowest bit, i.e. when
    column j is not a sum of columns to its right.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while (top := row.bit_length()) in basis:
            row ^= basis[top]
        basis[top] = row
    return [top - 1 for top in sorted(basis)]


def _lightest_flip(rows: Sequence[_Row], n: int) -> tuple[int, tuple[int, ...]]:
    """_nearest_solution for an inconsistent system of rank at least
    m - _MAX_CHECKS: the lightest set of rows whose flipped right-hand sides
    make it consistent, and the least solution after the flip.

    Row i enters as reverse_bits(lhs) | 1 << (n + i), so the bits above n
    record which rows each reduced row sums.  After an elimination to
    reduced echelon form, the rows whose lhs cancel give d = m - rank
    independent checks: sets of rows whose lhs sum to 0.  A pivot row of
    key q, summing the rows in s_q, fixes that bit of the least solution of
    A'Z = y to parity(s_q & y) for every consistent y, a linear map.

    Flipping the rows of a set e is consistent exactly when every check
    meets e and the right-hand sides with the same parity.  Give each row
    the pattern of checks it lies in.  A lightest such e has positive
    weight on every row, so it holds no two rows of one pattern (dropping
    both keeps the parities) and no set of patterns summing to 0: at most
    d rows, each the lightest of its pattern.  So every set of at most d of
    the at most 2^d - 1 nonzero patterns is tried, 63 at d = 3.  A lightest
    e's least solution is the image of the right-hand sides XOR the images
    of its rows, and the least of these over every lightest e, ties
    included, is the transform's maximizer: each maximizer violates a
    lightest e and solves the system flipped there.  The cost is one more
    elimination of m <= n + 3 rows of n + m bits and a few XORs for each
    lightest e; ties allow at most one e per set of at most 3 rows.
    """
    full = (1 << n) - 1
    basis: dict[int, int] = {}
    checks: list[int] = []
    for i, row in enumerate(rows):
        x = reverse_bits(row[0], n) | 1 << (n + i)
        while x & full:
            low = x & -x
            prow = basis.get(low)
            if prow is None:
                basis[low] = x
                break
            x ^= prow
        if not x & full:
            checks.append(x >> n)
    pivots = sum(basis)
    for q in sorted(basis, reverse=True):  # each higher key's row is reduced already
        x = basis[q]
        hits = x & pivots ^ q
        while hits:
            p = hits & -hits
            x ^= basis[p]
            hits ^= p
        basis[q] = x
    sums = [(q, x >> n) for q, x in basis.items()]

    def least(y: int) -> int:
        return sum(q for q, s in sums if (s & y).bit_count() & 1)

    def pattern(y: int) -> int:
        return sum(((check & y).bit_count() & 1) << j for j, check in enumerate(checks))

    scaled, _ = _scaled(row[2] for row in rows)
    lightest: dict[int, tuple[int, list[int]]] = {}
    for i, weight in enumerate(scaled):
        key = pattern(1 << i)
        if key:
            best = lightest.get(key)
            if best is None or weight < best[0]:
                lightest[key] = (weight, [i])
            elif weight == best[0]:
                best[1].append(i)
    rhs = sum(row[1] << i for i, row in enumerate(rows))
    target = pattern(rhs)
    lightest_sets: list[tuple[int, ...]] = []
    least_weight = None
    for size in range(1, len(checks) + 1):
        for patterns in combinations(lightest, size):
            met = 0
            for key in patterns:
                met ^= key
            if met == target:
                weight = sum(lightest[key][0] for key in patterns)
                if least_weight is None or weight < least_weight:
                    least_weight, lightest_sets = weight, [patterns]
                elif weight == least_weight:
                    lightest_sets.append(patterns)
    base, images = least(rhs), {}
    found = None
    for patterns in lightest_sets:
        for flipped in product(*(lightest[key][1] for key in patterns)):
            point = base
            for i in flipped:
                if i not in images:
                    images[i] = least(1 << i)
                point ^= images[i]
            if found is None or point < found[0]:
                found = point, flipped
    return reverse_bits(found[0], n), tuple(sorted(found[1]))


def brute_force_max_excess(sys: LinearSystem, *, cap: int = DEFAULT_ORACLE_CAP) -> ExcessWitness:
    """Exact maximum excess with the lexicographically smallest maximizer.

    The excess is at most the total weight W, with equality exactly at the
    solutions of Az = b.  So where _tries_elimination allows, one
    elimination over the rows decides consistency first: a consistent
    system's answer is W at its lexicographically smallest solution, at a
    cost of O(m rank) XORs and without numpy.  An inconsistent one stops
    the elimination at the equation 0 = 1, after about rank + 1 rows when
    the rank is n.  If it has at most _MAX_CHECKS rows past its rank, the
    answer is W - 2 w(e) for the lightest set e of rows whose flipped
    right-hand sides make it consistent (_lightest_flip), again without
    numpy; otherwise it goes on to the transform (_transform_max_excess).
    The cap and the ceiling are checked on the declared n before either,
    and a system with no rows has excess 0 at every point.

    The transform covers 2^rank points, not 2^n.  The excess at z depends
    only on Az, so it is constant on each coset of ker A, and with z_1 most
    significant the least point of a coset is 0 on every column outside the
    rightmost independent set (_rightmost_columns): such a column j is j's
    unit vector plus a sum of columns to its right, all less significant,
    so a kernel vector clears it.  Those points are the points of the rows
    projected onto that set, in the same order, so the projected maximum
    and its least maximizer, put back at those columns, are the answer.
    Where the elimination ran and read every row, its basis without the
    equation 0 = 1 spans the rows' left-hand sides, and one more
    elimination of those rank rows by their top bit finds the set.  Where
    it did not run, no elimination is added: one OR over the rows finds the
    unused columns, which are never in the set, and the transform covers
    the used ones.
    """
    _check_cap(cap)
    limit = min(cap, MAX_ORACLE_N)
    n = sys.n
    if n > limit:
        raise OracleCapError(f"{n} variables exceed the oracle cap of {limit}")
    rows = sys.rows
    if not rows:
        return ExcessWitness(Assignment(n, 0), Fraction(0), "brute_force")
    columns = None
    if _tries_elimination(len(rows), n):
        basis = _pivot_basis((row[0] | row[1] << n for row in rows), n + 1)
        nearest = _nearest_solution(rows, n, basis)
        if nearest is not None:
            point, violated = nearest
            scaled, scale = _scaled(row[2] for row in rows)
            excess = sum(scaled) - 2 * sum(scaled[i] for i in violated)
            return ExcessWitness(Assignment(n, point), Fraction(excess, scale), "brute_force")
        if len(basis) <= n:  # 0 = 1 and fewer than n rows: a rank below n
            full = (1 << n) - 1
            columns = _rightmost_columns(row & full for row in basis.values() if row & full)
    else:
        used = functools.reduce(or_, map(itemgetter(0), rows))
        if used.bit_count() < n:
            columns = _support(used)
    if columns is None:
        point, best = _transform_max_excess(rows, n)
    else:
        point, best = _transform_max_excess(_drop_columns(rows, n, columns), len(columns))
        point = sum(1 << c for i, c in enumerate(columns) if point >> i & 1)
    return ExcessWitness(Assignment(n, point), best, "brute_force")


def _transform_max_excess(rows: Sequence[_Row], n: int) -> tuple[int, Fraction]:
    """The maximum excess over all 2^n points of at least one row over n <=
    MAX_ORACLE_N columns, and its lexicographically smallest maximizer, as
    (assignment bits, excess).  brute_force_max_excess hands it the rows
    projected onto fewer columns where it can (see there).

    Indexing assignments with z_1 most significant, the excess at z is
    sum_e s_e (-1)^<a_e, z> with s_e = +-w_e, i.e. the Walsh-Hadamard
    transform of the signed weights placed at their (reversed-bit) masks.
    The index is split into L = min(n, 16) low bits and n - L high bits:
    for each high pattern, in ascending order, the equations' signs on the
    high bits are folded into their weights and one block over the low bits
    is transformed.

    A block's index x = g << b | xl splits again into b direct bits xl and
    t = L - b group bits g.  Over the direct bits, row e contributes
    s_e (-1)^popcount(lo_e & xl), row lo_e mod 2^b of the 2^b Hadamard
    matrix times s_e; these rows are computed once per call (_direct_table),
    and a high pattern's sign only negates them.  Each block places the
    rows at their group, assigning one row of each group and adding the
    rows that repeat it, and runs only the t stages over g (see
    _walsh_hadamard for the layout).  _direct_bits picks b from m and L
    alone: the largest b with m 2^b <= 2^L / 4, or 0 where the rows are
    too many or the block too small for the direct part to pay; b = 0 is
    the plain transform of the scattered weights.  A block costs
    (L - b) 2^L + m 2^b, which for b > 0 stays below the L 2^L of its full
    transform, and memory stays at two block buffers plus at most a quarter
    block of direct rows, whatever n is.

    Every placed sum, every stage's entry and the result is a signed sum of
    some of the scaled weights, so |entry| <= sum |w| bounds them all
    exactly: the buffers use the narrowest of int16, int32 and int64 that
    holds that sum, and Python ints beyond it.  Each block's result is in
    natural order, and its first maximum replaces the best so far only if
    strictly greater, which keeps the lexicographically smallest maximizer.
    """
    import numpy as np

    scaled, scale = _scaled(map(itemgetter(2), rows))
    total = sum(scaled)
    dtype = next((t for t in (np.int16, np.int32, np.int64) if total <= np.iinfo(t).max), object)
    signed = np.array(scaled, dtype=dtype)
    np.negative(signed, out=signed, where=np.fromiter(map(itemgetter(1), rows), bool, len(rows)))
    masks = _reversed_masks(np.fromiter(map(itemgetter(0), rows), np.uint64, len(rows)), n)
    low_bits = min(n, _BLOCK_BITS)
    direct = _direct_bits(len(rows), low_bits)
    high = low_bits - direct
    split = max(0, low_bits // 2 - direct)
    table, distinct = signed, 0
    if direct:
        signed, masks, distinct = _placed_rows(signed, masks, low_bits, direct)
        table = _direct_table(masks, signed, direct)
    groups = (masks & ((1 << low_bits) - 1)).astype(np.intp) >> direct
    slots = (groups & ((1 << split) - 1)) << (high - split) | groups >> split
    highs = masks >> low_bits
    del masks, groups  # the blocks read only the table, high bits and slots
    block = np.empty(1 << low_bits, dtype=dtype)
    scratch = np.empty_like(block)
    grid = block.reshape(1 << high, 1 << direct) if direct else block
    # a block's signed direct part (at most a quarter block) waits in the
    # other buffer, which the transform needs only after it is placed
    work = scratch[: table.size].reshape(table.shape) if direct else None
    best_val, best_at = None, 0
    for zh in range(1 << (n - low_bits)):
        part = table
        if zh:  # the first high pattern flips no sign
            sign = 1 - 2 * (np.bitwise_count(highs & np.uint64(zh)) & 1).astype(dtype)
            part = np.multiply(table, sign[:, None], out=work) if direct else table * sign
        block.fill(0)
        grid[slots[:distinct]] = part[:distinct]
        if distinct < len(slots):
            np.add.at(grid, slots[distinct:], part[distinct:])
        values = _walsh_hadamard(block, scratch, direct, split)
        pos = int(np.argmax(values))
        if best_val is None or values[pos] > best_val:
            best_val, best_at = int(values[pos]), zh << low_bits | pos
    return reverse_bits(best_at, n), Fraction(best_val, scale)


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
    exact maximizers.  Everything is lifted back to the original variables
    and evaluated there again, except when the reduction changed nothing
    (make_irreducible returned the system itself): the witness then already
    holds an original assignment and its exact excess.
    The oracle cap is checked on every route, as brute_force_max_excess
    checks it.
    """
    _check_cap(oracle_cap)
    original = inst.system
    k = inst.k
    reduced, transcript = make_irreducible(original)

    def lifted(witness: ExcessWitness) -> ExcessWitness:
        if reduced is original:
            return witness
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
