"""Exact F2 linear algebra and the weighted-system data model.

Vectors are packed into Python ints (bit j = variable j, 0-based), so any
dimension works and XOR/equality are single integer operations.  Weights are
exact ``fractions.Fraction`` values and must stay positive.  A
``LinearSystem`` stores ``(lhs bits, rhs, weight, eq_id)`` rows, which the
whole package reads, and builds its ``Equation`` objects only on request.
It keeps no id index: an id is ``row[3]``, and the one library path that
looks an id up, the certificate check, finds it in the marking step.
A row is checked once, where it enters the library (as an ``Equation``, by
a parser or by ``FourierExpansion``).  ``LinearSystem._from_rows`` builds a
derived system without the ``Equation`` checks, but its ``_store`` checks n,
empty left-hand sides and repeated ids again, as on every system; and
``_equation`` builds an ``Equation`` of a derived row with no check.
Every public constructor shares two checks: ``_check_dimension`` (n is an
int >= 0) and ``_check_packed`` (a bit pattern is an int that fits n bits);
both refuse a bool, as ``_is_int`` does.  A collection of indices is
checked by ``_check_ints``.
All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import attrgetter, itemgetter, lshift
from typing import Collection, Iterable, Sequence

from .errors import DimensionMismatchError, MaxlinError

__all__ = [
    "F2Vector",
    "Equation",
    "LinearSystem",
    "Assignment",
    "evaluate",
    "rref",
    "as_weight",
    "parity",
    "reverse_bits",
]


def as_weight(value) -> Fraction:
    """Coerce an int/str/Fraction to an exact Fraction; floats are rejected.

    A Fraction is returned as it is: it is immutable, so there is nothing
    to copy.  A bool, or anything Fraction cannot read, raises MaxlinError.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise MaxlinError("floating-point weights are not supported; use int, str or Fraction")
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise MaxlinError(f"{value!r} is not an exact rational number")


def _scaled(weights: Iterable[Fraction]) -> tuple[list[int], int]:
    """Exact weights as ints over one scale, the lcm of their denominators
    (1 for none): each weight is its int divided by the scale."""
    weights = list(weights)
    scale = math.lcm(*map(attrgetter("denominator"), weights))
    if scale == 1:  # integral weights, the common case, at C speed
        return list(map(attrgetter("numerator"), weights)), 1
    return [w.numerator * (scale // w.denominator) for w in weights], scale


def _min_magnitude(values: Iterable[Fraction]) -> Fraction:
    """The least |v| over nonempty exact values, found as a min over the
    scaled ints, with no Fraction compared; it is the same exact Fraction."""
    ints, scale = _scaled(values)
    return Fraction(min(map(abs, ints)), scale)


def parity(x: int) -> int:
    return x.bit_count() & 1


# each byte with its 8 bits in reverse order
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def reverse_bits(x: int, n: int) -> int:
    """Reverse the low n bits of x, making variable 1 the most significant.

    Integer order on the result equals lexicographic order on the
    (v_1, ..., v_n) coordinate tuple, which is the canonical order used
    for every tie-break in the package.
    """
    if n <= 0:
        return 0
    # read the little-endian bytes, each bit-reversed, as a big-endian int
    size = (n + 7) >> 3
    data = (x & ((1 << n) - 1)).to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(data, "big") >> (size * 8 - n)


def _pack(indices: Iterable[int]) -> int:
    """The bits of distinct indices: the sum of 1 << i, which is their OR."""
    return sum(map(lshift, repeat(1), indices))


def _support(bits: int) -> tuple[int, ...]:
    """The set bits' indices, ascending.  The walk goes down from the top
    bit, so a wide int is never negated."""
    out = []
    while bits:
        out.append(top := bits.bit_length() - 1)
        bits ^= 1 << top
    out.reverse()
    return tuple(out)


def _is_int(x) -> bool:
    """An int and not a bool, which Python counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


_EXACT_INT = frozenset({int})


def _check_ints(what: str, values: Collection) -> None:
    """Raise unless every value passes _is_int.  One C-level pass covers
    values that are all exactly int; any other type (a bool, a float, an
    int subclass) gets the exact test."""
    if not _EXACT_INT.issuperset(map(type, values)):
        for v in values:
            if not _is_int(v):
                raise MaxlinError(f"{what} {v!r} is not an int")


def _check_dimension(n: int, what: str = "dimension") -> None:
    """Raise unless n is an int >= 0; a bool is refused."""
    if not _is_int(n):
        raise MaxlinError(f"{what} must be an int, got {n!r}")
    if n < 0:
        raise MaxlinError(f"{what} must be non-negative")


def _check_packed(n: int, bits: int) -> None:
    """Raise unless bits is an int that fits the checked dimension n."""
    if not _is_int(bits):
        raise MaxlinError(f"{bits!r} is not an int bit pattern")
    if bits < 0 or bits >> n != 0:
        raise MaxlinError(f"bit pattern {bits:#x} does not fit dimension {n}")


def _raise_support_error(n: int, support: list[int]) -> None:
    """Raise for the first out-of-range or repeated index, in order."""
    seen = set()
    for j in support:
        if not 0 <= j < n:
            raise MaxlinError(f"variable index {j} outside 0..{n - 1}")
        if j in seen:
            raise MaxlinError(f"duplicate variable index {j}")
        seen.add(j)


@dataclass(frozen=True)
class F2Vector:
    """A length-n vector over F2; addition is XOR, so v + v = 0.

    It is also the type of an assignment z_1..z_n (``Assignment``).
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        _check_packed(self.n, self.bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> F2Vector:
        _check_dimension(n)
        support = list(support)
        _check_ints("variable index", support)
        if support and (min(support) < 0 or max(support) >= n
                        or len(set(support)) != len(support)):
            _raise_support_error(n, support)
        return cls(n, _pack(support))

    def to01(self) -> str:
        # "0b" and the marker bit 1 << n keep the leading zeros; bit 0 goes first
        return bin(self.bits | 1 << self.n)[3:][::-1]

    def support(self) -> tuple[int, ...]:
        return _support(self.bits)


# an assignment is a vector of F2^n: bit j holds z_{j+1}
Assignment = F2Vector


_Row = tuple[int, int, Fraction, int]


@dataclass(frozen=True)
class Equation:
    """One weighted row: sum of the lhs support variables = rhs.

    A LinearSystem never stores a row whose lhs is zero.
    """

    lhs: F2Vector
    rhs: int
    weight: Fraction
    eq_id: int

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, F2Vector):
            raise MaxlinError("the left-hand side must be an F2Vector")
        if type(self.rhs) is not int or self.rhs not in (0, 1):
            raise MaxlinError("rhs must be 0 or 1")
        weight = as_weight(self.weight)
        if weight <= 0:
            raise MaxlinError("weights must be positive")
        if not _is_int(self.eq_id) or self.eq_id < 0:
            raise MaxlinError("equation ids must be non-negative integers")
        object.__setattr__(self, "weight", weight)

    @property
    def n(self) -> int:
        return self.lhs.n


def _equation(n: int, bits: int, rhs: int, weight: Fraction, eq_id: int) -> Equation:
    """The Equation of a row the library derived from checked input, stored
    as the constructors store it but without their checks."""
    lhs = F2Vector.__new__(F2Vector)
    vars(lhs).update(n=n, bits=bits)
    eq = Equation.__new__(Equation)
    vars(eq).update(lhs=lhs, rhs=rhs, weight=weight, eq_id=eq_id)
    return eq


def _equation_row(n: int, eq: Equation) -> _Row:
    if eq.n != n:
        raise DimensionMismatchError(f"equation {eq.eq_id} has dimension {eq.n}, system has {n}")
    return eq.lhs.bits, eq.rhs, eq.weight, eq.eq_id


@dataclass(frozen=True, init=False)
class LinearSystem:
    """Ordered multiset of equations over variables 0..n-1 with stable ids.

    ``rows`` holds one ``(lhs bits, rhs, weight, eq_id)`` tuple per
    equation; equality and hashing are over ``(n, rows)``.  Ids are assigned
    at construction and never reused; merged rows always get fresh ids drawn
    from ``next_id`` (which is bookkeeping and excluded from equality).
    """

    n: int
    rows: tuple[_Row, ...]
    next_id: int = field(compare=False)
    # set on make_irreducible's results, whose rows are distinct and of rank
    # n, so the lower bound does not test them again
    _irreducible = False

    def __init__(self, n: int, equations: Iterable[Equation] = (), next_id: int = -1):
        equations = tuple(equations)
        self._store(n, (_equation_row(n, eq) for eq in equations), next_id)
        vars(self)["equations"] = equations

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[_Row], next_id: int = -1) -> LinearSystem:
        """The system of rows that the library derived from checked input,
        which only _store's checks see again."""
        return cls.__new__(cls)._store(n, rows, next_id)

    def _store(self, n: int, rows: Iterable[_Row], next_id: int) -> LinearSystem:
        """Check n and each row's lhs and id in turn, and fill in the fields."""
        _check_dimension(n)
        ids: set[int] = set()
        kept = []
        for row in rows:
            if not row[0]:
                raise MaxlinError(f"equation {row[3]} has an empty left-hand side")
            if row[3] in ids:
                raise MaxlinError(f"duplicate equation id {row[3]}")
            ids.add(row[3])
            kept.append(row)
        next_id = max(next_id, max(ids, default=-1) + 1)
        vars(self).update(n=n, rows=tuple(kept), next_id=next_id)
        return self

    @cached_property
    def equations(self) -> tuple[Equation, ...]:
        """The rows as Equations; a system built from Equations keeps them."""
        return tuple(_equation(self.n, *row) for row in self.rows)

    @classmethod
    def build(cls, n: int, rows: Iterable[tuple]) -> LinearSystem:
        """Build from (support-or-F2Vector, rhs, weight) rows; ids run 0.."""
        return cls(n, [
            Equation(lhs if isinstance(lhs, F2Vector) else F2Vector.from_support(n, lhs), rhs, w, i)
            for i, (lhs, rhs, w) in enumerate(rows)
        ])

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def min_weight(self) -> Fraction:
        if not self.rows:
            raise MaxlinError("empty system has no minimum weight")
        return _min_magnitude(map(itemgetter(2), self.rows))

    def has_integral_weights(self) -> bool:
        return all(row[2].denominator == 1 for row in self.rows)


def evaluate(sys: LinearSystem, assignment: Assignment) -> Fraction:
    """The exact excess: satisfied weight minus falsified weight.

    The satisfied weight is (total weight + excess) / 2.  The weights are
    scaled once to integers by the lcm of their denominators, as the oracle
    does, so the signed sum is an integer sum and one ``Fraction`` at the end.
    """
    if assignment.n != sys.n:
        raise DimensionMismatchError(f"dimensions differ: {sys.n} vs {assignment.n}")
    rows = sys.rows
    ints, scale = _scaled(map(itemgetter(2), rows))
    point = assignment.bits
    excess = 0
    for row, term in zip(rows, ints):
        excess += term if parity(row[0] & point) == row[1] else -term
    return Fraction(excess, scale)


def _pivot_basis(rows: Iterable[int], n: int) -> dict[int, int]:
    """Echelon basis of the row space, keyed by the column of each row's
    lowest set bit.

    Each row is XORed with the basis row owning its lowest set bit until it
    is zero or owns a new one, so the cost is O(m * rank) big-int XORs,
    whatever the dimension.  The keys (column indices, small ints that hash
    at once) are exactly the columns of the lowest set bits of the nonzero
    vectors of the row space, which is the pivot set of the leftmost-pivot
    reduced row echelon form.  The dict holds one entry per pivot and nothing per
    column.  Rows must fit in n bits; once the basis holds n rows every
    later row would reduce to zero, so the scan stops there and a full-rank
    input is read only up to the row that completes the basis.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            prow = basis.get(col)
            if prow is None:
                basis[col] = row
                if len(basis) == n:
                    return basis
                break
            row ^= prow
    return basis


def rref(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F2 with leftmost pivots.

    Returns (pivot columns ascending, reduced pivot rows aligned with them);
    non-pivot columns of the reduced rows express each dependent column of
    the input as a sum of pivot columns.  Rows must fit in n bits.

    Cost: O(m * rank) XORs for the echelon basis (see _pivot_basis, which
    stops at the row that completes a full-rank basis) plus one
    back-substitution pass of at most rank^2 / 2 XORs, skipped at full rank,
    where the reduced rows are the unit rows.  The pass looks each pivot's
    reduced row up by its column index.  Nothing walks the n columns, and
    nothing is allocated per column.
    """
    basis = _pivot_basis(rows, n)
    if len(basis) == n:
        return list(range(n)), [1 << j for j in range(n)]
    pivots = sorted(basis)
    pivot_mask = 0
    for p in pivots:
        pivot_mask |= 1 << p
    reduced: dict[int, int] = {}
    for p in reversed(pivots):
        row = basis[p]
        # other pivot bits all lie above p, and their rows are reduced
        hits = row & pivot_mask ^ 1 << p
        while hits:
            low = hits & -hits
            row ^= reduced[low.bit_length() - 1]
            hits ^= low
        reduced[p] = row
    return pivots, [reduced[p] for p in pivots]

