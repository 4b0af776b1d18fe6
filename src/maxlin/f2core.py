"""Exact F2 linear algebra and the weighted-system data model.

Vectors are packed into Python ints (bit j = variable j, 0-based), so any
dimension works and XOR/equality are single integer operations.  Weights are
exact ``fractions.Fraction`` values and must stay positive.  A
``LinearSystem`` stores ``(lhs bits, rhs, weight, eq_id)`` rows, which the
whole package reads, and builds its ``Equation`` objects only on request.
All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import lshift
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, EquationNotFoundError, MaxlinError

__all__ = [
    "F2Vector",
    "Equation",
    "LinearSystem",
    "Assignment",
    "Evaluation",
    "evaluate",
    "rank_and_basis",
    "rref",
    "as_weight",
    "parity",
    "reverse_bits",
]


def as_weight(value) -> Fraction:
    """Coerce an int/str/Fraction to an exact Fraction; floats are rejected.

    A Fraction is returned as it is: it is immutable, so there is nothing
    to copy.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise MaxlinError("floating-point weights are not supported; use int, str or Fraction")
    return Fraction(value)


def parity(x: int) -> int:
    return x.bit_count() & 1


def reverse_bits(x: int, n: int) -> int:
    """Reverse the low n bits of x, making variable 1 the most significant.

    Integer order on the result equals lexicographic order on the
    (v_1, ..., v_n) coordinate tuple, which is the canonical order used
    for every tie-break in the package.
    """
    if n <= 0:
        return 0
    return int(format(x & ((1 << n) - 1), f"0{n}b")[::-1], 2)


def _pack(indices: Iterable[int]) -> int:
    """The bits of distinct indices: the sum of 1 << i, which is their OR."""
    return sum(map(lshift, repeat(1), indices))


def _support(bits: int) -> tuple[int, ...]:
    """The set bits' indices, ascending."""
    out = []
    while bits:
        out.append((low := bits & -bits).bit_length() - 1)
        bits ^= low
    return tuple(out)


def _check_packed(n: int, bits: int) -> None:
    if n < 0:
        raise MaxlinError("dimension must be non-negative")
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
        _check_packed(self.n, self.bits)

    @classmethod
    def zero(cls, n: int) -> F2Vector:
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> F2Vector:
        support = list(support)
        if support and (min(support) < 0 or max(support) >= n
                        or len(set(support)) != len(support)):
            _raise_support_error(n, support)
        return cls(n, _pack(support))

    @classmethod
    def from01(cls, text: str) -> F2Vector:
        bits = 0
        for j, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << j
            elif ch != "0":
                raise MaxlinError(f"invalid character {ch!r} in 0/1 vector")
        return cls(len(text), bits)

    def to01(self) -> str:
        return "".join("1" if self.bits >> j & 1 else "0" for j in range(self.n))

    def values(self) -> tuple[int, ...]:
        """The coordinates as 0/1 ints, in order."""
        return tuple(self.bits >> j & 1 for j in range(self.n))

    def support(self) -> tuple[int, ...]:
        return _support(self.bits)

    def popcount(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def min_var(self) -> int:
        """Lowest set coordinate (0-based)."""
        if self.bits == 0:
            raise MaxlinError("the zero vector has no support")
        return (self.bits & -self.bits).bit_length() - 1

    def lex_key(self) -> int:
        return reverse_bits(self.bits, self.n)

    def __xor__(self, other: F2Vector) -> F2Vector:
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions differ: {self.n} vs {other.n}")
        return F2Vector(self.n, self.bits ^ other.bits)


# an assignment is a vector of F2^n: bit j holds z_{j+1}
Assignment = F2Vector


_Row = tuple[int, int, Fraction, int]


def _check_row(n: int, row: tuple) -> _Row:
    """The row with its weight made a Fraction (a tuple whose weight is one
    comes back as it is), or the first error that an Equation of it raises."""
    bits, rhs, weight, eq_id = row
    _check_packed(n, bits)
    if rhs not in (0, 1):
        raise MaxlinError("rhs must be 0 or 1")
    fraction = as_weight(weight)
    if fraction <= 0:
        raise MaxlinError("weights must be positive")
    if not isinstance(eq_id, int) or eq_id < 0:
        raise MaxlinError("equation ids must be non-negative integers")
    return row if fraction is weight and type(row) is tuple else (bits, rhs, fraction, eq_id)


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
        row = _check_row(self.lhs.n, (self.lhs.bits, self.rhs, self.weight, self.eq_id))
        object.__setattr__(self, "weight", row[2])

    @property
    def n(self) -> int:
        return self.lhs.n

    def is_satisfied_by(self, assignment: Assignment) -> bool:
        if assignment.n != self.n:
            raise DimensionMismatchError(f"dimensions differ: {self.n} vs {assignment.n}")
        return parity(self.lhs.bits & assignment.bits) == self.rhs


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

    def __init__(self, n: int, equations: Iterable[Equation] = (), next_id: int = -1):
        equations = tuple(equations)
        self._store(n, (_equation_row(n, eq) for eq in equations), next_id)
        vars(self)["equations"] = equations

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[tuple], next_id: int = -1) -> LinearSystem:
        """The system of the rows, raising what Equations of them would."""
        return cls.__new__(cls)._store(n, [_check_row(n, row) for row in rows], next_id)

    def _store(self, n: int, rows: Iterable[_Row], next_id: int) -> LinearSystem:
        """Check n and each row's lhs and id in turn, and fill in the fields."""
        if n < 0:
            raise MaxlinError("dimension must be non-negative")
        index: dict[int, int] = {}
        kept = []
        for row in rows:
            if not row[0]:
                raise MaxlinError(f"equation {row[3]} has an empty left-hand side")
            if row[3] in index:
                raise MaxlinError(f"duplicate equation id {row[3]}")
            index[row[3]] = len(kept)
            kept.append(row)
        next_id = max(next_id, max(index, default=-1) + 1)
        vars(self).update(n=n, rows=tuple(kept), next_id=next_id, _index=index)
        return self

    @cached_property
    def equations(self) -> tuple[Equation, ...]:
        """The rows as Equations; a system built from Equations keeps them."""
        return tuple(Equation(F2Vector(self.n, row[0]), *row[1:]) for row in self.rows)

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
        return min(row[2] for row in self.rows)

    def equation(self, eq_id: int) -> Equation:
        try:
            return self.equations[self._index[eq_id]]
        except KeyError:
            raise EquationNotFoundError(f"no equation with id {eq_id}") from None

    def has_equation(self, eq_id: int) -> bool:
        return eq_id in self._index

    def ids(self) -> tuple[int, ...]:
        return tuple(self._index)

    def has_duplicate_lhs(self) -> bool:
        return len({row[0] for row in self.rows}) != len(self.rows)

    def has_integral_weights(self) -> bool:
        return all(row[2].denominator == 1 for row in self.rows)

    def content(self) -> tuple:
        """Id-insensitive view: (n, ordered (lhs bits, rhs, weight) triples)."""
        return (self.n, tuple(row[:3] for row in self.rows))


class Evaluation(NamedTuple):
    satisfied_weight: Fraction
    falsified_weight: Fraction
    excess: Fraction


def evaluate(sys: LinearSystem, assignment: Assignment) -> Evaluation:
    """Exact satisfied/falsified weights and their difference (the excess)."""
    if assignment.n != sys.n:
        raise DimensionMismatchError(f"dimensions differ: {sys.n} vs {assignment.n}")
    sat = Fraction(0)
    fals = Fraction(0)
    for bits, rhs, weight, _ in sys.rows:
        if parity(bits & assignment.bits) == rhs:
            sat += weight
        else:
            fals += weight
    return Evaluation(sat, fals, sat - fals)


def _pivot_basis(rows: Iterable[int], n: int) -> dict[int, int]:
    """Echelon basis of the row space, keyed by each row's lowest set bit.

    Each row is XORed with the basis row owning its lowest set bit until it
    is zero or owns a new one, so the cost is O(m * rank) big-int XORs,
    whatever the dimension.  The keys (as 1 << column) are exactly the
    lowest bits of the nonzero vectors of the row space, which is the pivot
    set of the leftmost-pivot reduced row echelon form.  Rows must fit in n
    bits; once the basis holds n rows every later row would reduce to zero,
    so the scan stops there and a full-rank input is read only up to the
    row that completes the basis.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            prow = basis.get(low)
            if prow is None:
                basis[low] = row
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
    where the reduced rows are the unit rows.  Nothing walks the n columns.
    """
    basis = _pivot_basis(rows, n)
    if len(basis) == n:
        return list(range(n)), [1 << j for j in range(n)]
    lows = sorted(basis)
    pivot_mask = 0
    for low in lows:
        pivot_mask |= low
    reduced: dict[int, int] = {}
    for low in reversed(lows):
        row = basis[low]
        # other pivot bits all lie above low, and their rows are reduced
        hits = row & pivot_mask ^ low
        while hits:
            q = hits & -hits
            row ^= reduced[q]
            hits ^= q
        reduced[low] = row
    return [low.bit_length() - 1 for low in lows], [reduced[low] for low in lows]


def rank_and_basis(sys: LinearSystem) -> tuple[int, tuple[int, ...]]:
    """F2 rank of the lhs matrix and the lexicographically smallest
    independent column set (the leftmost pivots)."""
    lows = sorted(_pivot_basis((row[0] for row in sys.rows), sys.n))
    return len(lows), tuple(low.bit_length() - 1 for low in lows)
