"""Multilinear expansions on {-1,+1}^n and their weighted-system twins.

A multilinear (Fourier) expansion with constant term zero corresponds
one-to-one with a weighted F2 system without repeated left-hand sides:
monomial subset <-> equation support, |coefficient| <-> weight, sign <->
right-hand bit.  Excess under an assignment z equals the expansion's value
at x_i = (-1)^{z_i} minus the constant, which turns the constructive excess
bound into a lower bound on the maximum of the function.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DimensionMismatchError, MaxlinError
from .excess import regime_exponent
from .f2core import LinearSystem, _check_dimension, _check_ints, _pack, _support, as_weight, parity
from .reduce import apply_rule1

__all__ = [
    "FourierExpansion",
    "eval_fourier",
    "fourier_to_system",
    "system_to_fourier",
    "maxima_lower_bound",
]


@dataclass(frozen=True)
class FourierExpansion:
    """Constant term plus a read-only map from nonempty index subsets to
    nonzero rational coefficients."""

    n: int
    constant: Fraction = Fraction(0)
    terms: Mapping[frozenset[int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        object.__setattr__(self, "constant", as_weight(self.constant))
        cleaned: dict[frozenset[int], Fraction] = {}
        for subset, coeff in self.terms.items():
            subset = frozenset(subset)
            if not subset:
                raise MaxlinError("terms must be nonempty subsets; use the constant instead")
            _check_ints("term index", subset)
            if min(subset) < 0 or max(subset) >= self.n:
                raise MaxlinError(f"term {sorted(subset)} outside 0..{self.n - 1}")
            coeff = as_weight(coeff)
            if coeff == 0:
                raise MaxlinError("zero coefficients must not be stored")
            cleaned[subset] = coeff
        object.__setattr__(self, "terms", MappingProxyType(cleaned))

    @classmethod
    def _from_terms(cls, n: int, constant: Fraction,
                    terms: dict[frozenset[int], Fraction]) -> FourierExpansion:
        """The expansion of terms a parser has checked or a checked system has
        produced, which are not checked again; the dict is taken over, not
        copied."""
        self = cls.__new__(cls)
        vars(self).update(n=n, constant=constant, terms=MappingProxyType(terms))
        return self

    def __hash__(self) -> int:
        # the generated hash would hash the terms mapping, which has none
        return hash((self.n, self.constant, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[frozenset[int], Fraction]]:
        """Terms in the canonical order: lexicographic on sorted index tuples."""
        return sorted(self.terms.items(), key=lambda kv: tuple(sorted(kv[0])))

    @property
    def term_count(self) -> int:
        return len(self.terms)


def eval_fourier(f: FourierExpansion, point: Sequence[int]) -> Fraction:
    """Value at a point of {-1,+1}^n, computed exactly.

    Each monomial contributes +-coefficient according to the parity of -1
    entries inside its subset.
    """
    if len(point) != f.n:
        raise DimensionMismatchError(f"point has {len(point)} entries, expected {f.n}")
    negatives = 0
    for i, value in enumerate(point):
        if value == -1:
            negatives |= 1 << i
        elif value != 1:
            raise MaxlinError(f"point entries must be -1 or +1, got {value!r}")
    total = f.constant
    for subset, coeff in f.terms.items():
        if parity(_pack(subset) & negatives):
            total -= coeff
        else:
            total += coeff
    return total


def fourier_to_system(f: FourierExpansion) -> tuple[LinearSystem, Fraction]:
    """One equation per monomial: weight |c|, rhs 0 for positive c, 1 otherwise.

    The constant term has no equation and is returned separately.
    """
    rows = []
    for i, (subset, coeff) in enumerate(f.sorted_terms()):
        rows.append((_pack(subset), 0 if coeff > 0 else 1, abs(coeff), i))
    return LinearSystem._from_rows(f.n, rows), f.constant


def system_to_fourier(sys: LinearSystem) -> FourierExpansion:
    """Inverse of fourier_to_system, with constant zero.

    Requires distinct left-hand sides (apply rule 2 first); coefficient is
    +weight for rhs 0 and -weight for rhs 1.
    """
    if sys.has_duplicate_lhs():
        raise MaxlinError("system has repeated left-hand sides; apply rule 2 first")
    terms = {
        frozenset(_support(bits)): weight if rhs == 0 else -weight
        for bits, rhs, weight, _ in sys.rows
    }
    return FourierExpansion._from_terms(sys.n, Fraction(0), terms)


def maxima_lower_bound(f: FourierExpansion) -> Fraction:
    """Lower bound on max f over {-1,+1}^n from the associated system.

    After projecting onto an independent column basis the variable count
    equals the rank of the system; with q the largest integer satisfying
    (|terms|+2)^q <= 2^rank (the exact form of the floored log ratio), the
    bound is constant + (1+q) * min |coefficient|.
    """
    if not f.terms:
        raise MaxlinError("the expansion has no monomials to bound with")
    system, _constant = fourier_to_system(f)
    projected, _transcript = apply_rule1(system)
    q = regime_exponent(projected.m, projected.n)
    return f.constant + (1 + q) * projected.min_weight
