"""Multilinear expansions on {-1,+1}^n and their weighted-system twins.

A multilinear (Fourier) expansion with constant term zero corresponds
one-to-one with a weighted F2 system without repeated left-hand sides:
monomial subset <-> equation support, |coefficient| <-> weight, sign <->
right-hand bit.  An expansion stores each subset packed as the int that is
its equation's left-hand side, so the bijection moves masks, not index
sets.  Excess under an assignment z equals the expansion's value at
x_i = (-1)^{z_i} minus the constant, which turns the constructive excess
bound into a lower bound on the maximum of the function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, repeat
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

_NO_TERMS: Mapping = MappingProxyType({})
_ONE = Fraction(1)


@dataclass(frozen=True, init=False)
class FourierExpansion:
    """Constant term plus a read-only map ``masks`` from the bit pattern of
    each nonempty index subset (bit i for index i, as in
    ``LinearSystem.rows``) to its nonzero rational coefficient.

    ``terms`` is the same map keyed by frozensets of indices, built on first
    use; the library reads ``masks``.  Equality and hashing are over
    ``(n, constant, masks)``.
    """

    n: int
    constant: Fraction
    masks: Mapping[int, Fraction]

    def __init__(self, n: int, constant=Fraction(0), terms: Mapping = _NO_TERMS):
        _check_dimension(n)
        constant = as_weight(constant)
        masks: dict[int, Fraction] = {}
        for key, coeff in terms.items():
            indices = tuple(key)
            subset = frozenset(indices)
            if not subset:
                raise MaxlinError("terms must be nonempty subsets; use the constant instead")
            _check_ints("term index", subset)
            if min(subset) < 0 or max(subset) >= n:
                raise MaxlinError(f"term {sorted(subset)} outside 0..{n - 1}")
            if len(subset) != len(indices):
                # x_i * x_i = 1 on +-1 points, so a repeat is not the term x_i
                raise MaxlinError(f"term {list(indices)} repeats an index")
            coeff = as_weight(coeff)
            if coeff == 0:
                raise MaxlinError("zero coefficients must not be stored")
            mask = _pack(subset)
            if mask in masks:
                raise MaxlinError(f"duplicate term subset {sorted(subset)}")
            masks[mask] = coeff
        vars(self).update(n=n, constant=constant, masks=MappingProxyType(masks))

    @classmethod
    def _from_masks(cls, n: int, constant: Fraction,
                    masks: dict[int, Fraction]) -> FourierExpansion:
        """The expansion of masks a parser has checked or a checked input has
        produced, which are not checked again; the dict is taken over, not
        copied."""
        self = cls.__new__(cls)
        vars(self).update(n=n, constant=constant, masks=MappingProxyType(masks))
        return self

    def __hash__(self) -> int:
        # the generated hash would hash the masks mapping, which has none
        return hash((self.n, self.constant, frozenset(self.masks.items())))

    @cached_property
    def terms(self) -> Mapping[frozenset[int], Fraction]:
        """The masks as a read-only map keyed by frozensets of indices."""
        return MappingProxyType({
            frozenset(_support(mask)): coeff for mask, coeff in self.masks.items()
        })

    def canonical_terms(self) -> list[tuple[tuple[int, ...], int, Fraction]]:
        """(ascending indices, mask, coefficient) per term, in the canonical
        order: lexicographic on the index tuples, which are distinct."""
        return sorted((_support(mask), mask, coeff) for mask, coeff in self.masks.items())


def eval_fourier(f: FourierExpansion, point: Sequence[int]) -> Fraction:
    """Value at a point of {-1,+1}^n, computed exactly.

    Each monomial contributes +-coefficient according to the parity of -1
    entries inside its subset.  An entry must be an int (not a bool).
    """
    if len(point) != f.n:
        raise DimensionMismatchError(f"point has {len(point)} entries, expected {f.n}")
    _check_ints("point entry", point)
    negatives = 0
    for i, value in enumerate(point):
        if value == -1:
            negatives |= 1 << i
        elif value != 1:
            raise MaxlinError(f"point entries must be -1 or +1, got {value!r}")
    total = f.constant
    for mask, coeff in f.masks.items():
        if parity(mask & negatives):
            total -= coeff
        else:
            total += coeff
    return total


def fourier_to_system(f: FourierExpansion) -> tuple[LinearSystem, Fraction]:
    """One equation per monomial, in the canonical term order: weight |c|,
    rhs 0 for positive c, 1 otherwise.

    The constant term has no equation and is returned separately.
    """
    rows = [
        (mask, 0 if coeff > 0 else 1, abs(coeff), i)
        for i, (_, mask, coeff) in enumerate(f.canonical_terms())
    ]
    return LinearSystem._from_rows(f.n, rows), f.constant


def system_to_fourier(sys: LinearSystem) -> FourierExpansion:
    """Inverse of fourier_to_system, with constant zero.

    Requires distinct left-hand sides (apply rule 2 first); coefficient is
    +weight for rhs 0 and -weight for rhs 1.
    """
    masks = {bits: weight if rhs == 0 else -weight for bits, rhs, weight, _ in sys.rows}
    if len(masks) < sys.m:
        raise MaxlinError("system has repeated left-hand sides; apply rule 2 first")
    return FourierExpansion._from_masks(sys.n, Fraction(0), masks)


def maxima_lower_bound(f: FourierExpansion) -> Fraction:
    """Lower bound on max f over {-1,+1}^n from the associated system.

    After projecting onto an independent column basis the variable count
    equals the rank of the system; with q the largest integer satisfying
    (|terms|+2)^q <= 2^rank (the exact form of the floored log ratio), the
    bound is constant + (1+q) * min |coefficient|.  The rank reads only the
    masks, so the projected rows carry them in stored order with a
    placeholder rhs and weight.
    """
    masks = f.masks
    if not masks:
        raise MaxlinError("the expansion has no monomials to bound with")
    system = LinearSystem._from_rows(f.n, zip(masks, repeat(0), repeat(_ONE), count()))
    projected, _transcript = apply_rule1(system)
    q = regime_exponent(len(masks), projected.n)
    return f.constant + (1 + q) * min(map(abs, masks.values()))
