"""Bridges from exact-r SAT and bounded-arity CSP into weighted F2 systems,
plus the exact-threshold kernelization for arity-bounded systems.

Truth values live in {-1,+1} with -1 meaning true.  A clause or constraint
expands into a multilinear polynomial whose value encodes how far an
assignment sits above the random-assignment average; maximizing it is the
above-average question on the associated system.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import MaxlinError, NonIntegralWeightError, PreconditionError
from .excess import DEFAULT_ORACLE_CAP, AaInstance, _in_marking_regime, decide_aa
from .f2core import LinearSystem, _check_dimension, _check_ints, _is_int, as_weight
from .fourier import FourierExpansion, fourier_to_system
from .reduce import make_irreducible

__all__ = [
    "CnfFormula",
    "CspConstraint",
    "CspInstance",
    "KernelOutcome",
    "sat_to_fourier",
    "satisfied_clause_count",
    "decide_sat_aa",
    "csp_to_fourier",
    "kernelize_rlin",
]


@dataclass(frozen=True)
class CnfFormula:
    """Multiset of clauses in DIMACS convention: signed 1-based literals."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n, "variable count")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
            variables = set()
            for lit in clause:
                if not _is_int(lit):
                    raise MaxlinError(f"literal {lit!r} is not an int")
                if lit == 0:
                    raise MaxlinError("literal 0 is not allowed")
                var = abs(lit)
                if var > self.n:
                    raise MaxlinError(f"literal {lit} exceeds variable count {self.n}")
                if var in variables:
                    raise MaxlinError(f"clause {clause} repeats variable {var}")
                variables.add(var)

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class CspConstraint:
    """An arity-r(f) constraint: variable tuple plus its satisfying points."""

    variables: tuple[int, ...]
    satisfying: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "satisfying", frozenset(tuple(v) for v in self.satisfying))
        arity = len(self.variables)
        if any(not _is_int(v) for v in self.variables):
            raise MaxlinError(f"constraint variables {self.variables} must be ints")
        if arity < 1:
            raise MaxlinError("constraints must touch at least one variable")
        if len(set(self.variables)) != arity:
            raise MaxlinError(f"constraint repeats a variable: {self.variables}")
        if not self.satisfying:
            raise MaxlinError("constraints must have at least one satisfying point")
        for point in self.satisfying:
            _check_ints("satisfying point entry", point)
            if len(point) != arity or any(v not in (-1, 1) for v in point):
                raise MaxlinError(f"satisfying point {point} must be a +-1 tuple of arity {arity}")

    @property
    def arity(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class CspInstance:
    n: int
    constraints: tuple[CspConstraint, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n, "variable count")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for cons in self.constraints:
            if any(not 0 <= v < self.n for v in cons.variables):
                raise MaxlinError(f"constraint variables {cons.variables} outside 0..{self.n - 1}")


@dataclass(frozen=True)
class KernelOutcome:
    """Either an immediate yes or the kernel, which is the reduced system."""

    is_yes: bool
    reduced_system: LinearSystem


def _product_expansion(
    n: int, products: Iterable[tuple[Sequence[int], Sequence[int], int]]
) -> FourierExpansion:
    """Sum of factor * (prod_j (1 + s_j x_{v_j}) - 1) over the
    (variables, signs, factor) products, expanded term by term.

    Each product's constant term is factor * (1 - 1) = 0, so the sum's
    constant is zero; terms whose coefficients cancel are dropped.  The
    variables come from a checked formula or instance: distinct within a
    product and in 0..n-1, so the masks go in unchecked.
    """
    coefficients: dict[int, int] = {}
    for variables, signs, factor in products:
        arity = len(variables)
        for size in range(1, arity + 1):
            for positions in combinations(range(arity), size):
                product, mask = factor, 0
                for j in positions:
                    product *= signs[j]
                    mask |= 1 << variables[j]
                coefficients[mask] = coefficients.get(mask, 0) + product
    masks = {mask: as_weight(c) for mask, c in coefficients.items() if c != 0}
    return FourierExpansion._from_masks(n, Fraction(0), masks)


def sat_to_fourier(formula: CnfFormula, r: int) -> FourierExpansion:
    """Expand sum over clauses of [1 - prod (1 + eps_i x_i)] term by term.

    eps_i is +1 for a positive literal and -1 for a negated one; a falsified
    clause contributes 1 - 2^r and a satisfied one contributes 1.
    """
    if not _is_int(r) or r < 1:
        raise MaxlinError(f"clause arity r must be a positive integer, got {r!r}")
    for clause in formula.clauses:
        if len(clause) != r:
            raise MaxlinError(f"clause {clause} does not have exactly {r} literals")
    return _product_expansion(formula.n, (
        ([abs(lit) - 1 for lit in clause], [1 if lit > 0 else -1 for lit in clause], -1)
        for clause in formula.clauses
    ))


def satisfied_clause_count(formula: CnfFormula, point: Sequence[int]) -> int:
    """Clauses satisfied at a point of {-1,+1}^n (-1 means true)."""
    if len(point) != formula.n:
        raise MaxlinError(f"point has {len(point)} entries, expected {formula.n}")
    _check_ints("point entry", point)
    if any(v not in (-1, 1) for v in point):
        raise MaxlinError("point entries must be -1 or +1")
    count = 0
    for clause in formula.clauses:
        for lit in clause:
            value = point[abs(lit) - 1]
            if (lit > 0 and value == -1) or (lit < 0 and value == 1):
                count += 1
                break
    return count


def decide_sat_aa(
    formula: CnfFormula,
    r: int,
    k: int,
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[bool, tuple[int, ...]]:
    """Is there an assignment satisfying >= (1 - 2^-r) m + k 2^-r clauses?

    Decides through the expansion's system and translates the witness back
    through x_i = (-1)^{z_i}; the answer is re-validated by direct clause
    counting before being returned.
    """
    if not _is_int(r) or r < 2:
        raise MaxlinError(f"exact-r SAT requires an integer r >= 2, got {r!r}")
    if not _is_int(k) or k < 1:
        raise MaxlinError(f"parameter k must be a positive integer, got {k!r}")
    expansion = sat_to_fourier(formula, r)
    system, _constant = fourier_to_system(expansion)
    answer, witness = decide_aa(AaInstance(system, k), oracle_cap=oracle_cap)
    point = tuple(-1 if bit == "1" else 1 for bit in witness.assignment.to01())
    s = satisfied_clause_count(formula, point)
    reaches = 2**r * s >= (2**r - 1) * formula.m + k
    if reaches != answer:
        raise MaxlinError("internal error: witness disagrees with clause counting")
    return answer, point


def csp_to_fourier(inst: CspInstance, r: int) -> FourierExpansion:
    """Expand the scaled satisfying-point indicators of every constraint.

    Each constraint f of arity r(f) contributes
    2^(r - r(f)) * sum over its satisfying points of [prod (1 + v_j x_ij) - 1];
    the result h satisfies h(x) = 2^r (s - E) with s the satisfied count and
    E the expected satisfied count under uniform random assignment.
    """
    if not _is_int(r) or r < 1:
        raise MaxlinError(f"arity bound r must be a positive integer, got {r!r}")
    for cons in inst.constraints:
        if cons.arity > r:
            raise MaxlinError(f"constraint arity {cons.arity} exceeds the bound {r}")
    return _product_expansion(inst.n, (
        (cons.variables, point, 2 ** (r - cons.arity))
        for cons in inst.constraints
        for point in sorted(cons.satisfying)
    ))


def kernelize_rlin(sys: LinearSystem, r: int, k: int) -> KernelOutcome:
    """Exact-threshold kernelization for systems with at most r variables per
    equation.

    After reduction, m >= k together with (m+2)^(k-1) <= 2^n settles the
    instance as yes; otherwise the reduced system itself is the kernel —
    reduction preserves arity and the answer, and the failed threshold pins
    its variable count to O(k log k) for fixed r.
    """
    if not _is_int(r) or r < 1:
        raise MaxlinError(f"arity bound r must be a positive integer, got {r!r}")
    if not _is_int(k) or k < 2:
        raise PreconditionError("k_too_small", f"kernelization needs integer k >= 2, got {k!r}")
    if not sys.has_integral_weights():
        raise NonIntegralWeightError("kernelization requires integral weights")
    oversized = [eq_id for bits, _, _, eq_id in sys.rows if bits.bit_count() > r]
    if oversized:
        raise MaxlinError(f"equations {oversized} have more than {r} variables")
    reduced, _transcript = make_irreducible(sys)
    return KernelOutcome(_in_marking_regime(reduced, k), reduced)
