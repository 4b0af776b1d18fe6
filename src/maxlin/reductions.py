"""The bridge from exact-r SAT into weighted F2 systems, plus the
exact-threshold kernelization for arity-bounded systems.

Truth values live in {-1,+1} with -1 meaning true.  A clause expands into
a multilinear polynomial whose value encodes how far an assignment sits
above the random-assignment average; maximizing it is the above-average
question on the associated system.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import MaxlinError, NonIntegralWeightError, PreconditionError
from .excess import DEFAULT_ORACLE_CAP, AaInstance, _in_marking_regime, decide_aa
from .f2core import LinearSystem, _check_dimension, _check_ints, _is_int, as_weight
from .fourier import FourierExpansion, fourier_to_system
from .reduce import make_irreducible

__all__ = [
    "CnfFormula",
    "KernelOutcome",
    "sat_to_fourier",
    "satisfied_clause_count",
    "decide_sat_aa",
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
            if not clause:
                raise MaxlinError("empty clause")
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
class KernelOutcome:
    """Either an immediate yes or the kernel, which is the reduced system."""

    is_yes: bool
    reduced_system: LinearSystem


def sat_to_fourier(formula: CnfFormula, r: int) -> FourierExpansion:
    """Expand sum over clauses of [1 - prod (1 + eps_i x_i)] term by term.

    eps_i is +1 for a positive literal and -1 for a negated one; a falsified
    clause contributes 1 - 2^r and a satisfied one contributes 1.  Each
    clause's constant term is 1 - 1 = 0, so the sum's constant is zero;
    terms whose coefficients cancel are dropped.  The formula is checked:
    a clause's variables are distinct and in 1..n, so the masks go in
    unchecked.
    """
    if not _is_int(r) or r < 1:
        raise MaxlinError(f"clause arity r must be a positive integer, got {r!r}")
    for clause in formula.clauses:
        if len(clause) != r:
            raise MaxlinError(f"clause {clause} does not have exactly {r} literals")
    coefficients: dict[int, int] = {}
    for clause in formula.clauses:
        literals = [(1 << abs(lit) - 1, 1 if lit > 0 else -1) for lit in clause]
        for size in range(1, r + 1):
            for chosen in combinations(literals, size):
                product, mask = -1, 0
                for bit, sign in chosen:
                    product *= sign
                    mask |= bit
                coefficients[mask] = coefficients.get(mask, 0) + product
    masks = {mask: as_weight(c) for mask, c in coefficients.items() if c != 0}
    return FourierExpansion._from_masks(formula.n, Fraction(0), masks)


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


def kernelize_rlin(sys: LinearSystem, r: int, k: int) -> KernelOutcome:
    """Exact-threshold kernelization for systems with at most r variables per
    equation.

    After reduction, m >= k together with (m+2)^(k-1) <= 2^n settles the
    instance as yes; otherwise the reduced system itself is the kernel —
    reduction preserves arity and the answer.  The paper bounds the kernel's
    variable count by O(k log k) for fixed r: its m distinct rows of at
    most r variables number at most S(n) = C(n, 1) + ... + C(n, r), so the
    threshold fails only for n <= N(r, k), the largest n with
    (S(n)+2)^(k-1) > 2^n.  No code here computes N(r, k) or checks a kernel
    against it.
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
