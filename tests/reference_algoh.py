"""Frozen reference for the marking loop: one ``LinearSystem`` per mark.

``h_step`` rebuilds and re-validates the whole system at every mark, then
re-merges it with rule 2; ``run_h`` and ``verify_certificate`` call it once
per mark.  Tests compare the row-based loop in ``maxlin.algoh`` against it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from maxlin import (
    Certificate,
    DimensionMismatchError,
    Equation,
    EquationNotFoundError,
    F2Vector,
    LinearSystem,
    MaxlinError,
    NonIntegralWeightError,
)
from maxlin.algoh import HRun

from reference_reduce import apply_rule2

Chooser = Callable[[LinearSystem], int]


def _is_zero(v: F2Vector) -> bool:
    return v.bits == 0


def _min_var(v: F2Vector) -> int:
    """Lowest set coordinate (0-based)."""
    if v.bits == 0:
        raise MaxlinError("the zero vector has no support")
    return (v.bits & -v.bits).bit_length() - 1


def _xor(a: F2Vector, b: F2Vector) -> F2Vector:
    if a.n != b.n:
        raise DimensionMismatchError(f"dimensions differ: {a.n} vs {b.n}")
    return F2Vector(a.n, a.bits ^ b.bits)


@dataclass(frozen=True)
class MarkRecord:
    """Snapshot of one marking: the equation as it stood and the variable taken,
    always the lowest one in the equation's support."""

    marked_equation: Equation
    marked_variable: int
    iteration: int

    def __post_init__(self) -> None:
        if _is_zero(self.marked_equation.lhs) or (
            self.marked_variable != _min_var(self.marked_equation.lhs)
        ):
            raise MaxlinError("marked variable must be the equation's lowest support index")


def _has_equation(sys: LinearSystem, eq_id: int) -> bool:
    return eq_id in {row[3] for row in sys.rows}


def _equation(sys: LinearSystem, eq_id: int) -> Equation:
    return next(eq for eq in sys.equations if eq.eq_id == eq_id)


def add_lhs(e1: Equation, e2: Equation) -> Equation:
    """Replace e2 by the sum of both equations.

    The lhs and rhs are XORed; weight and id stay those of e2, the equation
    being replaced.  The result may have a zero lhs (when both sides agree).
    """
    if e1.n != e2.n:
        raise DimensionMismatchError(f"dimensions differ: {e1.n} vs {e2.n}")
    return Equation(_xor(e1.lhs, e2.lhs), e1.rhs ^ e2.rhs, e2.weight, e2.eq_id)


def h_step(sys: LinearSystem, eq_id: int, iteration: int = 0) -> tuple[LinearSystem, MarkRecord]:
    if not _has_equation(sys, eq_id):
        raise EquationNotFoundError(f"no equation with id {eq_id}")
    marked = _equation(sys, eq_id)
    var = _min_var(marked.lhs)
    out = []
    for eq in sys.equations:
        if eq.eq_id == eq_id:
            continue
        if eq.lhs.bits >> var & 1:
            summed = add_lhs(marked, eq)
            if _is_zero(summed.lhs):
                if summed.rhs:
                    raise MaxlinError(
                        f"equations {eq_id} and {eq.eq_id} share a left-hand side with "
                        "opposite right-hand sides; apply rule 2 first"
                    )
                continue
            out.append(summed)
        else:
            out.append(eq)
    reduced = apply_rule2(LinearSystem(sys.n, tuple(out), sys.next_id))
    return reduced, MarkRecord(marked, var, iteration)


def lowest_id_chooser(sys: LinearSystem) -> int:
    return min(eq.eq_id for eq in sys.equations)


def sequence_chooser(
    ids: Iterable[int],
    *,
    require_present: bool = False,
    fallback: Chooser = lowest_id_chooser,
) -> Chooser:
    remaining = deque(ids)

    def choose(sys: LinearSystem) -> int:
        while remaining:
            candidate = remaining.popleft()
            if _has_equation(sys, candidate):
                return candidate
            if require_present:
                raise MaxlinError(f"equation {candidate} vanished before its marking turn")
        return fallback(sys)

    return choose


def run_h(sys: LinearSystem, chooser: Chooser | None = None) -> HRun:
    if chooser is None:
        chooser = lowest_id_chooser
    cur = apply_rule2(sys)
    records: list[MarkRecord] = []
    total = Fraction(0)
    iteration = 0
    while cur.m:
        eq_id = chooser(cur)
        cur, record = h_step(cur, eq_id, iteration)
        records.append(record)
        total += record.marked_equation.weight
        iteration += 1
    return HRun(tuple(records), total)


def verify_certificate(sys: LinearSystem, cert: Certificate, k: int) -> bool:
    if not sys.has_integral_weights():
        raise NonIntegralWeightError("certificate verification requires integral weights")
    ids = cert.equation_ids
    if len(ids) > max(k, 0):
        return False
    cur = apply_rule2(sys)
    total = Fraction(0)
    for i, eq_id in enumerate(ids):
        if not _has_equation(cur, eq_id):
            return False
        cur, record = h_step(cur, eq_id, i)
        total += record.marked_equation.weight
    return total >= k
