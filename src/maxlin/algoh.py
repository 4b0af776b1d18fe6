"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .errors import (
    DimensionMismatchError,
    EquationNotFoundError,
    MaxlinError,
    NonIntegralWeightError,
)
from .f2core import Assignment, Equation, LinearSystem, add_lhs, parity
from .reduce import apply_rule2

__all__ = [
    "MarkRecord",
    "Certificate",
    "HRun",
    "h_step",
    "run_h",
    "reconstruct",
    "verify_certificate",
    "lowest_id_chooser",
    "sequence_chooser",
]

Chooser = Callable[[LinearSystem], int]


@dataclass(frozen=True)
class MarkRecord:
    """Snapshot of one marking: the equation as it stood and the variable taken,
    always the lowest one in the equation's support."""

    marked_equation: Equation
    marked_variable: int
    iteration: int

    def __post_init__(self) -> None:
        if self.marked_equation.lhs.is_zero() or (
            self.marked_variable != self.marked_equation.lhs.min_var()
        ):
            raise MaxlinError("marked variable must be the equation's lowest support index")


@dataclass(frozen=True)
class Certificate:
    """An ordered sequence of equation ids to mark in turn."""

    equation_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "equation_ids", tuple(self.equation_ids))
        if len(set(self.equation_ids)) != len(self.equation_ids):
            raise MaxlinError("certificate ids must be distinct")


class HRun(NamedTuple):
    records: tuple[MarkRecord, ...]
    total_marked_weight: Fraction


def h_step(sys: LinearSystem, eq_id: int, iteration: int = 0) -> tuple[LinearSystem, MarkRecord]:
    """Mark one equation and eliminate its lowest variable from the system.

    Callers are expected to hand in a system without repeated left-hand
    sides (run_h re-merges after every step), in which case no substitution
    can cancel a row outright.  A cancelled row with rhs 0 is dropped
    silently; rhs 1 is impossible under that discipline and raises
    MaxlinError.
    """
    if not sys.has_equation(eq_id):
        raise EquationNotFoundError(f"no equation with id {eq_id}")
    marked = sys.equation(eq_id)
    var = marked.lhs.min_var()
    out = []
    for eq in sys.equations:
        if eq.eq_id == eq_id:
            continue
        if eq.lhs.bits >> var & 1:
            summed = add_lhs(marked, eq)
            if summed.lhs.is_zero():
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
    """Chooser that marks the given ids in order, then falls back.

    Ids no longer present are skipped, or rejected when require_present is
    set (used where a marking order is guaranteed to survive).  The chooser
    is stateful: build a fresh one per run.
    """
    remaining = deque(ids)

    def choose(sys: LinearSystem) -> int:
        while remaining:
            candidate = remaining.popleft()
            if sys.has_equation(candidate):
                return candidate
            if require_present:
                raise MaxlinError(f"equation {candidate} vanished before its marking turn")
        return fallback(sys)

    return choose


def run_h(sys: LinearSystem, chooser: Chooser | None = None) -> HRun:
    """Run the marking loop until the system is empty.

    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    """
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


def reconstruct(records: Iterable[MarkRecord], n: int) -> Assignment:
    """Back-substitute a marking transcript into a satisfying assignment.

    Unmarked variables are 0; walking the records last-to-first, each marked
    variable is set so its own equation holds.  Later equations never
    contain earlier marked variables, so every marked equation ends up
    satisfied.
    """
    ordered = tuple(records)
    seen: set[int] = set()
    for rec in ordered:
        if rec.marked_equation.n != n:
            raise DimensionMismatchError(
                f"record has dimension {rec.marked_equation.n}, expected {n}"
            )
        if rec.marked_variable in seen:
            raise MaxlinError(f"variable {rec.marked_variable} marked twice")
        seen.add(rec.marked_variable)
    bits = 0
    for rec in reversed(ordered):
        eq = rec.marked_equation
        var = rec.marked_variable
        if not eq.lhs.bits >> var & 1:
            raise MaxlinError(f"marked variable {var} absent from its equation")
        rest = parity((eq.lhs.bits & ~(1 << var)) & bits)
        if rest ^ eq.rhs:
            bits |= 1 << var
    return Assignment(n, bits)


def verify_certificate(sys: LinearSystem, cert: Certificate, k: int) -> bool:
    """Check a marking-sequence certificate for excess >= k.

    Accepts iff every listed id is still present at its turn, the marks go
    through in order, and the total marked weight reaches k.  Runs in time
    polynomial in the system size.
    """
    if not sys.has_integral_weights():
        raise NonIntegralWeightError("certificate verification requires integral weights")
    ids = cert.equation_ids
    if len(ids) > max(k, 0):
        return False
    cur = apply_rule2(sys)
    total = Fraction(0)
    for i, eq_id in enumerate(ids):
        if not cur.has_equation(eq_id):
            return False
        cur, record = h_step(cur, eq_id, i)
        total += record.marked_equation.weight
    return total >= k
