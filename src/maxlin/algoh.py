"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.

A marking run works on the plain ``(lhs bits, rhs, weight, eq_id)`` rows of
``maxlin.reduce``: rule 2 merges the input once, and every later step is one
bit test per live row, one XOR per row containing the marked variable, and
one set of the left-hand sides, with rule 2's grouping pass only when two
are equal.  So a step costs O(m) int operations plus one XOR per touched
row, and no step builds or validates a ``LinearSystem``: the frozen
``Equation`` of a row is reused until a step touches it, and a touched row
gets one only if it is marked.  No occurrence index is kept, because the
rows are dense: about half of them hold the marked variable, and updating
an index would cost one entry per changed bit.  A chooser sees the live
rows through a ``MarkingView`` with two methods, ``ids()`` and
``has_equation(eq_id)``; a ``LinearSystem`` is one too.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Protocol

from .errors import (
    DimensionMismatchError,
    EquationNotFoundError,
    MaxlinError,
    NonIntegralWeightError,
)
from .f2core import Assignment, Equation, LinearSystem, parity
from .reduce import _equation, _FreshIds, _merge_rows, _rows, _system, apply_rule2

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


class MarkingView(Protocol):
    """What a chooser may ask of the equations still live: their ids in
    order, and whether one id is among them."""

    def ids(self) -> tuple[int, ...]: ...

    def has_equation(self, eq_id: int) -> bool: ...


# Picks the id to mark next.  run_h calls it once per step with a view of
# the live rows, valid only during that call; an id the view does not hold
# raises EquationNotFoundError.  ids() costs O(m), has_equation() O(1).
Chooser = Callable[[MarkingView], int]


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


class _Marking:
    """Working state of a marking run, and the MarkingView its chooser sees.

    ``rows`` are the live rows in order.  ``live`` maps each live id, in the
    same order, to the frozen Equation of its row, or to None once a step
    has touched the row (or when a merge made it).  One merge recorder hands
    out fresh ids for the whole run.
    """

    def __init__(self, sys: LinearSystem):
        self.n = sys.n
        self.rows = _rows(sys)
        self.live: dict[int, Equation | None] = {eq.eq_id: eq for eq in sys.equations}
        self.fresh = _FreshIds(sys.next_id)

    def ids(self) -> tuple[int, ...]:
        return tuple(self.live)

    def has_equation(self, eq_id: int) -> bool:
        return eq_id in self.live

    def step(self, eq_id: int, iteration: int) -> MarkRecord:
        """Mark one row, add it into every row holding its lowest bit, and
        re-merge equal left-hand sides (see h_step)."""
        live = self.live
        if eq_id not in live:
            raise EquationNotFoundError(f"no equation with id {eq_id}")
        marked = live.pop(eq_id)
        mark = next(row for row in self.rows if row[3] == eq_id)
        bits, rhs = mark[0], mark[1]
        low = bits & -bits
        out = []
        for row in self.rows:
            if not row[0] & low:
                out.append(row)
            elif row[3] != eq_id:
                summed = row[0] ^ bits
                if summed:
                    out.append((summed, row[1] ^ rhs, row[2], row[3]))
                    live[row[3]] = None
                elif row[1] != rhs:
                    raise MaxlinError(
                        f"equations {eq_id} and {row[3]} share a left-hand side with "
                        "opposite right-hand sides; apply rule 2 first"
                    )
                else:
                    del live[row[3]]
        # after a step, repeated left-hand sides are rare (14 of 140 steps
        # on 420 dense rows over 140 variables), and a set is cheaper than
        # rule 2's grouping pass
        if len({row[0] for row in out}) != len(out):
            out = _merge_rows(out, self.fresh)
            self.live = {row[3]: live.get(row[3]) for row in out}
        self.rows = out
        if marked is None:
            marked = _equation(self.n, mark)
        return MarkRecord(marked, low.bit_length() - 1, iteration)

    def system(self) -> LinearSystem:
        return _system(self.n, self.rows, self.fresh.next_id, self.live)


def h_step(sys: LinearSystem, eq_id: int, iteration: int = 0) -> tuple[LinearSystem, MarkRecord]:
    """Mark one equation and eliminate its lowest variable from the system.

    This is one step of run_h's row loop, with the system built once on
    each side; equations the step does not touch come back as they are.
    Callers are expected to hand in a system without repeated left-hand
    sides (run_h re-merges after every step), in which case no substitution
    can cancel a row outright.  A cancelled row with rhs 0 is dropped
    silently; rhs 1 is impossible under that discipline and raises
    MaxlinError.
    """
    state = _Marking(sys)
    record = state.step(eq_id, iteration)
    return state.system(), record


def lowest_id_chooser(view: MarkingView) -> int:
    return min(view.ids())


def sequence_chooser(ids: Iterable[int], *, require_present: bool = False) -> Chooser:
    """Chooser that marks the given ids in order, then the lowest live id.

    Ids no longer present are skipped, or rejected when require_present is
    set (used where a marking order is guaranteed to survive).  The chooser
    is stateful: build a fresh one per run.
    """
    remaining = deque(ids)

    def choose(view: MarkingView) -> int:
        while remaining:
            candidate = remaining.popleft()
            if view.has_equation(candidate):
                return candidate
            if require_present:
                raise MaxlinError(f"equation {candidate} vanished before its marking turn")
        return lowest_id_chooser(view)

    return choose


def run_h(sys: LinearSystem, chooser: Chooser | None = None) -> HRun:
    """Run the marking loop until the system is empty.

    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    The loop then steps on plain rows (see the module docstring): each step
    costs O(m) bit tests and one rule-2 pass plus one XOR per touched row,
    and only marked rows that a step touched get a new Equation, so a whole
    run builds at most the one system of the entry merge.  The chooser is
    called once per step with a MarkingView of the live rows (see Chooser).
    """
    if chooser is None:
        chooser = lowest_id_chooser
    state = _Marking(apply_rule2(sys))
    records: list[MarkRecord] = []
    total = Fraction(0)
    while state.rows:
        record = state.step(chooser(state), len(records))
        records.append(record)
        total += record.marked_equation.weight
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
