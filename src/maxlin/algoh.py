"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.

A marking run works on ``LinearSystem.rows``: rule 2 merges the input once,
and every later step is one bit test per live row, one XOR per row
containing the marked variable, and one set of the left-hand sides, with
rule 2's grouping pass only when two are equal.  So a step costs O(m) int
operations plus one XOR per touched row, and builds no ``LinearSystem``,
only the ``Equation`` of its marked row.  That equation is the step's whole
record, since the marked variable is its lowest one.  No occurrence index
is kept, because the rows are dense: about half of them hold the marked
variable, and updating an index would cost one entry per changed bit.  The
paper marks "an arbitrary equation" at each step; a run marks a given
sequence of ids first and then the lowest live id.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import (
    DimensionMismatchError,
    EquationNotFoundError,
    MaxlinError,
    NonIntegralWeightError,
)
from .f2core import Assignment, Equation, F2Vector, LinearSystem, _check_ints, _is_int, parity
from .reduce import _FreshIds, _merge_rows, apply_rule2

__all__ = [
    "Certificate",
    "HRun",
    "h_step",
    "run_h",
    "reconstruct",
    "verify_certificate",
]


@dataclass(frozen=True)
class Certificate:
    """An ordered sequence of distinct int equation ids to mark in turn."""

    equation_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "equation_ids", tuple(self.equation_ids))
        _check_ints("certificate id", self.equation_ids)
        if len(set(self.equation_ids)) != len(self.equation_ids):
            raise MaxlinError("certificate ids must be distinct")


class HRun(NamedTuple):
    """A marking run: each marked equation as it stood when marked, in
    order, and their total weight."""

    records: tuple[Equation, ...]
    total_marked_weight: Fraction


class _Marking:
    """Working state of a marking run.

    ``rows`` are the live rows in order: an id is live while a row holds
    it.  One merge recorder hands out fresh ids for the whole run.
    """

    def __init__(self, sys: LinearSystem):
        self.n = sys.n
        self.rows = sys.rows
        self.fresh = _FreshIds(sys.next_id)

    def step(self, eq_id: int) -> Equation:
        """Mark one row, add it into every row holding its lowest bit, and
        re-merge equal left-hand sides (see h_step)."""
        marked = next((row for row in self.rows if row[3] == eq_id), None)
        if marked is None:
            raise EquationNotFoundError(f"no equation with id {eq_id}")
        bits, rhs, weight, _ = marked
        low = bits & -bits
        out = []
        for row in self.rows:
            if not row[0] & low:
                out.append(row)
            elif row[3] != eq_id:
                summed = row[0] ^ bits
                if summed:
                    out.append((summed, row[1] ^ rhs, row[2], row[3]))
                elif row[1] != rhs:
                    raise MaxlinError(
                        f"equations {eq_id} and {row[3]} share a left-hand side with "
                        "opposite right-hand sides; apply rule 2 first"
                    )
        # after a step, repeated left-hand sides are rare (14 of 140 steps
        # on 420 dense rows over 140 variables), and a set is cheaper than
        # rule 2's grouping pass
        if len({row[0] for row in out}) != len(out):
            out = _merge_rows(out, self.fresh)
        self.rows = out
        return Equation(F2Vector(self.n, bits), rhs, weight, eq_id)


def h_step(sys: LinearSystem, eq_id: int) -> tuple[LinearSystem, Equation]:
    """Mark one equation and eliminate its lowest variable from the system;
    returns the new system and the marked equation.

    This is one step of run_h's row loop, with the system built once on
    each side and no row checked again; untouched rows stay the same tuples.
    Callers are expected to hand in a system without repeated left-hand
    sides (run_h re-merges after every step), in which case no substitution
    can cancel a row outright.  A cancelled row with rhs 0 is dropped
    silently; rhs 1 is impossible under that discipline and raises
    MaxlinError.
    """
    state = _Marking(sys)
    marked = state.step(eq_id)
    return LinearSystem._from_rows(sys.n, state.rows, state.fresh.next_id), marked


def run_h(sys: LinearSystem, first: Iterable[int] = ()) -> HRun:
    """Run the marking loop until the system is empty.

    The ids of ``first`` are marked in order, each still held by a row at its
    turn (else MaxlinError); after them every step marks the lowest id a row
    holds.  Ids still listed when the system empties are ignored.
    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    The loop then steps on the system's rows (see the module docstring), so
    a whole run builds at most the one system of the entry merge.
    """
    state = _Marking(apply_rule2(sys))
    order = iter(first)
    records: list[Equation] = []
    while state.rows:
        eq_id = next(order, None)
        if eq_id is None:
            eq_id = min(map(itemgetter(3), state.rows))
        try:
            records.append(state.step(eq_id))
        except EquationNotFoundError:
            raise MaxlinError(f"equation {eq_id} vanished before its marking turn") from None
    return HRun(tuple(records), sum((eq.weight for eq in records), Fraction(0)))


def reconstruct(records: Iterable[Equation], n: int) -> Assignment:
    """Back-substitute a marking transcript into a satisfying assignment.

    Each record is a marked equation, whose marked variable is its lowest
    one.  Unmarked variables are 0; walking the records last-to-first, each
    marked variable is set so its own equation holds.  Later equations
    never contain earlier marked variables, so every marked equation ends
    up satisfied.
    """
    ordered = tuple(records)
    seen = 0
    for eq in ordered:
        if eq.n != n:
            raise DimensionMismatchError(f"record has dimension {eq.n}, expected {n}")
        low = eq.lhs.bits & -eq.lhs.bits
        if not low:
            raise MaxlinError(f"record {eq.eq_id} has an empty left-hand side")
        if seen & low:
            raise MaxlinError(f"variable {low.bit_length() - 1} marked twice")
        seen |= low
    bits = 0
    for eq in reversed(ordered):
        # the equation's own marked variable is still 0 in bits
        if parity(eq.lhs.bits & bits) ^ eq.rhs:
            bits |= eq.lhs.bits & -eq.lhs.bits
    return Assignment(n, bits)


def verify_certificate(sys: LinearSystem, cert: Certificate, k: int) -> bool:
    """Check a marking-sequence certificate for excess >= k.

    Accepts iff every listed id is still present at its turn, the marks go
    through in order, and the total marked weight reaches k.  Runs in time
    polynomial in the system size.  A k that is not an int (or is a bool)
    raises MaxlinError; a k <= 0 accepts only the empty certificate.
    """
    if not _is_int(k):
        raise MaxlinError(f"parameter k must be an integer, got {k!r}")
    if not sys.has_integral_weights():
        raise NonIntegralWeightError("certificate verification requires integral weights")
    ids = cert.equation_ids
    if len(ids) > max(k, 0):
        return False
    cur = apply_rule2(sys)
    total = Fraction(0)
    for eq_id in ids:
        try:
            cur, marked = h_step(cur, eq_id)
        except EquationNotFoundError:
            return False
        total += marked.weight
    return total >= k
