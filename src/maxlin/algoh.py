"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.

A marking run works on ``LinearSystem.rows``: rule 2 merges the input once,
and a single step is one bit test per live row, one XOR per row containing
the marked variable, and one set of the left-hand sides, with rule 2's
grouping pass only when two are equal.  So a step costs O(m) int operations
plus one XOR per touched row, and builds no ``LinearSystem``, only the
``Equation`` of its marked row.  That equation is the step's whole record,
since the marked variable is its lowest one.  No occurrence index is kept,
because the rows are dense: about half of them hold the marked variable,
and updating an index would cost one entry per changed bit.

Once a run has made a few marks in a row without a merge, it marks B rows
as one block, with B about log2(m) - 2 (the Four Russians method of M4RI,
Albrecht, Bard & Hart, ACM TOMS 2010).  The B lowest ids are reduced
against each other into the block's records, a table of the XORs of all
2^B subsets of them is built, and every other row is updated with one
lookup.  A block costs O(m + 2^B), so O(m/B + 2^B/B) per mark where single
steps cost O(m).  When the single steps would merge inside the block, the
block is dropped and its first mark is made as a single step, so records,
merge ids and row order are those of single steps.  The paper marks "an
arbitrary equation" at each step; a run marks a given sequence of ids first
and then the lowest live id.
"""
from __future__ import annotations

import heapq
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
from .reduce import _merge_rows, apply_rule2

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


# merge-free marks in a row after which run_h marks in blocks
_BLOCK_STREAK = 4


class _Marking:
    """Working state of a marking run.

    ``rows`` are the live rows in order: an id is live while a row holds
    it.  ``next_id`` is the fresh id the run's next rule-2 survivor gets.
    """

    def __init__(self, sys: LinearSystem):
        self.n = sys.n
        self.rows = sys.rows
        self.next_id = sys.next_id

    def _fresh_id(self, a_id: int, b_id: int, weight: Fraction | None) -> int | None:
        """Rule 2's recorder: the next fresh id for a survivor, none for a
        cancellation.  The run reads only the ids, so no event is kept."""
        if weight is None:
            return None
        self.next_id += 1
        return self.next_id - 1

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
            out = _merge_rows(out, self._fresh_id)
        self.rows = out
        return Equation(F2Vector(self.n, bits), rhs, weight, eq_id)

    def block(self, size: int) -> list[Equation] | None:
        """Mark the ``size`` lowest live ids in turn, as ``size`` steps would,
        with one pass over the rows; or change nothing and return None when
        those steps would merge rows.

        Without a merge ids do not change, so the steps would mark exactly
        these ids in increasing order.  Each pick is reduced by the block's
        earlier marks, which gives it as it stands at its turn: its record.
        The marks are kept mutually reduced, each zero on the others' lowest
        bits, so a row's state after all of them is the row XOR the marks
        whose lowest bits it holds, one lookup in a table of all 2^size
        subsets.  Rows that become equal at some mark stay equal, and a row
        equal to a later pick cancels to zero, so the steps merge nowhere in
        the block exactly when the picks reduce to nonzero rows and the
        other rows to distinct nonzero ones.
        """
        picks = heapq.nsmallest(size, self.rows, key=itemgetter(3))
        marks: list[tuple[int, int, int]] = []
        records = []
        for bits, rhs, weight, eq_id in picks:
            for low, mark, mark_rhs in marks:
                if bits & low:
                    bits ^= mark
                    rhs ^= mark_rhs
            if not bits:
                return None
            new_low = bits & -bits
            marks = [
                (low, mark ^ bits, mark_rhs ^ rhs) if mark & new_low else (low, mark, mark_rhs)
                for low, mark, mark_rhs in marks
            ]
            marks.append((new_low, bits, rhs))
            records.append(Equation(F2Vector(self.n, bits), rhs, weight, eq_id))
        table = {0: (0, 0)}
        for low, mark, mark_rhs in marks:
            table.update([(key | low, (b ^ mark, r ^ mark_rhs)) for key, (b, r) in table.items()])
        pivots = sum(low for low, _, _ in marks)
        out = []
        for row in self.rows:
            key = row[0] & pivots
            if not key:
                out.append(row)
                continue
            mark, mark_rhs = table[key]
            summed = row[0] ^ mark
            if summed:  # the picks themselves sum to zero
                out.append((summed, row[1] ^ mark_rhs, row[2], row[3]))
        if len(out) != len(self.rows) - len(records) or len({row[0] for row in out}) != len(out):
            return None
        self.rows = out
        return records


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
    return LinearSystem._from_rows(sys.n, state.rows, state.next_id), marked


def run_h(sys: LinearSystem, first: Iterable[int] = ()) -> HRun:
    """Run the marking loop until the system is empty.

    The ids of ``first`` are marked in order, each still held by a row at its
    turn (else MaxlinError); after them every step marks the lowest id a row
    holds.  Ids still listed when the system empties are ignored.
    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    The loop then marks on the system's rows, in single steps or, on
    merge-free stretches, in blocks (see the module docstring), so a whole
    run builds at most the one system of the entry merge.
    """
    state = _Marking(apply_rule2(sys))
    order = iter(first)
    records: list[Equation] = []
    while state.rows and (eq_id := next(order, None)) is not None:
        try:
            records.append(state.step(eq_id))
        except EquationNotFoundError:
            raise MaxlinError(f"equation {eq_id} vanished before its marking turn") from None
    streak = 0  # marks since the last merge
    while state.rows:
        m = len(state.rows)
        if streak >= _BLOCK_STREAK:
            block = state.block(max(2, min(streak, m.bit_length() - 2)))
            if block is not None:
                records += block
                streak += len(block)
                continue
            streak = 0
        records.append(state.step(min(map(itemgetter(3), state.rows))))
        # a merge drops at least one row besides the marked one
        streak = streak + 1 if len(state.rows) == m - 1 else 0
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
