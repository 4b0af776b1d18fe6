"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.

A marking run works on ``LinearSystem.rows``: rule 2 merges the input once,
the weights are scaled once to integers by the lcm of their denominators,
and a single step is one bit test per live row, one XOR per row containing
the marked variable, and one set of the left-hand sides; rule 2 regroups
only the repeated ones.  So a step costs O(m) int operations plus one XOR
per touched row, and builds no ``LinearSystem`` and no ``Equation``: the
marked row is the step's whole record, since the marked variable is its
lowest one.  The run turns the records into ``Equation``s once at the end,
each weight back as an exact ``Fraction``, and adds the weights as ints.
No occurrence index is kept, because the rows are dense: about half of
them hold the marked variable, and updating an index would cost one entry
per changed bit.

A block marks B rows with one pass over the rows, B about log2(m) - 2 (the
Four Russians method of M4RI, Albrecht, Bard & Hart, ACM TOMS 2010).  The
picks are reduced against each other into the block's records, a table of
the XORs of all 2^B subsets of them is built, and every other row is
updated with one lookup.  A block costs O(m + 2^B), so O(m/B + 2^B/B) per
mark where single steps cost O(m).  When the single steps would merge
inside the block, the block is dropped and changes nothing, so records,
merge ids and row order are those of single steps.  The paper marks "an
arbitrary equation" at each step; a run marks a given sequence of ids
first, in blocks of B ids, and then the lowest live id, in blocks once a
few marks in a row have not merged.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatchError,
    EquationNotFoundError,
    MaxlinError,
    NonIntegralWeightError,
)
from .f2core import (
    Assignment,
    Equation,
    F2Vector,
    LinearSystem,
    _check_ints,
    _is_int,
    _Row,
    parity,
)
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


def _block_size(m: int) -> int:
    """The most rows a block marks among m live rows, about log2(m) - 2."""
    return max(2, m.bit_length() - 2)


def _live_row(rows: Sequence[_Row], eq_id: int) -> _Row:
    """The row holding eq_id, else EquationNotFoundError."""
    row = next((row for row in rows if row[3] == eq_id), None)
    if row is None:
        raise EquationNotFoundError(f"no equation with id {eq_id}")
    return row


class _Marking:
    """Working state of a marking run.

    ``rows`` are the live rows in order: an id is live while a row holds
    it.  Their weights are all Fractions or all ints; the marks only add,
    subtract and compare them.  ``next_id`` is the fresh id the run's next
    rule-2 survivor gets.
    """

    def __init__(self, rows: Sequence[_Row], next_id: int):
        self.rows = rows
        self.next_id = next_id

    def _fresh_id(self, a_id: int, b_id: int, weight: int | Fraction | None) -> int | None:
        """Rule 2's recorder: the next fresh id for a survivor, none for a
        cancellation.  The run reads only the ids, so no event is kept."""
        if weight is None:
            return None
        self.next_id += 1
        return self.next_id - 1

    def step(self, marked: _Row) -> _Row:
        """Mark one live row, add it into every row holding its lowest bit,
        and re-merge equal left-hand sides (see h_step); returns the row,
        which is the mark's record."""
        bits, rhs, _, eq_id = marked
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
        self.rows = _merge_rows(out, self._fresh_id)
        return marked

    def block(self, picks: list[_Row]) -> list[_Row] | None:
        """Mark the live rows ``picks`` in turn, as single steps would, with
        one pass over the rows; returns their records, or changes nothing and
        returns None when those steps would merge rows.

        Without a merge ids do not change, so every pick is still live at its
        turn.  Each pick is reduced by the block's earlier marks, which gives
        it as it stands at its turn: its record.  The marks are kept mutually
        reduced, each zero on the others' lowest bits, so a row's state after
        all of them is the row XOR the marks whose lowest bits it holds, one
        lookup in a table of all 2^len(picks) subsets.  Rows that become
        equal at some mark stay equal, and a row equal to a later pick
        cancels to zero, so the steps merge nowhere in the block exactly when
        the picks reduce to nonzero rows and the other rows to distinct
        nonzero ones.
        """
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
            records.append((bits, rhs, weight, eq_id))
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

    This is one step of run_h's row loop, on the system's own Fraction
    weights, with the system built once on each side and no row checked
    again; untouched rows stay the same tuples.
    Callers are expected to hand in a system without repeated left-hand
    sides (run_h re-merges after every step), in which case no substitution
    can cancel a row outright.  A cancelled row with rhs 0 is dropped
    silently; rhs 1 is impossible under that discipline and raises
    MaxlinError.
    """
    state = _Marking(sys.rows, sys.next_id)
    bits, rhs, weight, _ = state.step(_live_row(sys.rows, eq_id))
    marked = Equation(F2Vector(sys.n, bits), rhs, weight, eq_id)
    return LinearSystem._from_rows(sys.n, state.rows, state.next_id), marked


def run_h(sys: LinearSystem, first: Iterable[int] = ()) -> HRun:
    """Run the marking loop until the system is empty.

    The ids of ``first`` are marked in order, each still held by a row at its
    turn (else MaxlinError); after them every step marks the lowest id a row
    holds.  Ids still listed when the system empties are ignored.
    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    The weights are then scaled once to integers by the lcm of their
    denominators, as ``evaluate`` and the oracle do, so merges and the total
    are integer work, and each record's ``Equation`` takes its weight back
    as ``Fraction(w, scale)``.  The loop marks on the system's rows, in
    single steps or in blocks (see the module docstring): the ids of
    ``first`` in chunks of about log2(m) - 2, and the lowest ids on
    merge-free stretches.  A whole run builds at most the one system of the
    entry merge.
    """
    merged = apply_rule2(sys)
    scale = math.lcm(*(w.denominator for _, _, w, _ in merged.rows), 1)
    state = _Marking([
        (bits, rhs, w.numerator * (scale // w.denominator), eq_id)
        for bits, rhs, w, eq_id in merged.rows
    ], merged.next_id)
    order = iter(first)
    marked: list[_Row] = []
    while state.rows and (chunk := list(islice(order, _block_size(len(state.rows))))):
        by_id = dict(zip(map(itemgetter(3), state.rows), state.rows))
        picks = [by_id.get(eq_id) for eq_id in chunk]
        block = None if None in picks else state.block(picks)
        if block is not None:
            marked += block
            continue
        for eq_id in chunk:
            if not state.rows:
                break
            try:
                marked.append(state.step(_live_row(state.rows, eq_id)))
            except EquationNotFoundError:
                raise MaxlinError(f"equation {eq_id} vanished before its marking turn") from None
    streak = 0  # marks since the last merge
    while state.rows:
        m = len(state.rows)
        if streak >= _BLOCK_STREAK:
            size = min(max(2, streak), _block_size(m))
            block = state.block(heapq.nsmallest(size, state.rows, key=itemgetter(3)))
            if block is not None:
                marked += block
                streak += len(block)
                continue
            streak = 0
        marked.append(state.step(min(state.rows, key=itemgetter(3))))
        # a merge drops at least one row besides the marked one
        streak = streak + 1 if len(state.rows) == m - 1 else 0
    n = merged.n
    records = tuple(
        Equation(F2Vector(n, bits), rhs, Fraction(w, scale), eq_id)
        for bits, rhs, w, eq_id in marked
    )
    return HRun(records, Fraction(sum(map(itemgetter(2), marked)), scale))


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
