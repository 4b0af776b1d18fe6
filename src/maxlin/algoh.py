"""Iterated mark-and-eliminate procedure on weighted systems.

Each step marks one equation, removes it, adds it into every remaining
equation containing the marked variable (the lowest one in its support),
and re-merges equal left-hand sides.  Back-substitution over the marking
transcript yields an assignment satisfying every marked equation, whose
excess is at least the total marked weight.  The same machinery powers a
polynomial-time certificate verifier for the above-average question.

A marking run works on ``LinearSystem.rows``: rule 2 merges the input once,
the weights are scaled once to integers by the lcm of their denominators,
and the run marks in one of two working states.  Neither builds a
``LinearSystem`` or an ``Equation`` per mark: the marked row is the mark's
whole record, since the marked variable is its lowest one.  The run turns
the records into ``Equation``s once at the end, through f2core's unchecked
builder (the rows derive from checked input), each weight back as an exact
``Fraction``, and adds the weights as ints.

The list state (``_Marking``) keeps the rows in order.  A single step is
one bit test per live row, one XOR per row containing the marked variable,
and one set of the left-hand sides; rule 2 regroups only the repeated ones.
So a step costs O(m) int operations plus one XOR per touched row.  A block
marks B rows with one pass over the rows, B about log2(m) - 2 (the Four
Russians method of M4RI, Albrecht, Bard & Hart, ACM TOMS 2010).  The picks
are reduced against each other into the block's records, a table of the
XORs of all 2^B subsets of them is built, and every other row is updated
with one lookup.  A block costs O(m + 2^B), so O(m/B + 2^B/B) per mark
where single steps cost O(m).  When the single steps would merge inside
the block, the block is dropped and changes nothing, so records, merge ids
and row order are those of single steps.

The sparse state (``_SparseMarking``) keeps the per-column row lists of
structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990): an
id -> row map with each row's list position as its order key, an lhs -> id
map, the ids of the rows holding each variable, and a heap of live ids.  A
step reads only the t rows holding the marked variable and updates each of
the marked row's w columns with one set operation, so it costs O(t) Python
work plus O(t * w) set work, whatever m is.  It folds the repeats it makes
as the list state does, each survivor at its group's first position and the
fresh ids in that order, so records and merge ids do not depend on the
state.  A run enters it when the merged rows hold at most
``_SPARSE_ROW_WEIGHT`` = 4 variables on average, and leaves it for good at
the first step whose t * w would exceed ``_SPARSE_EXIT`` = 4 times the live
rows, converting the rows in order to the list state: fill-in can make
sparse rows dense, and then the blocks are cheaper.  Both constants come
from run_h timings on random rows of 1 to a variables with m about 2n
(2-core Xeon, Python 3.11).  At n = 200 the sparse state took 0.18, 0.31,
0.54, 0.83 and 1.07 of the list state's time at mean row weights 2.2, 2.5,
3.1, 3.6 and 4.7 (and 1.20 at n = 100, weight 4.6), while dense rows, which
hold about half the variables, never enter.  An exit ratio of 0.5 to 2
left good runs too early (n = 1000, weight 2.1: 0.15 s at 0.5, 0.034 s at
4, 0.61 s on the list), and 8 was no faster than 4.  On that n = 1000
system, and on the exact-3-SAT systems of the paper's second result, a
run costs what its marks touch; see the README's "Marking cost" for the
scale cases.

The paper marks "an arbitrary equation" at each step; a run marks the
lowest live id, in blocks once a few marks in a row have not merged.  The
ids of ``first``, such as the lower bound's sum-independent set, are
labelled -len(first)..-1 in order, below every row id, so they go first.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
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
    LinearSystem,
    _check_ints,
    _equation,
    _is_int,
    _Row,
    _scaled,
    parity,
)
from .reduce import _FreshIds, _merge_pair, _merge_rows, apply_rule2

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
# run_h marks on the column index when its rows hold at most
# _SPARSE_ROW_WEIGHT variables on average, and leaves it for good at the
# first step whose rows touched times marked variables exceed _SPARSE_EXIT
# times the live rows (see the module docstring for the measurements)
_SPARSE_ROW_WEIGHT = 4
_SPARSE_EXIT = 4


def _block_size(m: int) -> int:
    """The most rows a block marks among m live rows, about log2(m) - 2."""
    return max(2, m.bit_length() - 2)


class _Labels:
    """Rule 2's recorder for a marking run: the next fresh id for a survivor,
    none for a cancellation, and no merge event kept.  The i-th id of
    ``first`` is labelled i - len(first), below every row id (a repeated id
    keeps its first label).  A row holding it, from the start or as a
    survivor, carries the label, and ``own`` maps the label back to the
    row's own id."""

    def __init__(self, first: Sequence[int], next_id: int):
        self.labels = dict(zip(reversed(first), count(-1, -1)))
        self.own: dict[int, int] = {}
        self.next_id = next_id

    def label(self, eq_id: int) -> int:
        label = self.labels.get(eq_id)
        if label is None:
            return eq_id
        self.own[label] = eq_id
        return label

    def __call__(self, a_id: int, b_id: int, weight: int | None) -> int | None:
        if weight is None:
            return None
        self.next_id += 1
        return self.label(self.next_id - 1)


class _Marking:
    """List working state of a marking run.

    ``rows`` are the live rows in order: an id is live while a row holds
    it.  Their weights are all Fractions or all ints; the marks only add,
    subtract and compare them.  ``fresh`` is rule 2's recorder, which gives
    each survivor its id.
    """

    def __init__(self, rows: Sequence[_Row], fresh: _Labels | _FreshIds):
        self.rows = rows
        self.fresh = fresh

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
        self.rows = _merge_rows(out, self.fresh)
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


class _SparseMarking:
    """Column-indexed working state of a marking run on sparse rows.

    ``rows`` maps each live id to its row and ``place`` maps it to its order
    key, its position in the list of rows; ``lhs`` maps each left-hand side
    to the id holding it, ``columns`` each variable (as its bit) to the ids
    of the rows holding it, and ``heap`` holds the live ids, dead ones being
    skipped when they come to the top.  A step visits only the rows holding
    the marked variable.  The left-hand sides are distinct (run_h merges on
    entry, and so does every step), and a step XORs the same row into every
    row it touches, so no touched row becomes zero and a repeat pairs one
    touched row with one untouched row.
    """

    def __init__(self, rows: Sequence[_Row], fresh: _Labels):
        self.rows = {row[3]: row for row in rows}
        self.place = {row[3]: i for i, row in enumerate(rows)}
        self.lhs = {row[0]: row[3] for row in rows}
        self.columns: dict[int, set[int]] = {}
        for bits, _, _, eq_id in rows:
            while bits:
                low = bits & -bits
                self.columns.setdefault(low, set()).add(eq_id)
                bits ^= low
        self.heap = sorted(self.rows)
        self.fresh = fresh

    def run(self, marked: list[_Row]) -> _Marking:
        """Mark the lowest live ids, appending each record to ``marked``,
        until the system is empty or a step would cost more than a scan of
        the rows; returns the list state of the rows left, in order."""
        rows, heap = self.rows, self.heap
        while rows:
            while heap[0] not in rows:
                heapq.heappop(heap)
            row = rows[heap[0]]
            if self.step(row) is None:
                break
            marked.append(row)
        place = self.place
        return _Marking(sorted(rows.values(), key=lambda row: place[row[3]]), self.fresh)

    def step(self, marked: _Row) -> _Row | None:
        """Mark one live row as _Marking.step does, visiting only the rows
        holding its lowest bit, and return it; or change nothing and return
        None when the index work, the rows touched times the marked row's
        variables, exceeds _SPARSE_EXIT times the live rows."""
        bits, rhs, _, eq_id = marked
        rows, lhs, columns = self.rows, self.lhs, self.columns
        low = bits & -bits
        touched = columns[low]
        if (len(touched) - 1) * bits.bit_count() > _SPARSE_EXIT * len(rows):
            return None
        # once the marked row is gone no row holds the marked variable; each
        # other variable of it changes in the touched rows and leaves the
        # marked row, which touched holds too
        del columns[low], rows[eq_id], lhs[bits], self.place[eq_id]
        rest = bits ^ low
        while rest:
            bit = rest & -rest
            columns[bit] ^= touched
            rest ^= bit
        touched.discard(eq_id)
        # every old lhs leaves before a new one enters: a touched row's new
        # lhs may be another touched row's old one
        changed = []
        for row_id in touched:
            row_bits, row_rhs, weight, _ = rows[row_id]
            del lhs[row_bits]
            changed.append((row_bits ^ bits, row_rhs ^ rhs, weight, row_id))
        repeats = []
        for row in changed:
            rows[row[3]] = row
            held = lhs.setdefault(row[0], row[3])
            if held != row[3]:
                repeats.append((held, row[3]))
        if repeats:
            self._merge(repeats)
        return marked

    def _merge(self, pairs: list[tuple[int, int]]) -> None:
        """Rule 2 on pairs of ids sharing a left-hand side, folded as
        _merge_rows folds them on the list: each pair in list order, the
        pairs in order of their first places, and each survivor at its
        pair's first place under a fresh id."""
        rows, place, lhs, columns = self.rows, self.place, self.lhs, self.columns
        ordered = [(a, b) if place[a] < place[b] else (b, a) for a, b in pairs]
        ordered.sort(key=lambda pair: place[pair[0]])
        for a, b in ordered:
            row = rows.pop(a)
            merged = _merge_pair(row, rows.pop(b), self.fresh)
            first = place.pop(a)
            del place[b]
            bits = rest = row[0]
            ids = {a, b}
            while rest:
                bit = rest & -rest
                column = columns[bit]
                column -= ids
                if merged is not None:
                    column.add(merged[3])
                rest ^= bit
            if merged is None:
                del lhs[bits]
            else:
                new_id = merged[3]
                rows[new_id], place[new_id], lhs[bits] = merged, first, new_id
                heapq.heappush(self.heap, new_id)


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
    row = next((row for row in sys.rows if row[3] == eq_id), None)
    if row is None:
        raise EquationNotFoundError(f"no equation with id {eq_id}")
    fresh = _FreshIds(sys.next_id)
    state = _Marking(sys.rows, fresh)
    marked = _equation(sys.n, *state.step(row))
    return LinearSystem._from_rows(sys.n, state.rows, fresh.next_id), marked


def _mark_list(state: _Marking, marked: list[_Row], streak: int) -> None:
    """Mark the lowest live ids on the list state, appending each record to
    ``marked``, in blocks once ``streak`` marks in a row have not merged
    (see the module docstring)."""
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


def run_h(sys: LinearSystem, first: Iterable[int] = ()) -> HRun:
    """Run the marking loop until the system is empty.

    The ids of ``first`` are marked in order, each still held by a row at its
    turn (else MaxlinError, raised when the run ends); after them every step
    marks the lowest id a row holds.  At most m ids are read, and those still
    listed when the system empties are ignored.
    The input is first re-merged (rule 2) so repeated left-hand sides never
    reach a marking step; that merge preserves the excess of every
    assignment, so marked-weight guarantees carry back to the input system.
    One pass then scales the weights to integers by the lcm of their
    denominators, as ``evaluate`` and the oracle do, and labels the ids of
    ``first`` (see ``_Labels``), so every step marks the lowest live id.
    Merges and the total are integer work, and each record's ``Equation``
    takes its weight back as ``Fraction(w, scale)``.  Rows that hold at most
    ``_SPARSE_ROW_WEIGHT`` variables on average are marked on the
    column-indexed state until a step would cost more there than a scan;
    all other marks run on the list of rows, in single steps or in blocks
    (see the module docstring), the ids of ``first`` counting as merge-free
    marks.  The two states make the same marks, so the records and the
    merge ids do not depend on where the run switches.  A whole run builds
    at most the one system of the entry merge.
    """
    merged = apply_rule2(sys)
    ids = list(islice(first, merged.m))
    fresh = _Labels(ids, merged.next_id)
    weights, scale = _scaled(map(itemgetter(2), merged.rows))
    label = fresh.label
    rows = [
        (bits, rhs, w, label(eq_id)) for (bits, rhs, _, eq_id), w in zip(merged.rows, weights)
    ]
    marked: list[_Row] = []
    if sum(bits.bit_count() for bits, _, _, _ in rows) <= _SPARSE_ROW_WEIGHT * len(rows):
        state = _SparseMarking(rows, fresh).run(marked)
    else:
        state = _Marking(rows, fresh)
    _mark_list(state, marked, len(ids))
    # the lowest live id at turn i is label i - len(ids) exactly when the
    # i-th id of first is still live
    for turn, (row, eq_id) in enumerate(zip(marked, ids), -len(ids)):
        if row[3] != turn:
            raise MaxlinError(f"equation {eq_id} vanished before its marking turn")
    n, own = merged.n, fresh.own
    records = tuple(
        _equation(n, bits, rhs, Fraction(w, scale), own.get(eq_id, eq_id))
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
