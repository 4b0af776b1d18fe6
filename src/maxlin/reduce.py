"""Reduction rules for weighted F2 systems and the transcript to undo them.

Rule 2 merges equations sharing a left-hand side (summing or cancelling
weights); rule 1 projects the system onto an independent column basis.
Neither changes the maximum excess, and the transcript lets any assignment
of the reduced system be lifted back to the original at equal excess.

Both rules run on plain ``(lhs bits, rhs, weight, eq_id)`` rows, and the
frozen ``Equation``/``LinearSystem`` values are built once per public call.
Rule 1 eliminates each row on its lowest set bit (``f2core.rref``), so a
reduction costs O(m * rank) big-int XORs plus O(n) transcript entries.
Nothing walks every declared column per row: for one sparse equation over a
million declared variables, listing the deleted columns is nearly all the
work.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, MaxlinError
from .f2core import Assignment, Equation, F2Vector, LinearSystem, _pivot_basis, rref

__all__ = [
    "MergeEvent",
    "ReductionTranscript",
    "apply_rule1",
    "apply_rule2",
    "make_irreducible",
    "lift_assignment",
    "replay_transcript",
    "is_irreducible",
]


@dataclass(frozen=True)
class MergeEvent:
    """One pairwise rule-2 merge; surviving_id is None when the pair cancelled."""

    merged_ids: tuple[int, int]
    surviving_id: int | None
    weight: Fraction


@dataclass(frozen=True)
class ReductionTranscript:
    """Everything needed to replay a reduction or lift an assignment back.

    Variable indices are original (0-based).  ``kept_variables[i]`` is the
    original index of reduced variable i; ``deleted_variables`` lists, in
    deletion order, each dropped column with the kept columns whose sum it
    equalled at deletion time.
    """

    original_n: int
    reduced_n: int
    kept_variables: tuple[int, ...]
    deleted_variables: tuple[tuple[int, frozenset[int]], ...] = ()
    merge_log: tuple[MergeEvent, ...] = ()

    def __post_init__(self) -> None:
        if len(self.kept_variables) != self.reduced_n:
            raise MaxlinError("kept_variables must have one entry per reduced variable")
        deleted = {j for j, _ in self.deleted_variables}
        if len(deleted) != len(self.deleted_variables):
            raise MaxlinError("a variable may be deleted only once")
        if deleted & set(self.kept_variables):
            raise MaxlinError("a variable cannot be both kept and deleted")

    def is_identity(self) -> bool:
        return (
            self.original_n == self.reduced_n
            and not self.deleted_variables
            and not self.merge_log
        )


def _identity_transcript(n: int) -> ReductionTranscript:
    return ReductionTranscript(n, n, tuple(range(n)))


# A working row: (lhs bits, rhs, weight, eq_id).
_Row = tuple[int, int, Fraction, int]
_NO_DEPS: frozenset[int] = frozenset()
_KEEP_NONE: Mapping[int, Equation | None] = MappingProxyType({})


def _rows(sys: LinearSystem) -> list[_Row]:
    return [(eq.lhs.bits, eq.rhs, eq.weight, eq.eq_id) for eq in sys.equations]


def _equation(n: int, row: _Row) -> Equation:
    bits, rhs, weight, eq_id = row
    return Equation(F2Vector(n, bits), rhs, weight, eq_id)


def _system(
    n: int, rows: Iterable[_Row], next_id: int, keep: Mapping[int, Equation | None] = _KEEP_NONE
) -> LinearSystem:
    """The system of the rows; a row reuses ``keep[eq_id]`` when that is an
    Equation, which must then be the row's own, and is built otherwise."""
    return LinearSystem(
        n,
        tuple(_equation(n, row) if (eq := keep.get(row[3])) is None else eq for row in rows),
        next_id,
    )


class _FreshIds:
    """Merge recorder of a reduction: logs every event and gives each
    surviving row the next fresh id."""

    def __init__(self, next_id: int):
        self.next_id = next_id
        self.events: list[MergeEvent] = []

    def __call__(self, a_id: int, b_id: int, weight: Fraction | None) -> int | None:
        if weight is None:
            self.events.append(MergeEvent((a_id, b_id), None, Fraction(0)))
            return None
        new_id = self.next_id
        self.next_id += 1
        self.events.append(MergeEvent((a_id, b_id), new_id, weight))
        return new_id


def _merge_pair(a: _Row, b: _Row, record: _FreshIds) -> _Row | None:
    """Rule 2 on two rows with equal lhs; None means both cancel."""
    bits, rhs_a, w_a, id_a = a
    _, rhs_b, w_b, id_b = b
    if rhs_a == rhs_b:
        rhs, weight = rhs_a, w_a + w_b
    elif w_a == w_b:
        record(id_a, id_b, None)
        return None
    elif w_a > w_b:
        rhs, weight = rhs_a, w_a - w_b
    else:
        rhs, weight = rhs_b, w_b - w_a
    return bits, rhs, weight, record(id_a, id_b, weight)


def _merge_rows(rows: list[_Row], record: _FreshIds) -> list[_Row]:
    """Rule 2: fold each equal-lhs group pairwise in order of appearance.

    Rows that share their lhs with no other row come back as they are, and
    when no two rows share one the input list itself comes back.
    """
    groups: dict[int, list[_Row]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    if len(groups) == len(rows):
        return rows
    out = []
    for group in groups.values():
        cur: _Row | None = group[0]
        if len(group) > 1:
            for nxt in group[1:]:
                cur = nxt if cur is None else _merge_pair(cur, nxt, record)
            if cur is None:
                continue
        out.append(cur)
    return out


def _project(bits: int, new_bit: dict[int, int]) -> int:
    """Map each set bit through new_bit (old 1 << j to new 1 << i); bits
    without an entry are dropped."""
    out = 0
    while bits:
        low = bits & -bits
        out |= new_bit.get(low, 0)
        bits ^= low
    return out


def _project_rows(
    rows: list[_Row], n: int
) -> tuple[list[_Row], list[int], list[tuple[int, frozenset[int]]]]:
    """Rule 1 on rows over n columns.

    Returns the rows projected onto the pivot columns, the pivots, and each
    deleted column with the pivot columns summing to it.  At full rank the
    rows come back as they are.  Every row's lowest set bit is a pivot (see
    rref), so no projected row is zero.
    """
    pivots, reduced = rref([row[0] for row in rows], n)
    if len(pivots) == n:
        return rows, pivots, []
    uses: dict[int, list[int]] = {}
    for p, prow in zip(pivots, reduced):
        rest = prow ^ (1 << p)  # the dependent columns that use pivot p
        while rest:
            low = rest & -rest
            uses.setdefault(low.bit_length() - 1, []).append(p)
            rest ^= low
    deps = {j: frozenset(ps) for j, ps in uses.items()}
    pivot_set = set(pivots)
    deleted = [(j, deps.get(j, _NO_DEPS)) for j in range(n) if j not in pivot_set]
    new_bit = {1 << p: 1 << i for i, p in enumerate(pivots)}
    out = [(_project(bits, new_bit), rhs, weight, eq_id) for bits, rhs, weight, eq_id in rows]
    return out, pivots, deleted


def apply_rule2(sys: LinearSystem) -> LinearSystem:
    """Merge all equations sharing a left-hand side; idempotent."""
    fresh = _FreshIds(sys.next_id)
    unmerged = _rows(sys)
    rows = _merge_rows(unmerged, fresh)
    if rows is unmerged:
        return sys
    # merged rows take fresh ids from sys.next_id, which no equation of sys
    # holds; every other row keeps its Equation
    return _system(sys.n, rows, fresh.next_id, sys._by_id)


def apply_rule1(sys: LinearSystem) -> tuple[LinearSystem, ReductionTranscript]:
    """Delete every variable outside the leftmost independent column set.

    The projection is excess-preserving: each deleted column equals a sum
    of kept columns, recorded in the transcript.
    """
    rows, pivots, deleted = _project_rows(_rows(sys), sys.n)
    if not deleted:
        return sys, _identity_transcript(sys.n)
    rank = len(pivots)
    return _system(rank, rows, sys.next_id), ReductionTranscript(
        sys.n, rank, tuple(pivots), tuple(deleted)
    )


def make_irreducible(sys: LinearSystem) -> tuple[LinearSystem, ReductionTranscript]:
    """Apply rule 2 then rule 1, which reaches the fixed point of both.

    One round suffices: rule 2 leaves distinct rows, and rule 1 keeps them
    distinct, since two rows equal on every pivot column would differ by a
    nonzero vector of the row space whose lowest set bit is no pivot, and no
    such vector exists.  The projection has full rank, so a second round
    would change nothing.

    The reduction is deterministic (groups fold in order of appearance,
    merged rows take fresh ids from ``sys.next_id``, the kept columns are
    the leftmost pivots), which replay_transcript relies on.  Both rules
    run on plain rows and the result is built once.  Cost: O(m * rank)
    big-int XORs for the elimination (see rref), one pass over the rows'
    set bits for the projection and O(n) transcript entries; nothing walks
    every declared column per row.
    """
    fresh = _FreshIds(sys.next_id)
    rows, kept, deleted = _project_rows(_merge_rows(_rows(sys), fresh), sys.n)
    if not fresh.events and not deleted:
        return sys, _identity_transcript(sys.n)
    transcript = ReductionTranscript(
        sys.n, len(kept), tuple(kept), tuple(deleted), tuple(fresh.events)
    )
    return _system(len(kept), rows, fresh.next_id), transcript


def lift_assignment(tr: ReductionTranscript, reduced: Assignment) -> Assignment:
    """Extend a reduced assignment to the original variables.

    Deleted variables become 0 and kept variables are copied through the
    column map; this preserves the excess of every reduced assignment
    exactly, because each equation reads the same value either way.
    """
    if reduced.n != tr.reduced_n:
        raise DimensionMismatchError(
            f"assignment has {reduced.n} variables, transcript expects {tr.reduced_n}"
        )
    bits = 0
    for i, orig in enumerate(tr.kept_variables):
        if reduced.bits >> i & 1:
            bits |= 1 << orig
    return Assignment(tr.original_n, bits)


def replay_transcript(tr: ReductionTranscript, original: LinearSystem) -> LinearSystem:
    """Re-derive the reduced system from the original plus the transcript.

    make_irreducible is deterministic, so the replay reruns it on the
    original and accepts exactly the transcript that run returns: the same
    kept and deleted columns and the same merge log, every surviving id and
    weight included.  Any other transcript raises MaxlinError.  The result
    is that run's reduced system, bit-identical to the reduction's output.
    (Restricting every row to the final kept columns first is not a replay:
    when a cancellation lowers the rank, that restriction merges rows the
    reduction kept apart.)
    """
    if original.n != tr.original_n:
        raise DimensionMismatchError(
            f"system has {original.n} variables, transcript expects {tr.original_n}"
        )
    reduced, expected = make_irreducible(original)
    if expected != tr:
        raise MaxlinError("transcript differs from the reduction of the system")
    return reduced


def is_irreducible(sys: LinearSystem) -> bool:
    """True when rule 2 has nothing to merge and the lhs matrix has full rank."""
    if sys.has_duplicate_lhs():
        return False
    return len(_pivot_basis((eq.lhs.bits for eq in sys.equations), sys.n)) == sys.n
