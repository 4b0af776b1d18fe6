"""Reduction rules for weighted F2 systems and the transcript to undo them.

Rule 2 merges equations sharing a left-hand side (summing or cancelling
weights); rule 1 projects the system onto an independent column basis.
Neither changes the maximum excess, and the transcript lets any assignment
of the reduced system be lifted back to the original at equal excess.

Both rules read ``LinearSystem.rows`` and build one result with
``LinearSystem._from_rows``, unchecked (merged and projected rows are valid
by construction), passing the rows they leave alone on as the same tuples.
Their transcripts are built the same way, with
``ReductionTranscript._from_parts``.
Rule 1 eliminates each row on its lowest set bit (``f2core.rref``),
so a reduction costs O(m * rank) big-int XORs plus O(n) transcript entries.
Nothing walks every declared column per row: for one sparse equation over a
million declared variables, listing the deleted columns is nearly all the
work.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .errors import DimensionMismatchError, MaxlinError
from .f2core import Assignment, LinearSystem, _check_dimension, _check_ints, _Row, rref

__all__ = [
    "MergeEvent",
    "ReductionTranscript",
    "apply_rule1",
    "apply_rule2",
    "make_irreducible",
    "lift_assignment",
]


@dataclass(frozen=True)
class MergeEvent:
    """One pairwise rule-2 merge; surviving_id is None when the pair cancelled."""

    merged_ids: tuple[int, int]
    surviving_id: int | None
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "merged_ids", tuple(self.merged_ids))


def _check_range(what: str, indices: Collection[int], n: int) -> None:
    """Raise unless every index is an int, not a bool, in 0..n-1."""
    _check_ints(f"{what} variable", indices)
    if indices and (min(indices) < 0 or max(indices) >= n):
        j = next(j for j in indices if not 0 <= j < n)
        raise MaxlinError(f"{what} variable {j} outside 0..{n - 1}")


@dataclass(frozen=True)
class ReductionTranscript:
    """The record of a reduction, which lifts a reduced assignment back.

    Variable indices are original (0-based).  ``kept_variables[i]`` is the
    original index of reduced variable i; ``deleted_variables`` lists, in
    deletion order, each dropped column with the kept columns whose sum it
    equalled at deletion time.  The constructor refuses an index that is
    not an int (a bool included) or lies outside the original variables;
    the reductions build theirs with ``_from_parts``, unchecked.
    """

    original_n: int
    reduced_n: int
    kept_variables: tuple[int, ...]
    deleted_variables: tuple[tuple[int, frozenset[int]], ...] = ()
    merge_log: tuple[MergeEvent, ...] = ()

    def __post_init__(self) -> None:
        _check_dimension(self.original_n)
        _check_dimension(self.reduced_n)
        kept = tuple(self.kept_variables)
        pairs = tuple(self.deleted_variables)
        deps = dict(pairs)
        object.__setattr__(self, "kept_variables", kept)
        object.__setattr__(
            self, "deleted_variables", tuple(zip(deps, map(frozenset, deps.values())))
        )
        object.__setattr__(self, "merge_log", tuple(self.merge_log))
        if len(kept) != self.reduced_n:
            raise MaxlinError("kept_variables must have one entry per reduced variable")
        _check_range("kept", kept, self.original_n)
        _check_range("deleted", deps, self.original_n)
        if len(set(kept)) != len(kept):
            raise MaxlinError("a variable may be kept only once")
        if len(deps) != len(pairs):
            raise MaxlinError("a variable may be deleted only once")
        if deps.keys() & kept:
            raise MaxlinError("a variable cannot be both kept and deleted")

    @classmethod
    def _from_parts(
        cls,
        original_n: int,
        reduced_n: int,
        kept: Iterable[int],
        deleted: Iterable[tuple[int, frozenset[int]]] = (),
        merge_log: Iterable[MergeEvent] = (),
    ) -> ReductionTranscript:
        """The transcript of a reduction the library ran on a checked system,
        stored as the constructor stores it but without its checks: ``deleted``
        already holds distinct (column, frozenset) pairs."""
        tr = cls.__new__(cls)
        vars(tr).update(
            original_n=original_n,
            reduced_n=reduced_n,
            kept_variables=tuple(kept),
            deleted_variables=tuple(deleted),
            merge_log=tuple(merge_log),
        )
        return tr


def _identity_transcript(n: int) -> ReductionTranscript:
    return ReductionTranscript._from_parts(n, n, range(n))


_NO_DEPS: frozenset[int] = frozenset()


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


def _merge_rows(rows: Sequence[_Row], record: _FreshIds) -> Sequence[_Row]:
    """Rule 2: fold each equal-lhs group pairwise in order of appearance.

    Rows that share their lhs with no other row come back as they are, and
    when no two rows share one the input sequence itself comes back.
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
    rows: Sequence[_Row], n: int
) -> tuple[Sequence[_Row], list[int], list[tuple[int, frozenset[int]]]]:
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
    rows = _merge_rows(sys.rows, fresh)
    if rows is sys.rows:
        return sys
    # merged rows take fresh ids from sys.next_id, which no row of sys holds
    return LinearSystem._from_rows(sys.n, rows, fresh.next_id)


def apply_rule1(sys: LinearSystem) -> tuple[LinearSystem, ReductionTranscript]:
    """Delete every variable outside the leftmost independent column set.

    The projection is excess-preserving: each deleted column equals a sum
    of kept columns, recorded in the transcript.
    """
    rows, pivots, deleted = _project_rows(sys.rows, sys.n)
    if not deleted:
        return sys, _identity_transcript(sys.n)
    rank = len(pivots)
    return LinearSystem._from_rows(rank, rows, sys.next_id), ReductionTranscript._from_parts(
        sys.n, rank, pivots, deleted
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
    the leftmost pivots), so one system always gives the same result and
    transcript; the tests' frozen reference replay checks that transcript.
    Both rules run on the system's rows and the result is built once.
    Cost: O(m * rank) big-int XORs for the elimination (see rref), one pass
    over the rows' set bits for the projection and O(n) transcript entries;
    nothing walks every declared column per row.
    """
    fresh = _FreshIds(sys.next_id)
    rows, kept, deleted = _project_rows(_merge_rows(sys.rows, fresh), sys.n)
    if not fresh.events and not deleted:
        return sys, _identity_transcript(sys.n)
    transcript = ReductionTranscript._from_parts(sys.n, len(kept), kept, deleted, fresh.events)
    return LinearSystem._from_rows(len(kept), rows, fresh.next_id), transcript


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
