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
Both rules run on the used columns: one OR over the rows finds the u
columns that some row holds, and when some column is unused each row's set
bits are mapped once onto 0..u-1, in column order, so rule 2 hashes and
rule 1 eliminates u-bit ints.  Rule 1 eliminates each row on its lowest set
bit (``f2core.rref``) and then drops the dependent columns in one pass over
the rows, by shifts or by a lookup per set bit, skipped when every used
column is a pivot.  So a reduction costs the OR, at most two passes over the
rows' set bits and O(m * rank) XORs of u-bit ints.  Its transcript stores
the kept columns and only the deleted columns that have dependencies; the
full list of deleted columns, O(n) entries, is built only when a caller
reads ``ReductionTranscript.deleted_variables``.  Nothing walks or lists
every declared column, so the cost follows the rows and the used columns,
not the declared n.
"""
from __future__ import annotations

import functools
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, or_
from typing import Collection, Iterable, Sequence

from .errors import DimensionMismatchError, MaxlinError
from .f2core import Assignment, LinearSystem, _check_dimension, _check_ints, _Row, _support, rref

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
    """One pairwise rule-2 merge; surviving_id is None when the pair cancelled.
    The constructor checks for two int ids, an int or None survivor and an
    int or Fraction weight (never a bool); rule 2's events skip the checks."""

    merged_ids: tuple[int, int]
    surviving_id: int | None
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "merged_ids", _stored("merged_ids", self.merged_ids))
        if len(self.merged_ids) != 2:
            raise MaxlinError(f"merge {self!r} is not a MergeEvent of two ids")
        _check_ints("merged id", self.merged_ids)
        if self.surviving_id is not None:
            _check_ints("surviving id", [self.surviving_id])
        if not isinstance(self.weight, (int, Fraction)) or isinstance(self.weight, bool):
            raise MaxlinError(f"merge weight {self.weight!r} is not an int or a Fraction")


def _check_range(what: str, indices: Collection[int], n: int) -> None:
    """Raise unless every index is an int, not a bool, in 0..n-1."""
    _check_ints(f"{what} variable", indices)
    if indices and (min(indices) < 0 or max(indices) >= n):
        j = next(j for j in indices if not 0 <= j < n)
        raise MaxlinError(f"{what} variable {j} outside 0..{n - 1}")


def _stored(field: str, value, convert=tuple):
    """``convert(value)``, or a MaxlinError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise MaxlinError(f"malformed {field}: {exc}") from None


@dataclass(frozen=True)
class ReductionTranscript:
    """The record of a reduction, which lifts a reduced assignment back.

    Variable indices are original (0-based).  ``kept_variables[i]`` is the
    original index of reduced variable i; ``deleted_variables`` lists, in
    deletion order, each dropped column with the kept columns whose sum it
    equalled at deletion time.  The constructor raises ``MaxlinError`` on a
    field or dependency set it cannot read, an index that is not an int (a
    bool included) or outside the original variables, a dependency that is
    no kept variable, and a merge that is not a ``MergeEvent`` (which checks
    itself), and keeps ``deleted_variables`` as given.

    The reductions build theirs with ``_from_parts``, unchecked, storing only
    the deleted columns that have dependencies.  Their ``deleted_variables``
    is built on first read and cached: every column that is not kept, in
    ascending order, each with its dependencies or ``frozenset()``.
    Equality, hashing, ``repr``, ``dataclasses.replace`` and pickling read
    it as they read any field, so a reduction's transcript equals the
    constructed one with the same content.
    """

    original_n: int
    reduced_n: int
    kept_variables: tuple[int, ...]
    # a factory leaves no class attribute, so a transcript that does not
    # hold the field yet reaches __getattr__
    deleted_variables: tuple[tuple[int, frozenset[int]], ...] = field(default_factory=tuple)
    merge_log: tuple[MergeEvent, ...] = ()

    def __post_init__(self) -> None:
        _check_dimension(self.original_n)
        _check_dimension(self.reduced_n)
        kept = _stored("kept_variables", self.kept_variables)
        pairs = _stored("deleted_variables", self.deleted_variables)
        deps = _stored("deleted_variables", pairs, dict)
        for j, dep in deps.items():
            try:
                deps[j] = frozenset(dep)
            except TypeError:
                raise MaxlinError(
                    f"dependencies of deleted variable {j!r} must be a set of variables, "
                    f"got {dep!r}"
                ) from None
        object.__setattr__(self, "kept_variables", kept)
        object.__setattr__(self, "deleted_variables", tuple(deps.items()))
        object.__setattr__(self, "merge_log", _stored("merge_log", self.merge_log))
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
        kept_set = frozenset(kept)
        for j, dep in deps.items():
            _check_range("dependency", dep, self.original_n)
            if not dep <= kept_set:
                raise MaxlinError(
                    f"deleted variable {j} depends on variable {min(dep - kept_set)}, "
                    "which is not kept"
                )
        for event in self.merge_log:
            if not isinstance(event, MergeEvent):
                raise MaxlinError(f"merge {event!r} is not a MergeEvent of two ids")

    def __getattr__(self, name: str):
        # reached only for an attribute the instance does not hold
        state = vars(self)
        if name != "deleted_variables" or "_dependent" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        deleted = _deleted_columns(self.original_n, self.kept_variables, state["_dependent"])
        del state["_dependent"]
        state[name] = deleted
        # the fields in declaration order, as the constructor stores them
        state["merge_log"] = state.pop("merge_log")
        return deleted

    @classmethod
    def _from_parts(
        cls,
        original_n: int,
        reduced_n: int,
        kept: Iterable[int],
        dependent: dict[int, frozenset[int]],
        merge_log: Iterable[MergeEvent] = (),
    ) -> ReductionTranscript:
        """The transcript of a reduction the library ran on a checked system,
        without the constructor's checks: ``kept`` is ascending and
        ``dependent`` maps each deleted column that has dependencies to
        them.  The other deleted columns are not stored; ``deleted_variables``
        lists them all when it is first read."""
        tr = cls.__new__(cls)
        vars(tr).update(
            original_n=original_n,
            reduced_n=reduced_n,
            kept_variables=tuple(kept),
            merge_log=tuple(merge_log),
            _dependent=dependent,
        )
        return tr


def _deleted_columns(
    n: int, kept: Sequence[int], dependent: dict[int, frozenset[int]]
) -> tuple[tuple[int, frozenset[int]], ...]:
    """Every column of 0..n-1 outside the ascending ``kept``, in order, with
    its dependencies from ``dependent`` or ``frozenset()``.  Each gap between
    kept columns is one C-level extend; each dependent column is then put in
    place at its index among the deleted ones."""
    deleted: list[tuple[int, frozenset[int]]] = []
    start = 0
    for k in [*kept, n]:
        deleted += zip(range(start, k), repeat(_NO_DEPS))
        start = k + 1
    for j, deps in dependent.items():
        deleted[j - bisect(kept, j)] = (j, deps)
    return tuple(deleted)


def _identity_transcript(n: int) -> ReductionTranscript:
    return ReductionTranscript._from_parts(n, n, range(n), {})


_NO_DEPS: frozenset[int] = frozenset()


class _FreshIds:
    """Merge recorder of a reduction: logs every event and gives each
    surviving row the next fresh id."""

    def __init__(self, next_id: int):
        self.next_id = next_id
        self.events: list[MergeEvent] = []

    def __call__(self, a_id: int, b_id: int, weight: Fraction | None) -> int | None:
        # unchecked, as in _from_parts: the ids and weights are rule 2's own
        event = MergeEvent.__new__(MergeEvent)
        if weight is None:
            vars(event).update(merged_ids=(a_id, b_id), surviving_id=None, weight=Fraction(0))
        else:
            vars(event).update(merged_ids=(a_id, b_id), surviving_id=self.next_id, weight=weight)
            self.next_id += 1
        self.events.append(event)
        return event.surviving_id


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

    Only the repeated left-hand sides are regrouped: one set finds whether
    any lhs repeats, and only then one pass maps each lhs to its first place
    and collects the places of the repeats.  The groups fold one after
    another in the order of their first places, which fixes the order of the
    fresh ids, and each survivor takes its group's first place.  Every other
    row keeps its place and its tuple, and when no two rows share an lhs the
    input sequence itself comes back.
    """
    keys = list(map(itemgetter(0), rows))
    if len(set(keys)) == len(keys):
        return rows
    first: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for i, bits in enumerate(keys):
        j = first.setdefault(bits, i)
        if j != i:
            groups.setdefault(j, [j]).append(i)
    out: list[_Row | None] = list(rows)
    for j in sorted(groups):
        cur = out[j]
        for i in groups[j][1:]:
            cur = out[i] if cur is None else _merge_pair(cur, out[i], record)
            out[i] = None
        out[j] = cur
    return list(filter(None, out))


def _mapped_rows(rows: Sequence[_Row], new_bit: dict[int, int]) -> list[_Row]:
    """The rows with each set bit mapped through new_bit, which takes the
    bit's length (its column + 1) to its new bit, or to 0 to drop it.  The
    walk goes down from the top bit, so a wide row is never negated or
    hashed."""
    out = []
    for bits, rhs, weight, eq_id in rows:
        new = 0
        while bits:
            top = bits.bit_length()
            new |= new_bit[top]
            bits ^= 1 << top - 1
        out.append((new, rhs, weight, eq_id))
    return out


def _drop_columns(rows: Sequence[_Row], u: int, pivots: list[int]) -> list[_Row]:
    """The rows over u columns projected onto the pivot columns (pivot i
    becomes column i).

    Dependent column k (counting from 0), or column u after the last one,
    ends a run of pivots that lies above k dependent columns and so moves
    down by k as one piece, at three big-int operations per piece and row.
    One piece always beats a dict lookup per set bit, and more pieces do
    while they are fewer than the rows' mean weight.
    """
    pieces = []
    start = 0
    for k, end in enumerate(sorted({*range(u)}.difference(pivots)) + [u]):
        if end > start:
            pieces.append((k, ((1 << end - start) - 1) << start - k))
        start = end + 1
    if len(pieces) > 1 and len(pieces) * len(rows) >= sum(
        map(int.bit_count, map(itemgetter(0), rows))
    ):
        new_bit = dict.fromkeys(range(1, u + 1), 0)
        new_bit.update({p + 1: 1 << i for i, p in enumerate(pivots)})
        return _mapped_rows(rows, new_bit)
    out = []
    for bits, rhs, weight, eq_id in rows:
        new = 0
        for shift, mask in pieces:
            new |= bits >> shift & mask
        out.append((new, rhs, weight, eq_id))
    return out


def _reduce_rows(
    rows: Sequence[_Row], n: int, record: _FreshIds | None
) -> tuple[Sequence[_Row], list[int], dict[int, frozenset[int]]]:
    """Rule 2 (when record is given) then rule 1 on rows over n columns.

    One OR over the rows finds the u used columns.  When some column is
    unused, each row's set bits are mapped once onto 0..u-1 in column
    order, and the merge and the elimination run on those u-bit ints; the
    map keeps column order, so the leftmost pivots and every dependency are
    the same as on the n-bit rows, and only the transcript maps them back.

    Returns the rows projected onto the pivot columns, the pivots, and the
    pivot columns summing to each deleted column that has any; the unused
    columns and the other deleted ones are not listed.  When every used
    column is a pivot, the remapped rows are already the projected rows, and
    at full rank the rows come back as they are.  Every row's lowest set bit
    is a pivot (see rref), so no projected row is zero.
    """
    used = functools.reduce(or_, map(itemgetter(0), rows), 0)
    cols: Sequence[int] = range(n)
    if used.bit_count() < n:
        cols = _support(used)
        rows = _mapped_rows(rows, {c + 1: 1 << i for i, c in enumerate(cols)})
    if record is not None:
        rows = _merge_rows(rows, record)
    pivots, reduced = rref([row[0] for row in rows], len(cols))
    if len(pivots) == n:
        return rows, pivots, {}
    if len(pivots) < len(cols):
        rows = _drop_columns(rows, len(cols), pivots)
    uses: dict[int, list[int]] = {}
    for p, prow in zip(pivots, reduced):
        rest = prow ^ (1 << p)  # the dependent columns that use pivot p
        while rest:
            low = rest & -rest
            uses.setdefault(cols[low.bit_length() - 1], []).append(cols[p])
            rest ^= low
    return rows, [cols[p] for p in pivots], {j: frozenset(ps) for j, ps in uses.items()}


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
    Cost: one OR over the rows, one remap pass over their set bits when
    some column is unused, O(m * rank) XORs of u-bit ints for the u used
    columns (see rref) and one pass to drop the dependent columns when some
    used column is no pivot.  The transcript holds the pivots and the
    dependent columns; nothing is built per unused column.
    """
    rows, pivots, dependent = _reduce_rows(sys.rows, sys.n, None)
    rank = len(pivots)
    if rank == sys.n:
        return sys, _identity_transcript(sys.n)
    return LinearSystem._from_rows(rank, rows, sys.next_id), ReductionTranscript._from_parts(
        sys.n, rank, pivots, dependent
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
    Both rules run on the system's rows and the result is built once, and
    it records privately that it is irreducible, so the lower bound runs no
    second rank test on it.
    Cost: one OR over the rows, one remap pass over their set bits when
    some column is unused, then the merge and O(m * rank) XORs (see rref)
    on u-bit ints for the u used columns, and one pass to drop the
    dependent columns when some used column is no pivot.  The transcript
    holds the pivots, the dependent columns and the merges; nothing walks
    or lists every declared column.
    """
    fresh = _FreshIds(sys.next_id)
    rows, kept, dependent = _reduce_rows(sys.rows, sys.n, fresh)
    if not fresh.events and len(kept) == sys.n:
        reduced, transcript = sys, _identity_transcript(sys.n)
    else:
        reduced = LinearSystem._from_rows(len(kept), rows, fresh.next_id)
        transcript = ReductionTranscript._from_parts(
            sys.n, len(kept), kept, dependent, fresh.events
        )
    vars(reduced)["_irreducible"] = True
    return reduced, transcript


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
