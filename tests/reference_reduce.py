"""Frozen reference for the reduction rules: the column-walk implementation.

``rref`` tests every row at every declared column, so it costs O(n m)
big-int shifts; rule 1 rebuilds each row with a loop over every kept
column, and the fixed point builds a full ``LinearSystem`` after every
rule.  Tests compare the row-oriented core in ``maxlin.reduce`` and
``maxlin.f2core`` against it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from maxlin import DimensionMismatchError, Equation, F2Vector, LinearSystem, MaxlinError
from maxlin.reduce import MergeEvent, ReductionTranscript


def rref(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    work = list(rows)
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(n):
        pivot_at = None
        for i, row in enumerate(work):
            if row >> col & 1:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        prow = work.pop(pivot_at)
        for i in range(len(work)):
            if work[i] >> col & 1:
                work[i] ^= prow
        for i in range(len(reduced)):
            if reduced[i] >> col & 1:
                reduced[i] ^= prow
        pivots.append(col)
        reduced.append(prow)
    return pivots, reduced


def _identity_transcript(n: int) -> ReductionTranscript:
    return ReductionTranscript(n, n, tuple(range(n)))


def _merge_pair(a: Equation, b: Equation, new_id: int) -> Equation | None:
    if a.rhs == b.rhs:
        return Equation(a.lhs, a.rhs, a.weight + b.weight, new_id)
    if a.weight == b.weight:
        return None
    keep = a if a.weight > b.weight else b
    return Equation(a.lhs, keep.rhs, abs(a.weight - b.weight), new_id)


def _apply_rule2_logged(sys: LinearSystem) -> tuple[LinearSystem, tuple[MergeEvent, ...]]:
    groups: dict[int, list[Equation]] = {}
    for eq in sys.equations:
        groups.setdefault(eq.lhs.bits, []).append(eq)
    if all(len(g) == 1 for g in groups.values()):
        return sys, ()
    next_id = sys.next_id
    out: list[Equation] = []
    events: list[MergeEvent] = []
    for eqs in groups.values():
        if len(eqs) == 1:
            out.append(eqs[0])
            continue
        cur: Equation | None = eqs[0]
        for nxt in eqs[1:]:
            if cur is None:
                cur = nxt
                continue
            merged = _merge_pair(cur, nxt, next_id)
            if merged is None:
                events.append(MergeEvent((cur.eq_id, nxt.eq_id), None, Fraction(0)))
            else:
                events.append(MergeEvent((cur.eq_id, nxt.eq_id), merged.eq_id, merged.weight))
                next_id += 1
            cur = merged
        if cur is not None:
            out.append(cur)
    return LinearSystem(sys.n, tuple(out), next_id), tuple(events)


def apply_rule2(sys: LinearSystem) -> LinearSystem:
    merged, _ = _apply_rule2_logged(sys)
    return merged


def apply_rule1(sys: LinearSystem) -> tuple[LinearSystem, ReductionTranscript]:
    pivots, reduced_rows = rref([eq.lhs.bits for eq in sys.equations], sys.n)
    rank = len(pivots)
    if rank == sys.n:
        return sys, _identity_transcript(sys.n)
    kept = tuple(pivots)
    pivot_set = set(pivots)
    deleted = []
    for j in range(sys.n):
        if j in pivot_set:
            continue
        deps = frozenset(pivots[r] for r in range(rank) if reduced_rows[r] >> j & 1)
        deleted.append((j, deps))
    new_eqs = []
    for eq in sys.equations:
        bits = 0
        for new_idx, old in enumerate(kept):
            if eq.lhs.bits >> old & 1:
                bits |= 1 << new_idx
        new_eqs.append(Equation(F2Vector(rank, bits), eq.rhs, eq.weight, eq.eq_id))
    out = LinearSystem(rank, tuple(new_eqs), sys.next_id)
    return out, ReductionTranscript(sys.n, rank, kept, tuple(deleted))


def make_irreducible(sys: LinearSystem) -> tuple[LinearSystem, ReductionTranscript]:
    kept_map = list(range(sys.n))
    deleted_all: list[tuple[int, frozenset[int]]] = []
    merges_all: list[MergeEvent] = []
    cur = sys
    while True:
        merged, events = _apply_rule2_logged(cur)
        projected, tr = apply_rule1(merged)
        if not events and not tr.deleted_variables:
            cur = projected
            break
        merges_all.extend(events)
        if tr.deleted_variables:
            deleted_all.extend(
                (kept_map[j], frozenset(kept_map[i] for i in deps))
                for j, deps in tr.deleted_variables
            )
            kept_map = [kept_map[p] for p in tr.kept_variables]
        cur = projected
    transcript = ReductionTranscript(
        sys.n, cur.n, tuple(kept_map), tuple(deleted_all), tuple(merges_all)
    )
    return cur, transcript


def replay_transcript(tr: ReductionTranscript, original: LinearSystem) -> LinearSystem:
    if original.n != tr.original_n:
        raise DimensionMismatchError(
            f"system has {original.n} variables, transcript expects {tr.original_n}"
        )
    groups: dict[int, list[Equation]] = {}
    for eq in original.equations:
        bits = 0
        for new_idx, old in enumerate(tr.kept_variables):
            if eq.lhs.bits >> old & 1:
                bits |= 1 << new_idx
        projected = Equation(F2Vector(tr.reduced_n, bits), eq.rhs, eq.weight, eq.eq_id)
        groups.setdefault(bits, []).append(projected)
    log = list(tr.merge_log)
    consumed = 0
    out: list[Equation] = []
    for eqs in groups.values():
        cur: Equation | None = eqs[0]
        for nxt in eqs[1:]:
            if cur is None:
                cur = nxt
                continue
            if consumed == len(log):
                raise MaxlinError("transcript merge log ended early")
            event = log[consumed]
            consumed += 1
            if event.merged_ids != (cur.eq_id, nxt.eq_id):
                raise MaxlinError("transcript merge order mismatch")
            new_id = 0 if event.surviving_id is None else event.surviving_id
            merged = _merge_pair(cur, nxt, new_id)
            if (merged is None) != (event.surviving_id is None):
                raise MaxlinError("transcript merge outcome mismatch")
            if merged is not None and merged.weight != event.weight:
                raise MaxlinError("transcript merge weight mismatch")
            cur = merged
        if cur is not None:
            out.append(cur)
    if consumed != len(log):
        raise MaxlinError("transcript merge log has unused entries")
    return LinearSystem(tr.reduced_n, tuple(out))
