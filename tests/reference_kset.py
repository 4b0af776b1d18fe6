"""Frozen reference for the sum-independent subset search and its check.

``verify_kset`` walks all 2^s subsets of an s-vector candidate, and
``_search`` picks each greedy element by its reversed-bit key.  Tests compare
``maxlin.kset`` against them: the same verdicts and the same found lists.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable

from maxlin import F2Vector, MaxlinError, PreconditionError, VectorSet
from maxlin.f2core import reverse_bits


class _Tracked:
    __slots__ = ("cur", "orig")

    def __init__(self, bits: int, orig: F2Vector):
        self.cur = bits
        self.orig = orig


def _swap_bits(x: int, p: int, q: int) -> int:
    bp = x >> p & 1
    bq = x >> q & 1
    if bp != bq:
        x ^= (1 << p) | (1 << q)
    return x


def _extend(items: list[_Tracked], level: int, pick: _Tracked) -> None:
    tail = pick.cur >> level
    pivot = level + (tail & -tail).bit_length() - 1
    if pivot != level:
        for item in items:
            item.cur = _swap_bits(item.cur, pivot, level)
    clear_mask = pick.cur & ~(1 << level)
    if clear_mask:
        for item in items:
            if item.cur >> level & 1:
                item.cur ^= clear_mask


def _search(elements: list[tuple[int, F2Vector]], n: int, k: int) -> list[F2Vector]:
    items = [_Tracked(bits, orig) for bits, orig in elements]
    chosen: list[_Tracked] = []
    while len(chosen) < k + 1:
        level = len(chosen)
        counts = Counter(item.cur >> level for item in items)
        pick = min(
            (item for item in items if item.cur >> level and counts[item.cur >> level] == 1),
            key=lambda item: reverse_bits(item.cur, n),
            default=None,
        )
        if pick is None:
            break
        _extend(items, level, pick)
        chosen.append(pick)
    if len(chosen) == k + 1:
        return [item.orig for item in chosen]

    level = len(chosen)
    groups: dict[int, list[_Tracked]] = {}
    for item in items:
        groups.setdefault(item.cur >> level, []).append(item)
    quotient_n = n - level
    if level == 0 or quotient_n <= k or any(len(group) < 2 for group in groups.values()):
        raise MaxlinError(
            f"internal error: greedy phase stalled at level {level} in dimension {n} for k={k}"
        )
    quotient = [
        (suffix, min(group, key=lambda item: item.orig.lex_key()).orig)
        for suffix, group in sorted(groups.items())
    ]
    return _search(quotient, quotient_n, k)


def _pair_scan(members: VectorSet) -> list[F2Vector]:
    patterns = members.bit_patterns()
    ordered = sorted(members.vectors, key=F2Vector.lex_key)
    for i, u in enumerate(ordered):
        for w in ordered[i + 1 :]:
            if u.bits ^ w.bits not in patterns:
                return [u, w]
    raise MaxlinError("internal error: every pairwise sum stayed in the set")


def find_kset(members: VectorSet, k: int) -> list[F2Vector]:
    if not isinstance(k, int) or k < 1:
        raise PreconditionError("k_not_positive", f"k must be a positive integer, got {k!r}")
    size = len(members)
    n = members.n
    if F2Vector.zero(n) not in members:
        raise PreconditionError("zero_missing", "the zero vector must belong to the set")
    if size >= 2**n:
        raise PreconditionError("set_too_large", f"need |M| < 2^{n}, got {size}")
    if not members.spans():
        raise PreconditionError("no_basis", "the set must contain a basis of the full space")
    if k + 1 > size:
        raise PreconditionError("set_too_small", f"need k+1 <= |M|, got k={k}, |M|={size}")
    if size**k > 2**n:
        raise PreconditionError(
            "threshold_exceeded", f"need |M|^k <= 2^n, got {size}^{k} > 2^{n}"
        )
    if k == 1:
        result = _pair_scan(members)
    else:
        elements = sorted(
            ((v.bits, v) for v in members.vectors), key=lambda e: reverse_bits(e[0], n)
        )
        result = _search(elements, n, k)
    if not verify_kset(members, result):
        raise MaxlinError("internal error: constructed set failed verification")
    return result


def verify_kset(members: VectorSet, candidate: Iterable[F2Vector]) -> bool:
    vectors = list(candidate)
    if len(set(vectors)) != len(vectors):
        return False
    if any(v.n != members.n or v not in members for v in vectors):
        return False
    patterns = members.bit_patterns()
    for size in range(2, len(vectors) + 1):
        for combo in combinations(vectors, size):
            total = 0
            for v in combo:
                total ^= v.bits
            if total in patterns:
                return False
    return True
