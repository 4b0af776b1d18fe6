"""Constructive search for sum-independent subsets of a vector set.

Given M in F2^n containing the zero vector and a basis, with |M| < 2^n and
|M|^k <= 2^n, finds k+1 vectors of M such that no sum of two or more of
them lies in M.  For k = 1 a pair scan suffices; for larger k a greedy
phase extends a partial answer inside a maintained change of coordinates,
and when it stalls the search recurses on the quotient modulo the span of
the partial answer, halving the set each time.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import MaxlinError, PreconditionError
from .f2core import F2Vector, _pivot_basis, reverse_bits

__all__ = ["VectorSet", "find_kset", "verify_kset"]


@dataclass(frozen=True)
class VectorSet:
    """A deduplicated set of F2 vectors of one dimension."""

    n: int
    vectors: frozenset[F2Vector]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", frozenset(self.vectors))
        for v in self.vectors:
            if v.n != self.n:
                raise MaxlinError(f"vector of dimension {v.n} in a set of dimension {self.n}")

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable[F2Vector]) -> VectorSet:
        return cls(n, frozenset(vectors))

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v: F2Vector) -> bool:
        return v in self.vectors

    def bit_patterns(self) -> frozenset[int]:
        return frozenset(v.bits for v in self.vectors)

    def spans(self) -> bool:
        return len(_pivot_basis(v.bits for v in self.vectors)) == self.n


class _Tracked:
    """One set element: its current coordinates and the top-level vector it
    stands for."""

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
    """Change coordinates so the picked element becomes unit vector `level`.

    The pick has a set bit at or above `level` (see _search).  The change is
    a coordinate swap plus coordinate additions, all fixing the units below
    `level`, applied to every element.
    """
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
    """One recursion level of the greedy-plus-quotient search.

    The zero vector is always an element, so an element whose coordinates
    from `level` up are all zero shares that residue with it; the elements
    alone in their residue class with a nonzero one are exactly the
    unchosen nonzero ones the greedy phase may take.  Coordinates stay
    distinct, so the smallest reversed key picks one element.
    """
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
    # A stalled phase leaves no singleton class with a nonzero residue, and
    # the zero class holds the zero element and every chosen one, so each
    # class has two or more elements and the quotient at most halves the
    # set; under find_kset's entry bounds its dimension stays above k.
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
    """Find k+1 vectors of M no sum of two or more of which lies in M.

    Preconditions (each with its own error condition code): M contains the
    zero vector and a basis, |M| < 2^n, k+1 <= |M|, and |M|^k <= 2^n — the
    last checked in exact integer arithmetic.
    """
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
    """Accept iff the candidate vectors are distinct members of M and none of
    the sums of two or more of them lies in M."""
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
