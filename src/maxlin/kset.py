"""Constructive search for sum-independent subsets of a vector set.

Given M in F2^n containing the zero vector and a basis, with |M| < 2^n and
|M|^k <= 2^n, finds k+1 vectors of M such that no sum of two or more of
them lies in M.  For k = 1 a pair scan suffices; for larger k a greedy
phase extends a partial answer inside a maintained change of coordinates,
and when it stalls the search recurses on the quotient modulo the span of
the partial answer, halving the set each time.

Every step costs a polynomial in n, |M| and k: a greedy level is one pass
over the set, and checking an answer is one elimination over its k+1
vectors plus one reduction of each member against them, O(|M| (k+1))
big-int XORs, never a walk over the 2^(k+1) subsets.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import MaxlinError, PreconditionError
from .f2core import F2Vector, _pivot_basis

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

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v: F2Vector) -> bool:
        return v in self.vectors

    def bit_patterns(self) -> frozenset[int]:
        return frozenset(v.bits for v in self.vectors)

    def spans(self) -> bool:
        """True when the set contains a basis of F2^n; computed once per set."""
        return self._spans

    @cached_property
    def _spans(self) -> bool:
        return len(_pivot_basis((v.bits for v in self.vectors), self.n)) == self.n


def _search(elements: list[tuple[int, F2Vector]], n: int, k: int) -> list[F2Vector]:
    """One recursion level of the greedy-plus-quotient search.

    The state is the list ``cur`` of coordinates, indexed like ``elements``
    (coordinates, top-level vector), and ``chosen``, the picked indices:
    chosen element i is unit vector i.  The zero vector is always an
    element, so the elements alone in their residue class (coordinates from
    ``level`` up) with a nonzero one are exactly the unchosen nonzero ones
    the greedy phase may take.  The pick is the one whose coordinates come
    first lexicographically (coordinate 0 most significant): coordinates
    stay distinct, so it is unique, and x beats the current pick p exactly
    when x has a 0 at the lowest bit of x ^ p.  A pick becomes unit vector
    ``level`` by a coordinate swap and coordinate additions, fixing the
    units below ``level``.  A stalled phase recurses on the quotient.
    """
    cur = [bits for bits, _ in elements]
    chosen: list[int] = []
    while len(chosen) < k + 1:
        level = len(chosen)
        counts = Counter(x >> level for x in cur)
        pick = None
        for i, x in enumerate(cur):
            residue = x >> level
            if residue and counts[residue] == 1:
                if pick is None:
                    pick = i
                else:
                    diff = x ^ cur[pick]
                    if not x & diff & -diff:
                        pick = i
        if pick is None:
            break
        tail = cur[pick] >> level
        pivot = level + (tail & -tail).bit_length() - 1
        if pivot != level:
            swap = 1 << pivot | 1 << level
            cur = [x ^ swap if (x >> pivot ^ x >> level) & 1 else x for x in cur]
        clear = cur[pick] & ~(1 << level)
        if clear:
            cur = [x ^ clear if x >> level & 1 else x for x in cur]
        chosen.append(pick)
    if len(chosen) == k + 1:
        return [elements[i][1] for i in chosen]

    level = len(chosen)
    groups: dict[int, list[F2Vector]] = {}
    for x, (_, orig) in zip(cur, elements):
        groups.setdefault(x >> level, []).append(orig)
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
        (suffix, min(group, key=F2Vector.lex_key)) for suffix, group in sorted(groups.items())
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
    last checked in exact integer arithmetic.  The basis check is
    ``members.spans()``, computed once per set, so a caller that has asked
    already pays nothing here.  The search is polynomial in n, |M| and k,
    and the answer passes through verify_kset, O(|M| (k+1)) XORs, before it
    is returned.
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
        result = _search([(v.bits, v) for v in members.vectors], n, k)
    if not verify_kset(members, result):
        raise MaxlinError("internal error: constructed set failed verification")
    return result


def verify_kset(members: VectorSet, candidate: Iterable[F2Vector]) -> bool:
    """Accept iff the candidate vectors are distinct members of M and none of
    the sums of two or more of them lies in M.

    Two or more distinct members that are linearly dependent always have a
    sum of two or more of them in M, whether or not 0 is in M: a zero sum
    over one of them puts 0, hence 0 + c = c, in M, and a zero sum over
    three or more makes the sum of all but one of them equal that one (a
    zero sum over two is a repeat).  So the check
    eliminates over the candidate, tracking which candidates make up each
    basis row, rejects a dependent one, and then rejects when a member of M
    lies in the span with a representation of two or more candidates —
    unique, as the candidate is independent.  Cost: O(|M| (k+1)) big-int
    XORs for k+1 candidates, where the direct check would walk 2^(k+1)
    subsets.
    """
    vectors = list(candidate)
    if len(set(vectors)) != len(vectors):
        return False
    if any(v.n != members.n or v not in members for v in vectors):
        return False
    if len(vectors) < 2:
        return True
    # lowest set bit -> (row, bit mask of the candidates summing to it)
    basis: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(vectors):
        row, used = v.bits, 1 << i
        while row:
            low = row & -row
            entry = basis.get(low)
            if entry is None:
                basis[low] = (row, used)
                break
            row ^= entry[0]
            used ^= entry[1]
        else:
            return False
    for x in (v.bits for v in members.vectors):
        used = 0
        while x:
            entry = basis.get(x & -x)
            if entry is None:
                break
            x ^= entry[0]
            used ^= entry[1]
        else:
            if used & (used - 1):
                return False
    return True
