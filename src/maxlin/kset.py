"""Constructive search for sum-independent subsets of a vector set.

Given M in F2^n containing the zero vector and a basis, with |M| < 2^n and
|M|^k <= 2^n, finds k+1 vectors of M such that no sum of two or more of
them lies in M.  For k = 1 a pair scan suffices; for larger k a greedy
phase extends a partial answer inside a maintained change of coordinates,
and when it stalls the search recurses on the quotient modulo the span of
the partial answer, halving the set each time.

A vector is a packed int, bit j holding coordinate j, as in
``LinearSystem.rows``: members, the search's coordinates and its answer are
all ints.  The search keeps its coordinates bit-reversed, so that the
order of the ints is the lexicographic order it picks by, and a greedy
level is a few C-level maps over the set and one ``min``.  Every step costs
a polynomial in n, |M| and k: a greedy level is one pass over the set, and
checking an answer is one elimination over its k+1 vectors plus one
reduction of each member against them, O(|M| (k+1)) big-int XORs, never a
walk over the 2^(k+1) subsets.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import xor
from typing import Iterable

from .errors import MaxlinError, PreconditionError
from .f2core import _check_dimension, _check_packed, _is_int, _pivot_basis, reverse_bits

__all__ = ["VectorSet", "find_kset", "verify_kset"]


@dataclass(frozen=True)
class VectorSet:
    """A deduplicated set of vectors of F2^n, each an int whose bit j is
    coordinate j; a member that is not an int that fits n bits raises."""

    n: int
    vectors: frozenset[int]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        object.__setattr__(self, "vectors", frozenset(self.vectors))
        for v in self.vectors:
            _check_packed(self.n, v)

    @classmethod
    def _spanning(cls, n: int, vectors: Iterable[int]) -> VectorSet:
        """The set of vectors that the caller knows fit n bits and span F2^n,
        neither of which is checked again."""
        members = cls.__new__(cls)
        vars(members).update(n=n, vectors=frozenset(vectors), _spans=True)
        return members

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v: int) -> bool:
        return v in self.vectors

    def spans(self) -> bool:
        """True when the set contains a basis of F2^n; computed once per set."""
        return self._spans

    @cached_property
    def _spans(self) -> bool:
        return len(_pivot_basis(self.vectors, self.n)) == self.n


def _search(elements: list[tuple[int, int]], n: int, k: int) -> list[int]:
    """One recursion level of the greedy-plus-quotient search.

    Coordinates are kept bit-reversed: coordinate j is bit n - 1 - j, so
    the coordinates from ``level`` up are the low n - level bits, and the
    order of coordinate tuples (coordinate 0 most significant) is the order
    of the ints.  The state is the list ``cur`` of coordinates, indexed like
    ``elements`` (coordinates, key: the top-level vector bit-reversed), and
    ``chosen``, the picked indices: chosen element i is unit vector i.  The
    zero vector is always an element, so the elements alone in their residue
    class (coordinates from ``level`` up) with a nonzero one are exactly the
    unchosen nonzero ones the greedy phase may take.  The pick is the one
    whose coordinates come first, which is one ``min`` over them:
    coordinates stay distinct, so it is unique.  A pick becomes unit vector
    ``level`` by a coordinate swap and coordinate additions, fixing the
    units below ``level``.  A stalled phase recurses on the quotient, whose
    representatives come first in the top-level coordinates: the least
    top-level key of each class.
    """
    cur = [bits for bits, _ in elements]
    chosen: list[int] = []
    while len(chosen) < k + 1:
        level = len(chosen)
        unit = 1 << (n - 1 - level)
        rest = (unit << 1) - 1  # coordinates level..n-1
        residues = list(map(rest.__and__, cur))
        counts = Counter(residues)
        counts[0] = 0  # the zero residue is never a pick's
        singles = compress(cur, map((1).__eq__, map(counts.__getitem__, residues)))
        best = min(singles, default=None)
        if best is None:
            break
        pick = cur.index(best)
        # swap coordinate level with the pick's lowest coordinate from level
        # up, then add coordinate level into the pick's other coordinates:
        # the change of each element depends on those two coordinates only
        pivot = 1 << (cur[pick] & rest).bit_length() - 1
        clear = cur[pick] ^ pivot
        both = pivot | unit
        if pivot == unit:
            change = {0: 0, unit: clear}
        else:
            change = {0: 0, both: clear, pivot: both ^ clear, unit: both}
        cur = list(map(xor, cur, map(change.__getitem__, map(both.__and__, cur))))
        chosen.append(pick)
    if len(chosen) == k + 1:
        return [elements[i][1] for i in chosen]

    level = len(chosen)
    rest = (1 << (n - level)) - 1
    groups: dict[int, list[int]] = {}
    for x, (_, key) in zip(cur, elements):
        groups.setdefault(x & rest, []).append(key)
    # A stalled phase leaves no singleton class with a nonzero residue, and
    # the zero class holds the zero element and every chosen one, so each
    # class has two or more elements and the quotient at most halves the
    # set; under find_kset's entry bounds its dimension stays above k.
    quotient_n = n - level
    if level == 0 or quotient_n <= k or any(len(group) < 2 for group in groups.values()):
        raise MaxlinError(
            f"internal error: greedy phase stalled at level {level} in dimension {n} for k={k}"
        )
    quotient = [(suffix, min(group)) for suffix, group in sorted(groups.items())]
    return _search(quotient, quotient_n, k)


def _pair_scan(members: VectorSet) -> list[int]:
    ordered = sorted(members.vectors, key=lambda v: reverse_bits(v, members.n))
    for i, u in enumerate(ordered):
        for w in ordered[i + 1 :]:
            if u ^ w not in members:
                return [u, w]
    raise MaxlinError("internal error: every pairwise sum stayed in the set")


def find_kset(members: VectorSet, k: int) -> list[int]:
    """Find k+1 vectors of M, as ints, no sum of two or more of which lies in M.

    Preconditions (each with its own error condition code): M contains the
    zero vector and a basis, |M| < 2^n, k+1 <= |M|, and |M|^k <= 2^n — the
    last checked in exact integer arithmetic.  The basis check is
    ``members.spans()``, computed once per set, so a caller that has asked
    already pays nothing here.  The search is polynomial in n, |M| and k,
    and the answer passes through verify_kset, O(|M| (k+1)) XORs, before it
    is returned.
    """
    if not _is_int(k) or k < 1:
        raise PreconditionError("k_not_positive", f"k must be a positive integer, got {k!r}")
    size = len(members)
    n = members.n
    if 0 not in members:
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
        keys = [reverse_bits(v, n) for v in members.vectors]
        result = [reverse_bits(key, n) for key in _search(list(zip(keys, keys)), n, k)]
    if not verify_kset(members, result):
        raise MaxlinError("internal error: constructed set failed verification")
    return result


def verify_kset(members: VectorSet, candidate: Iterable[int]) -> bool:
    """Accept iff the candidate vectors (packed ints) are distinct members of
    M and none of the sums of two or more of them lies in M.

    Two or more distinct members that are linearly dependent always have a
    sum of two or more of them in M, whether or not 0 is in M: a zero sum
    over one of them puts 0, hence 0 + c = c, in M, and a zero sum over
    three or more makes the sum of all but one of them equal that one (a
    zero sum over two is a repeat).  So the check eliminates over the
    candidate and rejects a dependent one.  An independent candidate writes
    each vector of its span in one way, so a member of M other than 0 and
    the candidates that reduces to 0 against it is a sum of two or more of
    them, and the check rejects it.  Cost: O(|M| (k+1)) big-int XORs for
    k+1 candidates, where the direct check would walk 2^(k+1) subsets.
    """
    vectors = list(candidate)
    if len(set(vectors)) != len(vectors) or any(v not in members for v in vectors):
        return False
    if len(vectors) < 2:
        return True
    basis = _pivot_basis(vectors, members.n)
    if len(basis) != len(vectors):
        return False
    for x in members.vectors - {0, *vectors}:
        while x:
            pivot = basis.get(x & -x)
            if pivot is None:
                break
            x ^= pivot
        else:
            return False
    return True
