"""The sum-independent subset search and its check against their frozen
enumeration reference.

``verify_kset`` must give the reference's verdict on sets with and without
the zero vector, for candidates of 0-8 vectors that mix members, non-members,
the zero vector, repeats, patterns that do not fit the dimension, dependent
sets and independent ones.  ``find_kset`` must return the reference's list,
in order, on random, paired (quotient-recursing) and dense in-regime sets.
The reference reads sets of ``F2Vector``; ``as_vectors`` hands it the same
sets in that form, and ``ref_find`` turns its answer back into ints.
"""
import random
from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings, strategies as st

from maxlin import F2Vector, VectorSet, find_kset, kset, verify_kset
from maxlin.f2core import _pivot_basis

from helpers import paired_vectorset, random_vectorset
import reference_kset as ref

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _independent(rows: list[int], n: int) -> bool:
    return len(_pivot_basis(rows, n)) == len(rows)


@dataclass(frozen=True)
class F2VectorSet:
    """The ``F2Vector`` form of a ``VectorSet``, which the frozen reference
    reads: ``vectors``, membership, ``bit_patterns()`` and ``spans()``."""

    n: int
    vectors: frozenset

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v) -> bool:
        return v in self.vectors

    def bit_patterns(self) -> frozenset:
        return frozenset(v.bits for v in self.vectors)

    def spans(self) -> bool:
        return len(_pivot_basis(self.bit_patterns(), self.n)) == self.n


def as_vectors(members: VectorSet) -> F2VectorSet:
    return F2VectorSet(members.n, frozenset(F2Vector(members.n, b) for b in members.vectors))


def ref_verify(members: VectorSet, candidate: list[int]) -> bool:
    """The reference's verdict; a pattern wider than n becomes a vector of
    its own width, which the reference rejects as of another dimension."""
    n = members.n
    vectors = [F2Vector(max(n, b.bit_length()), b) for b in candidate]
    return ref.verify_kset(as_vectors(members), vectors)


def ref_find(members: VectorSet, k: int) -> list[int]:
    return [v.bits for v in ref.find_kset(as_vectors(members), k)]


@st.composite
def verify_cases(draw):
    """A set of up to 38 vectors over n <= 16 (zero vector or not) and a 0-8
    vector candidate."""
    n = draw(st.sampled_from(range(1, 17)))
    # uniform members: drawn integers crowd into the low coordinates, where
    # every sum of an independent candidate would land in the set
    rng = random.Random(draw(SEEDS))
    bits = {rng.randrange(1, 2**n) for _ in range(draw(st.integers(0, 30)))}
    if draw(st.booleans()):
        bits.add(0)
    kind = draw(st.sampled_from(("arbitrary", "members", "independent", "dependent")))
    if kind == "arbitrary" or not bits:
        cand = draw(st.lists(st.integers(0, 2**n - 1), max_size=8))
    elif kind == "members":
        cand = draw(st.lists(st.sampled_from(sorted(bits)), max_size=8))
    else:
        size = draw(st.integers(2, 8))
        cand = []
        while len(cand) < min(size, n):
            b = rng.randrange(1, 2**n)
            if _independent(cand + [b], n):
                cand.append(b)
        bits.update(cand)
        if len(cand) >= 2:
            # a sum of two or more of them, put in the set and, for a
            # dependent candidate, in the candidate too
            parts = draw(st.lists(st.sampled_from(cand), min_size=2, unique=True))
            total = 0
            for b in parts:
                total ^= b
            if kind == "dependent":
                cand.insert(draw(st.integers(0, len(cand))), total)
            if kind == "dependent" or draw(st.integers(0, 2)) == 0:
                bits.add(total)
    if draw(st.integers(0, 9)) == 0:
        cand.append(draw(st.integers(2**n, 2 ** (n + 2) - 1)))
    return VectorSet(n, bits), cand


@PROPERTY
@given(verify_cases())
def test_verify_kset_matches_the_enumeration(case):
    members, candidate = case
    assert verify_kset(members, candidate) == ref_verify(members, candidate)


def test_verify_kset_cases_reach_both_verdicts():
    # the dependent-candidate argument needs no zero vector in the set
    members = VectorSet(4, [0b0001, 0b0010, 0b0011, 0b1100])
    dependent = [0b0001, 0b0010, 0b0011]
    assert not verify_kset(members, dependent)
    assert not ref_verify(members, dependent)
    independent = [0b0001, 0b1100]
    assert verify_kset(members, independent)
    assert ref_verify(members, independent)
    wide = [0b0001, 0b10000]
    assert not verify_kset(members, wide)
    assert not ref_verify(members, wide)


def dense_vectorset(rng: random.Random) -> tuple[VectorSet, int]:
    """Random dense vectors over n 20-60 plus zero, with k 2-6, |M| > n and
    |M|^k <= 2^n; half the draws also hold the unit vectors."""
    while True:
        n = rng.randint(20, 60)
        k = rng.randint(2, 6)
        largest = 4 * n
        while largest**k > 2**n:
            largest -= 1
        if largest < n + 1:
            continue
        size = rng.randint(n + 1, largest)
        bits = {0}
        if rng.random() < 0.5:
            bits.update(1 << j for j in range(n))
        while len(bits) < size:
            bits.add(rng.getrandbits(n))
        members = VectorSet(n, bits)
        if members.spans():
            return members, k


@PROPERTY
@given(SEEDS, st.sampled_from((random_vectorset, paired_vectorset, dense_vectorset)))
def test_find_kset_matches_the_reference(seed, draw_set):
    members, k = draw_set(random.Random(seed))
    assert find_kset(members, k) == ref_find(members, k)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_find_kset_matches_the_reference_through_the_quotient(seed):
    members, k = paired_vectorset(random.Random(seed))
    with mock.patch.object(kset, "_search", wraps=kset._search) as search:
        found = find_kset(members, k)
    assert search.call_count >= 2  # the greedy phase stalled and recursed
    assert found == ref_find(members, k)
