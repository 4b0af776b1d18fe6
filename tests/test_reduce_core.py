"""The row-oriented reduction core against its frozen column-walk reference.

Inputs are sparse systems whose declared n is up to four times the number
of columns in use, so most columns are all-zero, with repeated rows of equal
and of opposite right-hand side and integer or rational weights.  Every
public result must match the reference exactly: pivots and reduced rows,
equations with their ids and order, ``next_id`` and the whole transcript.
"""
from dataclasses import replace
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from maxlin import (
    F2Vector,
    LinearSystem,
    MaxlinError,
    apply_rule1,
    apply_rule2,
    make_irreducible,
    rank_and_basis,
    replay_transcript,
)
from maxlin.f2core import reverse_bits, rref
from maxlin.reduce import MergeEvent, ReductionTranscript

import reference_reduce as ref

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def sparse_systems(draw):
    """0-8 used columns scattered over a declared n of up to 4x as many."""
    used = draw(st.integers(0, 8))
    n = draw(st.integers(used, 4 * used + 1))
    cols = draw(st.permutations(range(n)))[:used]
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.integers(1, 6).map(Fraction),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]))
    rows = []
    if cols:
        masks = st.sets(st.sampled_from(cols), min_size=1).map(
            lambda js: sum(1 << j for j in js)
        )
        rows = draw(st.lists(st.tuples(masks, st.integers(0, 1), weights), max_size=14))
    # repeat some rows, keeping or flipping the right-hand side
    for mask, rhs, _ in draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else ():
        rows.append((mask, rhs ^ draw(st.integers(0, 1)), draw(weights)))
    order = draw(st.permutations(range(len(rows))))
    return LinearSystem.build(n, [(F2Vector(n, rows[i][0]), *rows[i][1:]) for i in order])


def assert_same_system(got: LinearSystem, want: LinearSystem) -> None:
    assert got == want
    assert got.ids() == want.ids()
    assert got.next_id == want.next_id


@PROPERTY
@given(sparse_systems(), st.lists(st.integers(0, 2**12 - 1), max_size=8))
def test_rref_matches_reference(sys, extra):
    rows = [eq.lhs.bits for eq in sys.equations]
    assert rref(rows, sys.n) == ref.rref(rows, sys.n)
    # dense rows, zero rows and repeats over n = 12
    assert rref(extra, 12) == ref.rref(extra, 12)
    pivots, _ = ref.rref(rows, sys.n)
    assert rank_and_basis(sys) == (len(pivots), tuple(pivots))


@PROPERTY
@given(sparse_systems())
def test_rules_match_reference(sys):
    got, got_tr = apply_rule1(sys)
    want, want_tr = ref.apply_rule1(sys)
    assert_same_system(got, want)
    assert got_tr == want_tr
    assert_same_system(apply_rule2(sys), ref.apply_rule2(sys))


@PROPERTY
@given(sparse_systems())
def test_make_irreducible_matches_reference(sys):
    got, got_tr = make_irreducible(sys)
    want, want_tr = ref.make_irreducible(sys)
    assert_same_system(got, want)
    assert got_tr == want_tr
    assert replay_transcript(got_tr, sys) == got
    # one round of rule 2 and rule 1 is already the fixed point
    assert make_irreducible(got)[1].is_identity()


def test_replay_after_a_cancellation_lowers_the_rank():
    # rows 0 and 2 cancel, so column 1 goes; restricted to column 0 first,
    # all three rows would share a left-hand side and fold in the wrong order
    sys = LinearSystem.build(2, [([0, 1], 0, 1), ([0], 0, 1), ([0, 1], 1, 1)])
    out, tr = make_irreducible(sys)
    assert [(eq.lhs.bits, eq.eq_id) for eq in out.equations] == [(1, 1)]
    assert replay_transcript(tr, sys) == out
    with pytest.raises(MaxlinError):
        ref.replay_transcript(tr, sys)


def test_replay_rejects_other_deletions():
    sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 1, 1)])
    _, tr = make_irreducible(sys)
    (j, deps), = tr.deleted_variables
    broken = ReductionTranscript(
        tr.original_n, tr.reduced_n, tr.kept_variables, ((j, deps - {0}),)
    )
    with pytest.raises(MaxlinError):
        replay_transcript(broken, sys)


@PROPERTY
@given(sparse_systems(), st.data())
def test_replay_rejects_a_shortened_log(sys, data):
    _, tr = make_irreducible(sys)
    if not tr.merge_log:
        return
    cut = data.draw(st.integers(0, len(tr.merge_log) - 1))
    log = tr.merge_log[:cut] + tr.merge_log[cut + 1:]
    broken = ReductionTranscript(
        tr.original_n, tr.reduced_n, tr.kept_variables, tr.deleted_variables, log
    )
    with pytest.raises(MaxlinError):
        replay_transcript(broken, sys)
    with pytest.raises(MaxlinError):
        ref.replay_transcript(broken, sys)


def _relabel(tr: ReductionTranscript, old: int, new: int) -> ReductionTranscript:
    swap = {old: new}
    log = tuple(
        MergeEvent(
            tuple(swap.get(i, i) for i in event.merged_ids),
            swap.get(event.surviving_id, event.surviving_id),
            event.weight,
        )
        for event in tr.merge_log
    )
    return replace(tr, merge_log=log)


def test_replay_rejects_a_relabeled_surviving_id():
    # rows 0, 1 and 3 fold into id 4, then 5; relabel either survivor (and
    # every later reference to it) with an id the reduction never hands out
    sys = LinearSystem.build(2, [([0], 0, 1), ([0], 0, 2), ([1], 0, 1), ([0], 1, 1)])
    out, tr = make_irreducible(sys)
    assert [event.surviving_id for event in tr.merge_log] == [4, 5]
    assert replay_transcript(tr, sys) == out
    for old in (4, 5):
        broken = _relabel(tr, old, 9)
        with pytest.raises(MaxlinError):
            replay_transcript(broken, sys)


def test_replay_of_an_identity_reduction_returns_the_input():
    sys = LinearSystem.build(3, [([0, 2], 1, 2), ([1], 0, 1), ([0], 0, Fraction(1, 3))])
    _, tr = make_irreducible(sys)
    assert tr.is_identity()
    assert replay_transcript(tr, sys) == sys


def test_cost_does_not_grow_with_declared_n():
    n = 10**6
    row = 1 | 1 << 500_000 | 1 << (n - 1)
    start = perf_counter()
    assert rref([row], n) == ([0], [row])
    # the column walk takes seconds here; the row elimination, microseconds
    assert perf_counter() - start < 1.0
    sys = LinearSystem.build(n, [(F2Vector(n, row), 1, 1)])
    out, tr = make_irreducible(sys)
    assert out.n == 1 and out.equations[0].lhs.bits == 1
    assert tr.kept_variables == (0,)
    assert len(tr.deleted_variables) == n - 1
    assert tr.deleted_variables[500_000 - 1] == (500_000, frozenset({0}))
    assert tr.deleted_variables[1] == (2, frozenset())


def _reverse_bits_loop(x: int, n: int) -> int:
    r = 0
    for _ in range(n):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


@PROPERTY
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n + 8) - 1))
))
def test_reverse_bits_and_support_match_the_bit_loops(case):
    n, x = case
    assert reverse_bits(x, n) == _reverse_bits_loop(x, n)
    bits = x & ((1 << n) - 1)
    v = F2Vector(n, bits)
    assert v.support() == tuple(j for j in range(n) if bits >> j & 1)
