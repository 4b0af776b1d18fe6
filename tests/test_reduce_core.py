"""The row-oriented reduction core against its frozen column-walk reference.

Inputs are sparse systems whose declared n is up to four times the number
of columns in use, so most columns are all-zero, with repeated rows of equal
and of opposite right-hand side and integer or rational weights, and
systems whose few used columns are spread over up to 64 times as many, with
dependent columns between and above the pivots.  Every
public result must match the reference exactly: pivots and reduced rows,
equations with their ids and order, ``next_id`` and the whole transcript.
"""
import functools
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from operator import xor
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
)
from maxlin.f2core import reverse_bits, rref
from maxlin.reduce import MergeEvent, ReductionTranscript

import reference_reduce as ref
from helpers import check_transcript

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
    assert [row[3] for row in got.rows] == [row[3] for row in want.rows]
    assert got.next_id == want.next_id


@PROPERTY
@given(sparse_systems(), st.lists(st.integers(0, 2**12 - 1), max_size=8))
def test_rref_matches_reference(sys, extra):
    rows = [eq.lhs.bits for eq in sys.equations]
    assert rref(rows, sys.n) == ref.rref(rows, sys.n)
    # dense rows, zero rows and repeats over n = 12
    assert rref(extra, 12) == ref.rref(extra, 12)


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
    check_transcript(sys, got, got_tr)
    # the reference replay projects before it merges, which rebuilds the
    # reduction's rows whenever no cancellation lowered the rank
    if len(ref.rref([row[0] for row in sys.rows], sys.n)[0]) == got.n:
        assert ref.replay_transcript(got_tr, sys) == got
    # one round of rule 2 and rule 1 is already the fixed point
    assert make_irreducible(got)[1] == ReductionTranscript(got.n, got.n, tuple(range(got.n)))


@st.composite
def used_column_systems(draw):
    """Up to 16 used columns spread over a declared n of up to 64 times as
    many.  The rows are either XORs of a few base rows, so that several used
    columns are dependent and lie between the pivots, or dense rows with
    dependent columns above them, as the benchmark's embedded oracle inputs
    have; XORs of base rows also repeat left-hand sides."""
    used = draw(st.sampled_from(range(1, 17)))
    n = draw(st.integers(used, 64 * used))
    cols = sorted(draw(st.lists(st.integers(0, n - 1), min_size=used, max_size=used,
                                unique=True)))
    if draw(st.booleans()):
        # base rows with distinct lowest bits at drawn columns; the other
        # columns above a base row's lowest bit are in it at random, or only
        # the first of those drawn
        order = draw(st.permutations(range(used)))
        lows = order[:draw(st.integers(1, min(6, used)))]
        others = sum(1 << j for j in order[len(lows):])
        sparse = draw(st.booleans())
        base = []
        for low in lows:
            above = draw(st.integers(0, 2**used - 1)) & others >> low + 1 << low + 1
            base.append(1 << low | (above & -above if sparse else above))
        picks = st.lists(st.sampled_from(base), min_size=1, max_size=3).map(
            lambda rows: functools.reduce(xor, rows)
        )
        masks = draw(st.lists(picks.filter(bool), min_size=len(base), max_size=24))
    else:
        free = draw(st.integers(1, used))
        sums = draw(st.lists(st.integers(1, 2**free - 1), min_size=used - free,
                             max_size=used - free))
        masks = []
        for mask in draw(st.lists(st.integers(1, 2**free - 1), min_size=free, max_size=24)):
            for j, s in enumerate(sums):
                mask |= ((mask & s).bit_count() & 1) << (free + j)
            masks.append(mask)
    weights = st.one_of(st.integers(1, 6), st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    rows = []
    for mask in masks:
        lhs = [cols[j] for j in range(used) if mask >> j & 1]
        rows.append((lhs, draw(st.integers(0, 1)), draw(weights)))
    return LinearSystem.build(n, rows)


@PROPERTY
@given(used_column_systems())
def test_rules_on_spread_used_columns_match_reference(sys):
    got, got_tr = apply_rule1(sys)
    want, want_tr = ref.apply_rule1(sys)
    assert_same_system(got, want)
    assert got_tr == want_tr
    got, got_tr = make_irreducible(sys)
    want, want_tr = ref.make_irreducible(sys)
    assert_same_system(got, want)
    assert got_tr == want_tr
    check_transcript(sys, got, got_tr)


@PROPERTY
@given(used_column_systems())
def test_reduction_transcripts_behave_as_constructed_ones(sys):
    # a reduction stores only the deleted columns that have dependencies and
    # lists every deleted column on first read; want is built by the
    # constructor from a read transcript (the reference's frozensets may
    # print their members in another order), and each check below starts
    # from a reduction's transcript that nobody has read yet
    for ours, theirs in ((apply_rule1, ref.apply_rule1), (make_irreducible, ref.make_irreducible)):
        read = ours(sys)[1]
        want = ReductionTranscript(
            read.original_n, read.reduced_n, read.kept_variables, read.deleted_variables,
            read.merge_log,
        )
        assert want == theirs(sys)[1]

        def fresh():
            tr = ours(sys)[1]
            assert "deleted_variables" not in vars(tr)
            return tr

        assert fresh() == want and want == fresh()
        assert hash(fresh()) == hash(want)
        assert repr(fresh()) == repr(want)
        assert replace(fresh()) == want
        assert replace(fresh(), merge_log=()) == replace(want, merge_log=())
        unpickled = pickle.loads(pickle.dumps(fresh()))
        assert unpickled == want and unpickled.deleted_variables == want.deleted_variables
        tr = fresh()
        assert tr.deleted_variables == want.deleted_variables
        # once read, the transcript holds the fields a constructed one holds
        assert list(vars(tr).items()) == list(vars(want).items())
        assert pickle.loads(pickle.dumps(tr)) == want


def test_replay_after_a_cancellation_lowers_the_rank():
    # rows 0 and 2 cancel, so column 1 goes; restricted to column 0 first,
    # as the reference replay does, all three rows would share a left-hand
    # side and fold in the wrong order
    sys = LinearSystem.build(2, [([0, 1], 0, 1), ([0], 0, 1), ([0, 1], 1, 1)])
    out, tr = make_irreducible(sys)
    assert [(eq.lhs.bits, eq.eq_id) for eq in out.equations] == [(1, 1)]
    assert tr.merge_log == (MergeEvent((0, 2), None, Fraction(0)),)
    with pytest.raises(MaxlinError):
        ref.replay_transcript(tr, sys)
    # the helper merges by id before it projects
    check_transcript(sys, out, tr)


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
    # rows 0, 1 and 3 fold into id 4, then 5
    sys = LinearSystem.build(2, [([0], 0, 1), ([0], 0, 2), ([1], 0, 1), ([0], 1, 1)])
    out, tr = make_irreducible(sys)
    assert [event.surviving_id for event in tr.merge_log] == [4, 5]
    assert ref.replay_transcript(tr, sys) == out
    # survivor 4 relabelled, but not where the next merge reads it
    first, second = tr.merge_log
    broken = replace(tr, merge_log=(replace(first, surviving_id=9), second))
    with pytest.raises(MaxlinError):
        ref.replay_transcript(broken, sys)
    # the last survivor relabelled: the replay keeps the other id
    assert ref.replay_transcript(_relabel(tr, 5, 9), sys) != out
    check_transcript(sys, out, tr)


def test_check_transcript_rejects_what_the_reference_replay_misses():
    # column 2 is the sum of columns 0 and 1; recorded as column 1 alone
    sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 1, 1)])
    out, tr = make_irreducible(sys)
    assert tr.deleted_variables == ((2, frozenset({0, 1})),)
    broken = replace(tr, deleted_variables=((2, frozenset({1})),))
    assert ref.replay_transcript(broken, sys) == out
    with pytest.raises(AssertionError, match=r"column 2 is not the sum of columns \[1\]"):
        check_transcript(sys, out, broken)
    # survivor 4 relabelled to 9 in every event that names it
    sys = LinearSystem.build(2, [([0], 0, 1), ([0], 0, 2), ([1], 0, 1), ([0], 1, 1)])
    out, tr = make_irreducible(sys)
    broken = _relabel(tr, 4, 9)
    assert ref.replay_transcript(broken, sys) == out
    with pytest.raises(AssertionError, match="survivor 9 is not fresh id 4"):
        check_transcript(sys, out, broken)


def test_replay_of_an_identity_reduction_returns_the_input():
    sys = LinearSystem.build(3, [([0, 2], 1, 2), ([1], 0, 1), ([0], 0, Fraction(1, 3))])
    _, tr = make_irreducible(sys)
    assert tr == ReductionTranscript(3, 3, (0, 1, 2))
    assert ref.replay_transcript(tr, sys) == sys


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
    # 800 rows of 1-3 variables on the 400 lowest columns: the rules take a
    # few ms, and listing every deleted column as well costs 0.18-0.39 s
    rng = random.Random(7)
    rows = [(rng.sample(range(400), rng.randint(1, 3)), rng.randint(0, 1), 1) for _ in range(800)]
    sys = LinearSystem.build(n, rows)
    for rule in (make_irreducible, apply_rule1):
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            out, tr = rule(sys)
            best = min(best, perf_counter() - start)
        assert out.n < 400 and best < 0.1, (rule.__name__, best)
        assert len(tr.deleted_variables) == n - out.n


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
