"""The row-based marking loop against its frozen one-system-per-mark reference.

Inputs are dense systems over up to 7 used columns plus a few all-zero
ones, with repeated left-hand sides of equal and of opposite right-hand
side and unit, integer or rational weights.  Marking orders mix present
ids, ids that only a merge creates and ids that never exist; the reference
marks them through ``sequence_chooser(order, require_present=True)``.  Records
(each marked equation with its id), totals, output systems, raised errors
and certificate verdicts must match the reference exactly.  The reference's
records also carry the marked variable and the step number; every case
checks that these are the equation's lowest variable and the record's
position, so a marked equation alone is a full record.

The block pass of ``run_h`` is checked the same way, with the streak
threshold forced to 0 (a block wherever one can be tried) and forced off,
on these systems and on denser ones over 8-20 used columns.
"""
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from maxlin import (
    Certificate,
    F2Vector,
    HRun,
    LinearSystem,
    MaxlinError,
    VectorSet,
    apply_rule2,
    find_kset,
    h_step,
    make_irreducible,
    run_h,
    verify_certificate,
)
from maxlin import algoh, reduce

import reference_algoh as ref
import reference_reduce

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

UNIT = st.just(Fraction(1))
INTEGER = st.integers(1, 6).map(Fraction)
RATIONAL = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))


@st.composite
def marking_systems(draw, weight_kinds=(UNIT, INTEGER, RATIONAL)):
    """Dense rows over 0-7 used columns among up to 3 more all-zero ones."""
    used = draw(st.integers(0, 7))
    n = draw(st.integers(used, used + 3))
    cols = draw(st.permutations(range(n)))[:used]
    weights = draw(st.sampled_from(weight_kinds))
    rows = []
    if cols:
        masks = st.integers(1, 2**used - 1).map(
            lambda x: sum(1 << c for i, c in enumerate(cols) if x >> i & 1)
        )
        rows = draw(st.lists(st.tuples(masks, st.integers(0, 1), weights), max_size=12))
    # repeat some rows, keeping or flipping the right-hand side
    for mask, rhs, _ in draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else ():
        rows.append((mask, rhs ^ draw(st.integers(0, 1)), draw(weights)))
    order = draw(st.permutations(range(len(rows))))
    return LinearSystem.build(n, [(F2Vector(n, rows[i][0]), *rows[i][1:]) for i in order])


@st.composite
def dense_marking_systems(draw):
    """Dense rows over 8-20 used columns, 1 to 3 per used column, with
    rational weights and some rows repeated with either right-hand side."""
    used = draw(st.integers(8, 20))
    n = draw(st.integers(used, used + 3))
    cols = draw(st.permutations(range(n)))[:used]
    masks = st.integers(1, 2**used - 1).map(
        lambda x: sum(1 << c for i, c in enumerate(cols) if x >> i & 1)
    )
    rows = draw(st.lists(st.tuples(masks, st.integers(0, 1), RATIONAL), min_size=used,
                         max_size=3 * used))
    for mask, rhs, _ in draw(st.lists(st.sampled_from(rows), max_size=6)):
        rows.append((mask, rhs ^ draw(st.integers(0, 1)), draw(RATIONAL)))
    order = draw(st.permutations(range(len(rows))))
    return LinearSystem.build(n, [(F2Vector(n, rows[i][0]), *rows[i][1:]) for i in order])


# distinct ids; those past the input's m exist only once a merge makes them
ORDERS = st.lists(st.integers(0, 22), unique=True, max_size=8)
# the same for the dense systems, whose ids reach about 70
DENSE_ORDERS = st.lists(st.integers(0, 80), unique=True, max_size=6)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MaxlinError as exc:
        return type(exc), str(exc)


def assert_same_system(got: LinearSystem, want: LinearSystem) -> None:
    assert got == want
    assert [row[3] for row in got.rows] == [row[3] for row in want.rows]
    assert got.next_id == want.next_id


def marked_equations(records):
    """The reference's records as their marked equations, once each record's
    marked variable and iteration are checked to be derivable."""
    for position, record in enumerate(records):
        bits = record.marked_equation.lhs.bits
        assert record.marked_variable == (bits & -bits).bit_length() - 1
        assert record.iteration == position
    return tuple(record.marked_equation for record in records)


def reference_run(sys, order=None):
    """The reference's run, marking ``order`` first when it is given."""
    chooser = None if order is None else ref.sequence_chooser(order, require_present=True)
    got = outcome(ref.run_h, sys, chooser)
    if got[0] != "ok":
        return got
    return "ok", HRun(marked_equations(got[1].records), got[1].total_marked_weight)


@PROPERTY
@given(marking_systems(), ORDERS)
def test_run_h_matches_reference(sys, order):
    assert outcome(run_h, sys) == reference_run(sys)
    assert outcome(run_h, sys, order) == reference_run(sys, order)
    assert outcome(run_h, sys, iter(order)) == reference_run(sys, order)


def test_block_pass_matches_reference_both_ways():
    accepted = []
    block = algoh._Marking.block

    def counting(state, size):
        got = block(state, size)
        accepted.append(got is not None)
        return got

    @PROPERTY
    @given(st.one_of(st.tuples(marking_systems(), ORDERS),
                     st.tuples(dense_marking_systems(), DENSE_ORDERS)))
    def check(case):
        sys, order = case
        want, want_first = reference_run(sys), reference_run(sys, order)
        for streak in (0, float("inf")):
            with mock.patch.object(algoh, "_BLOCK_STREAK", streak):
                assert outcome(run_h, sys) == want
                assert outcome(run_h, sys, order) == want_first

    with mock.patch.object(algoh._Marking, "block", counting):
        check()
    assert any(accepted)  # so the blocks were not all dropped


# left-hand sides over variables 1-3, none holding variable 0
A, B, C, D = 0b0010, 0b0100, 0b1000, 0b1110


@pytest.mark.parametrize("last_rhs", [0, 1])
def test_repeat_only_regrouping_on_interleaved_groups(last_rhs):
    # groups A, B, B, A interleaved, and a group of four C rows whose first
    # pair cancels (equal weights, opposite rhs), so the third row starts
    # the fold again; the single D row sits between them
    rows = [(A, 0, 1), (B, 1, 2), (B, 1, 3), (A, 1, 4), (C, 0, 2), (D, 0, 1), (C, 1, 2),
            (C, last_rhs, 5), (C, 1, 1)]
    sys = LinearSystem.build(4, [(F2Vector(4, bits), rhs, w) for bits, rhs, w in rows])
    merged, want = apply_rule2(sys), reference_reduce.apply_rule2(sys)
    assert_same_system(merged, want)
    # the groups fold in the order of their first rows, and every survivor
    # takes its group's first place: A as id 9, B as id 10, and C, whose
    # first pair cancels and whose third row folds with the fourth, as id 11
    c_rhs, c_weight = (1, 6) if last_rhs else (0, 4)
    assert merged.rows == (
        (A, 1, Fraction(3), 9), (B, 1, Fraction(5), 10), (C, c_rhs, Fraction(c_weight), 11),
        (D, 0, Fraction(1), 5),
    )
    # the step's merge regroups them the same way: mark z0 = 0 (id 9), which
    # touches no other row
    marked = LinearSystem.build(4, [([0], 0, 1)] + [
        (F2Vector(4, bits), rhs, w) for bits, rhs, w in rows
    ])
    got, want = outcome(h_step, marked, 0), outcome(ref.h_step, marked, 0)
    assert got[0] == want[0] == "ok"
    assert_same_system(got[1][0], want[1][0])
    assert outcome(run_h, marked) == reference_run(marked)


def test_repeat_only_regrouping_after_a_mark():
    # marking z0 = 0 turns rows 1 and 3 into A and B: the left-hand sides
    # then run A, B, B, A, and both groups merge into fresh ids 5 and 6
    sys = LinearSystem.build(4, [([0], 0, 1), (F2Vector(4, A | 1), 1, 2), (F2Vector(4, B), 0, 3),
                                 (F2Vector(4, B | 1), 1, 1), (F2Vector(4, A), 0, 5)])
    stepped, marked = h_step(sys, 0)
    assert_same_system(stepped, ref.h_step(sys, 0)[0])
    assert stepped.rows == ((A, 0, Fraction(3), 5), (B, 0, Fraction(2), 6))
    for order in ([0], [0, 5, 6], [0, 6]):
        assert outcome(run_h, sys, order) == reference_run(sys, order)


@PROPERTY
@given(marking_systems(), st.data())
def test_h_step_matches_reference(sys, data):
    # the input is not re-merged, so equal rows may cancel or clash
    eq_id = data.draw(st.sampled_from([row[3] for row in sys.rows] + [sys.next_id, 99]))
    got = outcome(h_step, sys, eq_id)
    want = outcome(ref.h_step, sys, eq_id)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    (got_sys, got_marked), (want_sys, want_record) = got[1], want[1]
    assert (got_marked,) == marked_equations([want_record])
    assert_same_system(got_sys, want_sys)
    before = {row[3]: row for row in sys.rows}
    for row in got_sys.rows:
        if before.get(row[3]) == row:
            assert row is before[row[3]]  # untouched rows are the same tuples


def test_h_step_records_the_rows_own_id():
    # an id equal to a row's int id marks that row, whose record keeps the int
    sys = LinearSystem.build(2, [([0], 0, 1), ([0, 1], 1, 2)])
    want = ref.h_step(sys, 1)
    for eq_id in (1, True, 1.0):
        stepped, marked = h_step(sys, eq_id)
        assert type(marked.eq_id) is int
        assert (marked,) == marked_equations([want[1]])
        assert_same_system(stepped, want[0])


@PROPERTY
@given(marking_systems(), st.data(), st.integers(-1, 6))
def test_verify_certificate_matches_reference(sys, data, k):
    # rational weights are rejected by both
    pool = [row[3] for row in sys.rows] + list(range(sys.next_id, sys.next_id + 3))
    cert = Certificate(data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)))
    got = outcome(verify_certificate, sys, cert, k)
    assert got == outcome(ref.verify_certificate, sys, cert, k)


def test_marking_a_merged_row():
    # marking id 0 turns row 1 into z2 = 0, which merges with row 2 into id 3
    sys = LinearSystem.build(2, [([0], 0, 1), ([0, 1], 0, 1), ([1], 0, 2)])
    run = run_h(sys, [0, 3])
    assert ("ok", run) == reference_run(sys, [0, 3])
    merged = run.records[1]
    assert (merged.eq_id, merged.lhs.bits, merged.rhs, merged.weight) == (3, 0b10, 0, 3)


def test_ids_listed_after_the_system_empties_are_ignored():
    # marking id 0 cancels z2 = 0 against z1 + z2 = 1 and empties the system
    sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
    for order in ([0, 1], [0, 1, 2, 99]):
        run = run_h(sys, order)
        assert ("ok", run) == reference_run(sys, order)
        assert [r.eq_id for r in run.records] == [0]


def test_an_id_gone_before_its_turn_raises_the_reference_error():
    sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
    for order in ([1, 0], [99], [3]):
        got = outcome(run_h, sys, order)
        assert got == reference_run(sys, order)
        assert got == (MaxlinError, f"equation {order[-1]} vanished before its marking turn")
    # the ids are marked in chunks of two here, and the second id of the
    # chunk is missing from the start (99), or vanishes at the chunk's first
    # mark: marking 0 cancels row 1 against row 3, and marking 1 merges row 4
    # with row 2 into a fresh id
    sys = LinearSystem.build(3, [([0], 0, 2), ([1], 0, 1), ([2], 0, 1), ([0, 1], 1, 1),
                                 ([1, 2], 0, 1)])
    assert algoh._block_size(sys.m) == 2
    for order in ([1, 99], [0, 1], [1, 4]):
        got = outcome(run_h, sys, order)
        assert got == reference_run(sys, order)
        assert got == (MaxlinError, f"equation {order[-1]} vanished before its marking turn")


def dense_60_by_180():
    """180 random dense rows of full rank over 60 variables, plus one
    repeated row, so the entry merge builds a system."""
    rng = random.Random(60)
    n, m = 60, 180
    rows = [(F2Vector(n, rng.getrandbits(n) or 1), rng.randint(0, 1), rng.randint(1, 5))
            for _ in range(m)]
    rows.append(rows[0])
    return LinearSystem.build(n, rows)


def test_run_h_builds_no_system_per_step(monkeypatch):
    # the cost shape: rule 2 may build one system on entry, the steps none
    sys = dense_60_by_180()
    built = []
    from_rows = LinearSystem._from_rows

    def counting(*args):
        built.append(args)
        return from_rows(*args)

    monkeypatch.setattr(LinearSystem, "_from_rows", counting)
    run = run_h(sys)
    assert len(run.records) == sys.n  # full rank: one mark per variable
    assert 1 <= len(built) <= 2


def test_run_h_passes_over_the_rows_once_per_block(monkeypatch):
    # the cost shape: once marks stop merging, one pass over the rows marks
    # a block of them, so on this dense system a run makes at most n/2
    # passes (single steps plus blocks), not one per mark
    sys = dense_60_by_180()
    passes = []

    def counted(name):
        method = getattr(algoh._Marking, name)

        def counting(state, arg):
            passes.append(name)
            return method(state, arg)

        return counting

    for name in ("step", "block"):
        monkeypatch.setattr(algoh._Marking, name, counted(name))
    run = run_h(sys)
    assert len(run.records) == sys.n
    assert "block" in passes and len(passes) <= sys.n // 2


def kset_60_by_180():
    """dense_60_by_180 reduced, and the lower bound's first ids on it: a
    sum-independent set of 9 rows."""
    reduced, _ = make_irreducible(dense_60_by_180())
    by_bits = {row[0]: row[3] for row in reduced.rows}
    members = VectorSet(reduced.n, [*by_bits, 0])
    k = max(k for k in range(1, reduced.n) if len(members) ** k <= 2**reduced.n)
    first = [by_bits[bits] for bits in find_kset(members, k)]
    assert len(first) == k + 1 == 9
    return reduced, first


def test_kset_ids_are_marked_in_blocks():
    # the lower bound's first ids, marked in blocks of
    # B = max(2, bit_length(m) - 2) ids, one pass over the rows each; the
    # run marks them under the labels -len(first)..-1
    reduced, first = kset_60_by_180()
    want = reference_run(reduced, first)
    for streak in (0, float("inf")):
        with mock.patch.object(algoh, "_BLOCK_STREAK", streak):
            assert outcome(run_h, reduced, first) == want

    passes = []
    for name in ("step", "block"):
        method = getattr(algoh._Marking, name)

        def counting(state, arg, method=method, name=name):
            # a step gets one row, a block a list of them
            passes.append([arg[3]] if name == "step" else [row[3] for row in arg])
            return method(state, arg)

        mock.patch.object(algoh._Marking, name, counting).start()
    try:
        run = run_h(reduced, first)
    finally:
        mock.patch.stopall()
    assert [eq.eq_id for eq in run.records[: len(first)]] == first
    size = max(2, reduced.m.bit_length() - 2)
    labels = list(range(-len(first), 0))
    marking_first = [ids for ids in passes if set(ids) & set(labels)]
    assert [eq_id for ids in marking_first for eq_id in ids if eq_id < 0] == labels
    assert len(marking_first) <= math.ceil(len(first) / size) == 2


def test_no_block_is_tried_with_blocks_off(monkeypatch):
    reduced, first = kset_60_by_180()

    def no_block(state, picks):
        raise AssertionError("a block with blocks off")

    monkeypatch.setattr(algoh, "_BLOCK_STREAK", float("inf"))
    monkeypatch.setattr(algoh._Marking, "block", no_block)
    for order in ((), first, itertools.count()):
        outcome(run_h, reduced, order)


def test_integral_run_adds_no_fraction_per_mark_or_merge(monkeypatch):
    # a run scales the weights to ints once: the marks, the merges and the
    # total add ints, and only the entry merge (rule 2 on the input's
    # Fractions) adds Fractions, once for the repeated row
    sys = dense_60_by_180()
    merges = []
    merge_pair = reduce._merge_pair

    def counting_merge(a, b, record):
        merges.append(type(a[2]))
        return merge_pair(a, b, record)

    additions = []
    add, radd = Fraction.__add__, Fraction.__radd__

    def counting_add(a, b):
        additions.append((a, b))
        return add(a, b)

    def counting_radd(a, b):
        additions.append((b, a))
        return radd(a, b)

    monkeypatch.setattr(reduce, "_merge_pair", counting_merge)
    monkeypatch.setattr(Fraction, "__add__", counting_add)
    monkeypatch.setattr(Fraction, "__radd__", counting_radd)
    run = run_h(sys)
    monkeypatch.undo()
    assert len(run.records) == sys.n and run == reference_run(sys)[1]
    assert merges.count(int) >= 1  # the run itself merges
    assert merges.count(Fraction) == 1 and len(additions) == 1


# the column-indexed state of sparse runs, against the same reference

# forcing run_h into the sparse state or keeping it on the list
ENTRY = {"sparse": float("inf"), "list": -1}


@st.composite
def sparse_marking_systems(draw):
    """Rows of 1-3 variables over up to 12 columns, with some rows repeated
    at either right-hand side and at equal or other weights, so the entry
    merge sums and cancels and the marks merge rows."""
    n = draw(st.integers(1, 12))
    supports = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    rows = draw(st.lists(st.tuples(supports, st.integers(0, 1), INTEGER), max_size=16))
    for support, rhs, weight in draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else ():
        same = draw(st.booleans())
        rows.append((support, rhs ^ draw(st.integers(0, 1)), weight if same else draw(INTEGER)))
    order = draw(st.permutations(range(len(rows))))
    return LinearSystem.build(n, [rows[i] for i in order])


def sparse_outcome(sys, order, entry, leave_at=None):
    """run_h's outcome with the entry forced; with ``leave_at``, the sparse
    state declines its step number ``leave_at`` (0-based), as when that step
    would cost more than a scan, and the run goes on on the list."""
    step = algoh._SparseMarking.step
    calls = []

    def leaving(state, row):
        calls.append(row)
        return None if len(calls) == leave_at + 1 else step(state, row)

    with mock.patch.object(algoh, "_SPARSE_ROW_WEIGHT", ENTRY[entry]):
        if leave_at is None:
            return outcome(run_h, sys, order)
        with mock.patch.object(algoh._SparseMarking, "step", leaving):
            return outcome(run_h, sys, order)


@PROPERTY
@given(st.one_of(sparse_marking_systems(), marking_systems()), ORDERS, st.integers(0, 12))
def test_sparse_state_matches_reference(sys, order, leave_at):
    for first in ((), order):
        want = reference_run(sys, first)
        for entry in ENTRY:
            assert sparse_outcome(sys, first, entry) == want
        assert sparse_outcome(sys, first, "sparse", leave_at) == want


@PROPERTY
@given(sparse_marking_systems(), ORDERS, st.integers(0, 12))
def test_sparse_state_leaves_for_blocks_as_single_steps_would(sys, order, leave_at):
    # after the cut-over the list state marks in blocks wherever it can
    with mock.patch.object(algoh, "_BLOCK_STREAK", 0):
        assert sparse_outcome(sys, order, "sparse", leave_at) == reference_run(sys, order)


@pytest.mark.parametrize("entry", ENTRY)
def test_sparse_state_raises_the_reference_error_for_a_gone_id(entry):
    sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
    for order in ([1, 0], [99], [3]):
        got = sparse_outcome(sys, order, entry)
        assert got == reference_run(sys, order)
        assert got == (MaxlinError, f"equation {order[-1]} vanished before its marking turn")
    # an id of the order that a merge or a cancellation removes mid-run
    sys = LinearSystem.build(3, [([0], 0, 2), ([1], 0, 1), ([2], 0, 1), ([0, 1], 1, 1),
                                 ([1, 2], 0, 1)])
    for order in ([1, 99], [0, 1], [1, 4], [0, 2, 1]):
        for leave_at in (None, 0, 1):
            got = sparse_outcome(sys, order, entry, leave_at)
            assert got == reference_run(sys, order)
            assert got[0] is MaxlinError


@PROPERTY
@given(st.one_of(sparse_marking_systems(), marking_systems()))
def test_an_endless_first_is_read_up_to_m_ids(sys):
    want = reference_run(sys, list(range(sys.m)))
    for entry in ENTRY:
        assert sparse_outcome(sys, itertools.count(), entry) == want


def test_first_ids_are_recorded_as_the_rows_own_ints():
    # True and 3.0 find rows 1 and 3 (a merge survivor) as 1 and 3 would,
    # and the records take the rows' int ids, as the reference's do
    sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1)])
    merging = LinearSystem.build(2, [([0], 0, 1), ([0, 1], 0, 1), ([1], 0, 2)])
    for sys, first, ids in ((sys, [True], [1]), (merging, [0, 3.0], [0, 3])):
        for entry in ENTRY:
            got = sparse_outcome(sys, first, entry)
            assert got == reference_run(sys, ids)
            records = got[1].records[: len(ids)]
            assert [(eq.eq_id, type(eq.eq_id)) for eq in records] == [(i, int) for i in ids]


@pytest.mark.parametrize("entry", ENTRY)
def test_sparse_merges_fold_in_list_order(entry):
    # marking z0 = 0 turns rows 1 and 3 into A and B: the left-hand sides
    # then run A, B, B, A, and both groups merge into fresh ids 5 and 6
    sys = LinearSystem.build(4, [([0], 0, 1), (F2Vector(4, A | 1), 1, 2), (F2Vector(4, B), 0, 3),
                                 (F2Vector(4, B | 1), 1, 1), (F2Vector(4, A), 0, 5)])
    for order in ([0], [0, 5, 6], [0, 6]):
        assert sparse_outcome(sys, order, entry) == reference_run(sys, order)
    run = sparse_outcome(sys, [0], entry)[1]
    assert [eq.eq_id for eq in run.records] == [0, 5, 6]
    # the same after the entry merge of the interleaved groups A, B, B, A
    # and C, C, C, C; each pair at a mark holds one touched and one untouched
    # row, and the touched row comes first in the list for C + D
    rows = [([0], 0, 1), (F2Vector(4, A), 0, 1), (F2Vector(4, B), 1, 2), (F2Vector(4, B), 1, 3),
            (F2Vector(4, A), 1, 4), (F2Vector(4, C | 1), 0, 2), (F2Vector(4, D), 0, 1),
            (F2Vector(4, C), 1, 2), (F2Vector(4, A | 1), 1, 5), (F2Vector(4, C), 1, 1)]
    sys = LinearSystem.build(4, rows)
    for order in ([0], [0, 10, 11, 12, 13], []):
        for leave_at in (None, 0, 1, 2):
            got = sparse_outcome(sys, order, entry, leave_at)
            assert got == reference_run(sys, order)


@pytest.mark.parametrize("entry, leave_at", [("list", None), ("sparse", None), ("sparse", 0)])
def test_merges_follow_list_order_not_id_order(entry, leave_at):
    # the entry merge puts id 6 at place 0; marking z0 = 0 (id 2) then makes
    # the pairs (6, 5) on z1 and (3, 4) on z2, and the pair whose first
    # place comes first, (6, 5), takes fresh id 7 though 3 < 6; with
    # leave_at 0 the sparse state hands this step to the list state
    sys = LinearSystem.build(3, [([1], 0, 1), ([1], 0, 1), ([0], 0, 1), ([2], 0, 3),
                                 ([0, 2], 0, 1), ([0, 1], 1, 1)])
    got = sparse_outcome(sys, (), entry, leave_at)
    assert got == reference_run(sys)
    assert [(eq.eq_id, eq.lhs.bits) for eq in got[1].records] == [(2, 0b001), (7, 0b010),
                                                                  (8, 0b100)]


def sparse_60_by_120():
    """120 random rows of 1-3 variables over 60, with rhs and weights of
    1-5 and one repeated row."""
    rng = random.Random(120)
    n = 60
    rows = [(rng.sample(range(n), rng.randint(1, 3)), rng.randint(0, 1), rng.randint(1, 5))
            for _ in range(120)]
    rows.append(rows[0])
    return LinearSystem.build(n, rows)


def test_sparse_run_visits_only_the_rows_holding_each_marked_variable(monkeypatch):
    # the cost shape: a run on sparse rows makes no pass over the list, and
    # each step reads only the rows that hold its marked variable
    sys = sparse_60_by_120()
    reads = []

    class CountingRows(dict):
        def __getitem__(self, eq_id):
            reads.append(eq_id)
            return dict.__getitem__(self, eq_id)

    init, step = algoh._SparseMarking.__init__, algoh._SparseMarking.step
    steps = []

    def counting_init(state, rows, next_id):
        init(state, rows, next_id)
        state.rows = CountingRows(state.rows)

    def counting_step(state, row):
        low = row[0] & -row[0]
        holding = {i for i, other in dict.items(state.rows) if other[0] & low} - {row[3]}
        reads.clear()
        got = step(state, row)
        steps.append((set(reads), holding, got))
        return got

    def no_pass(state, arg):
        raise AssertionError("a pass over the list of rows")

    monkeypatch.setattr(algoh._SparseMarking, "__init__", counting_init)
    monkeypatch.setattr(algoh._SparseMarking, "step", counting_step)
    for name in ("step", "block"):
        monkeypatch.setattr(algoh._Marking, name, no_pass)
    run = run_h(sys)
    monkeypatch.undo()
    assert run == reference_run(sys)[1]
    assert len(steps) == len(run.records) == sys.n  # full rank: one mark per variable
    assert all(got is not None for _, _, got in steps)
    assert all(read == holding for read, holding, _ in steps)
    # the rows a step reads are few: far fewer than the live rows
    assert sum(len(read) for read, _, _ in steps) < sys.m * len(steps) / 10
