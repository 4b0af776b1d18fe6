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
"""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from maxlin import (
    Certificate,
    F2Vector,
    HRun,
    LinearSystem,
    MaxlinError,
    h_step,
    run_h,
    verify_certificate,
)

import reference_algoh as ref

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


# distinct ids; those past the input's m exist only once a merge makes them
ORDERS = st.lists(st.integers(0, 22), unique=True, max_size=8)


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


def test_run_h_builds_no_system_per_step(monkeypatch):
    # the cost shape: rule 2 may build one system on entry, the steps none
    rng = random.Random(60)
    n, m = 60, 180
    rows = [(F2Vector(n, rng.getrandbits(n) or 1), rng.randint(0, 1), rng.randint(1, 5))
            for _ in range(m)]
    rows.append(rows[0])  # one repeated row, so the entry merge builds a system
    sys = LinearSystem.build(n, rows)
    built = []
    from_rows = LinearSystem._from_rows

    def counting(*args):
        built.append(args)
        return from_rows(*args)

    monkeypatch.setattr(LinearSystem, "_from_rows", counting)
    run = run_h(sys)
    assert len(run.records) == n  # full rank: one mark per variable
    assert 1 <= len(built) <= 2
