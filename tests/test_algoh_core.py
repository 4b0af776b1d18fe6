"""The row-based marking loop against its frozen one-system-per-mark reference.

Inputs are dense systems over up to 7 used columns plus a few all-zero
ones, with repeated left-hand sides of equal and of opposite right-hand
side and unit, integer or rational weights.  Marking orders mix present
ids, ids that only a merge creates and ids that never exist.  Records
(marked equation with its id, variable and iteration), totals, output
systems, raised errors and certificate verdicts must match the reference
exactly.
"""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from maxlin import (
    Certificate,
    F2Vector,
    LinearSystem,
    MaxlinError,
    h_step,
    lowest_id_chooser,
    run_h,
    sequence_chooser,
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


def blind_chooser(order):
    """Hands out the order as it is, absent ids included, then the lowest id."""
    remaining = list(order)
    return lambda view: remaining.pop(0) if remaining else min(view.ids())


def assert_same_system(got: LinearSystem, want: LinearSystem) -> None:
    assert got == want
    assert got.ids() == want.ids()
    assert got.next_id == want.next_id


@PROPERTY
@given(marking_systems(), ORDERS, st.booleans())
def test_run_h_matches_reference(sys, order, require_present):
    assert outcome(run_h, sys) == outcome(ref.run_h, sys)
    got = outcome(run_h, sys, sequence_chooser(order, require_present=require_present))
    want = outcome(ref.run_h, sys, ref.sequence_chooser(order, require_present=require_present))
    assert got == want
    assert outcome(run_h, sys, blind_chooser(order)) == outcome(ref.run_h, sys, blind_chooser(order))


@PROPERTY
@given(marking_systems(), st.data(), st.integers(0, 4))
def test_h_step_matches_reference(sys, data, iteration):
    # the input is not re-merged, so equal rows may cancel or clash
    eq_id = data.draw(st.sampled_from(sys.ids() + (sys.next_id, 99)))
    got = outcome(h_step, sys, eq_id, iteration)
    want = outcome(ref.h_step, sys, eq_id, iteration)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    (got_sys, got_record), (want_sys, want_record) = got[1], want[1]
    assert got_record == want_record
    assert_same_system(got_sys, want_sys)
    for eq in got_sys.equations:
        if sys.has_equation(eq.eq_id) and sys.equation(eq.eq_id) == eq:
            assert eq is sys.equation(eq.eq_id)  # untouched rows keep their Equation


@PROPERTY
@given(marking_systems(), st.data(), st.integers(-1, 6))
def test_verify_certificate_matches_reference(sys, data, k):
    # rational weights are rejected by both
    pool = sys.ids() + tuple(range(sys.next_id, sys.next_id + 3))
    cert = Certificate(data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)))
    got = outcome(verify_certificate, sys, cert, k)
    assert got == outcome(ref.verify_certificate, sys, cert, k)


@PROPERTY
@given(marking_systems(weight_kinds=(UNIT, INTEGER)), ORDERS)
def test_choosers_accept_a_linear_system(sys, order):
    if not sys.m:
        return
    assert lowest_id_chooser(sys) == ref.lowest_id_chooser(sys)
    got = outcome(sequence_chooser(order, require_present=True), sys)
    assert got == outcome(ref.sequence_chooser(order, require_present=True), sys)


def test_marking_a_merged_row():
    # marking id 0 turns row 1 into z2 = 0, which merges with row 2 into id 3
    sys = LinearSystem.build(2, [([0], 0, 1), ([0, 1], 0, 1), ([1], 0, 2)])
    run = run_h(sys, sequence_chooser([0, 3], require_present=True))
    assert run == ref.run_h(sys, ref.sequence_chooser([0, 3], require_present=True))
    merged = run.records[1].marked_equation
    assert (merged.eq_id, merged.lhs.bits, merged.rhs, merged.weight) == (3, 0b10, 0, 3)


def test_run_h_builds_no_system_per_step(monkeypatch):
    # the cost shape: rule 2 may build one system on entry, the steps none
    rng = random.Random(60)
    n, m = 60, 180
    rows = [(F2Vector(n, rng.getrandbits(n) or 1), rng.randint(0, 1), rng.randint(1, 5))
            for _ in range(m)]
    rows.append(rows[0])  # one repeated row, so the entry merge builds a system
    sys = LinearSystem.build(n, rows)
    built = []
    post_init = LinearSystem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(LinearSystem, "__post_init__", counting)
    run = run_h(sys)
    assert len(run.records) == n  # full rank: one mark per variable
    assert len(built) <= 2
