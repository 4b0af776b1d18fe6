import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from maxlin import (
    Assignment,
    DimensionMismatchError,
    Equation,
    F2Vector,
    LinearSystem,
    MaxlinError,
    apply_rule1,
    apply_rule2,
    evaluate,
    fourier_to_system,
    h_step,
    make_irreducible,
    run_h,
    system_to_fourier,
)
from maxlin.f2core import _pivot_basis, parity, reverse_bits, rref
from maxlin.formats import emit_system, parse_system

from helpers import assert_raises, lhs_rank, random_system


def eqn(n, support, rhs, weight, eq_id=0):
    return Equation(F2Vector.from_support(n, support), rhs, Fraction(weight), eq_id)


class TestF2Vector:
    def test_support_roundtrip(self):
        v = F2Vector.from_support(6, [0, 3, 5])
        assert v.support() == (0, 3, 5)
        assert v.to01() == "100101"
        assert v.bits == 0b101001
        assert F2Vector(0).to01() == ""
        n = 10**4 + 3
        bits = random.Random(8).getrandbits(n) | 1 << (n - 1)
        assert F2Vector(n, bits).to01() == "".join(str(bits >> j & 1) for j in range(n))

    def test_lex_key_orders_variable_one_first(self):
        # (0,1) < (1,0) as coordinate tuples: bit j is coordinate j + 1
        low = F2Vector(2, 0b10)
        high = F2Vector(2, 0b01)
        assert (low.to01(), high.to01()) == ("01", "10")
        assert reverse_bits(low.bits, 2) < reverse_bits(high.bits, 2)

    def test_large_dimension(self):
        v = F2Vector.from_support(4096, [0, 4095])
        assert v.bits.bit_count() == 2
        assert v.bits & -v.bits == 1
        assert v.support() == (0, 4095)

    def test_from_support_accepts_any_iterable(self):
        assert F2Vector.from_support(5, iter([4, 0])).support() == (0, 4)
        assert F2Vector.from_support(3, ()) == F2Vector(3, 0)

    @pytest.mark.parametrize(
        "n, support, message",
        [
            (3, [3], "variable index 3 outside 0..2"),
            (3, [-1], "variable index -1 outside 0..2"),
            (3, [1, 1, 5], "duplicate variable index 1"),
            (3, [5, 1, 1], "variable index 5 outside 0..2"),
            (4, [2, 0, 2, -1], "duplicate variable index 2"),
            (0, [0], "variable index 0 outside 0..-1"),
            # a bool is no index (True would be variable 1), nor is a float
            (3, [True], "variable index True is not an int"),
            (3, [0, 1.0], "variable index 1.0 is not an int"),
            (3, [5, False], "variable index False is not an int"),
        ],
    )
    def test_from_support_names_the_first_bad_index(self, n, support, message):
        with pytest.raises(MaxlinError) as err:
            F2Vector.from_support(n, support)
        assert str(err.value) == message


class TestEvaluate:
    def test_cancelling_pair_has_zero_excess_everywhere(self):
        sys = LinearSystem.build(3, [([0, 2], 0, 1), ([0, 2], 1, 1)])
        for bits in range(8):
            assert evaluate(sys, Assignment(3, bits)) == 0

    def test_empty_system(self):
        sys = LinearSystem(2)
        result = evaluate(sys, Assignment(2, 0))
        assert result == 0 and type(result) is Fraction

    def test_three_equation_example(self):
        # satisfied weight 3, falsified weight 1
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
        result = evaluate(sys, Assignment(2, 0))
        assert result == 2 and type(result) is Fraction

    def test_equals_a_signed_sum_of_the_rows(self):
        rng = random.Random(7)
        # evaluate scales by the lcm of the denominators; the last system's
        # include a 21-digit one, so that scale is far from each weight's own
        wide = LinearSystem.build(3, [
            ([0], 0, Fraction(1, 7)), ([1], 1, Fraction(3, 14)), ([0, 2], 0, Fraction(5, 4)),
            ([2], 1, Fraction(2, 10**20 + 39)), ([0, 1, 2], 1, Fraction(9, 11)), ([1, 2], 0, 6),
        ])
        for sys in chain((random_system(rng, rational_weights=True) for _ in range(30)), [wide]):
            a = Assignment(sys.n, rng.randrange(2**sys.n))
            values = a.to01()
            expected = Fraction(0)
            for bits, rhs, weight, _ in sys.rows:
                ones = sum(values[j] == "1" for j in range(sys.n) if bits >> j & 1)
                expected += weight if ones % 2 == rhs else -weight
            assert evaluate(sys, a) == expected

    def test_flip_changes_only_touching_equations(self):
        rng = random.Random(8)
        for _ in range(20):
            sys = random_system(rng, n_min=2)
            a = Assignment(sys.n, rng.randrange(2**sys.n))
            j = rng.randrange(sys.n)
            flipped = Assignment(a.n, a.bits ^ 1 << j)
            for eq in sys.equations:
                touched = bool(eq.lhs.bits >> j & 1)
                before = parity(eq.lhs.bits & a.bits) == eq.rhs
                after = parity(eq.lhs.bits & flipped.bits) == eq.rhs
                assert (before != after) == touched

    def test_dimension_mismatch(self):
        sys = LinearSystem.build(2, [([0], 0, 1)])
        with pytest.raises(DimensionMismatchError):
            evaluate(sys, Assignment(3, 0))


def pivots(sys):
    return rref([row[0] for row in sys.rows], sys.n)[0]


class TestRankAndBasis:
    def test_unit_columns(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1), ([0, 1], 1, 1)])
        assert pivots(sys) == [0, 1]

    def test_single_equation(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 1)])
        assert pivots(sys) == [0]

    def test_dependent_rows(self):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 0, 1), ([0, 2], 0, 1)])
        assert pivots(sys) == [0, 1]

    def test_basis_columns_invertible_at_full_rank(self):
        rng = random.Random(9)
        tried = 0
        while tried < 15:
            sys = random_system(rng, n_min=2, n_max=6, m_min=6, m_max=12)
            cols, reduced = rref([row[0] for row in sys.rows], sys.n)
            assert len(cols) == lhs_rank(sys)
            if len(cols) != sys.n:
                continue
            tried += 1
            assert cols == list(range(sys.n))
            # at full rank the reduced rows are the unit rows
            assert reduced == [1 << j for j in range(sys.n)]


def full_pivot_basis(rows, n):
    """The echelon basis with every row reduced, none skipped, keyed by the
    column of each row's lowest set bit, found by walking the columns."""
    basis = {}
    for row in rows:
        while row:
            col = next(j for j in range(n) if row >> j & 1)
            if col not in basis:
                basis[col] = row
                break
            row ^= basis[col]
    return basis


@st.composite
def pivot_rows(draw):
    """Rows over n <= 12; half the draws mix in a shuffled unit basis, so
    they have full rank, the rest are random and mostly fall below it."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, 2**n - 1), max_size=20))
    if draw(st.booleans()):
        rows += [1 << j for j in range(n)]
        rows = draw(st.permutations(rows))
    return rows, n


class TestPivotBasis:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pivot_rows())
    def test_early_exit_matches_a_full_pass(self, case):
        rows, n = case
        assert _pivot_basis(rows, n) == full_pivot_basis(rows, n)

    def test_stops_at_the_row_that_completes_the_basis(self):
        rng = random.Random(11)
        n = 40
        rows = [rng.getrandbits(n) for _ in range(3 * n)]
        consumed = []

        def counting():
            for i, row in enumerate(rows):
                consumed.append(i)
                yield row

        basis = _pivot_basis(counting(), n)
        assert len(basis) == n
        assert basis == full_pivot_basis(rows, n)
        # the prefix just before the last consumed row still lacks full rank
        assert len(full_pivot_basis(rows[: len(consumed) - 1], n)) == n - 1
        assert len(consumed) < len(rows)


class TestSystemInvariants:
    def test_rejects_zero_lhs(self):
        with pytest.raises(MaxlinError):
            LinearSystem(2, (Equation(F2Vector(2, 0), 0, Fraction(1), 0),))

    def test_rejects_duplicate_ids(self):
        e = eqn(2, [0], 0, 1, eq_id=3)
        with pytest.raises(MaxlinError):
            LinearSystem(2, (e, e))

    def test_rejects_float_weights(self):
        with pytest.raises(MaxlinError):
            Equation(F2Vector.from_support(1, [0]), 0, 1.5, 0)

    def test_fraction_weight_is_kept_not_rebuilt(self):
        w = Fraction(7, 3)
        assert Equation(F2Vector.from_support(1, [0]), 0, w, 0).weight is w
        assert Equation(F2Vector.from_support(1, [0]), 0, 2, 0).weight == Fraction(2)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(MaxlinError):
            eqn(2, [0], 0, 0)

    def test_next_id_advances_past_ids(self):
        sys = LinearSystem(3, (eqn(3, [1], 0, 1, eq_id=7),))
        assert sys.next_id == 8

    def test_reverse_bits(self):
        assert reverse_bits(0b001, 3) == 0b100
        assert reverse_bits(0b101, 3) == 0b101
        assert reverse_bits(0, 0) == 0

    def test_reverse_bits_reverses_the_binary_digits(self):
        rng = random.Random(49)
        for n in [*range(1, 18), 31, 32, 33, 64, 110, 140, 1000]:
            for _ in range(20):
                x = rng.getrandbits(n + 5)  # the bits from n up are ignored
                digits = format(x & ((1 << n) - 1), f"0{n}b")
                assert reverse_bits(x, n) == int(digits[::-1], 2)

    def test_min_weight_is_the_least_weight_exactly(self):
        rng = random.Random(50)
        for _ in range(30):
            sys = random_system(rng, n_max=6, m_max=12, rational_weights=True)
            if sys.m:
                least = sys.min_weight
                assert type(least) is Fraction
                assert least == min(row[2] for row in sys.rows)
        sys = LinearSystem.build(1, [([0], 0, Fraction(10**20 + 39, 7)), ([0], 1, Fraction(3, 14))])
        assert sys.min_weight == Fraction(3, 14)


def raised(build):
    try:
        build()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return None


# each malformed row's first error through the Equation path, which is the
# only path outside input takes into a system
MALFORMED_ROWS = [
    (2, [(0b100, 0, Fraction(1), 0)], MaxlinError, "bit pattern 0x4 does not fit dimension 2"),
    (2, [(0, 0, Fraction(1), 0)], MaxlinError, "equation 0 has an empty left-hand side"),
    (2, [(0b01, 2, Fraction(1), 0)], MaxlinError, "rhs must be 0 or 1"),
    (2, [(0b01, 0, Fraction(0), 0)], MaxlinError, "weights must be positive"),
    (2, [(0b01, 0, Fraction(-1, 2), 0)], MaxlinError, "weights must be positive"),
    (2, [(0b01, 0, 1.5, 0)], MaxlinError,
     "floating-point weights are not supported; use int, str or Fraction"),
    (2, [(0b01, 0, "x", 0)], MaxlinError, "'x' is not an exact rational number"),
    (2, [(0b01, 0, Fraction(1), -1)], MaxlinError, "equation ids must be non-negative integers"),
    (2, [(0b01, 0, Fraction(1), 3), (0b10, 0, Fraction(1), 3)], MaxlinError,
     "duplicate equation id 3"),
    # each Equation is checked as it is built, before the system sees the zero lhs
    (2, [(0, 0, Fraction(1), 0), (0b01, 2, Fraction(1), 1)], MaxlinError, "rhs must be 0 or 1"),
    (-1, [], MaxlinError, "dimension must be non-negative"),
    (-1, [(0b01, 0, Fraction(1), 0)], MaxlinError, "dimension must be non-negative"),
    # only an int rhs: emit_system would write 1.0 or True, which no parser reads
    (2, [(0b01, 1.0, Fraction(1), 0)], MaxlinError, "rhs must be 0 or 1"),
    (2, [(0b01, True, Fraction(1), 0)], MaxlinError, "rhs must be 0 or 1"),
]


class TestFromRows:
    """Systems built from rows, and the checks on the rows that outside
    input brings in, which are the only checks a row gets."""

    # each id names the case's n and its place in the table
    @pytest.mark.parametrize(
        "n, rows, error, text",
        MALFORMED_ROWS,
        ids=[f"{case[0]}-rows{i}" for i, case in enumerate(MALFORMED_ROWS)],
    )
    def test_malformed_rows_raise_what_equations_raise(self, n, rows, error, text):
        got = raised(lambda: LinearSystem(
            n, [Equation(F2Vector(n, bits), rhs, w, i) for bits, rhs, w, i in rows]
        ))
        assert got == (error, text)

    @pytest.mark.parametrize(
        "rows, error, text",
        [
            ([([2], 0, 1)], MaxlinError, "variable index 2 outside 0..1"),
            ([([1, 1], 0, 1)], MaxlinError, "duplicate variable index 1"),
            ([([], 0, 1)], MaxlinError, "equation 0 has an empty left-hand side"),
            ([([0], 0, 1), ([1], 3, 1)], MaxlinError, "rhs must be 0 or 1"),
            ([([0], 0, -1)], MaxlinError, "weights must be positive"),
            ([([0], 0, 0.5)], MaxlinError,
             "floating-point weights are not supported; use int, str or Fraction"),
            ([(F2Vector(3, 1), 0, 1)], DimensionMismatchError,
             "equation 0 has dimension 3, system has 2"),
            ([([0, True], 0, 1)], MaxlinError, "variable index True is not an int"),
        ],
    )
    def test_build_checks_each_row(self, rows, error, text):
        assert raised(lambda: LinearSystem.build(2, rows)) == (error, text)

    def test_equals_the_system_built_from_equations(self):
        rng = random.Random(32)
        for _ in range(40):
            sys = random_system(rng, m_min=0, rational_weights=True)
            rows = [(eq.lhs.bits, eq.rhs, eq.weight, eq.eq_id) for eq in sys.equations]
            for next_id in (-1, sys.next_id + 3):
                got = LinearSystem._from_rows(sys.n, rows, next_id)
                want = LinearSystem(sys.n, sys.equations, next_id)
                assert got == want and hash(got) == hash(want)
                assert got.equations == want.equations
                assert [row[3] for row in got.rows] == [row[3] for row in want.rows]
                assert got.next_id == want.next_id
                assert got.rows == want.rows == tuple(rows)
                assert all(a is b for a, b in zip(got.rows, rows))

    def test_weights_become_fractions(self):
        sys = LinearSystem(2, [
            Equation(F2Vector(2, 0b01), 0, 2, 0), Equation(F2Vector(2, 0b10), 1, "3/2", 5)
        ])
        assert sys.rows == ((0b01, 0, Fraction(2), 0), (0b10, 1, Fraction(3, 2), 5))
        assert all(type(row[2]) is Fraction for row in sys.rows)
        assert sys.next_id == 6

    def test_a_system_of_equations_keeps_them(self):
        eqs = (eqn(2, [0], 0, 1, eq_id=0), eqn(2, [1], 1, 2, eq_id=4))
        sys = LinearSystem(2, eqs)
        assert sys.equations is eqs
        assert sys.rows == ((0b01, 0, Fraction(1), 0), (0b10, 1, Fraction(2), 4))
        assert sys == LinearSystem._from_rows(2, sys.rows)

    def test_equality_ignores_next_id_but_not_ids(self):
        row = (0b01, 0, Fraction(1), 0)
        assert LinearSystem._from_rows(1, [row], 9) == LinearSystem._from_rows(1, [row])
        assert LinearSystem._from_rows(1, [row]) != LinearSystem._from_rows(1, [(*row[:3], 1)])
        assert LinearSystem._from_rows(1, [row]) != LinearSystem._from_rows(2, [row])

    def test_from_rows_keeps_the_store_checks(self):
        assert raised(lambda: LinearSystem._from_rows(-1, [])) == (
            MaxlinError, "dimension must be non-negative")
        assert raised(lambda: LinearSystem._from_rows(2, [(0, 0, Fraction(1), 4)])) == (
            MaxlinError, "equation 4 has an empty left-hand side")
        row = (0b01, 0, Fraction(1), 3)
        assert raised(lambda: LinearSystem._from_rows(2, [row, row])) == (
            MaxlinError, "duplicate equation id 3")


def test_derived_systems_build_no_equation(monkeypatch):
    # a dense system with repeated rows and two unused columns, so rule 2
    # merges and rule 1 deletes columns; each row is checked only where it
    # enters, so no derived path runs the Equation checks: a marking step
    # builds its records through f2core._equation, unchecked
    rng = random.Random(13)
    n = 10
    rows = [(F2Vector(n, rng.getrandbits(8) or 1), rng.randint(0, 1), rng.randint(1, 4))
            for _ in range(30)]
    sys = LinearSystem.build(n, rows + rows[:6])
    text = emit_system(sys)
    merged = apply_rule2(sys)
    reduced, transcript = make_irreducible(sys)
    assert transcript.merge_log and transcript.deleted_variables
    expansion = system_to_fourier(merged)
    built = []
    post_init = Equation.__post_init__

    def counting(eq):
        built.append(eq)
        post_init(eq)

    monkeypatch.setattr(Equation, "__post_init__", counting)

    def count(call, *args):
        built.clear()
        result = call(*args)
        return len(built), result

    assert count(parse_system, text) == (0, sys)
    assert count(apply_rule2, sys) == (0, merged)
    assert count(make_irreducible, sys) == (0, (reduced, transcript))
    assert count(apply_rule1, merged)[0] == 0
    assert count(fourier_to_system, expansion)[0] == 0
    checked, (_, marked) = count(h_step, reduced, reduced.rows[0][3])
    assert checked == 0
    checked, run = count(run_h, sys)
    assert checked == 0 and len(run.records) > 1
    # each unchecked record equals the checked Equation of its fields
    for eq in (marked, *run.records):
        assert eq == Equation(F2Vector(eq.n, eq.lhs.bits), eq.rhs, eq.weight, eq.eq_id)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: LinearSystem(2, [eqn(3, [0], 0, 1)]),
            DimensionMismatchError,
            "equation 0 has dimension 3, system has 2",
            id="equation-dimension",
        ),
        pytest.param(
            lambda: LinearSystem(2).min_weight,
            MaxlinError,
            "empty system has no minimum weight",
            id="empty-min-weight",
        ),
        pytest.param(
            lambda: Equation(0b01, 0, 1, 0),
            MaxlinError,
            "the left-hand side must be an F2Vector",
            id="equation-lhs-type",
        ),
        pytest.param(
            lambda: LinearSystem(2.0),
            MaxlinError,
            "dimension must be an int, got 2.0",
            id="system-float-dimension",
        ),
        pytest.param(
            # a bool is an int in Python, but never a dimension
            lambda: LinearSystem(True),
            MaxlinError,
            "dimension must be an int, got True",
            id="system-bool-dimension",
        ),
        pytest.param(
            lambda: LinearSystem("2"),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="system-str-dimension",
        ),
        pytest.param(
            lambda: LinearSystem.build("2", [([0], 0, 1)]),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="build-str-dimension",
        ),
        pytest.param(
            lambda: F2Vector(2.0, 1),
            MaxlinError,
            "dimension must be an int, got 2.0",
            id="vector-float-dimension",
        ),
        pytest.param(
            lambda: F2Vector(True, 1),
            MaxlinError,
            "dimension must be an int, got True",
            id="vector-bool-dimension",
        ),
        pytest.param(
            lambda: F2Vector("2", 1),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="vector-str-dimension",
        ),
        pytest.param(
            lambda: F2Vector(-1),
            MaxlinError,
            "dimension must be non-negative",
            id="vector-negative-dimension",
        ),
        pytest.param(
            lambda: F2Vector(2, 1.0),
            MaxlinError,
            "1.0 is not an int bit pattern",
            id="vector-float-pattern",
        ),
        pytest.param(
            lambda: F2Vector(2, True),
            MaxlinError,
            "True is not an int bit pattern",
            id="vector-bool-pattern",
        ),
        pytest.param(
            lambda: Equation(F2Vector(2, 1), 0, 1, True),
            MaxlinError,
            "equation ids must be non-negative integers",
            id="equation-bool-id",
        ),
        pytest.param(
            # True is an int in Python, but never the weight 1
            lambda: Equation(F2Vector(2, 1), 0, True, 0),
            MaxlinError,
            "True is not an exact rational number",
            id="equation-bool-weight",
        ),
        pytest.param(
            lambda: Equation(F2Vector(2, 1), 0, "x", 0),
            MaxlinError,
            "'x' is not an exact rational number",
            id="equation-str-weight",
        ),
        pytest.param(
            lambda: Equation(F2Vector(2, 1), 0, "1/0", 0),
            MaxlinError,
            "'1/0' is not an exact rational number",
            id="equation-zero-denominator-weight",
        ),
        pytest.param(
            lambda: Equation(F2Vector(2, 1), 0, None, 0),
            MaxlinError,
            "None is not an exact rational number",
            id="equation-none-weight",
        ),
        pytest.param(
            lambda: LinearSystem.build(2, [([0], 0, "x")]),
            MaxlinError,
            "'x' is not an exact rational number",
            id="build-str-weight",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)
