import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxlin import (
    Assignment,
    DimensionMismatchError,
    Equation,
    EquationNotFoundError,
    F2Vector,
    LinearSystem,
    MaxlinError,
    evaluate,
    rank_and_basis,
)
from maxlin.f2core import _pivot_basis, reverse_bits, rref

from helpers import assert_raises, random_system


def eqn(n, support, rhs, weight, eq_id=0):
    return Equation(F2Vector.from_support(n, support), rhs, Fraction(weight), eq_id)


class TestF2Vector:
    def test_xor_is_coordinatewise(self):
        a = F2Vector.from01("110")
        b = F2Vector.from01("011")
        assert (a ^ b).to01() == "101"

    def test_self_sum_is_zero(self):
        v = F2Vector.from01("10110")
        assert (v ^ v).is_zero()

    def test_zero_is_identity(self):
        v = F2Vector.from01("0101")
        assert v ^ F2Vector.zero(4) == v

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            F2Vector.zero(3) ^ F2Vector.zero(4)

    def test_support_roundtrip(self):
        v = F2Vector.from_support(6, [0, 3, 5])
        assert v.support() == (0, 3, 5)
        assert F2Vector.from01(v.to01()) == v

    def test_min_var(self):
        assert F2Vector.from_support(5, [2, 4]).min_var() == 2
        with pytest.raises(MaxlinError):
            F2Vector.zero(5).min_var()

    def test_lex_key_orders_variable_one_first(self):
        # (0,1) < (1,0) as coordinate tuples
        low = F2Vector.from01("01")
        high = F2Vector.from01("10")
        assert low.lex_key() < high.lex_key()

    def test_large_dimension(self):
        v = F2Vector.from_support(4096, [0, 4095])
        assert v.popcount() == 2
        assert (v ^ v).is_zero()

    def test_from_support_accepts_any_iterable(self):
        assert F2Vector.from_support(5, iter([4, 0])).support() == (0, 4)
        assert F2Vector.from_support(3, ()) == F2Vector.zero(3)

    @pytest.mark.parametrize(
        "n, support, message",
        [
            (3, [3], "variable index 3 outside 0..2"),
            (3, [-1], "variable index -1 outside 0..2"),
            (3, [1, 1, 5], "duplicate variable index 1"),
            (3, [5, 1, 1], "variable index 5 outside 0..2"),
            (4, [2, 0, 2, -1], "duplicate variable index 2"),
            (0, [0], "variable index 0 outside 0..-1"),
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
            assert evaluate(sys, Assignment(3, bits)).excess == 0

    def test_empty_system(self):
        sys = LinearSystem(2)
        assert evaluate(sys, Assignment(2, 0)) == (0, 0, 0)

    def test_three_equation_example(self):
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
        result = evaluate(sys, Assignment.from01("00"))
        assert result == (3, 1, 2)

    def test_weights_partition_total(self):
        rng = random.Random(7)
        for _ in range(30):
            sys = random_system(rng, rational_weights=True)
            a = Assignment(sys.n, rng.randrange(2**sys.n))
            result = evaluate(sys, a)
            total = sum((eq.weight for eq in sys.equations), Fraction(0))
            assert result.satisfied_weight + result.falsified_weight == total
            assert result.excess == result.satisfied_weight - result.falsified_weight

    def test_flip_changes_only_touching_equations(self):
        rng = random.Random(8)
        for _ in range(20):
            sys = random_system(rng, n_min=2)
            a = Assignment(sys.n, rng.randrange(2**sys.n))
            j = rng.randrange(sys.n)
            flipped = Assignment(a.n, a.bits ^ 1 << j)
            for eq in sys.equations:
                touched = bool(eq.lhs.bits >> j & 1)
                assert (eq.is_satisfied_by(a) != eq.is_satisfied_by(flipped)) == touched

    def test_dimension_mismatch(self):
        sys = LinearSystem.build(2, [([0], 0, 1)])
        with pytest.raises(DimensionMismatchError):
            evaluate(sys, Assignment(3, 0))


class TestRankAndBasis:
    def test_unit_columns(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1), ([0, 1], 1, 1)])
        assert rank_and_basis(sys) == (2, (0, 1))

    def test_single_equation(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 1)])
        assert rank_and_basis(sys) == (1, (0,))

    def test_dependent_rows(self):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 0, 1), ([0, 2], 0, 1)])
        rank, cols = rank_and_basis(sys)
        assert rank == 2
        assert cols == (0, 1)

    def test_basis_columns_invertible_at_full_rank(self):
        rng = random.Random(9)
        tried = 0
        while tried < 15:
            sys = random_system(rng, n_min=2, n_max=6, m_min=6, m_max=12)
            rank, cols = rank_and_basis(sys)
            if rank != sys.n:
                continue
            tried += 1
            assert cols == tuple(range(sys.n))
            # rows restricted to the basis columns still have full rank
            rows = [eq.lhs.bits for eq in sys.equations]
            pivots, _ = rref(rows, sys.n)
            assert len(pivots) == sys.n


def full_pivot_basis(rows, n):
    """The echelon basis with every row reduced, none skipped."""
    basis = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
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
            LinearSystem(2, (Equation(F2Vector.zero(2), 0, Fraction(1), 0),))

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


def raised(build):
    try:
        build()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return None


class TestFromRows:
    @pytest.mark.parametrize(
        "n, rows",
        [
            (2, [(0b100, 0, Fraction(1), 0)]),  # a bit past n
            (2, [(0, 0, Fraction(1), 0)]),  # zero lhs
            (2, [(0b01, 2, Fraction(1), 0)]),  # rhs 2
            (2, [(0b01, 0, Fraction(0), 0)]),  # weight 0
            (2, [(0b01, 0, Fraction(-1, 2), 0)]),  # negative weight
            (2, [(0b01, 0, 1.5, 0)]),  # float weight
            (2, [(0b01, 0, "x", 0)]),  # weight that is no number
            (2, [(0b01, 0, Fraction(1), -1)]),  # negative id
            (2, [(0b01, 0, Fraction(1), 3), (0b10, 0, Fraction(1), 3)]),  # repeated id
            (2, [(0, 0, Fraction(1), 0), (0b01, 2, Fraction(1), 1)]),  # row checks come first
            (-1, []),  # negative dimension
            (-1, [(0b01, 0, Fraction(1), 0)]),
        ],
    )
    def test_malformed_rows_raise_what_equations_raise(self, n, rows):
        via_rows = raised(lambda: LinearSystem.from_rows(n, rows))
        via_equations = raised(lambda: LinearSystem(
            n, [Equation(F2Vector(n, bits), rhs, w, i) for bits, rhs, w, i in rows]
        ))
        assert via_rows is not None
        assert via_rows == via_equations

    def test_equals_the_system_built_from_equations(self):
        rng = random.Random(32)
        for _ in range(40):
            sys = random_system(rng, m_min=0, rational_weights=True)
            rows = [(eq.lhs.bits, eq.rhs, eq.weight, eq.eq_id) for eq in sys.equations]
            for next_id in (-1, sys.next_id + 3):
                got = LinearSystem.from_rows(sys.n, rows, next_id)
                want = LinearSystem(sys.n, sys.equations, next_id)
                assert got == want and hash(got) == hash(want)
                assert got.equations == want.equations
                assert got.ids() == want.ids()
                assert got.next_id == want.next_id
                assert got.rows == want.rows == tuple(rows)
                assert all(a is b for a, b in zip(got.rows, rows))

    def test_weights_become_fractions(self):
        sys = LinearSystem.from_rows(2, [(0b01, 0, 2, 0), (0b10, 1, "3/2", 5)])
        assert sys.rows == ((0b01, 0, Fraction(2), 0), (0b10, 1, Fraction(3, 2), 5))
        assert all(type(row[2]) is Fraction for row in sys.rows)
        assert sys.next_id == 6

    def test_a_system_of_equations_keeps_them(self):
        eqs = (eqn(2, [0], 0, 1, eq_id=0), eqn(2, [1], 1, 2, eq_id=4))
        sys = LinearSystem(2, eqs)
        assert sys.equations is eqs
        assert sys.equation(4) is eqs[1]
        assert sys.rows == ((0b01, 0, Fraction(1), 0), (0b10, 1, Fraction(2), 4))
        assert sys == LinearSystem.from_rows(2, sys.rows)

    def test_equality_ignores_next_id_but_not_ids(self):
        row = (0b01, 0, Fraction(1), 0)
        assert LinearSystem.from_rows(1, [row], 9) == LinearSystem.from_rows(1, [row])
        assert LinearSystem.from_rows(1, [row]) != LinearSystem.from_rows(1, [(*row[:3], 1)])
        assert LinearSystem.from_rows(1, [row]) != LinearSystem.from_rows(2, [row])


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
            lambda: LinearSystem(2, [eqn(2, [0], 0, 1)]).equation(5),
            EquationNotFoundError,
            "no equation with id 5",
            id="missing-id",
        ),
        pytest.param(
            lambda: eqn(2, [0], 0, 1).is_satisfied_by(Assignment(3)),
            DimensionMismatchError,
            "dimensions differ: 2 vs 3",
            id="satisfied-by-dimension",
        ),
        pytest.param(
            lambda: F2Vector.from01("012"),
            MaxlinError,
            "invalid character '2' in 0/1 vector",
            id="from01-character",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)
