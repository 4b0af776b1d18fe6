import random
from fractions import Fraction

import pytest

from maxlin import (
    CnfFormula,
    LinearSystem,
    MaxlinError,
    NonIntegralWeightError,
    PreconditionError,
    brute_force_max_excess,
    decide_sat_aa,
    eval_fourier,
    kernelize_rlin,
    sat_to_fourier,
    satisfied_clause_count,
)

from helpers import all_points, assert_raises, random_cnf


class TestSatToFourier:
    def test_single_positive_clause(self):
        g = sat_to_fourier(CnfFormula(2, ((1, 2),)), 2)
        assert g.constant == 0
        assert g.terms == {
            frozenset([0]): Fraction(-1),
            frozenset([1]): Fraction(-1),
            frozenset([0, 1]): Fraction(-1),
        }

    def test_complementary_clauses_cancel(self):
        g = sat_to_fourier(CnfFormula(2, ((1, 2), (-1, -2))), 2)
        assert g.constant == 0
        assert g.terms == {frozenset([0, 1]): Fraction(-2)}

    def test_all_negated_literals(self):
        g = sat_to_fourier(CnfFormula(2, ((-1, -2),)), 2)
        # eps = -1 everywhere: linear terms flip sign, the pair term does not
        assert g.terms == {
            frozenset([0]): Fraction(1),
            frozenset([1]): Fraction(1),
            frozenset([0, 1]): Fraction(-1),
        }

    def test_arity_mismatch_rejected(self):
        with pytest.raises(MaxlinError):
            sat_to_fourier(CnfFormula(3, ((1, 2, 3),)), 2)

    def test_term_sizes_bounded_by_r(self):
        rng = random.Random(61)
        for r in (2, 3):
            formula = random_cnf(rng, n=8, m=15, r=r)
            g = sat_to_fourier(formula, r)
            assert all(len(s) <= r for s in g.terms)


def count_and_value(formula, r, point):
    """The satisfied count s and the expansion's value g at the point, which
    meet the bridge identity g = m - (m - s) * 2^r."""
    s = satisfied_clause_count(formula, point)
    g = eval_fourier(sat_to_fourier(formula, r), point)
    assert g == formula.m - (formula.m - s) * 2**r
    return s, g


class TestSatIdentity:
    def test_satisfied_clause(self):
        assert count_and_value(CnfFormula(2, ((1, 2),)), 2, (-1, -1)) == (1, 1)

    def test_falsified_clause(self):
        assert count_and_value(CnfFormula(2, ((1, 2),)), 2, (1, 1)) == (0, -3)

    def test_empty_formula(self):
        assert count_and_value(CnfFormula(2, ()), 2, (1, -1)) == (0, 0)

    def test_identity_at_every_point(self):
        rng = random.Random(62)
        for _ in range(16):
            r = rng.choice((1, 2, 3, 4))
            n = rng.randint(r, 7)
            formula = random_cnf(rng, n=n, m=rng.randint(1, 12), r=r)
            g = sat_to_fourier(formula, r)
            for point in all_points(n):
                s = satisfied_clause_count(formula, point)
                assert eval_fourier(g, point) == formula.m - (formula.m - s) * 2**r


class TestDecideSatAa:
    def test_single_clause_yes(self):
        answer, point = decide_sat_aa(CnfFormula(2, ((1, 2),)), 2, 1)
        assert answer is True
        assert satisfied_clause_count(CnfFormula(2, ((1, 2),)), point) == 1

    def test_duplicate_clauses_double(self):
        formula = CnfFormula(2, ((1, 2), (1, 2)))
        answer, _ = decide_sat_aa(formula, 2, 2)
        assert answer is True

    def test_single_clause_k2_no(self):
        answer, _ = decide_sat_aa(CnfFormula(2, ((1, 2),)), 2, 2)
        assert answer is False

    def test_agrees_with_direct_enumeration(self):
        rng = random.Random(63)
        for _ in range(25):
            r = rng.choice((2, 3))
            n = rng.randint(r, 8)
            m = rng.randint(1, 14)
            formula = random_cnf(rng, n=n, m=m, r=r)
            k = rng.randint(1, 4)
            best = max(satisfied_clause_count(formula, p) for p in all_points(n))
            expected = 2**r * best >= (2**r - 1) * m + k
            answer, point = decide_sat_aa(formula, r, k)
            assert answer == expected
            if answer:
                s = satisfied_clause_count(formula, point)
                assert 2**r * s >= (2**r - 1) * m + k

    def test_rejects_small_r(self):
        with pytest.raises(MaxlinError):
            decide_sat_aa(CnfFormula(1, ((1,),)), 1, 1)


class TestKernelize:
    def test_yes_branch_on_wide_system(self):
        sys = LinearSystem.build(20, [([i], 0, 1) for i in range(20)])
        outcome = kernelize_rlin(sys, 2, 2)
        assert outcome.is_yes

    def test_kernel_branch_on_dense_system(self):
        sys = LinearSystem.build(
            2, [([0], 0, 1), ([1], 0, 1), ([0, 1], 0, 1), ([0, 1], 1, 2)]
        )
        outcome = kernelize_rlin(sys, 2, 3)
        assert not outcome.is_yes
        kernel = outcome.reduced_system
        assert kernel.n <= 2
        assert all(eq.lhs.bits.bit_count() <= 2 for eq in kernel.equations)

    def test_m_below_k_falls_to_kernel(self):
        sys = LinearSystem.build(2, [([0], 0, 5), ([1], 0, 5)])
        outcome = kernelize_rlin(sys, 2, 3)
        assert not outcome.is_yes

    def test_arity_violation_rejected(self):
        sys = LinearSystem.build(3, [([0, 1, 2], 0, 1)])
        with pytest.raises(MaxlinError):
            kernelize_rlin(sys, 2, 2)

    def test_fractional_weights_rejected(self):
        sys = LinearSystem.build(1, [([0], 0, Fraction(1, 2))])
        with pytest.raises(NonIntegralWeightError):
            kernelize_rlin(sys, 1, 2)

    def test_k_must_be_at_least_two(self):
        sys = LinearSystem.build(1, [([0], 0, 1)])
        with pytest.raises(PreconditionError):
            kernelize_rlin(sys, 1, 1)

    def test_bool_k_is_refused(self):
        # True would otherwise pass as k = 1 and fail only the range test
        sys = LinearSystem.build(1, [([0], 0, 1)])
        assert_raises(
            lambda: kernelize_rlin(sys, 1, True), PreconditionError,
            "kernelization needs integer k >= 2, got True",
        )

    def test_kernel_preserves_answer(self):
        rng = random.Random(65)
        for _ in range(25):
            n = rng.randint(2, 8)
            rows = []
            for _ in range(rng.randint(1, 14)):
                size = rng.randint(1, min(2, n))
                rows.append((sorted(rng.sample(range(n), size)), rng.randint(0, 1), rng.randint(1, 4)))
            sys = LinearSystem.build(n, rows)
            k = rng.randint(2, 4)
            outcome = kernelize_rlin(sys, 2, k)
            original_yes = brute_force_max_excess(sys).excess >= k
            if outcome.is_yes:
                assert original_yes
            else:
                kernel_yes = brute_force_max_excess(outcome.reduced_system).excess >= k
                assert kernel_yes == original_yes


def cnf(n, *clauses):
    return CnfFormula(n, clauses)


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: cnf(-1), "variable count must be non-negative", id="cnf-n"),
        pytest.param(lambda: cnf(2.0), "variable count must be an int, got 2.0", id="cnf-float-n"),
        pytest.param(lambda: cnf(True), "variable count must be an int, got True", id="cnf-bool-n"),
        pytest.param(lambda: cnf("2"), "variable count must be an int, got '2'", id="cnf-str-n"),
        pytest.param(lambda: cnf(2, (1, 0)), "literal 0 is not allowed", id="cnf-literal-0"),
        pytest.param(lambda: cnf(2, (3,)), "literal 3 exceeds variable count 2", id="cnf-literal-range"),
        pytest.param(lambda: cnf(2, (1, -1)), "clause (1, -1) repeats variable 1", id="cnf-repeat"),
        pytest.param(lambda: cnf(2, (1.0, 2)), "literal 1.0 is not an int", id="cnf-float-literal"),
        pytest.param(lambda: cnf(2, (True, 2)), "literal True is not an int", id="cnf-bool-literal"),
        pytest.param(lambda: cnf(2, (1,), ()), "empty clause", id="cnf-empty-clause"),
        pytest.param(
            lambda: sat_to_fourier(cnf(1), 0),
            "clause arity r must be a positive integer, got 0",
            id="sat-r",
        ),
        pytest.param(
            lambda: sat_to_fourier(cnf(1, (1,)), True),
            "clause arity r must be a positive integer, got True",
            id="sat-bool-r",
        ),
        pytest.param(
            lambda: kernelize_rlin(LinearSystem(1), 0, 2),
            "arity bound r must be a positive integer, got 0",
            id="kernel-r",
        ),
        pytest.param(
            lambda: kernelize_rlin(LinearSystem(1), True, 2),
            "arity bound r must be a positive integer, got True",
            id="kernel-bool-r",
        ),
        pytest.param(
            lambda: decide_sat_aa(cnf(2, (1, 2)), 2, 0),
            "parameter k must be a positive integer, got 0",
            id="decide-k",
        ),
        pytest.param(
            lambda: decide_sat_aa(cnf(2, (1, 2)), 2, True),
            "parameter k must be a positive integer, got True",
            id="decide-bool-k",
        ),
        pytest.param(
            lambda: decide_sat_aa(cnf(2, (1, 2)), "3", 1),
            "exact-r SAT requires an integer r >= 2, got '3'",
            id="decide-r-type",
        ),
        pytest.param(
            lambda: decide_sat_aa(cnf(2, (1, 2)), True, 1),
            "exact-r SAT requires an integer r >= 2, got True",
            id="decide-bool-r",
        ),
        pytest.param(
            lambda: satisfied_clause_count(cnf(2, (1, 2)), (1,)),
            "point has 1 entries, expected 2",
            id="count-point-length",
        ),
        pytest.param(
            lambda: satisfied_clause_count(cnf(2, (1, 2)), (1, 0)),
            "point entries must be -1 or +1",
            id="count-point-entry",
        ),
        pytest.param(
            lambda: satisfied_clause_count(cnf(2, (1, 2)), (True, 1)),
            "point entry True is not an int",
            id="count-point-bool-entry",
        ),
        pytest.param(
            lambda: satisfied_clause_count(cnf(2, (1, 2)), (1.0, -1)),
            "point entry 1.0 is not an int",
            id="count-point-float-entry",
        ),
    ],
)
def test_boundary_checks(call, fragment):
    assert_raises(call, MaxlinError, fragment)
