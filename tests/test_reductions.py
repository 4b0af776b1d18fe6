import random
from fractions import Fraction

import pytest

from maxlin import (
    CnfFormula,
    CspConstraint,
    CspInstance,
    LinearSystem,
    MaxlinError,
    NonIntegralWeightError,
    PreconditionError,
    brute_force_max_excess,
    csp_to_fourier,
    decide_sat_aa,
    eval_fourier,
    kernelize_rlin,
    sat_satisfied_count_identity,
    sat_to_fourier,
    satisfied_clause_count,
)

from helpers import all_points, assert_raises, random_cnf, random_csp


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


class TestSatIdentity:
    def test_satisfied_clause(self):
        s, g = sat_satisfied_count_identity(CnfFormula(2, ((1, 2),)), (-1, -1))
        assert (s, g) == (1, 1)

    def test_falsified_clause(self):
        s, g = sat_satisfied_count_identity(CnfFormula(2, ((1, 2),)), (1, 1))
        assert (s, g) == (0, -3)

    def test_empty_formula(self):
        s, g = sat_satisfied_count_identity(CnfFormula(2, ()), (1, -1))
        assert (s, g) == (0, 0)

    def test_identity_at_every_point(self):
        rng = random.Random(62)
        for _ in range(10):
            r = rng.choice((2, 3))
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


def csp_expected_average(inst: CspInstance) -> Fraction:
    return sum(
        (Fraction(len(c.satisfying), 2**c.arity) for c in inst.constraints), Fraction(0)
    )


def csp_satisfied_count(inst: CspInstance, point) -> int:
    count = 0
    for cons in inst.constraints:
        restricted = tuple(point[v] for v in cons.variables)
        if restricted in cons.satisfying:
            count += 1
    return count


class TestCspToFourier:
    def test_single_negative_unit(self):
        inst = CspInstance(1, (CspConstraint((0,), frozenset({(-1,)})),))
        h = csp_to_fourier(inst, 1)
        assert h.constant == 0
        assert h.terms == {frozenset([0]): Fraction(-1)}
        assert eval_fourier(h, (-1,)) == 1

    def test_vacuous_constraint_vanishes(self):
        inst = CspInstance(1, (CspConstraint((0,), frozenset({(-1,), (1,)})),))
        h = csp_to_fourier(inst, 1)
        assert h.constant == 0 and not h.terms

    def test_exact_clause_matches_sat_expansion(self):
        # clause (x1 or x2) as a CSP constraint with its 3 satisfying points:
        # both bridges measure distance above average, so h == g here
        clause_sat = frozenset({(-1, -1), (-1, 1), (1, -1)})
        inst = CspInstance(2, (CspConstraint((0, 1), clause_sat),))
        h = csp_to_fourier(inst, 2)
        g = sat_to_fourier(CnfFormula(2, ((1, 2),)), 2)
        for point in all_points(2):
            s = 1 if (point[0], point[1]) in clause_sat else 0
            assert eval_fourier(h, point) == 4 * (s - Fraction(3, 4))
            assert eval_fourier(h, point) == eval_fourier(g, point)

    def test_arity_above_r_rejected(self):
        inst = CspInstance(2, (CspConstraint((0, 1), frozenset({(1, 1)})),))
        with pytest.raises(MaxlinError):
            csp_to_fourier(inst, 1)

    def test_identity_at_every_point(self):
        rng = random.Random(64)
        for _ in range(15):
            r = 3
            n = rng.randint(3, 6)
            inst = random_csp(rng, n=n, count=rng.randint(1, 8), r=r)
            h = csp_to_fourier(inst, r)
            average = csp_expected_average(inst)
            for point in all_points(n):
                s = csp_satisfied_count(inst, point)
                assert eval_fourier(h, point) == 2**r * (s - average)


class TestKernelize:
    def test_yes_branch_on_wide_system(self):
        sys = LinearSystem.build(20, [([i], 0, 1) for i in range(20)])
        outcome = kernelize_rlin(sys, 2, 2)
        assert outcome.is_yes and outcome.kernel is None

    def test_kernel_branch_on_dense_system(self):
        sys = LinearSystem.build(
            2, [([0], 0, 1), ([1], 0, 1), ([0, 1], 0, 1), ([0, 1], 1, 2)]
        )
        outcome = kernelize_rlin(sys, 2, 3)
        assert not outcome.is_yes
        kernel = outcome.kernel
        assert kernel is not None and kernel.n <= 2
        assert all(eq.lhs.popcount() <= 2 for eq in kernel.equations)

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
                kernel_yes = brute_force_max_excess(outcome.kernel).excess >= k
                assert kernel_yes == original_yes


def cnf(n, *clauses):
    return CnfFormula(n, clauses)


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: cnf(-1), "variable count must be non-negative", id="cnf-n"),
        pytest.param(lambda: cnf(2, (1, 0)), "literal 0 is not allowed", id="cnf-literal-0"),
        pytest.param(lambda: cnf(2, (3,)), "literal 3 exceeds variable count 2", id="cnf-literal-range"),
        pytest.param(lambda: cnf(2, (1, -1)), "clause (1, -1) repeats variable 1", id="cnf-repeat"),
        pytest.param(
            lambda: CspConstraint((), {()}),
            "constraints must touch at least one variable",
            id="csp-arity-0",
        ),
        pytest.param(
            lambda: CspConstraint((0, 0), {(1, 1)}),
            "constraint repeats a variable: (0, 0)",
            id="csp-repeat",
        ),
        pytest.param(
            lambda: CspConstraint((0,), set()),
            "constraints must have at least one satisfying point",
            id="csp-no-point",
        ),
        pytest.param(
            lambda: CspConstraint((0, 1), {(1, 0)}),
            "satisfying point (1, 0) must be a +-1 tuple of arity 2",
            id="csp-bad-point",
        ),
        pytest.param(
            lambda: CspInstance(-1, ()),
            "variable count must be non-negative",
            id="csp-instance-n",
        ),
        pytest.param(
            lambda: CspInstance(1, (CspConstraint((1,), {(1,)}),)),
            "constraint variables (1,) outside 0..0",
            id="csp-instance-range",
        ),
        pytest.param(
            lambda: sat_to_fourier(cnf(1), 0),
            "clause arity r must be a positive integer, got 0",
            id="sat-r",
        ),
        pytest.param(
            lambda: csp_to_fourier(CspInstance(1, ()), 0),
            "arity bound r must be a positive integer, got 0",
            id="csp-r",
        ),
        pytest.param(
            lambda: kernelize_rlin(LinearSystem(1), 0, 2),
            "arity bound r must be a positive integer, got 0",
            id="kernel-r",
        ),
        pytest.param(
            lambda: decide_sat_aa(cnf(2, (1, 2)), 2, 0),
            "parameter k must be a positive integer, got 0",
            id="decide-k",
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
            lambda: sat_satisfied_count_identity(cnf(2, (1,), (1, 2)), (1, 1)),
            "clauses have mixed arities [1, 2]",
            id="identity-mixed-arities",
        ),
    ],
)
def test_boundary_checks(call, fragment):
    assert_raises(call, MaxlinError, fragment)
