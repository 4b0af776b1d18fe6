import random
from fractions import Fraction

import pytest

from maxlin import (
    Assignment,
    Certificate,
    DimensionMismatchError,
    EquationNotFoundError,
    LinearSystem,
    MaxlinError,
    NonIntegralWeightError,
    brute_force_max_excess,
    evaluate,
    h_step,
    reconstruct,
    run_h,
    verify_certificate,
)
from maxlin.f2core import Equation, F2Vector

from helpers import (
    certificate_from_assignment,
    enumerate_all_runs,
    max_marked_weight,
    random_system,
    search_accepting_sequence,
)


def triple_system():
    return LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])


class TestHStep:
    def test_cascading_cancellation(self):
        sys = triple_system()
        nxt, record = h_step(sys, 0)
        assert nxt.m == 0  # z2=0 and z2=1 merge away
        assert record == sys.equation(0)
        assert record.lhs.min_var() == 0

    def test_single_equation(self):
        sys = LinearSystem.build(3, [([1, 2], 1, 4)])
        nxt, record = h_step(sys, 0)
        assert nxt.m == 0
        assert record.lhs.min_var() == 1

    def test_untouched_equations_survive(self):
        sys = LinearSystem.build(4, [([0, 1], 0, 1), ([2], 1, 2), ([3], 0, 3)])
        nxt, _ = h_step(sys, 0)
        assert nxt.equations == sys.equations[1:]

    def test_marked_variable_eliminated(self):
        rng = random.Random(21)
        for _ in range(20):
            sys = random_system(rng, n_max=6, m_max=8)
            from maxlin.reduce import apply_rule2

            sys = apply_rule2(sys)
            if sys.m == 0:
                continue
            eq_id = rng.choice(sys.ids())
            nxt, record = h_step(sys, eq_id)
            for eq in nxt.equations:
                assert not eq.lhs.bits >> record.lhs.min_var() & 1

    def test_missing_id(self):
        with pytest.raises(EquationNotFoundError):
            h_step(triple_system(), 99)

    def test_silent_drop_of_duplicate_rhs0(self):
        # duplicate lhs, same rhs: the cancelled row's weight vanishes
        sys = LinearSystem.build(1, [([0], 0, 1), ([0], 0, 5)])
        nxt, _ = h_step(sys, 0)
        assert nxt.m == 0

    def test_duplicate_lhs_with_opposite_rhs_raises(self):
        # the summed row reads 0 = 1; only unmerged input can produce it
        sys = LinearSystem.build(2, [([0, 1], 0, 1), ([0, 1], 1, 2)])
        with pytest.raises(MaxlinError):
            h_step(sys, 0)


class TestRunH:
    def test_empty_system(self):
        assert run_h(LinearSystem(3)) == ((), 0)

    def test_triple_example(self):
        run = run_h(triple_system())
        assert run.total_marked_weight == 2
        assert len(run.records) == 1

    def test_single_equation_weight(self):
        run = run_h(LinearSystem.build(1, [([0], 0, 1)]))
        assert run.total_marked_weight == 1

    def test_first_ids_marked_in_order(self):
        sys = LinearSystem.build(3, [([0], 0, 1), ([1], 0, 2), ([2], 0, 3)])
        run = run_h(sys, [2, 0])
        assert [r.eq_id for r in run.records] == [2, 0, 1]

    def test_first_ids_must_be_present(self):
        sys = LinearSystem.build(
            3, [([0], 0, 1), ([0, 1], 0, 1), ([1], 1, 1), ([2], 0, 1)]
        )
        with pytest.raises(MaxlinError, match="equation 2 vanished before its marking turn"):
            run_h(sys, [0, 2])  # id 2 cancels once id 0 is marked

    def test_marks_the_lowest_live_id_by_default(self):
        rows = [Equation(F2Vector.from_support(3, [i]), 0, Fraction(1), i) for i in (2, 0, 1)]
        run = run_h(LinearSystem(3, tuple(rows), 3))
        assert [r.eq_id for r in run.records] == [0, 1, 2]

    def test_marked_variables_distinct_and_never_reappear(self):
        rng = random.Random(22)
        for _ in range(30):
            sys = random_system(rng, n_max=7, m_max=10)
            run = run_h(sys)
            variables = [r.lhs.min_var() for r in run.records]
            assert len(set(variables)) == len(variables)
            for i, record in enumerate(run.records):
                for later in run.records[i + 1 :]:
                    assert not later.lhs.bits >> record.lhs.min_var() & 1


class TestReconstruct:
    def test_single_record(self):
        rec = Equation(F2Vector.from_support(2, [0]), 0, Fraction(1), 0)
        assert reconstruct([rec], 2) == Assignment.from01("00")

    def test_back_substitution(self):
        first = Equation(F2Vector.from_support(2, [0, 1]), 1, Fraction(1), 0)
        second = Equation(F2Vector.from_support(2, [1]), 1, Fraction(1), 1)
        assert reconstruct([first, second], 2) == Assignment.from01("01")

    def test_empty_records(self):
        assert reconstruct([], 3) == Assignment.zero(3)

    def test_record_with_empty_lhs_rejected(self):
        empty = Equation(F2Vector.zero(3), 0, Fraction(1), 4)
        with pytest.raises(MaxlinError, match="record 4 has an empty left-hand side"):
            reconstruct([empty], 3)

    def test_variable_marked_twice_rejected(self):
        # both records mark variable 1, their lowest one
        first = Equation(F2Vector.from_support(3, [1, 2]), 0, Fraction(1), 0)
        second = Equation(F2Vector.from_support(3, [1]), 1, Fraction(1), 1)
        with pytest.raises(MaxlinError, match="variable 1 marked twice"):
            reconstruct([first, second], 3)

    def test_record_of_another_dimension_rejected(self):
        rec = Equation(F2Vector.from_support(2, [0]), 0, Fraction(1), 0)
        with pytest.raises(DimensionMismatchError, match="record has dimension 2, expected 3"):
            reconstruct([rec], 3)

    def test_every_run_excess_equals_marked_weight(self):
        # reconstruction satisfies all marked rows, and the eliminated rest
        # cancels exactly, so the excess matches the marked total
        rng = random.Random(23)
        for _ in range(25):
            sys = random_system(rng, n_max=5, m_max=6, rational_weights=True)
            run = run_h(sys)
            a = reconstruct(run.records, sys.n)
            assert evaluate(sys, a).excess == run.total_marked_weight


class TestMarkingEquivalence:
    def test_best_run_attains_oracle_max(self):
        rng = random.Random(24)
        for _ in range(25):
            sys = random_system(rng, n_max=5, m_max=5)
            assert max_marked_weight(sys) == brute_force_max_excess(sys).excess

    def test_best_run_attains_oracle_max_wider(self):
        rng = random.Random(29)
        for _ in range(10):
            sys = random_system(rng, n_max=8, m_max=8)
            assert max_marked_weight(sys) == brute_force_max_excess(sys).excess

    def test_all_runs_bounded_by_reconstruction(self):
        rng = random.Random(25)
        for _ in range(8):
            sys = random_system(rng, n_max=4, m_max=4)
            for records, total in enumerate_all_runs(sys):
                a = reconstruct(records, sys.n)
                assert evaluate(sys, a).excess >= total


class TestVerifyCertificate:
    def test_accepts_triple_example(self):
        assert verify_certificate(triple_system(), Certificate((0,)), 2)

    def test_rejects_cancelled_id(self):
        # marking id 0 cancels ids 1 and 2 before their turn
        assert not verify_certificate(triple_system(), Certificate((0, 1)), 3)

    def test_rejects_id_merged_at_entry(self):
        # equal-lhs rows merge into a fresh id before any marking turn
        sys = LinearSystem.build(1, [([0], 0, 1), ([0], 0, 2)])
        assert not verify_certificate(sys, Certificate((0,)), 1)
        assert not verify_certificate(sys, Certificate((1,)), 1)
        assert verify_certificate(sys, Certificate((2,)), 3)

    def test_rejects_empty_for_positive_k(self):
        assert not verify_certificate(triple_system(), Certificate(()), 1)

    def test_rejects_overlong_certificate(self):
        sys = LinearSystem.build(3, [([0], 0, 1), ([1], 0, 1), ([2], 0, 1)])
        assert not verify_certificate(sys, Certificate((0, 1, 2)), 2)

    def test_requires_integral_weights(self):
        sys = LinearSystem.build(1, [([0], 0, Fraction(1, 2))])
        with pytest.raises(NonIntegralWeightError):
            verify_certificate(sys, Certificate((0,)), 1)

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(MaxlinError):
            Certificate((1, 1))

    def test_acceptance_implies_yes_instance(self):
        rng = random.Random(26)
        checked = 0
        while checked < 20:
            sys = random_system(rng, n_max=6, m_max=8)
            if sys.m == 0:
                continue
            k = rng.randint(1, 4)
            ids = rng.sample(sys.ids(), rng.randint(1, min(k, sys.m)))
            if verify_certificate(sys, Certificate(tuple(ids)), k):
                assert brute_force_max_excess(sys).excess >= k
            checked += 1

    def test_constructed_certificates_accept(self):
        rng = random.Random(27)
        checked = 0
        while checked < 15:
            sys = random_system(rng, n_max=6, m_max=8)
            best = brute_force_max_excess(sys)
            if best.excess < 1:
                continue
            k = rng.randint(1, int(best.excess))
            cert = certificate_from_assignment(sys, k, best.assignment)
            assert len(cert) <= k
            assert verify_certificate(sys, Certificate(cert), k)
            checked += 1

    def test_exhaustive_search_matches_oracle(self):
        rng = random.Random(28)
        for _ in range(10):
            sys = random_system(rng, n_max=4, m_max=5)
            k = rng.randint(1, 3)
            found = search_accepting_sequence(sys, k)
            is_yes = brute_force_max_excess(sys).excess >= k
            assert (found is not None) == is_yes
            if found is not None:
                assert verify_certificate(sys, Certificate(found), k)
