import random

import pytest

from maxlin import (
    Assignment,
    DimensionMismatchError,
    LinearSystem,
    MaxlinError,
    ReductionTranscript,
    apply_rule1,
    apply_rule2,
    brute_force_max_excess,
    evaluate,
    is_irreducible,
    lift_assignment,
    make_irreducible,
    rank_and_basis,
    replay_transcript,
)

from helpers import assert_raises, random_system


class TestRule1:
    def test_deletes_dependent_variable(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        out, tr = apply_rule1(sys)
        assert out.n == 1 and out.m == 1
        assert out.equations[0].lhs.support() == (0,)
        assert tr.deleted_variables == ((1, frozenset({0})),)
        assert tr.kept_variables == (0,)

    def test_full_rank_unchanged(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        out, tr = apply_rule1(sys)
        assert out == sys
        assert tr.is_identity()

    def test_chain_system(self):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 1, 1)])
        out, tr = apply_rule1(sys)
        assert out.n == 2
        assert tr.kept_variables == (0, 1)
        (deleted, deps), = tr.deleted_variables
        assert deleted == 2
        # column 3 = column 1 + column 2 in this chain
        assert deps == frozenset({0, 1})

    def test_projection_reaches_full_rank(self):
        rng = random.Random(10)
        for _ in range(25):
            sys = random_system(rng, n_min=2, n_max=8, m_min=1, m_max=10)
            out, _ = apply_rule1(sys)
            assert rank_and_basis(out)[0] == out.n

    def test_dependency_sets_reproduce_columns(self):
        rng = random.Random(11)
        for _ in range(25):
            sys = random_system(rng, n_min=2, n_max=8, m_min=1, m_max=10)
            _, tr = apply_rule1(sys)
            cols = {
                j: frozenset(i for i, eq in enumerate(sys.equations) if eq.lhs.bits >> j & 1)
                for j in range(sys.n)
            }
            for j, deps in tr.deleted_variables:
                total = frozenset()
                for i in deps:
                    total = total ^ cols[i]
                assert total == cols[j]


class TestRule2:
    def test_weight_difference(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 3), ([0, 1], 1, 2)])
        out = apply_rule2(sys)
        assert out.m == 1
        eq = out.equations[0]
        assert (eq.lhs.support(), eq.rhs, eq.weight) == ((0, 1), 0, 1)
        assert eq.eq_id == 2  # merged rows get a fresh id

    def test_equal_weights_cancel(self):
        sys = LinearSystem.build(1, [([0], 0, 1), ([0], 1, 1)])
        assert apply_rule2(sys).m == 0

    def test_same_rhs_sums(self):
        sys = LinearSystem.build(1, [([0], 0, 1), ([0], 0, 2)])
        out = apply_rule2(sys)
        assert out.m == 1
        assert out.equations[0].weight == 3

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(25):
            sys = random_system(rng)
            once = apply_rule2(sys)
            assert apply_rule2(once) == once
            assert not once.has_duplicate_lhs()

    def test_merged_row_keeps_first_position(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 5), ([0], 0, 2)])
        out = apply_rule2(sys)
        assert [eq.lhs.support() for eq in out.equations] == [(0,), (1,)]
        assert out.equations[0].weight == 3

    def test_unmerged_rows_keep_their_row_tuples(self):
        distinct = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        assert apply_rule2(distinct) is distinct
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 5), ([0], 1, 2)])
        out = apply_rule2(sys)
        assert out.ids() == (3, 1)
        assert out.rows[1] is sys.rows[1]
        rng = random.Random(18)
        for _ in range(40):
            sys = random_system(rng)
            before = {row[3]: row for row in sys.rows}
            for row in apply_rule2(sys).rows:
                if row[3] in before:
                    assert row is before[row[3]]

    def test_pointwise_excess_preserved(self):
        rng = random.Random(13)
        for _ in range(20):
            sys = random_system(rng, n_max=6, rational_weights=True)
            out = apply_rule2(sys)
            for bits in range(2**sys.n):
                a = Assignment(sys.n, bits)
                assert evaluate(sys, a).excess == evaluate(out, a).excess


class TestMakeIrreducible:
    def test_already_irreducible(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        out, tr = make_irreducible(sys)
        assert out == sys and tr.is_identity()

    def test_two_rule_composition(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 3), ([0, 1], 1, 2)])
        out, tr = make_irreducible(sys)
        assert out.n == 1 and out.m == 1
        eq = out.equations[0]
        assert (eq.lhs.support(), eq.rhs, eq.weight) == ((0,), 0, 1)
        assert len(tr.merge_log) == 1 and len(tr.deleted_variables) == 1

    def test_rule2_can_reopen_rule1(self):
        # cancelling the pair drops the rank, forcing a variable deletion
        sys = LinearSystem.build(2, [([0], 0, 1), ([0], 1, 1), ([1], 0, 1)])
        out, tr = make_irreducible(sys)
        assert out.n == 1 and out.m == 1
        assert (0, frozenset()) in tr.deleted_variables

    def test_rank_deficient_system_is_not_irreducible(self):
        # distinct left-hand sides, but column z3 is the sum of columns z1 and z2
        sys = LinearSystem.build(3, [([0, 2], 0, 1), ([1, 2], 1, 1), ([0, 1], 0, 2)])
        assert not sys.has_duplicate_lhs()
        assert rank_and_basis(sys)[0] == 2
        assert not is_irreducible(sys)

    def test_output_is_irreducible(self):
        rng = random.Random(14)
        for _ in range(40):
            sys = random_system(rng)
            out, _ = make_irreducible(sys)
            assert is_irreducible(out)
            assert rank_and_basis(out)[0] == out.n
            assert apply_rule2(out) == out

    def test_oracle_excess_preserved(self):
        rng = random.Random(15)
        for _ in range(40):
            sys = random_system(rng, n_max=8, m_max=16)
            out, _ = make_irreducible(sys)
            assert (
                brute_force_max_excess(sys).excess
                == brute_force_max_excess(out).excess
            )

    def test_replay_matches_bit_exactly(self):
        rng = random.Random(16)
        for _ in range(40):
            sys = random_system(rng)
            out, tr = make_irreducible(sys)
            assert replay_transcript(tr, sys) == out


class TestLiftAssignment:
    def test_deleted_variables_become_zero(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        out, tr = apply_rule1(sys)
        lifted = lift_assignment(tr, Assignment.from01("1"))
        assert lifted.to01() == "10"

    def test_identity_transcript(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        _, tr = make_irreducible(sys)
        a = Assignment.from01("01")
        assert lift_assignment(tr, a) == a

    def test_dimension_mismatch(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        _, tr = apply_rule1(sys)
        with pytest.raises(DimensionMismatchError):
            lift_assignment(tr, Assignment.from01("10"))

    def test_excess_preserved_for_every_assignment(self):
        rng = random.Random(17)
        for _ in range(30):
            sys = random_system(rng, n_max=6, m_max=12, rational_weights=True)
            out, tr = make_irreducible(sys)
            for bits in range(2**out.n):
                reduced = Assignment(out.n, bits)
                lifted = lift_assignment(tr, reduced)
                assert evaluate(sys, lifted).excess == evaluate(out, reduced).excess


def test_repeated_lhs_is_not_irreducible():
    # full rank, so only the repeated left-hand side makes it reducible
    assert not is_irreducible(LinearSystem.build(1, [([0], 0, 1), ([0], 1, 1)]))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0, 1)),
            MaxlinError,
            "kept_variables must have one entry per reduced variable",
            id="kept-count",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, frozenset({0})), (1, frozenset({0})))),
            MaxlinError,
            "a variable may be deleted only once",
            id="deleted-twice",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0,), ((0, frozenset()),)),
            MaxlinError,
            "a variable cannot be both kept and deleted",
            id="kept-and-deleted",
        ),
        pytest.param(
            lambda: replay_transcript(ReductionTranscript(2, 2, (0, 1)), LinearSystem(3)),
            DimensionMismatchError,
            "system has 3 variables, transcript expects 2",
            id="replay-dimension",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)
