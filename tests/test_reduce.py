import random
from fractions import Fraction

import pytest

import maxlin.reduce as reduce_module
from maxlin import (
    Assignment,
    DimensionMismatchError,
    LinearSystem,
    MaxlinError,
    MergeEvent,
    ReductionTranscript,
    apply_rule1,
    apply_rule2,
    brute_force_max_excess,
    evaluate,
    lift_assignment,
    make_irreducible,
)

from helpers import assert_raises, is_irreducible, lhs_rank, random_system
import reference_reduce as ref


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
        assert tr == ReductionTranscript(2, 2, (0, 1))

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
            assert lhs_rank(out) == out.n

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
            assert len({row[0] for row in once.rows}) == once.m

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
        assert [row[3] for row in out.rows] == [3, 1]
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
                assert evaluate(sys, a) == evaluate(out, a)


class TestMakeIrreducible:
    def test_already_irreducible(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        out, tr = make_irreducible(sys)
        assert out == sys and tr == ReductionTranscript(2, 2, (0, 1))

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
        assert len({row[0] for row in sys.rows}) == sys.m
        assert lhs_rank(sys) == 2
        assert not is_irreducible(sys)

    def test_output_is_irreducible(self):
        rng = random.Random(14)
        for _ in range(40):
            sys = random_system(rng)
            out, _ = make_irreducible(sys)
            assert is_irreducible(out)
            assert lhs_rank(out) == out.n
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
            assert ref.replay_transcript(tr, sys) == out


class TestLiftAssignment:
    def test_deleted_variables_become_zero(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        out, tr = apply_rule1(sys)
        lifted = lift_assignment(tr, Assignment(1, 1))
        assert lifted.to01() == "10"

    def test_identity_transcript(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 1, 2)])
        _, tr = make_irreducible(sys)
        a = Assignment(2, 0b10)
        assert lift_assignment(tr, a) == a

    def test_dimension_mismatch(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        _, tr = apply_rule1(sys)
        with pytest.raises(DimensionMismatchError):
            lift_assignment(tr, Assignment(2, 0b01))

    def test_excess_preserved_for_every_assignment(self):
        rng = random.Random(17)
        for _ in range(30):
            sys = random_system(rng, n_max=6, m_max=12, rational_weights=True)
            out, tr = make_irreducible(sys)
            for bits in range(2**out.n):
                reduced = Assignment(out.n, bits)
                lifted = lift_assignment(tr, reduced)
                assert evaluate(sys, lifted) == evaluate(out, reduced)


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
            lambda: ReductionTranscript(-1, 0, ()),
            MaxlinError,
            "dimension must be non-negative",
            id="original-negative",
        ),
        pytest.param(
            lambda: ReductionTranscript(2.0, 0, ()),
            MaxlinError,
            "dimension must be an int, got 2.0",
            id="original-float",
        ),
        pytest.param(
            lambda: ReductionTranscript(1, True, (0,)),
            MaxlinError,
            "dimension must be an int, got True",
            id="reduced-bool",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, "2", (0, 1)),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="reduced-str",
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
            lambda: ReductionTranscript(2, 1, (-1,)),
            MaxlinError,
            "kept variable -1 outside 0..1",
            id="kept-negative",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (2,)),
            MaxlinError,
            "kept variable 2 outside 0..1",
            id="kept-too-large",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 2, (0, 0)),
            MaxlinError,
            "a variable may be kept only once",
            id="kept-twice",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0,), ((2, frozenset({0})),)),
            MaxlinError,
            "deleted variable 2 outside 0..1",
            id="deleted-too-large",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, frozenset({7})), (2, frozenset({True})))),
            MaxlinError,
            "dependency variable 7 outside 0..2",
            id="dependency-too-large",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, frozenset({-1})),)),
            MaxlinError,
            "dependency variable -1 outside 0..2",
            id="dependency-negative",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((2, frozenset({True})),)),
            MaxlinError,
            "dependency variable True is not an int",
            id="dependency-bool",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((2, frozenset({0.0})),)),
            MaxlinError,
            "dependency variable 0.0 is not an int",
            id="dependency-float",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, frozenset({2})), (2, frozenset()))),
            MaxlinError,
            "deleted variable 1 depends on variable 2, which is not kept",
            id="dependency-deleted",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, 5),)),
            MaxlinError,
            "dependencies of deleted variable 1 must be a set of variables, got 5",
            id="dependency-not-iterable",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1, [[0]]),)),
            MaxlinError,
            "dependencies of deleted variable 1 must be a set of variables, got [[0]]",
            id="dependency-unhashable",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0.5,)),
            MaxlinError,
            "kept variable 0.5 is not an int",
            id="kept-float",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (True,)),
            MaxlinError,
            "kept variable True is not an int",
            id="kept-bool",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0,), ((1.0, frozenset({0})),)),
            MaxlinError,
            "deleted variable 1.0 is not an int",
            id="deleted-float",
        ),
        pytest.param(
            lambda: ReductionTranscript(2, 1, (0,), ((True, frozenset({0})),)),
            MaxlinError,
            "deleted variable True is not an int",
            id="deleted-bool",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, 5),
            MaxlinError,
            "malformed kept_variables: 'int' object is not iterable",
            id="kept-not-iterable",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), ((1,),)),
            MaxlinError,
            "malformed deleted_variables: dictionary update sequence element #0 has length 1",
            id="deleted-not-a-pair",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (([1], frozenset()),)),
            MaxlinError,
            "malformed deleted_variables: unhashable type: 'list'",
            id="deleted-unhashable",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), 5),
            MaxlinError,
            "malformed merge_log: 'int' object is not iterable",
            id="merge-log-not-iterable",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (5,)),
            MaxlinError,
            "merge 5 is not a MergeEvent of two ids",
            id="merge-not-an-event",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (MergeEvent((0,), 5, Fraction(1)),)),
            MaxlinError,
            "is not a MergeEvent of two ids",
            id="merge-one-id",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (MergeEvent((0, True), 5, Fraction(1)),)),
            MaxlinError,
            "merged id True is not an int",
            id="merge-bool-id",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (MergeEvent((0, 1), "2", Fraction(1)),)),
            MaxlinError,
            "surviving id '2' is not an int",
            id="merge-str-survivor",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (MergeEvent((0, 1), 2, 1.5),)),
            MaxlinError,
            "merge weight 1.5 is not an int or a Fraction",
            id="merge-float-weight",
        ),
        pytest.param(
            lambda: ReductionTranscript(3, 1, (0,), (), (MergeEvent((0, 1), None, "x"),)),
            MaxlinError,
            "merge weight 'x' is not an int or a Fraction",
            id="merge-str-weight",
        ),
        # a MergeEvent checks itself, outside any transcript
        pytest.param(
            lambda: MergeEvent(5, None, 0),
            MaxlinError,
            "malformed merged_ids: 'int' object is not iterable",
            id="event-ids-not-iterable",
        ),
        pytest.param(
            lambda: MergeEvent((0,), 5, "x"),
            MaxlinError,
            "is not a MergeEvent of two ids",
            id="event-one-id",
        ),
        pytest.param(
            lambda: MergeEvent((0, 1, 2), 5, Fraction(1)),
            MaxlinError,
            "is not a MergeEvent of two ids",
            id="event-three-ids",
        ),
        pytest.param(
            lambda: MergeEvent([0, 1.0], 5, Fraction(1)),
            MaxlinError,
            "merged id 1.0 is not an int",
            id="event-float-id",
        ),
        pytest.param(
            lambda: MergeEvent((0, 1), True, Fraction(1)),
            MaxlinError,
            "surviving id True is not an int",
            id="event-bool-survivor",
        ),
        pytest.param(
            lambda: MergeEvent((0, 1), 2, "x"),
            MaxlinError,
            "merge weight 'x' is not an int or a Fraction",
            id="event-str-weight",
        ),
        pytest.param(
            lambda: MergeEvent((0, 1), None, False),
            MaxlinError,
            "merge weight False is not an int or a Fraction",
            id="event-bool-weight",
        ),
        pytest.param(
            # the merge_log checks run last, so an older error comes first
            lambda: ReductionTranscript(2, 1, (2,), (), (5,)),
            MaxlinError,
            "kept variable 2 outside 0..1",
            id="older-error-before-merge-log",
        ),
        pytest.param(
            lambda: ref.replay_transcript(ReductionTranscript(2, 2, (0, 1)), LinearSystem(3)),
            DimensionMismatchError,
            "system has 3 variables, transcript expects 2",
            id="replay-dimension",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)


def _shape(value):
    """The value's types, recursively through tuples and frozensets."""
    if isinstance(value, tuple):
        return tuple, [_shape(item) for item in value]
    if isinstance(value, frozenset):
        return frozenset, sorted(map(_shape, value), key=repr)
    return type(value)


def test_reductions_store_what_the_constructor_stores():
    # the rules build their transcripts unchecked; the constructor, given the
    # same fields, must accept them and store equal values of equal types
    rng = random.Random(57)
    for _ in range(60):
        sys = random_system(rng, n_max=9, m_max=14)
        for _, tr in (make_irreducible(sys), apply_rule1(sys)):
            rebuilt = ReductionTranscript(
                tr.original_n, tr.reduced_n, tr.kept_variables, tr.deleted_variables,
                tr.merge_log,
            )
            assert rebuilt == tr and hash(rebuilt) == hash(tr)
            assert [_shape(getattr(tr, f)) for f in vars(tr)] == [
                _shape(getattr(rebuilt, f)) for f in vars(rebuilt)
            ]


def test_transcript_fields_become_tuples_and_frozensets():
    # rows 0 and 2 merge, and column 2 equals column 0 plus column 1
    sys = LinearSystem.build(3, [([0, 2], 0, 1), ([1, 2], 1, 2), ([0, 2], 0, 3)])
    out, tr = make_irreducible(sys)
    assert tr.merge_log and tr.deleted_variables
    rebuilt = ReductionTranscript(
        tr.original_n,
        tr.reduced_n,
        list(tr.kept_variables),
        [[j, set(deps)] for j, deps in tr.deleted_variables],
        [MergeEvent(list(e.merged_ids), e.surviving_id, e.weight) for e in tr.merge_log],
    )
    assert rebuilt == tr and hash(rebuilt) == hash(tr)
    assert type(rebuilt.kept_variables) is tuple and type(rebuilt.merge_log) is tuple
    assert all(type(pair) is tuple and type(pair[1]) is frozenset
               for pair in rebuilt.deleted_variables)
    assert ref.replay_transcript(rebuilt, sys) == out


def test_rule1_eliminates_on_the_used_columns(monkeypatch):
    widths = []
    real = reduce_module.rref

    def recording(rows, n):
        widths.append(n)
        return real(rows, n)

    monkeypatch.setattr(reduce_module, "rref", recording)
    # five used columns scattered over 10^5; column 99_999 = 3 + 45_000
    a, b, c, d, e = 3, 901, 45_000, 77_777, 99_999
    sys = LinearSystem.build(10**5, [([a, c], 0, 1), ([b], 1, 2), ([c, d, e], 0, 1),
                                     ([a, e], 1, 1), ([b], 0, 1), ([d], 1, 3)])
    out, tr = make_irreducible(sys)
    assert widths == [5]
    assert tr.kept_variables == (a, b, c, d)
    assert dict(tr.deleted_variables)[e] == frozenset({a, c})
    assert len(tr.deleted_variables) == 10**5 - 4
    # the same rows on columns 0..4 reduce to the same system
    compact = LinearSystem.build(5, [([0, 2], 0, 1), ([1], 1, 2), ([2, 3, 4], 0, 1),
                                     ([0, 4], 1, 1), ([1], 0, 1), ([3], 1, 3)])
    assert out == ref.make_irreducible(compact)[0]
    assert apply_rule1(sys)[0] == ref.apply_rule1(compact)[0]
    assert widths == [5, 5]
    # a dense system uses every column, so it is eliminated over all n
    widths.clear()
    dense = LinearSystem.build(6, [([0, 1, 2], 0, 1), ([3, 4, 5], 1, 1), ([0, 5], 0, 2),
                                   ([1, 2], 1, 1)])
    assert make_irreducible(dense) == ref.make_irreducible(dense)
    assert apply_rule1(dense) == ref.apply_rule1(dense)
    assert widths == [6, 6]
