import random
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxlin import (
    AaInstance,
    Assignment,
    F2Vector,
    LinearSystem,
    MaxlinError,
    MAX_ORACLE_N,
    NonIntegralWeightError,
    OracleCapError,
    PreconditionError,
    brute_force_max_excess,
    decide_aa,
    evaluate,
    lower_bound_assignment,
    make_irreducible,
)
from maxlin import f2core, kset
from maxlin.excess import _reversed_masks, regime_exponent

from helpers import assert_raises, enumerate_max_excess, is_irreducible, random_regime_system, random_system
from reference_oracle import reference_max_excess


@st.composite
def oracle_systems(draw):
    """Systems with n <= 12 (n = 0 and m = 0 included) and unit, integer or
    rational weights; some rows repeat a left-hand side with the opposite
    right-hand side."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return LinearSystem(0)
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.integers(1, 6).map(Fraction),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]))
    rows = draw(st.lists(
        st.tuples(st.integers(1, 2**n - 1), st.integers(0, 1), weights), max_size=20
    ))
    flipped = draw(st.integers(0, len(rows)))
    rows += [(mask, 1 - rhs, draw(weights)) for mask, rhs, _ in rows[:flipped]]
    return LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows])


class TestBruteForce:
    def test_cancelling_pair(self):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([0, 1], 1, 1)])
        assert brute_force_max_excess(sys).excess == 0

    def test_three_equation_example(self):
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
        witness = brute_force_max_excess(sys)
        assert witness.excess == 2
        assert witness.assignment == Assignment(2, 0)

    def test_empty_system(self):
        witness = brute_force_max_excess(LinearSystem(3))
        assert witness.excess == 0
        assert witness.assignment == Assignment(3, 0)

    def test_witness_is_lexicographically_smallest(self):
        # two symmetric maximizers; 01 and 10 both give excess 1
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        witness = brute_force_max_excess(sys)
        assert witness.assignment == Assignment(2, 0b10)

    def test_rational_weights_exact(self):
        sys = LinearSystem.build(1, [([0], 0, Fraction(1, 3)), ([0], 1, Fraction(1, 2))])
        witness = brute_force_max_excess(sys)
        assert witness.excess == Fraction(1, 6)
        assert witness.assignment == Assignment(1, 1)

    def test_cap_enforced(self):
        sys = LinearSystem.build(5, [([0], 0, 1)])
        with pytest.raises(OracleCapError):
            brute_force_max_excess(sys, cap=4)
        assert_raises(lambda: brute_force_max_excess(LinearSystem(0), cap=-1), OracleCapError,
                      "0 variables exceed the oracle cap of -1")

    def test_hard_ceiling_overrides_larger_cap(self):
        sys = LinearSystem.build(MAX_ORACLE_N + 1, [([0], 0, 1)])
        with pytest.raises(OracleCapError, match=f"cap of {MAX_ORACLE_N}"):
            brute_force_max_excess(sys, cap=60)
        small = LinearSystem.build(3, [([0, 2], 1, 1)])
        assert brute_force_max_excess(small, cap=60) == brute_force_max_excess(small)

    @pytest.mark.parametrize("cap", ["24", None, True, 2.5])
    def test_cap_must_be_an_int(self, cap):
        sys = LinearSystem.build(3, [([0, 2], 1, 1)])
        assert_raises(lambda: brute_force_max_excess(sys, cap=cap), MaxlinError,
                      f"oracle cap must be an int, got {cap!r}")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(oracle_systems())
    def test_matches_frozen_block_oracle(self, sys):
        witness = brute_force_max_excess(sys)
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_many_rational_rows_match_frozen_block_oracle(self, data):
        # m >= 8n rows with unlike denominators: the scaled weights, signs and
        # reversed masks are built for all rows at once
        n = data.draw(st.integers(1, 10))
        weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 12))
        rows = data.draw(st.lists(
            st.tuples(st.integers(1, 2**n - 1), st.integers(0, 1), weights),
            min_size=8 * n, max_size=8 * n + 16,
        ))
        sys = LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows])
        witness = brute_force_max_excess(sys)
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_reversed_masks_match_reverse_bits(self):
        rng = random.Random(49)
        for n in range(1, MAX_ORACLE_N + 1):
            masks = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
            got = _reversed_masks(np.array(masks, dtype=np.uint64), n)
            assert got.tolist() == [f2core.reverse_bits(mask, n) for mask in masks]

    def test_ties_across_blocks_keep_the_first(self):
        # n > 16 spans several 2^16-point blocks over z_1 (and z_2); rows
        # that skip those tie every block with the first one, and a heavy
        # z_1 = 1 row moves the maximum out of it
        rng = random.Random(48)
        for n in (17, 18, 18):
            rows = [(rng.sample(range(2, n), rng.randint(1, 4)), rng.randint(0, 1), 1)
                    for _ in range(5)]
            for sys in (LinearSystem.build(n, rows),
                        LinearSystem.build(n, rows + [([0], 1, 9), ([0, n - 1], 0, 1)])):
                witness = brute_force_max_excess(sys)
                assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_witness_is_first_maximizer_in_lex_order(self):
        rng = random.Random(46)
        for _ in range(40):
            sys = random_system(rng, n_max=7, m_max=8, w_max=1)
            witness = brute_force_max_excess(sys)
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)

    def test_weights_past_int64_headroom_are_exact(self):
        rng = random.Random(47)
        for _ in range(20):
            small = random_system(rng, m_min=1, n_max=8, m_max=12, rational_weights=True)
            sys = LinearSystem.build(small.n, [
                (eq.lhs, eq.rhs, eq.weight * 2**62 + Fraction(1, 3)) for eq in small.equations
            ])
            witness = brute_force_max_excess(sys)
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)

    @pytest.mark.parametrize("total", [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_weight_sums_at_each_integer_type_edge(self, total, sign):
        # the oracle's integer type is the narrowest that holds the weight
        # sum; every equation holds (sign 1) or fails (sign -1) at z0, so
        # the excess reaches +-sum w there
        rng = random.Random(total * sign)
        n = 5
        z0 = rng.getrandbits(n)
        masks = rng.sample(range(1, 2**n), 6)
        weights = [rng.randint(1, 9) for _ in masks[1:]]
        weights.insert(0, total - sum(weights))
        sys = LinearSystem.build(n, [
            (F2Vector(n, mask), (mask & z0).bit_count() % 2 ^ (sign < 0), w)
            for mask, w in zip(masks, weights)
        ])
        assert evaluate(sys, Assignment(n, z0)) == sign * total
        witness = brute_force_max_excess(sys)
        assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)
        if sign == 1:
            assert witness.excess == total

    @pytest.mark.parametrize("n", range(13, 20))
    def test_every_block_split_matches_frozen_block_oracle(self, n):
        # past the Hypothesis sizes: a block of 2^13 to 2^16 points (odd and
        # even bit counts, split in halves of every size), then 2 to 8 blocks
        rng = random.Random(n)
        for _ in range(2):
            sys = random_system(rng, n_min=n, n_max=n, m_min=1, m_max=16, w_max=9,
                                rational_weights=True)
            witness = brute_force_max_excess(sys)
            assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_matches_direct_enumeration(self):
        rng = random.Random(42)
        for _ in range(15):
            sys = random_system(rng, n_max=6, rational_weights=True)
            best = max(
                evaluate(sys, Assignment(sys.n, bits)) for bits in range(2**sys.n)
            )
            assert brute_force_max_excess(sys).excess == best


class TestRegimeExponent:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(st.integers(0, 130), st.integers(0, 10**6)),
        st.integers(0, 2000),
        st.integers(1, 400),
    )
    def test_matches_the_direct_comparison(self, m, n, k):
        q = regime_exponent(m, n)
        assert (k - 1 <= q) == ((m + 2) ** (k - 1) <= 2**n)
        assert (m + 2) ** q <= 2**n < (m + 2) ** (q + 1)


class TestLowerBound:
    def test_three_unit_equations(self):
        sys = LinearSystem.build(3, [([0], 0, 1), ([1], 0, 1), ([2], 0, 1)])
        witness = lower_bound_assignment(sys, 2)
        assert witness.method == "marking"
        assert witness.excess >= 2
        assert evaluate(sys, witness.assignment) == witness.excess

    def test_weighted_pair(self):
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 3)])
        witness = lower_bound_assignment(sys, 2)
        assert witness.excess >= 4  # k * w_min = 2 * 2
        assert witness.excess == 5  # the all-zero assignment satisfies both

    def test_k_larger_than_m(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, 3)
        assert err.value.condition == "m_less_than_k"

    def test_requires_irreducible(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 1)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, 2)
        assert err.value.condition == "not_irreducible"

    def test_requires_k_at_least_two(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, 1)
        assert err.value.condition == "k_too_small"

    def test_bool_k_is_refused(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([1], 0, 1)])
        assert_raises(
            lambda: lower_bound_assignment(sys, True), PreconditionError,
            "k must be an integer >= 2, got True",
        )

    def test_threshold_check(self):
        sys = LinearSystem.build(
            2, [([0], 0, 1), ([1], 0, 1), ([0, 1], 0, 1), ([0, 1], 1, 2)]
        )
        # irreducible? no: duplicate lhs -> reduce first
        reduced, _ = make_irreducible(sys)
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(reduced, 3)
        assert err.value.condition == "threshold_exceeded"

    def test_guarantee_on_random_regime_systems(self):
        rng = random.Random(43)
        for _ in range(30):
            k = rng.choice((2, 3))
            sys = random_regime_system(rng, k)
            witness = lower_bound_assignment(sys, k)
            assert witness.excess >= k * sys.min_weight
            assert evaluate(sys, witness.assignment) == witness.excess
            assert witness.excess <= brute_force_max_excess(sys).excess

    def test_works_with_rational_weights(self):
        sys = LinearSystem.build(2, [([0], 0, Fraction(3, 2)), ([1], 0, Fraction(5, 2))])
        witness = lower_bound_assignment(sys, 2)
        assert witness.excess >= 2 * Fraction(3, 2)

    @pytest.mark.parametrize("k", [5, 3])  # k > m = 3, and a failed threshold
    def test_duplicate_lhs_is_not_irreducible_first(self, k):
        sys = LinearSystem.build(2, [([0], 0, 1), ([0], 1, 1), ([1], 0, 1)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, k)
        assert err.value.condition == "not_irreducible"

    @pytest.mark.parametrize("k", [4, 3])  # k > m = 3, and (3+2)^2 > 2^3
    def test_rank_deficit_is_not_irreducible_first(self, k):
        sys = LinearSystem.build(3, [([0], 0, 1), ([1], 0, 1), ([0, 1], 1, 2)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, k)
        assert err.value.condition == "not_irreducible"

    def test_k_too_small_comes_before_irreducibility(self):
        sys = LinearSystem.build(2, [([0], 0, 1), ([0], 1, 1)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, 1)
        assert err.value.condition == "k_too_small"


def dense_irreducible_system(rng: random.Random, n: int, m: int) -> LinearSystem:
    masks = {1 << j for j in range(n)}
    while len(masks) < m:
        masks.add(rng.getrandbits(n) or 1)
    rows = [(F2Vector(n, b), rng.randint(0, 1), rng.randint(1, 3)) for b in sorted(masks)]
    rng.shuffle(rows)
    return LinearSystem.build(n, rows)


def count_pivot_basis(monkeypatch) -> list[int]:
    """Record the number of rows each _pivot_basis call is given, through
    every module that holds it."""
    calls = []
    original = f2core._pivot_basis

    def counting(rows, n):
        rows = list(rows)
        calls.append(len(rows))
        return original(rows, n)

    for module in (f2core, kset):
        monkeypatch.setattr(module, "_pivot_basis", counting)
    return calls


class TestLowerBoundCost:
    def test_polynomial_in_k(self):
        n, m, k = 300, 600, 30
        assert k - 1 <= regime_exponent(m, n)  # 602^29 <= 2^300
        sys = dense_irreducible_system(random.Random(45), n, m)
        assert is_irreducible(sys)
        start = perf_counter()
        witness = lower_bound_assignment(sys, k)
        # a check over all 2^30 subsets of the marked-first set never ends
        assert perf_counter() - start < 10.0
        assert witness.excess >= k * sys.min_weight

    def test_one_rank_test_per_lower_bound(self, monkeypatch):
        sys = dense_irreducible_system(random.Random(46), 40, 120)
        calls = count_pivot_basis(monkeypatch)
        lower_bound_assignment(sys, 4)
        # one rank test over the rows and 0, then verify_kset's independence
        # test of the 4 chosen rows
        assert calls == [121, 4]

    def test_decide_aa_eliminates_at_most_twice(self, monkeypatch):
        sys = dense_irreducible_system(random.Random(47), 40, 120)
        calls = count_pivot_basis(monkeypatch)
        answer, witness = decide_aa(AaInstance(sys, 4))
        assert answer is True and witness.method == "marking"
        # make_irreducible's rref, then the lower bound's one rank test, then
        # verify_kset's independence test of the 4 chosen rows
        assert len(calls) <= 3 and calls[-1] == 4


class TestDecideAa:
    def test_pair_system_is_no(self):
        sys = LinearSystem.build(2, [([0, 1], 0, 1), ([0, 1], 1, 1)])
        answer, witness = decide_aa(AaInstance(sys, 1))
        assert answer is False
        assert witness.excess == 0
        assert witness.assignment.n == 2

    def test_single_equation_k1_yes(self):
        sys = LinearSystem.build(1, [([0], 0, 1)])
        answer, witness = decide_aa(AaInstance(sys, 1))
        assert answer is True
        assert witness.assignment == Assignment(1, 0)

    def test_brute_force_branch(self):
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 3)])
        answer, witness = decide_aa(AaInstance(sys, 4))
        assert answer is True
        assert witness.excess == 5
        assert witness.method == "brute_force"

    def test_marking_branch_witness_reaches_k(self):
        sys = LinearSystem.build(4, [([i], 0, 1) for i in range(4)])
        answer, witness = decide_aa(AaInstance(sys, 2))
        assert answer is True
        assert witness.method == "marking"
        assert witness.excess >= 2

    @pytest.mark.parametrize("cap", ["24", None, True, 2.5])
    @pytest.mark.parametrize("n, rows, k", [
        pytest.param(2, [([0, 1], 0, 1), ([0, 1], 1, 1)], 1, id="empty"),
        pytest.param(1, [([0], 0, 1)], 1, id="k1-marking"),
        pytest.param(4, [([i], 0, 1) for i in range(4)], 2, id="lower-bound"),
        pytest.param(2, [([0], 0, 2), ([1], 0, 3)], 4, id="oracle"),
    ])
    def test_cap_must_be_an_int_on_every_route(self, n, rows, k, cap):
        sys = LinearSystem.build(n, rows)
        assert_raises(lambda: decide_aa(AaInstance(sys, k), oracle_cap=cap), MaxlinError,
                      f"oracle cap must be an int, got {cap!r}")

    def test_rejects_fractional_weights(self):
        sys = LinearSystem.build(1, [([0], 0, Fraction(1, 2))])
        with pytest.raises(NonIntegralWeightError):
            AaInstance(sys, 1)

    def test_rejects_nonpositive_k(self):
        sys = LinearSystem.build(1, [([0], 0, 1)])
        with pytest.raises(MaxlinError):
            AaInstance(sys, 0)

    def test_rejects_bool_k(self):
        sys = LinearSystem.build(1, [([0], 0, 1)])
        assert_raises(
            lambda: AaInstance(sys, True), MaxlinError,
            "parameter k must be a positive integer, got True",
        )

    def test_witness_lives_on_original_variables(self):
        # variable 2 is dependent and gets deleted during reduction
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 0, 1), ([0, 2], 1, 5)])
        answer, witness = decide_aa(AaInstance(sys, 3))
        assert witness.assignment.n == 3
        assert evaluate(sys, witness.assignment) == witness.excess

    def test_agrees_with_oracle(self):
        rng = random.Random(44)
        for _ in range(60):
            sys = random_system(rng, n_max=8, m_max=16)
            k = rng.randint(1, 5)
            answer, witness = decide_aa(AaInstance(sys, k))
            truth = brute_force_max_excess(sys).excess >= k
            assert answer == truth
            if answer:
                assert witness.excess >= k
            else:
                assert witness.excess == brute_force_max_excess(sys).excess

    def test_deterministic(self):
        rng = random.Random(45)
        for _ in range(10):
            sys = random_system(rng, n_max=8, m_max=16)
            k = rng.randint(1, 4)
            runs = [decide_aa(AaInstance(sys, k)) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]
