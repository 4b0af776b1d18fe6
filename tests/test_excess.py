import random
import tracemalloc
from fractions import Fraction
from time import perf_counter
from unittest.mock import patch

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
from maxlin import cli, excess, f2core, kset
from maxlin.excess import _direct_bits, _reversed_masks, regime_exponent
from maxlin.formats import emit_system

from helpers import (
    assert_raises,
    enumerate_max_excess,
    is_irreducible,
    lhs_rank,
    random_regime_system,
    random_system,
)
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


# the weight sums where the oracle's integer type changes: int16, int32,
# int64 and Python ints past them
TYPE_EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63]


def edge_system(rng: random.Random, n: int, total: int, sign: int):
    """Six rows over n variables whose weights sum to ``total``, all
    satisfied (sign 1) or all violated (sign -1) at one point z0."""
    z0 = rng.getrandbits(n)
    masks = rng.sample(range(1, 2**n), 6)
    weights = [rng.randint(1, 9) for _ in masks[1:]]
    weights.insert(0, total - sum(weights))
    sys = LinearSystem.build(n, [
        (F2Vector(n, mask), (mask & z0).bit_count() % 2 ^ (sign < 0), w)
        for mask, w in zip(masks, weights)
    ])
    return sys, z0


@st.composite
def split_cases(draw, total=None):
    """A system with n <= 22 and a number b of direct bits to force, from 0
    to the block's L = min(n, 16) as far as m 2^b <= 2^L, so that the
    direct part fits in a block buffer.  Weights are unit, integer or rational;
    with ``total`` given, they are integers summing to it and n <= 10.  Some
    rows repeat a left-hand side with the other right-hand side, some differ
    from another row only in the last variable (so they share the bits past
    the direct ones), and past one block all rows may skip the variables
    above it, so every block ties with the first; m = 0 occurs at every n."""
    n = draw(st.integers(0 if total is None else 1, 22 if total is None else 10))
    if n == 0:
        return LinearSystem(0), 0
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.integers(1, 6).map(Fraction),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]) if total is None else st.just(st.integers(1, 9).map(Fraction)))
    masks = st.integers(1, 2**n - 1)
    if n > 16 and draw(st.booleans()):
        masks = st.integers(1, 2**16 - 1).map(lambda low: low << (n - 16))
    size = 2 if n > 20 else 3 if n > 18 else 8 if n > 14 else 20
    rows = draw(st.lists(st.tuples(masks, st.integers(0, 1), weights),
                         min_size=0 if total is None else 1, max_size=size))
    flipped, neighbours = draw(st.integers(0, len(rows))), draw(st.integers(0, len(rows)))
    rows += [(mask, 1 - rhs, draw(weights)) for mask, rhs, _ in rows[:flipped]]
    rows += [(mask ^ 1 << (n - 1) or mask, rhs, w) for mask, rhs, w in rows[:neighbours]]
    if total is not None:
        rows[0] = (*rows[0][:2], total - sum(w for *_, w in rows[1:]))
    direct = draw(st.integers(0, max(0, min(n, 16) - max(len(rows) - 1, 0).bit_length())))
    return LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows]), direct


def far_system(n: int) -> LinearSystem:
    """Five rows x1 + xn = 0, 1, 0, 1, 0 of weights 1 to 5: inconsistent,
    with four rows past its rank 1, so the oracle runs the transform."""
    return LinearSystem.build(n, [([0, n - 1], j % 2, j + 1) for j in range(5)])


def transform(sys: LinearSystem):
    """The oracle's transform over all 2^n points of a system with rows
    (which skips the elimination that answers consistent ones, and the
    projection onto the rank's columns), the oracle on one without."""
    if not sys.rows:
        return brute_force_max_excess(sys)
    point, best = excess._transform_max_excess(sys.rows, sys.n)
    return excess.ExcessWitness(Assignment(sys.n, point), best, "brute_force")


def nearest(sys: LinearSystem):
    """The oracle's elimination on a system's rows, each as lhs | rhs << n:
    its answer, or None where the transform has to run."""
    n = sys.n
    basis = f2core._pivot_basis((row[0] | row[1] << n for row in sys.rows), n + 1)
    return excess._nearest_solution(sys.rows, n, basis)


def forced_oracle(sys: LinearSystem, direct: int):
    """The oracle's transform with its block's direct bits forced."""
    with patch.object(excess, "_direct_bits", lambda m, low_bits: direct):
        return transform(sys)


@pytest.fixture
def transform_only(monkeypatch):
    """Fail the test if the elimination answers any oracle call in it, so
    that every call the test makes with rows reaches the transform."""
    solve = excess._nearest_solution

    def guarded(rows, n, basis):
        answer = solve(rows, n, basis)
        if answer is not None:
            pytest.fail("the elimination answered a call of a transform test")
        return answer

    monkeypatch.setattr(excess, "_nearest_solution", guarded)


def test_the_transform_guard_fails_a_call_the_elimination_answers(transform_only):
    consistent = LinearSystem.build(2, [([0, 1], 1, 1)])
    with pytest.raises(pytest.fail.Exception, match="elimination answered"):
        brute_force_max_excess(consistent)
    near = LinearSystem.build(2, [([0, 1], 1, 1), ([0, 1], 0, 2)])
    with pytest.raises(pytest.fail.Exception, match="elimination answered"):
        brute_force_max_excess(near)
    inconsistent = far_system(2)
    assert brute_force_max_excess(inconsistent) == transform(inconsistent)
    assert transform(consistent).excess == 1


@pytest.mark.usefixtures("transform_only")
class TestBruteForce:
    def test_cancelling_pair(self):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([0, 1], 1, 1)])
        assert transform(sys).excess == 0

    def test_three_equation_example(self):
        sys = LinearSystem.build(2, [([0], 0, 2), ([1], 0, 1), ([0, 1], 1, 1)])
        witness = transform(sys)
        assert witness.excess == 2
        assert witness.assignment == Assignment(2, 0)

    def test_empty_system(self):
        witness = brute_force_max_excess(LinearSystem(3))
        assert witness.excess == 0
        assert witness.assignment == Assignment(3, 0)

    def test_witness_is_lexicographically_smallest(self):
        # two symmetric maximizers; 01 and 10 both give excess 1
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        witness = transform(sys)
        assert witness.assignment == Assignment(2, 0b10)

    def test_rational_weights_exact(self):
        sys = LinearSystem.build(1, [([0], 0, Fraction(1, 3)), ([0], 1, Fraction(1, 2))])
        witness = transform(sys)
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
        small = far_system(3)
        assert brute_force_max_excess(small, cap=60) == brute_force_max_excess(small)

    @pytest.mark.parametrize("cap", ["24", None, True, 2.5])
    def test_cap_must_be_an_int(self, cap):
        sys = LinearSystem.build(3, [([0, 2], 1, 1)])
        assert_raises(lambda: brute_force_max_excess(sys, cap=cap), MaxlinError,
                      f"oracle cap must be an int, got {cap!r}")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(oracle_systems())
    def test_matches_frozen_block_oracle(self, sys):
        witness = transform(sys)
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
        witness = transform(sys)
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
                witness = transform(sys)
                assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_witness_is_first_maximizer_in_lex_order(self):
        rng = random.Random(46)
        for _ in range(40):
            sys = random_system(rng, n_max=7, m_max=8, w_max=1)
            witness = transform(sys)
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)

    def test_weights_past_int64_headroom_are_exact(self):
        rng = random.Random(47)
        for _ in range(20):
            small = random_system(rng, m_min=1, n_max=8, m_max=12, rational_weights=True)
            sys = LinearSystem.build(small.n, [
                (eq.lhs, eq.rhs, eq.weight * 2**62 + Fraction(1, 3)) for eq in small.equations
            ])
            witness = transform(sys)
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)

    @pytest.mark.parametrize("total", TYPE_EDGES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_weight_sums_at_each_integer_type_edge(self, total, sign):
        # the oracle's integer type is the narrowest that holds the weight
        # sum; every equation holds (sign 1) or fails (sign -1) at z0, so
        # the excess reaches +-sum w there
        sys, z0 = edge_system(random.Random(total * sign), 5, total, sign)
        assert evaluate(sys, Assignment(5, z0)) == sign * total
        witness = transform(sys)
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
            witness = transform(sys)
            assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_matches_direct_enumeration(self):
        rng = random.Random(42)
        for _ in range(15):
            sys = random_system(rng, n_max=6, rational_weights=True)
            best = max(
                evaluate(sys, Assignment(sys.n, bits)) for bits in range(2**sys.n)
            )
            assert transform(sys).excess == best

    def test_empty_system_past_one_block(self):
        for n in (17, 22, MAX_ORACLE_N):
            witness = brute_force_max_excess(LinearSystem(n), cap=n)
            assert (witness.excess, witness.assignment) == (0, Assignment(n, 0))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(split_cases())
    def test_every_direct_split_matches_frozen_block_oracle(self, case):
        sys, direct = case
        witness = forced_oracle(sys, direct)
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_one_and_two_rows_at_every_split(self):
        # up to b = L, where the block has no group bits and runs no stage
        rng = random.Random(51)
        for n in (3, 15, 16, 18):
            for m in (1, 2):
                sys = random_system(rng, n_min=n, n_max=n, m_min=m, m_max=m,
                                    rational_weights=True)
                for direct in range(min(n, 16) - (m - 1) + 1):
                    witness = forced_oracle(sys, direct)
                    assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    @pytest.mark.parametrize("total", TYPE_EDGES)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_direct_split_at_a_weight_sum_edge(self, total, data):
        # int16 up to int64 against the frozen block oracle, Python ints past
        # its int64 headroom against plain enumeration
        sys, direct = data.draw(split_cases(total))
        witness = forced_oracle(sys, direct)
        if total < 2**62:
            assert (witness.excess, witness.assignment) == reference_max_excess(sys)
        else:
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)

    @pytest.mark.parametrize("total", TYPE_EDGES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_direct_split_at_each_integer_type_edge(self, total, sign):
        # one block of n = 8 bits, each split of it whose 6 rows fit in a
        # block, and two blocks of 2^16 points, split as the rule does
        rng = random.Random(total * sign)
        sys, z0 = edge_system(rng, 8, total, sign)
        expected = enumerate_max_excess(sys)
        for direct in range(8 - (sys.m - 1).bit_length() + 1):
            witness = forced_oracle(sys, direct)
            assert (witness.excess, witness.assignment.to01()) == expected
        wide, z0 = edge_system(rng, 17, total, sign)
        assert _direct_bits(wide.m, 16) > 0
        witness = transform(wide)
        assert witness == forced_oracle(wide, 0)
        if sign == 1:
            assert witness.excess == total == evaluate(wide, Assignment(17, z0))

    def test_placed_rows_merge_equal_masks_and_lead_with_one_row_per_group(self):
        # masks over 6 bits, groups are bits 5..2: 0b110101 and 0b110110
        # share group 0b1101, 0b000011 is alone in group 0
        masks = np.array([0b110101, 0b000011, 0b110101, 0b110110, 0b110101], dtype=np.uint64)
        signed = np.array([3, -1, -2, 5, 4], dtype=np.int16)
        merged, placed, distinct = excess._placed_rows(signed, masks, 6, 2)
        assert distinct == 2
        assert sorted(zip(placed.tolist(), merged.tolist())) == [(0b11, -1), (0b110101, 5), (0b110110, 5)]
        assert [mask >> 2 for mask in placed[:distinct].tolist()] == [0, 0b1101]
        assert merged.dtype == np.int16

    def test_direct_part_stays_within_a_quarter_block(self):
        for low_bits in range(17):
            for m in range(1, 2**14):
                direct = _direct_bits(m, low_bits)
                assert direct == 0 or 4 * (m << direct) <= 1 << low_bits
        # fewer rows take more direct bits; none on blocks below 2^15 points
        # or where they would leave rows of 16 entries or fewer
        assert [_direct_bits(m, 16) for m in (1, 20, 80, 240, 512, 513)] == [14, 9, 7, 6, 5, 0]
        assert [_direct_bits(m, 15) for m in (15, 45, 256, 257)] == [9, 7, 5, 0]
        assert [_direct_bits(m, 14) for m in (1, 14, 42)] == [0, 0, 0]


def count_stages(monkeypatch) -> list[int]:
    """Record how many stages each _butterflies call runs."""
    calls = []
    original = excess._butterflies

    def counting(block, scratch, bits):
        calls.append(len(bits))
        return original(block, scratch, bits)

    monkeypatch.setattr(excess, "_butterflies", counting)
    return calls


def traced_peak(sys: LinearSystem) -> int:
    """The tracemalloc peak of one oracle call, after a call that loads numpy."""
    transform(sys)
    tracemalloc.start()
    try:
        transform(sys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.usefixtures("transform_only")
class TestOracleShape:
    def test_few_rows_run_at_most_half_the_stages(self, monkeypatch):
        rng = random.Random(50)
        sys = random_system(rng, n_min=20, n_max=20, m_min=20, m_max=20, w_max=9)
        stages = count_stages(monkeypatch)
        witness = transform(sys)
        # the full transform runs 16 stages in each of 16 blocks; here 9 of
        # each block's 16 bits are direct
        assert sum(stages) <= 16 * 16 // 2
        assert sum(stages) == 16 * (16 - _direct_bits(20, 16))
        monkeypatch.setattr(excess, "_direct_bits", lambda m, low_bits: 0)
        assert transform(sys) == witness
        assert sum(stages) == 16 * (16 - _direct_bits(20, 16)) + 16 * 16

    @pytest.mark.parametrize("m", [20, 60, 500, 2**12])
    @pytest.mark.parametrize("w_max", [9, 2**40])
    def test_direct_part_adds_at_most_a_quarter_block(self, monkeypatch, m, w_max):
        # two block buffers are what the transform without direct bits holds;
        # the direct part adds its table, at most a quarter block, and numpy's
        # buffer for one broadcast product (np.getbufsize() entries)
        rng = random.Random(m)
        rows = [(F2Vector(18, rng.getrandbits(18) or 1), rng.randint(0, 1), rng.randint(1, w_max))
                for _ in range(m)]
        sys = LinearSystem.build(18, rows)
        itemsize = 2 if w_max == 9 else 8
        block_bytes = itemsize << 16
        peak = traced_peak(sys)
        monkeypatch.setattr(excess, "_direct_bits", lambda m, low_bits: 0)
        today = traced_peak(sys)
        assert today >= 2 * block_bytes
        assert peak <= today + block_bytes // 4 + np.getbufsize() * itemsize


@st.composite
def planted_systems(draw):
    """A system with n <= 12 whose rows all hold at a drawn point z0: rows
    over the first r columns, each later column the sum of a drawn set of
    those (so the rank is at most r), some rows repeated with another
    weight, and unit, integer or rational weights."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, n))
    z0 = draw(st.integers(0, 2**n - 1))
    sums = [draw(st.integers(0, 2**r - 1)) for _ in range(r, n)]
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.integers(1, 6).map(Fraction),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]))
    rows = []
    for low in draw(st.lists(st.integers(1, 2**r - 1), min_size=1, max_size=16)):
        mask = low
        for j, s in enumerate(sums, start=r):
            mask |= ((low & s).bit_count() & 1) << j
        rows.append((mask, (mask & z0).bit_count() & 1, draw(weights)))
    repeated = draw(st.integers(0, len(rows)))
    rows += [(mask, rhs, draw(weights)) for mask, rhs, _ in rows[:repeated]]
    return LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows]), z0


def square_irreducible_system(rng: random.Random, n: int) -> tuple[LinearSystem, int]:
    """n distinct rows of rank n, all holding at a random point z0, with
    integral weights from 2 to 9."""
    while True:
        masks = list({rng.getrandbits(n) or 1 for _ in range(n)})
        z0 = rng.getrandbits(n)
        sys = LinearSystem.build(n, [
            (F2Vector(n, mask), (mask & z0).bit_count() & 1, rng.randint(2, 9)) for mask in masks
        ])
        if sys.m == n and is_irreducible(sys):
            return sys, z0


class TestConsistentSystems:
    """The oracle's elimination, which answers a consistent system with the
    total weight at its lexicographically smallest solution."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(planted_systems(), st.data())
    def test_planted_and_flipped_systems_match_both_oracles(self, case, data):
        planted, z0 = case
        index = data.draw(st.integers(0, planted.m - 1))
        flipped = LinearSystem.build(planted.n, [
            (eq.lhs, eq.rhs ^ (i == index), eq.weight) for i, eq in enumerate(planted.equations)
        ])
        total = sum(eq.weight for eq in planted.equations)
        for sys in (planted, flipped):
            witness = brute_force_max_excess(sys)
            assert (witness.excess, witness.assignment) == reference_max_excess(sys)
            if sys.n <= 8:
                assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)
            assert witness == transform(sys)
            # the elimination answers exactly the systems whose maximum is W
            answer = nearest(sys)
            assert (answer is not None and not answer[1]) == (witness.excess == total)
        assert brute_force_max_excess(planted).excess == total == evaluate(planted, Assignment(planted.n, z0))

    def test_decide_aa_on_a_square_system_takes_the_oracle_route(self, monkeypatch):
        # m = n and rank n, so Az = b has one solution, the only point where
        # the excess reaches W; k = W and W + 1 lie above the marking regime
        rng = random.Random(53)
        monkeypatch.setattr(excess, "_transform_max_excess",
                            lambda rows, n: pytest.fail("a consistent system reached the transform"))
        for n in [4, 7, 10, 16, 20, 24] * 3:
            sys, z0 = square_irreducible_system(rng, n)
            assert make_irreducible(sys)[0] is sys
            total = int(sum(row[2] for row in sys.rows))
            for k in (total, total + 1):
                assert k - 1 > regime_exponent(n, n)
                answer, witness = decide_aa(AaInstance(sys, k))
                assert answer == (total >= k)
                assert witness == excess.ExcessWitness(Assignment(n, z0), total, "brute_force")

    def test_a_consistent_system_past_the_cap_is_refused(self):
        sys, _ = square_irreducible_system(random.Random(54), 25)
        assert_raises(lambda: brute_force_max_excess(sys), OracleCapError,
                      "25 variables exceed the oracle cap of 24")
        assert_raises(lambda: decide_aa(AaInstance(sys, 10**6)), OracleCapError,
                      "25 variables exceed the oracle cap of 24")
        wide = LinearSystem.build(MAX_ORACLE_N + 1, [([0], 0, 1)])
        assert_raises(lambda: brute_force_max_excess(wide, cap=60), OracleCapError,
                      f"{MAX_ORACLE_N + 1} variables exceed the oracle cap of {MAX_ORACLE_N}")

    def test_many_more_rows_than_points_cost_no_more_than_the_transform(self):
        # n = 16 and m = 2^15 consistent rows: reading them all through the
        # elimination would cost several transforms, so the oracle skips it
        n, m = 16, 2**15
        rng = random.Random(55)
        z0 = rng.getrandbits(n)
        masks = [rng.getrandbits(n) or 1 for _ in range(m)]
        sys = LinearSystem._from_rows(n, [
            (mask, (mask & z0).bit_count() & 1, Fraction(rng.randint(1, 9)), i)
            for i, mask in enumerate(masks)
        ])
        assert nearest(sys) == (z0, ())
        oracle, plain = [], []
        for _ in range(5):
            for times, call in ((oracle, brute_force_max_excess), (plain, transform)):
                start = perf_counter()
                witness = call(sys)
                times.append(perf_counter() - start)
        assert witness == brute_force_max_excess(sys)
        assert witness.excess == sum(row[2] for row in sys.rows)
        assert min(oracle) <= 1.25 * min(plain)


@st.composite
def near_square_systems(draw):
    """A system with n <= 12 and m = r + extra rows over the first r
    columns (extra from 0 to 5), each later column the sum of a drawn set of
    those, so m - rank is at least extra and is more where rows repeat or
    the rank falls below r; right-hand sides are drawn, and weights are
    unit (many ties), integer or rational."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, n))
    sums = [draw(st.integers(0, 2**r - 1)) for _ in range(r, n)]
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.integers(1, 6).map(Fraction),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]))
    size = r + draw(st.integers(0, 5))
    rows = []
    for low in draw(st.lists(st.integers(1, 2**r - 1), min_size=size, max_size=size)):
        mask = low
        for j, s in enumerate(sums, start=r):
            mask |= ((low & s).bit_count() & 1) << j
        rows.append((mask, draw(st.integers(0, 1)), draw(weights)))
    return LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows])


def violated(sys: LinearSystem, point: int) -> tuple[int, ...]:
    return tuple(i for i, (bits, rhs, *_) in enumerate(sys.rows)
                 if (bits & point).bit_count() & 1 != rhs)


class TestNearlyConsistentSystems:
    """The oracle's elimination on an inconsistent system with at most
    three rows past its rank, which it answers by the lightest set of rows
    whose flipped right-hand sides make the system consistent."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_square_systems())
    def test_near_square_systems_match_both_oracles(self, sys):
        witness = brute_force_max_excess(sys)
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)
        if sys.n <= 8:
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)
        assert witness == transform(sys)
        answer = nearest(sys)
        total = sum(eq.weight for eq in sys.equations)
        assert (answer is None) == (witness.excess < total and sys.m - lhs_rank(sys) > 3)
        if answer is not None:
            point, flipped = answer
            assert point == witness.assignment.bits
            assert flipped == violated(sys, point)
            assert witness.excess == total - 2 * sum(sys.rows[i][2] for i in flipped)

    def test_ties_keep_the_least_maximizer(self):
        # unit weights on n rows of rank n plus three rows that each sum
        # one of three disjoint groups of them: every check ties its rows
        rng = random.Random(56)
        several = 0
        for _ in range(60):
            n = rng.randint(6, 10)
            while True:
                masks = [rng.getrandbits(n) for _ in range(n)]
                if len(f2core._pivot_basis(masks, n)) == n:
                    break
            groups = [list(range(n))[j::3] for j in range(3)]
            for group in groups:
                mask = 0
                for i in group:
                    mask ^= masks[i]
                masks.append(mask or masks[group[0]])
            sys = LinearSystem.build(n, [(F2Vector(n, mask), rng.randint(0, 1), 1) for mask in masks])
            witness = brute_force_max_excess(sys)
            assert witness == transform(sys)
            assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)
            best = sum(evaluate(sys, Assignment(n, z)) == witness.excess for z in range(2**n))
            several += best > 1
        assert several >= 30

    def test_a_fourth_row_past_the_rank_reaches_the_transform(self):
        rng = random.Random(57)
        for extra in range(1, 6):
            for _ in range(20):
                n = rng.randint(3, 10)
                masks = [rng.getrandbits(n) or 1 for _ in range(n + extra)]
                sys = LinearSystem.build(n, [(F2Vector(n, m), rng.randint(0, 1), rng.randint(1, 9))
                                             for m in masks])
                witness = brute_force_max_excess(sys)
                assert witness == transform(sys)
                deficit = sys.m - lhs_rank(sys)
                consistent = witness.excess == sum(eq.weight for eq in sys.equations)
                answered = nearest(sys) is not None
                assert answered == (consistent or deficit <= 3)

    def test_a_square_system_of_rank_below_n_skips_the_transform(self, monkeypatch):
        # n = 20 and m = 20: a random system of rank 17-19 is inconsistent
        # as often as not, and one of its rows' flips makes it consistent
        rng = random.Random(58)
        cases = []
        while len(cases) < 6:
            masks = [rng.getrandbits(20) or 1 for _ in range(20)]
            sys = LinearSystem.build(20, [(F2Vector(20, m), rng.randint(0, 1), rng.randint(1, 9))
                                          for m in masks])
            if 1 <= 20 - lhs_rank(sys) <= 3 and nearest(sys)[1]:
                cases.append((sys, transform(sys)))
        monkeypatch.setattr(excess, "_transform_max_excess",
                            lambda rows, n: pytest.fail("a nearly consistent system reached the transform"))
        for sys, expected in cases:
            assert brute_force_max_excess(sys) == expected


@st.composite
def rank_deficient_systems(draw):
    """A system with 2 <= n <= 8 and rank below n.  Its columns over m
    drawn row slots are free (a drawn nonzero vector), unused, a sum of
    columns to their left or a sum of columns to their right; at least one
    is free and one is not.  Rows with an empty left-hand side are dropped,
    and 0, 4 or 60 repeats of kept rows follow, so some systems lie outside
    the try-rule and skip the oracle's elimination.  Right-hand sides are
    drawn, and weights are unit (many ties) or rational."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["free", "unused", "left", "right"]),
                          min_size=n, max_size=n))
    free, dependent = draw(st.permutations(range(n)))[:2]
    kinds[free] = "free"
    if kinds[dependent] == "free":
        kinds[dependent] = draw(st.sampled_from(["unused", "left", "right"]))
    cols = [draw(st.integers(1, 2**m - 1)) if kind == "free" else 0 for kind in kinds]

    def summed(others: list[int]) -> int:
        total = 0
        for j in draw(st.sets(st.sampled_from(others), min_size=1)) if others else ():
            total ^= cols[j]
        return total

    for j in range(n):
        if kinds[j] == "left":
            cols[j] = summed([i for i in range(j) if kinds[i] != "right"])
    for j in reversed(range(n)):
        if kinds[j] == "right":
            cols[j] = summed(list(range(j + 1, n)))
    weights = draw(st.sampled_from([
        st.just(Fraction(1)),
        st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    ]))
    masks = [sum((col >> i & 1) << j for j, col in enumerate(cols)) for i in range(m)]
    rows = [(mask, draw(st.integers(0, 1)), draw(weights)) for mask in masks if mask]
    repeats = draw(st.sampled_from([0, 4, 60]))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=repeats, max_size=repeats)):
        rows.append((rows[i][0], draw(st.integers(0, 1)), draw(weights)))
    return LinearSystem.build(n, [(F2Vector(n, mask), rhs, w) for mask, rhs, w in rows])


def rightmost_dependent_columns(sys: LinearSystem) -> list[int]:
    """The columns that are a sum of columns to their right, found by trying
    every set of those columns."""
    n = sys.n
    cols = [sum((bits >> j & 1) << i for i, (bits, *_) in enumerate(sys.rows)) for j in range(n)]
    out = []
    for j in range(n):
        sums = {0}
        for col in cols[j + 1:]:
            sums |= {s ^ col for s in sums}
        if cols[j] in sums:
            out.append(j)
    return out


def count_blocks(monkeypatch) -> list[int]:
    """Record the size of each block the transform runs."""
    sizes = []
    original = excess._walsh_hadamard

    def counting(block, scratch, direct, split):
        sizes.append(block.size)
        return original(block, scratch, direct, split)

    monkeypatch.setattr(excess, "_walsh_hadamard", counting)
    return sizes


def embedded_system(rng: random.Random, n: int, small: LinearSystem) -> LinearSystem:
    """``small``'s rows b_i mapped to rows b_i M over n columns, for a random
    small.n x n matrix M of rank small.n: z -> Mz is onto, so the two
    systems have the same maximum excess, and the rank is small.n."""
    while True:
        images = [rng.getrandbits(n) for _ in range(small.n)]
        if len(f2core._pivot_basis(images, n)) == small.n:
            break
    rows = []
    for bits, rhs, weight, _ in small.rows:
        mask = 0
        for i, image in enumerate(images):
            if bits >> i & 1:
                mask ^= image
        rows.append((F2Vector(n, mask), rhs, weight))
    return LinearSystem.build(n, rows)


class TestRankDeficientSystems:
    """The transform over 2^rank points: the rows projected onto their
    rightmost independent columns, and the maximizer put back there."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rank_deficient_systems())
    def test_matches_both_oracles_and_is_zero_off_the_pivots(self, sys):
        assert lhs_rank(sys) < sys.n
        witness = brute_force_max_excess(sys)
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)
        assert (witness.excess, witness.assignment.to01()) == enumerate_max_excess(sys)
        for j in rightmost_dependent_columns(sys):
            assert not witness.assignment.bits >> j & 1

    def test_a_rank_8_system_transforms_one_block_of_2_to_the_8(self, monkeypatch):
        # declared n = 24, m = 200 rows of rank 8: 192 rows past the rank, so
        # the elimination reads them all and hands the transform its basis
        rng = random.Random(59)
        small = random_system(rng, n_min=8, n_max=8, m_min=200, m_max=200, w_max=9)
        assert lhs_rank(small) == 8
        sys = embedded_system(rng, 24, small)
        assert (sys.m, lhs_rank(sys)) == (200, 8) and nearest(sys) is None
        sizes = count_blocks(monkeypatch)
        witness = brute_force_max_excess(sys)
        assert sizes == [2**8]
        assert witness.excess == reference_max_excess(small)[0] == evaluate(sys, witness.assignment)

    def test_rows_the_elimination_skips_transform_their_used_columns(self, monkeypatch):
        # n = 12 and m = 40 lie past the elimination's rule; 6 columns are
        # used, and the 2^6 points of the used columns are all it transforms
        rng = random.Random(60)
        used = sorted(rng.sample(range(12), 6))
        rows = [(F2Vector.from_support(12, [c for c in used if rng.getrandbits(1)] or used[:1]),
                 rng.randint(0, 1), Fraction(rng.randint(1, 9), rng.randint(1, 3))) for _ in range(40)]
        sys = LinearSystem.build(12, rows)
        assert not excess._tries_elimination(sys.m, sys.n)
        sizes = count_blocks(monkeypatch)
        witness = brute_force_max_excess(sys)
        assert sizes == [2**6]
        assert (witness.excess, witness.assignment) == reference_max_excess(sys)

    def test_a_full_rank_system_transforms_all_its_points(self, monkeypatch):
        sys = far_system(3)
        sys = LinearSystem.build(3, [*((eq.lhs, eq.rhs, eq.weight) for eq in sys.equations),
                                     ([1], 0, 1), ([0], 1, 1)])
        assert lhs_rank(sys) == 3
        sizes = count_blocks(monkeypatch)
        assert brute_force_max_excess(sys) == transform(sys)
        assert sizes == [2**3, 2**3]

    def test_the_cap_is_checked_on_the_declared_n(self, tmp_path, capsys):
        # rank 3 would fit any cap; the declared 25 variables do not
        sys = LinearSystem.build(25, [([0, 24], j % 2, 1) for j in range(4)] + [([1], 0, 1), ([2], 1, 1)])
        assert lhs_rank(sys) == 3
        assert_raises(lambda: brute_force_max_excess(sys), OracleCapError,
                      "25 variables exceed the oracle cap of 24")
        path = tmp_path / "rank3"
        path.write_text(emit_system(sys))
        assert cli.main(["excess", "--oracle", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: 25 variables exceed the oracle cap of 24\n")
        assert cli.main(["excess", "--oracle", "--oracle-cap", "25", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "2"


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

    def test_distinct_rows_of_rank_below_n_are_not_irreducible(self):
        # k = 2 meets every other condition: k <= m = 3 and (3+2)^1 <= 2^3
        sys = LinearSystem.build(3, [([0], 0, 1), ([1], 0, 1), ([0, 1], 1, 2)])
        with pytest.raises(PreconditionError) as err:
            lower_bound_assignment(sys, 2)
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


    def test_a_lower_bound_solve_eliminates_over_its_rows_once(self, monkeypatch):
        sys = dense_irreducible_system(random.Random(47), 40, 120)
        calls = count_pivot_basis(monkeypatch)
        answer, witness = decide_aa(AaInstance(sys, 4))
        assert answer is True and witness.method == "marking"
        # make_irreducible's rref is the only elimination over more than k
        # vectors; the lower bound trusts its result, and verify_kset tests
        # the independence of the 4 chosen rows
        assert [size for size in calls if size > 4] == [120]
        assert calls[-1] == 4

    def test_a_system_the_caller_builds_is_tested_in_full(self, monkeypatch):
        reduced, _ = make_irreducible(dense_irreducible_system(random.Random(48), 40, 120))
        rebuilt = LinearSystem(reduced.n, reduced.equations)
        assert rebuilt == reduced
        calls = count_pivot_basis(monkeypatch)
        assert lower_bound_assignment(rebuilt, 4) == lower_bound_assignment(reduced, 4)
        # the rank test over the rebuilt rows and 0, then each verify_kset
        assert calls == [121, 4, 4]


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

    def test_an_irreducible_input_is_not_lifted(self, monkeypatch):
        # make_irreducible returns an irreducible system itself, so each
        # route's witness already holds an original assignment and its exact
        # excess: no lift, and no evaluation beyond the marking run's own
        rng = random.Random(49)
        cases = [(dense_irreducible_system(rng, 40, 120), k) for k in (1, 4)]
        oracle = dense_irreducible_system(rng, 8, 30)
        cases.append((oracle, int(brute_force_max_excess(oracle).excess) + 1))
        expected = [decide_aa(AaInstance(sys, k)) for sys, k in cases]
        evaluated = []
        monkeypatch.setattr(excess, "lift_assignment", lambda *args: pytest.fail("lifted"))
        monkeypatch.setattr(excess, "evaluate",
                            lambda *args: evaluated.append(args) or evaluate(*args))
        for (sys, k), (answer, witness) in zip(cases, expected):
            assert make_irreducible(sys)[0] is sys
            evaluated.clear()
            assert decide_aa(AaInstance(sys, k)) == (answer, witness)
            assert len(evaluated) == (witness.method == "marking")
            assert evaluate(sys, witness.assignment) == witness.excess
        assert [witness.method for _, witness in expected] == ["marking", "marking", "brute_force"]

    def test_a_reduced_input_is_lifted_and_evaluated_again(self, monkeypatch):
        sys = LinearSystem.build(3, [([0, 1], 0, 1), ([1, 2], 0, 1), ([0, 2], 1, 5)])
        lifts = []
        original = excess.lift_assignment
        monkeypatch.setattr(excess, "lift_assignment",
                            lambda tr, a: lifts.append(a) or original(tr, a))
        for k in (1, 3, 9):
            lifts.clear()
            answer, witness = decide_aa(AaInstance(sys, k))
            assert len(lifts) == 1 and lifts[0].n < sys.n
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
