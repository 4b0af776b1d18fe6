import random
from itertools import combinations

import pytest

from maxlin import F2Vector, MaxlinError, PreconditionError, VectorSet, find_kset, verify_kset

from helpers import assert_raises, random_vectorset


def bits01(text):
    """The packed int of a 0/1 string, character j being coordinate j."""
    return int(text[::-1], 2)


def vecset(n, patterns):
    return VectorSet(n, [bits01(p) for p in patterns])


def units_with_zero(n):
    return VectorSet(n, [0] + [1 << j for j in range(n)])


class TestFindKset:
    def test_pair_in_plane(self):
        members = vecset(2, ["00", "10", "01"])
        found = find_kset(members, 1)
        assert set(found) == {bits01("10"), bits01("01")}

    def test_pair_among_units(self):
        found = find_kset(units_with_zero(3), 1)
        assert len(found) == 2
        assert (found[0] ^ found[1]).bit_count() == 2

    def test_three_units_in_six_dims(self):
        members = units_with_zero(6)
        found = find_kset(members, 2)
        assert len(found) == 3
        assert all(v.bit_count() == 1 for v in found)
        assert verify_kset(members, found)

    def test_quotient_recursion_path(self):
        # every candidate pairs with its e8-translate, so the greedy phase
        # stalls at one element and the search must recurse on the quotient
        vectors = [0, 1 << 7]
        for i in range(7):
            vectors.append(1 << i)
            vectors.append(1 << i | 1 << 7)
        members = VectorSet(8, vectors)
        found = find_kset(members, 2)
        assert verify_kset(members, found)
        # pinned: deterministic output of the quotient lifting
        assert found == [bits01(p) for p in ("10000000", "01000000", "00100000")]

    def test_pair_scan_on_nearly_full_space(self):
        # only one nonzero vector is missing; the chosen pair must sum to it
        missing = 0b111
        members = VectorSet(3, [b for b in range(8) if b != missing])
        found = find_kset(members, 1)
        assert found[0] ^ found[1] == missing

    def test_deterministic(self):
        rng = random.Random(31)
        members, k = random_vectorset(rng)
        first = find_kset(members, k)
        second = find_kset(members, k)
        assert first == second

    def test_random_instances_verify(self):
        rng = random.Random(32)
        for _ in range(60):
            members, k = random_vectorset(rng)
            found = find_kset(members, k)
            assert len(found) == k + 1
            assert verify_kset(members, found)

    def test_pair_scan_succeeds_on_random_sets(self):
        rng = random.Random(33)
        for _ in range(40):
            members, _ = random_vectorset(rng, n_max=10, k_max=1)
            found = find_kset(members, 1)
            assert verify_kset(members, found)

    def test_depth_two_recursion_with_larger_k(self):
        # k = 4 needs n >= 17 before a spanning set fits under the threshold
        rng = random.Random(34)
        n = 18
        bits = {0}
        for j in range(n):
            bits.add(1 << j)
        while len(bits) < 22:  # 22^4 <= 2^18
            bits.add(rng.randrange(1, 2**n))
        members = VectorSet(n, bits)
        found = find_kset(members, 4)
        assert len(found) == 5
        assert verify_kset(members, found)


class TestPreconditions:
    def test_zero_missing(self):
        members = vecset(2, ["10", "01"])
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 1)
        assert err.value.condition == "zero_missing"

    def test_no_basis(self):
        members = vecset(3, ["000", "100", "010", "110"])
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 1)
        assert err.value.condition == "no_basis"

    def test_no_basis_comes_before_the_size_checks(self):
        # k = 4 also fails set_too_small and the threshold
        members = vecset(3, ["000", "100", "010", "110"])
        assert not members.spans()  # the cached answer is the same
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 4)
        assert err.value.condition == "no_basis"

    def test_set_too_large(self):
        members = vecset(2, ["00", "10", "01", "11"])
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 1)
        assert err.value.condition == "set_too_large"

    def test_set_too_small(self):
        members = units_with_zero(3)
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 4)
        assert err.value.condition == "set_too_small"

    def test_threshold_exceeded(self):
        members = units_with_zero(4)
        with pytest.raises(PreconditionError) as err:
            find_kset(members, 3)  # 5^3 > 2^4
        assert err.value.condition == "threshold_exceeded"

    def test_k_not_positive(self):
        with pytest.raises(PreconditionError) as err:
            find_kset(units_with_zero(3), 0)
        assert err.value.condition == "k_not_positive"


class TestVerifyKset:
    def test_accepts_valid_pair(self):
        members = vecset(2, ["00", "10", "01"])
        assert verify_kset(members, [bits01("10"), bits01("01")])

    def test_rejects_sum_in_set(self):
        members = vecset(2, ["00", "10", "01", "11"])
        assert not verify_kset(members, [bits01("10"), bits01("01")])

    def test_singleton_accepts_vacuously(self):
        members = vecset(2, ["00", "10", "01"])
        assert verify_kset(members, [bits01("10")])

    def test_rejects_nonmember(self):
        members = vecset(2, ["00", "10", "01"])
        assert not verify_kset(members, [bits01("11")])

    def test_rejects_duplicates(self):
        members = vecset(2, ["00", "10", "01"])
        v = bits01("10")
        assert not verify_kset(members, [v, v])

    def test_checks_every_subset_size(self):
        members = vecset(4, ["0000", "1000", "0100", "0010", "0001", "1110"])
        chosen = [bits01(p) for p in ("1000", "0100", "0010")]
        # pairwise sums are fine but the triple sum 1110 is a member
        for a, b in combinations(chosen, 2):
            assert a ^ b not in members
        assert not verify_kset(members, chosen)

    def test_rejects_out_of_range_and_old_style_candidates(self):
        members = vecset(2, ["00", "10", "01"])
        assert not verify_kset(members, [bits01("10"), 0b100])
        assert not verify_kset(members, [-1])
        assert not verify_kset(members, [F2Vector(2, 0b01), F2Vector(2, 0b10)])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: VectorSet(2, [0, 0b100]),
            MaxlinError,
            "bit pattern 0x4 does not fit dimension 2",
            id="vector-dimension",
        ),
        pytest.param(
            lambda: VectorSet(2, [0, -1]),
            MaxlinError,
            "bit pattern -0x1 does not fit dimension 2",
            id="pattern-negative",
        ),
        pytest.param(
            lambda: VectorSet(2, [0, F2Vector(2, 0b01)]),
            MaxlinError,
            "is not an int bit pattern",
            id="f2vector-member",
        ),
        pytest.param(
            lambda: VectorSet(2.0, [0]),
            MaxlinError,
            "dimension must be an int, got 2.0",
            id="float-dimension",
        ),
        pytest.param(
            lambda: VectorSet(True, [0]),
            MaxlinError,
            "dimension must be an int, got True",
            id="bool-dimension",
        ),
        pytest.param(
            lambda: VectorSet("2", [0]),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="str-dimension",
        ),
        pytest.param(
            lambda: VectorSet(-1, []),
            MaxlinError,
            "dimension must be non-negative",
            id="negative-dimension",
        ),
        pytest.param(
            lambda: find_kset(VectorSet(3, [0, 0b001, 0b010, 0b100]), True),
            PreconditionError,
            "k must be a positive integer, got True",
            id="find-bool-k",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)
