import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

from maxlin import (
    Assignment,
    DimensionMismatchError,
    FourierExpansion,
    LinearSystem,
    MaxlinError,
    apply_rule2,
    eval_fourier,
    evaluate,
    fourier_to_system,
    maxima_lower_bound,
    system_to_fourier,
)

from helpers import all_points, assert_raises, fourier_brute_max, fourier_values_vector, random_fourier, random_system


def negated_elementary(n):
    """f = -sum over nonempty subsets of the monomials, the tight family."""
    subsets = chain.from_iterable(combinations(range(n), size) for size in range(1, n + 1))
    return FourierExpansion(n, 0, {frozenset(s): Fraction(-1) for s in subsets})


class TestEvalFourier:
    def test_single_monomial(self):
        f = FourierExpansion(1, 0, {frozenset([0]): Fraction(5)})
        assert eval_fourier(f, (1,)) == 5

    def test_two_variable_example(self):
        f = negated_elementary(2)
        assert eval_fourier(f, (1, 1)) == -3
        assert eval_fourier(f, (-1, 1)) == 1

    def test_constant_only(self):
        f = FourierExpansion(3, Fraction(7, 2), {})
        for point in all_points(3):
            assert eval_fourier(f, point) == Fraction(7, 2)

    def test_rejects_bad_entries(self):
        f = FourierExpansion(1, 0, {frozenset([0]): Fraction(1)})
        with pytest.raises(MaxlinError):
            eval_fourier(f, (0,))

    def test_matches_vectorized_helper(self):
        rng = random.Random(51)
        for _ in range(10):
            f = random_fourier(rng, n_max=6)
            values, scale = fourier_values_vector(f)
            for key, point in enumerate(all_points(f.n)):
                assert eval_fourier(f, point) == Fraction(int(values[key]), scale)


class TestBijection:
    def test_negative_monomial(self):
        f = FourierExpansion(2, 0, {frozenset([0, 1]): Fraction(-1)})
        sys, constant = fourier_to_system(f)
        assert constant == 0
        eq = sys.equations[0]
        assert (eq.lhs.support(), eq.rhs, eq.weight) == ((0, 1), 1, 1)

    def test_positive_monomial(self):
        f = FourierExpansion(1, 0, {frozenset([0]): Fraction(3)})
        sys, _ = fourier_to_system(f)
        eq = sys.equations[0]
        assert (eq.lhs.support(), eq.rhs, eq.weight) == ((0,), 0, 3)

    def test_all_negative_terms(self):
        f = negated_elementary(2)
        sys, _ = fourier_to_system(f)
        assert sys.m == 3
        assert all(eq.rhs == 1 and eq.weight == 1 for eq in sys.equations)

    def test_system_to_fourier_inverse(self):
        sys = LinearSystem.build(2, [([0, 1], 1, 1)])
        f = system_to_fourier(sys)
        assert f.terms == {frozenset([0, 1]): Fraction(-1)}
        assert f.constant == 0

    def test_positive_weight_equation(self):
        sys = LinearSystem.build(1, [([0], 0, 5)])
        f = system_to_fourier(sys)
        assert f.terms == {frozenset([0]): Fraction(5)}

    def test_duplicate_lhs_rejected(self):
        sys = LinearSystem.build(1, [([0], 0, 1), ([0], 1, 2)])
        with pytest.raises(MaxlinError):
            system_to_fourier(sys)

    def test_roundtrip_from_expansion(self):
        rng = random.Random(52)
        for _ in range(20):
            f = random_fourier(rng)
            zero_const = FourierExpansion(f.n, 0, f.terms)
            sys, _ = fourier_to_system(zero_const)
            assert system_to_fourier(sys) == zero_const

    def test_roundtrip_from_system(self):
        rng = random.Random(53)
        for _ in range(20):
            sys = apply_rule2(random_system(rng, rational_weights=True))
            back, _ = fourier_to_system(system_to_fourier(sys))
            assert back.content()[0] == sys.content()[0]
            assert sorted(back.content()[1]) == sorted(sys.content()[1])

    def test_excess_equals_shifted_value(self):
        rng = random.Random(54)
        for _ in range(15):
            f = random_fourier(rng, n_max=8)
            sys, constant = fourier_to_system(f)
            for bits in range(2**f.n):
                z = Assignment(f.n, bits)
                point = tuple(-1 if b else 1 for b in z.values())
                assert eval_fourier(f, point) - constant == evaluate(sys, z).excess


class TestMaximaLowerBound:
    def test_two_variable_tight_example(self):
        f = negated_elementary(2)
        assert maxima_lower_bound(f) == 1
        assert fourier_brute_max(f) == 1

    def test_single_monomial_is_tight(self):
        f = FourierExpansion(1, 0, {frozenset([0]): Fraction(5)})
        assert maxima_lower_bound(f) == 5

    def test_three_variable_family(self):
        f = negated_elementary(3)
        assert maxima_lower_bound(f) == 1
        assert fourier_brute_max(f) == 1

    def test_empty_expansion_rejected(self):
        with pytest.raises(MaxlinError):
            maxima_lower_bound(FourierExpansion(2, Fraction(3), {}))

    def test_constant_shifts_bound(self):
        f = FourierExpansion(1, Fraction(10), {frozenset([0]): Fraction(2)})
        assert maxima_lower_bound(f) == 12

    def test_sound_on_random_expansions(self):
        rng = random.Random(55)
        for _ in range(40):
            f = random_fourier(rng, n_max=9)
            assert maxima_lower_bound(f) <= fourier_brute_max(f)

    def test_tight_family_with_deleted_monomial(self):
        for n in range(2, 7):
            full = negated_elementary(n)
            for removed in (frozenset([0]), frozenset(range(n))):
                terms = {s: c for s, c in full.terms.items() if s != removed}
                f = FourierExpansion(n, 0, terms)
                assert maxima_lower_bound(f) == fourier_brute_max(f) == 2


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: FourierExpansion(-1),
            MaxlinError,
            "dimension must be non-negative",
            id="negative-dimension",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset(): Fraction(1)}),
            MaxlinError,
            "terms must be nonempty subsets",
            id="empty-term",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0, 2}): Fraction(1)}),
            MaxlinError,
            "term [0, 2] outside 0..1",
            id="term-range",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0}): Fraction(0)}),
            MaxlinError,
            "zero coefficients must not be stored",
            id="zero-coefficient",
        ),
        pytest.param(
            lambda: eval_fourier(FourierExpansion(2), (1,)),
            DimensionMismatchError,
            "point has 1 entries, expected 2",
            id="point-length",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)
