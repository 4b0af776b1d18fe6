import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

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
from maxlin.excess import regime_exponent
from maxlin.f2core import _pack

from helpers import (
    all_points, assert_raises, content, fourier_brute_max, fourier_values_vector, lhs_rank,
    random_fourier, random_system,
)


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
            assert content(back)[0] == content(sys)[0]
            assert sorted(content(back)[1]) == sorted(content(sys)[1])

    def test_excess_equals_shifted_value(self):
        rng = random.Random(54)
        for _ in range(15):
            f = random_fourier(rng, n_max=8)
            sys, constant = fourier_to_system(f)
            for bits in range(2**f.n):
                z = Assignment(f.n, bits)
                point = tuple(-1 if b == "1" else 1 for b in z.to01())
                assert eval_fourier(f, point) - constant == evaluate(sys, z)


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

    def test_least_coefficient_is_exact_with_mixed_signs_and_denominators(self):
        # the least |coefficient| is -3/14, below 1/4 and 10^20 / 7
        f = FourierExpansion(3, Fraction(1, 3), {
            frozenset([0]): Fraction(10**20 + 39, 7), frozenset([1]): Fraction(-3, 14),
            frozenset([2]): Fraction(1, 4), frozenset([0, 1]): Fraction(-5),
        })
        q = regime_exponent(4, 3)
        bound = maxima_lower_bound(f)
        assert type(bound) is Fraction
        assert bound == Fraction(1, 3) + (1 + q) * Fraction(3, 14)

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
            lambda: FourierExpansion(2.0),
            MaxlinError,
            "dimension must be an int, got 2.0",
            id="float-dimension",
        ),
        pytest.param(
            lambda: FourierExpansion(True),
            MaxlinError,
            "dimension must be an int, got True",
            id="bool-dimension",
        ),
        pytest.param(
            lambda: FourierExpansion("2"),
            MaxlinError,
            "dimension must be an int, got '2'",
            id="str-dimension",
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
            lambda: FourierExpansion(2, 0, {frozenset({0.5}): Fraction(1)}),
            MaxlinError,
            "term index 0.5 is not an int",
            id="term-float-index",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0, True}): Fraction(1)}),
            MaxlinError,
            "term index True is not an int",
            id="term-bool-index",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {(0, 0): 3}),
            MaxlinError,
            "term [0, 0] repeats an index",
            id="term-repeated-index",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0}): Fraction(0)}),
            MaxlinError,
            "zero coefficients must not be stored",
            id="zero-coefficient",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0}): "1/0"}),
            MaxlinError,
            "'1/0' is not an exact rational number",
            id="coefficient-zero-denominator",
        ),
        pytest.param(
            lambda: FourierExpansion(2, 0, {frozenset({0}): True}),
            MaxlinError,
            "True is not an exact rational number",
            id="coefficient-bool",
        ),
        pytest.param(
            lambda: FourierExpansion(2, None),
            MaxlinError,
            "None is not an exact rational number",
            id="constant-none",
        ),
        pytest.param(
            lambda: FourierExpansion(2, "x"),
            MaxlinError,
            "'x' is not an exact rational number",
            id="constant-str",
        ),
        pytest.param(
            lambda: FourierExpansion(3, 0, {(0, 1): 1, (1, 0): 2}),
            MaxlinError,
            "duplicate term subset [0, 1]",
            id="duplicate-subset",
        ),
        pytest.param(
            lambda: eval_fourier(FourierExpansion(2), (1,)),
            DimensionMismatchError,
            "point has 1 entries, expected 2",
            id="point-length",
        ),
        pytest.param(
            lambda: eval_fourier(FourierExpansion(2), [True, -1]),
            MaxlinError,
            "point entry True is not an int",
            id="point-bool-entry",
        ),
        pytest.param(
            lambda: eval_fourier(FourierExpansion(2), [1.0, -1]),
            MaxlinError,
            "point entry 1.0 is not an int",
            id="point-float-entry",
        ),
    ],
)
def test_boundary_checks(call, error, fragment):
    assert_raises(call, error, fragment)


def test_terms_are_read_only():
    source = {frozenset({0}): 1}
    f = FourierExpansion(2, 0, source)
    with pytest.raises(TypeError):
        f.terms[frozenset({1})] = Fraction(0)
    with pytest.raises(TypeError):
        del f.terms[frozenset({0})]
    with pytest.raises(TypeError):
        f.masks[0b10] = Fraction(1)
    source[frozenset({1})] = Fraction(0)  # the caller's dict is not the stored map
    assert f.terms == {frozenset({0}): Fraction(1)}
    assert fourier_to_system(f)[0].rows == ((0b01, 0, Fraction(1), 0),)


def test_equal_expansions_hash_equal():
    f = FourierExpansion(3, Fraction(1, 2), {
        frozenset({0, 2}): 3, frozenset({1}): Fraction(-1, 2)
    })
    g = FourierExpansion(3, "1/2", {(1,): "-1/2", (2, 0): Fraction(3)})
    assert f == g and hash(f) == hash(g)
    assert len({f, g, FourierExpansion(3, Fraction(1, 2))}) == 2


def test_system_to_fourier_builds_what_the_constructor_accepts():
    rng = random.Random(55)
    for _ in range(20):
        f = system_to_fourier(apply_rule2(random_system(rng, rational_weights=True)))
        assert FourierExpansion(f.n, f.constant, dict(f.terms)) == f
        assert all(type(c) is Fraction for c in f.terms.values())


def test_an_int_subclass_index_is_an_int():
    class Index(int):
        pass

    f = FourierExpansion(3, 0, {frozenset({Index(2), 0}): 1})
    assert fourier_to_system(f)[0].rows == ((0b101, 0, Fraction(1), 0),)


@st.composite
def expansions(draw):
    """Random expansions whose masks all lie within a drawn set of columns,
    so that many have rank below n, or more terms than their rank."""
    n = draw(st.integers(1, 10))
    columns = draw(st.integers(1, 2**n - 1))
    masks = draw(st.sets(st.integers(1, 2**n - 1).map(lambda x: x & columns).filter(bool),
                         min_size=1, max_size=16))
    coeffs = st.fractions(-9, 9, max_denominator=4).filter(bool)
    terms = {frozenset(i for i in range(n) if mask >> i & 1): draw(coeffs) for mask in masks}
    return FourierExpansion(n, draw(st.fractions(-5, 5, max_denominator=3)), terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expansions())
def test_masks_are_the_packed_terms(f):
    assert f.masks == {_pack(s): c for s, c in f.terms.items()}
    again = FourierExpansion(f.n, f.constant, f.terms)
    assert again == f and hash(again) == hash(f)
    # the bound from the system in canonical order, ranked by lhs_rank
    ordered = sorted(f.terms.items(), key=lambda kv: tuple(sorted(kv[0])))
    system = LinearSystem._from_rows(f.n, [
        (_pack(s), 0 if c > 0 else 1, abs(c), i) for i, (s, c) in enumerate(ordered)
    ])
    assert system.rows == fourier_to_system(f)[0].rows
    q = regime_exponent(system.m, lhs_rank(system))
    assert maxima_lower_bound(f) == f.constant + (1 + q) * system.min_weight
    assert system.min_weight == min(map(abs, f.masks.values()))
