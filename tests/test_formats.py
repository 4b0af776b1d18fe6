import random
from fractions import Fraction

import pytest

from maxlin import ParseError, make_irreducible
from maxlin.formats import (
    emit_fourier,
    emit_system,
    emit_transcript_comments,
    parse_cnf,
    parse_csp,
    parse_fourier,
    parse_rational,
    parse_system,
    parse_vectorset,
)
from maxlin.fourier import FourierExpansion

from helpers import assert_raises, random_fourier, random_system


class TestRational:
    def test_integer(self):
        assert parse_rational("3", 1) == 3

    def test_fraction_in_lowest_terms(self):
        assert parse_rational("6/4", 1) == Fraction(3, 2)
        system = parse_system("p maxlin 1 1\n6/4 0 1 1\n")
        assert emit_system(system) == "p maxlin 1 1\n3/2 0 1 1\n"

    def test_negative(self):
        assert parse_rational("-5/2", 1) == Fraction(-5, 2)

    def test_rejects_floats(self):
        with pytest.raises(ParseError):
            parse_rational("1.5", 3)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_rational("1/0", 4)
        assert err.value.line_no == 4


class TestSystemFormat:
    def test_parse_basic(self):
        sys = parse_system("c a comment\np maxlin 2 2\n2 0 1 1\n5/2 1 2 1 2\n")
        assert sys.n == 2 and sys.m == 2
        assert sys.equations[1].weight == Fraction(5, 2)
        assert sys.equations[1].lhs.support() == (0, 1)

    def test_roundtrip(self):
        rng = random.Random(71)
        for _ in range(20):
            sys = random_system(rng, rational_weights=True)
            again = parse_system(emit_system(sys))
            assert again == sys  # build ids are 0.. in order on both sides

    def test_errors_carry_line_numbers(self):
        cases = [
            ("p maxlin 2 1\n0 0 1 1\n", 2),        # nonpositive weight
            ("p maxlin 2 1\n1 2 1 1\n", 2),        # bad rhs bit
            ("p maxlin 2 1\n1 0 0\n", 2),          # empty support
            ("p maxlin 2 1\n1 0 2 2 1\n", 2),      # decreasing indices
            ("p maxlin 2 1\n1 0 2 1 3\n", 2),      # index out of range
            ("p maxlin 2 1\n1 0 2 1 1\n", 2),      # repeated index
            ("p maxlin 2 2\n1 0 1 1\n", 2),        # missing equation
            ("p wrong 2 1\n1 0 1 1\n", 1),         # bad header
            ("p maxlin 2 1\n1.5 0 1 1\n", 2),      # float weight
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert err.value.line_no == line, text

    def test_transcript_comments_ignored_on_reparse(self):
        sys = parse_system("p maxlin 2 2\n1 0 1 1\n1 0 1 1\n")
        reduced, tr = make_irreducible(sys)
        text = emit_system(reduced) + emit_transcript_comments(tr)
        assert parse_system(text).content() == reduced.content()


class TestFourierFormat:
    def test_parse_basic(self):
        f = parse_fourier("p fourier 2 2\nconst -1/2\n3 1 1\n-2 2 1 2\n")
        assert f.constant == Fraction(-1, 2)
        assert f.terms == {frozenset([0]): Fraction(3), frozenset([0, 1]): Fraction(-2)}

    def test_roundtrip(self):
        rng = random.Random(72)
        for _ in range(20):
            f = random_fourier(rng)
            assert parse_fourier(emit_fourier(f)) == f

    def test_errors(self):
        cases = [
            ("p fourier 1 1\n3 1 1\n", 2),             # missing const line
            ("p fourier 1 1\nconst 0\n0 1 1\n", 3),    # zero coefficient
            ("p fourier 1 1\nconst 0\n1 0\n", 3),      # empty term
            ("p fourier 2 2\nconst 0\n1 1 1\n2 1 1\n", 4),  # duplicate subset
            ("p fourier 1 1\nconst 0.5\n1 1 1\n", 2),  # float constant
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                parse_fourier(text)
            assert err.value.line_no == line, text


class TestVectorSetFormat:
    def test_parse(self):
        members = parse_vectorset("p vecset 3 2\n000\n101\n")
        assert len(members) == 2

    def test_rejects_bad_rows(self):
        for text, line in [
            ("p vecset 3 1\n00\n", 2),
            ("p vecset 3 1\n002\n", 2),
            ("p vecset 3 2\n000\n000\n", 3),
        ]:
            with pytest.raises(ParseError) as err:
                parse_vectorset(text)
            assert err.value.line_no == line


class TestCnfFormat:
    def test_parse_multiline_clause(self):
        formula = parse_cnf("c comment\np cnf 3 2\n1 -2\n3 0\n-1 2 0\n")
        assert formula.clauses == ((1, -2, 3), (-1, 2))

    def test_errors(self):
        for text, line in [
            ("p cnf 2 1\n1 0\n1 0\n", 3),     # clause count mismatch
            ("p cnf 2 1\n3 0\n", 2),          # literal out of range
            ("p cnf 2 1\n1 -1 0\n", 2),       # repeated variable
            ("p cnf 2 1\n1 2\n", 2),          # unterminated clause
            ("p cnf 2 1\n0\n", 2),            # empty clause
        ]:
            with pytest.raises(ParseError) as err:
                parse_cnf(text)
            assert err.value.line_no == line, text


class TestCspFormat:
    def test_parse(self):
        inst = parse_csp("p csp 2 1\n2 1 2 2\n-1 -1\n1 -1\n")
        cons = inst.constraints[0]
        assert cons.variables == (0, 1)
        assert cons.satisfying == {(-1, -1), (1, -1)}

    def test_accepts_plus_signs(self):
        inst = parse_csp("p csp 1 1\n1 1 1\n+1\n")
        assert inst.constraints[0].satisfying == {(1,)}

    @pytest.mark.parametrize("entry", ["+-1", "++1"])
    def test_stacked_signs_are_rejected(self, entry):
        with pytest.raises(ParseError) as err:
            parse_csp(f"p csp 2 1\n2 1 2 2\n-1 -1\n1 {entry}\n")
        assert err.value.line_no == 4

    def test_errors(self):
        for text, line, message in [
            ("p csp 2 1\n2 1 1 1\n-1 -1\n", 2, "repeats variable 1"),
            ("p csp 2 1\n2 1 2 5\n", 2, "|V| must be between"),
            ("p csp 2 1\n2 1 2 1\n-1 0\n", 3, "entries must be -1 or 1"),
            ("p csp 2 1\n2 1 2 2\n-1 -1\n-1 -1\n", 4, "duplicate satisfying point"),
            ("p csp 2 2\n1 1 1\n1\n", 3, "expected 2 constraints"),
            ("p csp 2 1\n1 1\n", 2, "constraint lines need"),
            ("p csp 2 1\n0 1 1\n", 2, "arity must be at least 1"),
            ("p csp 2 1\n2 1 1\n", 2, "expected 2 indices plus |V|"),
            ("p csp 2 1\n1 3 1\n1\n", 2, "index 3 outside 1..2"),
            ("p csp 2 1\n1 1 2\n1\n", 2, "constraint needs 2 satisfying rows"),
            ("p csp 2 1\n2 1 2 1\n-1\n", 3, "expected 2 entries of -1 or 1"),
            ("p csp 2 1\n1 1 1\n1\n1 2 1\n", 4, "trailing content"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_csp(text)
            assert err.value.line_no == line, text
            assert message in str(err.value), text


def test_emitted_fourier_is_canonical():
    f = FourierExpansion(
        2, 0, {frozenset([1]): Fraction(1), frozenset([0]): Fraction(2)}
    )
    assert emit_fourier(f).splitlines()[2:] == ["2 1 1", "1 1 2"]


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: parse_system(""), "line 1: missing 'p maxlin' header", id="empty"),
        pytest.param(
            lambda: parse_system("p maxlin -1 0\n"),
            "line 1: header counts must be non-negative",
            id="negative-count",
        ),
        pytest.param(
            lambda: parse_fourier("c only a header\np fourier 2 0\n"),
            "line 2: missing 'const <rational>' line",
            id="no-const-line",
        ),
    ],
)
def test_boundary_checks(call, fragment):
    assert_raises(call, ParseError, fragment)
