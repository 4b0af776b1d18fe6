"""The line-at-a-time system and expansion parsers against their frozen
token-at-a-time reference.

Files are drawn with comments, blank lines, tabs and every spelling of an
index that ``int`` accepts (``+3``, ``03``, ``1_0``, ``٣``), then broken by
up to two edits: a bad or out-of-range index, a repeated or swapped index,
a wrong count, a short line, an out-of-range index followed by a bad one,
and bad weights, right-hand bits and headers.  A valid file must give an
equal value (for systems also equal ids and ``next_id``); a broken one must
raise a ``ParseError`` with equal text and line number.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxlin import F2Vector, LinearSystem, MaxlinError, ParseError
from maxlin import formats
from maxlin.formats import emit_fourier, emit_system, parse_fourier, parse_system
from maxlin.fourier import FourierExpansion

import reference_formats as ref

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

WEIGHTS = ["1", "2", "5", "3/2", "7/4", "+2", "4/2", "02"]
COEFFS = WEIGHTS + ["-1", "-3/2", "-4/2"]
BAD_INDICES = ["x", "+3", "03", "1_0", "٣", "0", "-1", "1.0", "3x", "_1", "1__0"]


def outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))
    if isinstance(value, LinearSystem):
        return ("ok", value, value.ids(), value.next_id)
    return ("ok", value)


@st.composite
def index_token(draw, i):
    """One of the spellings of index i that int() reads as i."""
    forms = [str(i), "+" + str(i), "0" + str(i)]
    if i >= 10:
        forms.append(str(i)[0] + "_" + str(i)[1:])
    else:
        forms.append(chr(0x660 + i))  # Arabic-Indic digit
    return draw(st.sampled_from(forms))


@st.composite
def index_lines(draw, n, count, first):
    """count lines '<first> <t> <i1> ... <it>' over distinct index subsets."""
    subsets = draw(st.lists(
        st.sets(st.integers(1, n), min_size=1).map(sorted),
        max_size=count, min_size=count, unique_by=tuple,
    ))
    return [
        [draw(first), str(len(s))] + [draw(index_token(i)) for i in s] for s in subsets
    ]


@st.composite
def break_line(draw, tokens, n, lead):
    """tokens with one edit; lead is the number of tokens before the indices."""
    if len(tokens) < lead:  # already cut short by an earlier edit
        return tokens
    tokens = list(tokens)
    has_index = len(tokens) > lead
    kind = draw(st.sampled_from([
        "index", "repeat", "swap", "count", "short", "out_of_range", "out_then_bad", "lead",
    ]))
    if kind == "index" and has_index:
        pos = draw(st.integers(lead, len(tokens) - 1))
        tokens[pos] = draw(st.sampled_from(BAD_INDICES + [str(n + 1), str(n), "1"]))
    elif kind == "repeat" and has_index:
        pos = draw(st.integers(lead, len(tokens) - 1))
        tokens.insert(pos, tokens[pos])
        if draw(st.booleans()):
            tokens[lead - 1] = str(len(tokens) - lead)
    elif kind == "swap" and len(tokens) > lead + 1:
        pos = draw(st.integers(lead, len(tokens) - 2))
        tokens[pos], tokens[pos + 1] = tokens[pos + 1], tokens[pos]
    elif kind == "count":
        tokens[lead - 1] = draw(st.sampled_from(
            [str(len(tokens) - lead + d) for d in (-1, 1, 2)] + ["0", "-1", "x"]
        ))
    elif kind == "short":
        tokens = tokens[: draw(st.integers(0, lead))]
    elif kind == "out_of_range" and has_index:
        tokens[-1] = str(n + 1 + draw(st.integers(0, 3)))
    elif kind == "out_then_bad":
        pos = draw(st.integers(lead, len(tokens)))
        tokens[pos:pos + 2] = [str(n + 1 + draw(st.integers(0, 3))), "x"]
    else:  # the weight or coefficient, or the right-hand bit
        pos = draw(st.integers(0, lead - 2))
        tokens[pos] = draw(st.sampled_from(["0", "0/3", "-1", "1.5", "1/0", "x", "2", "01"]))
    return tokens


@st.composite
def render(draw, lines):
    """Join token lines with spaces or tabs, with comments and blank lines."""
    out = []
    for tokens in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["c note", "", "c", "   "])))
        out.append(draw(st.sampled_from([" ", "  ", "\t"])).join(tokens))
    return "\n".join(out) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def system_files(draw, broken):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1 if broken else 0, 10))
    body = draw(index_lines(n, m, st.sampled_from(WEIGHTS)))
    for row in body:
        row.insert(1, draw(st.sampled_from(["0", "1"])))
    header = ["p", "maxlin", str(n), str(m)]
    if broken:
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.integers(0, 7)) < 7:
                at = draw(st.integers(0, len(body) - 1))
                body[at] = draw(break_line(body[at], n, 3))
            else:
                header[3] = str(m + draw(st.sampled_from([-1, 1])))
    return draw(render([header] + body))


@st.composite
def fourier_files(draw, broken):
    n = draw(st.integers(1, 10))
    count = draw(st.integers(1 if broken else 0, min(8, 2**n - 1)))
    body = draw(index_lines(n, count, st.sampled_from(COEFFS)))
    header = ["p", "fourier", str(n), str(count)]
    const = ["const", draw(st.sampled_from(["0", "-1/2", "3"]))]
    if broken:
        for _ in range(draw(st.integers(1, 2))):
            choice = draw(st.integers(0, 7))
            if choice < 6:
                at = draw(st.integers(0, len(body) - 1))
                body[at] = draw(break_line(body[at], n, 2))
            elif choice == 6:  # repeat another term's subset
                src, dst = draw(st.integers(0, len(body) - 1)), draw(st.integers(0, len(body) - 1))
                body[dst] = body[dst][:1] + body[src][1:]
            else:
                const[1] = draw(st.sampled_from(["0.5", "x", "1/0"]))
    return draw(render([header, const] + body))


class TestSystemParser:
    @PROPERTY
    @given(system_files(broken=False))
    def test_valid_files_match_reference_and_round_trip(self, text):
        got = outcome(parse_system, text)
        assert got[0] == "ok"
        assert got == outcome(ref.parse_system, text)
        system = got[1]
        assert outcome(parse_system, emit_system(system)) == got

    @PROPERTY
    @given(system_files(broken=True))
    def test_broken_files_raise_the_reference_error(self, text):
        assert outcome(parse_system, text) == outcome(ref.parse_system, text)

    def test_named_errors(self):
        cases = [
            ("p maxlin 3 1\n1 0 2 4 x\n", 2, "index 4 outside 1..3"),
            ("p maxlin 3 1\n1 0 2 x 4\n", 2, "variable index must be an integer, got 'x'"),
            ("p maxlin 3 1\n1 0 2 0 1\n", 2, "index 0 outside 1..3"),
            ("p maxlin 3 1\n1 0 2 2 2\n", 2, "indices must be strictly increasing"),
            ("p maxlin 3 1\n1 0 2 3 1\n", 2, "indices must be strictly increasing"),
            ("p maxlin 3 1\n1 0 3 1 2\n", 2, "expected 3 indices, got 2"),
            ("p maxlin 3 2\n2 0 1 1\n2 0 1 1 x\n", 3, "expected 1 indices, got 2"),
            ("p maxlin 2 2\n2 0 1 1\n0 0 1 2\n", 3, "weights must be positive, got 0"),
            ("p maxlin 2 2\n2 0 1 1\n0/3 0 1 2\n", 3, "weights must be positive, got 0/3"),
            ("p maxlin 2 2\n3/2 0 1 1\n3/2 2 1 2\n", 3, "right-hand bit must be 0 or 1, got 2"),
            ("p maxlin 12 1\n1 0 2 +3 1_0\n", None, None),
        ]
        for text, line, message in cases:
            got = outcome(parse_system, text)
            assert got == outcome(ref.parse_system, text), text
            if line is not None:
                assert got == ("error", line, f"line {line}: {message}"), text


class TestFourierParser:
    @PROPERTY
    @given(fourier_files(broken=False))
    def test_valid_files_match_reference_and_round_trip(self, text):
        got = outcome(parse_fourier, text)
        assert got[0] == "ok"
        assert got == outcome(ref.parse_fourier, text)
        assert parse_fourier(emit_fourier(got[1])) == got[1]

    @PROPERTY
    @given(fourier_files(broken=True))
    def test_broken_files_raise_the_reference_error(self, text):
        assert outcome(parse_fourier, text) == outcome(ref.parse_fourier, text)


def test_dense_parse_costs_a_few_steps_per_row_not_per_index(monkeypatch):
    """A dense 420-row file over 140 variables: _parse_int runs a bounded
    number of times per row (right-hand bit and count) and never per index,
    and no row goes through F2Vector.from_support."""
    rng = random.Random(6)
    n, m = 140, 420
    rows = [
        (sorted(rng.sample(range(n), rng.randint(50, 90))), rng.randint(0, 1),
         Fraction(rng.randint(1, 4), rng.randint(1, 2)))
        for _ in range(m)
    ]
    text = emit_system(LinearSystem.build(n, rows))
    want = ref.parse_system(text)
    index_tokens = sum(len(row[0]) for row in rows)

    calls = {"_parse_int": 0, "from_support": 0}
    real_parse_int = formats._parse_int
    real_from_support = F2Vector.from_support.__func__

    def counting_parse_int(*args):
        calls["_parse_int"] += 1
        return real_parse_int(*args)

    def counting_from_support(cls, *args):
        calls["from_support"] += 1
        return real_from_support(cls, *args)

    monkeypatch.setattr(formats, "_parse_int", counting_parse_int)
    monkeypatch.setattr(F2Vector, "from_support", classmethod(counting_from_support))
    got = parse_system(text)

    assert got == want and got.ids() == want.ids()
    assert calls["_parse_int"] <= 2 * m + 2
    assert index_tokens > 20 * m
    assert calls["from_support"] == 0


def test_expansion_range_check_names_the_term():
    with pytest.raises(MaxlinError) as err:
        FourierExpansion(3, 0, {frozenset([0, 3]): Fraction(1)})
    assert str(err.value) == "term [0, 3] outside 0..2"
