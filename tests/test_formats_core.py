"""The line-at-a-time system and expansion parsers against their frozen
token-at-a-time reference.

Files are drawn with comments, blank lines, tabs and every decimal ASCII
spelling of an index (``+3``, ``03``), then broken by
up to two edits: a bad or out-of-range index, a repeated or swapped index,
a wrong count, a short line, an out-of-range index followed by a bad one,
and bad weights, right-hand bits and headers.  A valid file must give an
equal value (for systems also equal ids and ``next_id``); a broken one must
raise a ``ParseError`` with equal text and line number.  The reference reads
indices with ``int``, which also takes ``1_0`` and ``٣``; those spellings
are errors here, and are tested on their own.  A file reads its index
tokens through one memo that converts each distinct token once; named
lines miss it or fail its checks and fall back to the token-by-token check,
and named files with a wrong count, comments, blank lines or ``\r\n``
endings check that the one-pass reader counts the rows where a file ends
or breaks, as the reference does before any row.
"""
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxlin import F2Vector, LinearSystem, MaxlinError, ParseError
from maxlin import formats
from maxlin.formats import (
    MAX_DECLARED_N,
    emit_fourier,
    emit_system,
    parse_cnf,
    parse_fourier,
    parse_system,
    parse_vectorset,
)
from maxlin.fourier import FourierExpansion

import reference_formats as ref

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

WEIGHTS = ["1", "2", "5", "3/2", "7/4", "+2", "4/2", "02"]
COEFFS = WEIGHTS + ["-1", "-3/2", "-4/2"]
BAD_INDICES = ["x", "+3", "03", "0", "-1", "1.0", "3x", "_1", "1__0"]


def outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))
    if isinstance(value, LinearSystem):
        return ("ok", value, [row[3] for row in value.rows], value.next_id)
    return ("ok", value)


@st.composite
def index_token(draw, i):
    """One of the decimal ASCII spellings of index i."""
    return draw(st.sampled_from([str(i), "+" + str(i), "0" + str(i)]))


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


def emit_by_support(system: LinearSystem) -> str:
    """The system format written equation by equation from each support."""
    lines = [f"p maxlin {system.n} {system.m}"]
    for eq in system.equations:
        support = eq.lhs.support()
        fields = [eq.weight, eq.rhs, len(support), *(j + 1 for j in support)]
        lines.append(" ".join(map(str, fields)))
    return "\n".join(lines) + "\n"


class TestSystemParser:
    @PROPERTY
    @given(system_files(broken=False))
    def test_valid_files_match_reference_and_round_trip(self, text):
        got = outcome(parse_system, text)
        assert got[0] == "ok"
        assert got == outcome(ref.parse_system, text)
        system = got[1]
        assert outcome(parse_system, emit_system(system)) == got
        assert emit_system(system) == emit_by_support(system)

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
            ("p maxlin 12 1\n1 0 2 +3 010\n", None, None),
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


def counting_conversions(monkeypatch):
    """Patch formats._IndexMemo.__missing__ to record each token it reads."""
    converted = []
    real = formats._IndexMemo.__missing__

    def counting(self, token):
        converted.append(token)
        return real(self, token)

    monkeypatch.setattr(formats._IndexMemo, "__missing__", counting)
    return converted


# (rows the header declares, line ending, support size and index tokens of
# the last of three rows, the error, or None for a valid file); the rows
# before it put the tokens 1, 2 and 3 in the file's memo, and comment and
# blank lines sit between and after the rows.  Every error is on the last
# row's line: a count error there outranks the row's own
TABLE_MISSES = [
    pytest.param(3, "\n", "2", "2 2", "indices must be strictly increasing", id="repeated"),
    pytest.param(3, "\n", "2", "3 2", "indices must be strictly increasing", id="swapped"),
    pytest.param(3, "\n", "3", "1 2", "expected 3 indices, got 2", id="count-one-high"),
    pytest.param(3, "\n", "2", "1 +3", None, id="plus-sign"),
    pytest.param(3, "\n", "2", "1 03", None, id="leading-zero"),
    pytest.param(3, "\n", "2", "1 \u0663", "variable index must be an integer, got '\u0663'",
                 id="arabic-digit"),
    pytest.param(3, "\n", "2", "1 1_0", "variable index must be an integer, got '1_0'",
                 id="underscore"),
    pytest.param(3, "\n", "2", "3 03", "indices must be strictly increasing",
                 id="one-index-two-spellings"),
    pytest.param(2, "\n", "2", "1 3", "header declares 2 {what}, found 3", id="row-past-the-count"),
    pytest.param(4, "\n", "2", "1 3", "header declares 4 {what}, found 3", id="one-row-short"),
    pytest.param(2, "\n", "2", "2 2", "header declares 2 {what}, found 3",
                 id="bad-row-past-the-count"),
    pytest.param(4, "\n", "2", "x 3", "header declares 4 {what}, found 3",
                 id="bad-row-in-a-short-file"),
    pytest.param(3, "\r\n", "2", "1 3", None, id="crlf"),
    pytest.param(4, "\r\n", "2", "1 3", "header declares 4 {what}, found 3", id="crlf-short"),
]


@pytest.mark.parametrize("declared, newline, size, indices, message", TABLE_MISSES)
@pytest.mark.parametrize("kind", ["system", "fourier"])
def test_lines_that_miss_the_table_fall_back(kind, declared, newline, size, indices, message):
    if kind == "system":
        parse, reference, line, what = parse_system, ref.parse_system, 6, "equations"
        text = (f"p maxlin 3 {declared}\n1 0 3 1 2 3\nc note\n\n2 1 3 1 2 3\n"
                f"1 1 {size} {indices}\n  \nc end\n")
    else:
        parse, reference, line, what = parse_fourier, ref.parse_fourier, 7, "terms"
        text = (f"p fourier 3 {declared}\nconst 0\n1 3 1 2 3\nc note\n\n-2 2 1 2\n"
                f"3/2 {size} {indices}\n  \nc end\n")
    text = text.replace("\n", newline)
    got = outcome(parse, text)
    if message is None:
        assert got[0] == "ok"
    else:
        assert got == ("error", line, f"line {line}: {message.format(what=what)}")
    if "_" not in indices and indices.isascii():  # the reference's int() reads the others
        assert got == outcome(reference, text)


def test_each_distinct_index_token_is_converted_once(monkeypatch):
    # the cost of a file follows its distinct index tokens, not its n
    converted = counting_conversions(monkeypatch)
    for n in (10**6, 1000):
        system = f"p maxlin {n} 4\n1 0 1 1\n2 1 2 5 {n}\n1 0 3 1 5 {n}\n3 1 2 7 {n - 1}\n"
        fourier = f"p fourier {n} 3\nconst 1\n1 1 1\n-3/2 3 4 10 {n}\n2 2 4 {n}\n"
        for parse, reference, text, lead, skip in [
            (parse_system, ref.parse_system, system, 3, 1),
            (parse_fourier, ref.parse_fourier, fourier, 2, 2),
        ]:
            converted.clear()
            assert outcome(parse, text) == outcome(reference, text)
            tokens = [tok for line in text.splitlines()[skip:] for tok in line.split()[lead:]]
            assert len(tokens) > len(set(tokens))
            assert sorted(converted) == sorted(set(tokens))


# (file, line ending, whether it is valid), with "{head}" for the header
# without its count and "{rows}" for two rows or terms: comment and blank
# lines before the header, between the rows and after them, tokens that
# start with "c" but are not the token "c", "\r\n" and "\r" endings, and
# broken headers
FRAMING = [
    pytest.param("c lead\n\n  \t\n{head} 2\n{rows}", "\n", True, id="comments-before-the-header"),
    pytest.param("{head} 2\nc\nc a b c\n\t\n{rows}c tail\n\n", "\n", True,
                 id="comments-between-and-after"),
    pytest.param("{head} 2\n  c indented\n{rows}", "\n", True, id="indented-comment"),
    pytest.param("{head} 2\ncc not a comment\n{rows}", "\n", False, id="cc-is-not-a-comment"),
    pytest.param("{head} 2\nC upper case\n{rows}", "\n", False, id="upper-case-c-is-not-a-comment"),
    pytest.param("c lead\n{head} 2\n\n{rows}c tail\n", "\r\n", True, id="crlf"),
    pytest.param("c lead\n{head} 2\n\n{rows}c tail\n", "\r", True, id="cr"),
    pytest.param("{head} 3\n{rows}\n", "\r\n", False, id="crlf-short"),
    pytest.param("c only comments\n\n", "\n", False, id="no-header"),
    pytest.param("", "\n", False, id="empty-file"),
    pytest.param("c x\n{head}\n{rows}", "\n", False, id="header-without-count"),
    pytest.param("{head} 2 9\n{rows}", "\n", False, id="header-with-five-tokens"),
    pytest.param("q{head} 2\n{rows}", "\n", False, id="header-of-another-letter"),
    pytest.param("{head} x\n{rows}", "\n", False, id="header-count-not-a-number"),
    pytest.param("{head} 1_0\n{rows}", "\n", False, id="header-count-with-underscore"),
    pytest.param("{head} -2\n{rows}", "\n", False, id="negative-header-count"),
    pytest.param("{head} +2\n{rows}", "\n", True, id="signed-header-count"),
    pytest.param("{wide} 2\n{rows}", "\n", False, id="too-many-variables"),
    pytest.param("{other} 2\n{rows}", "\n", False, id="header-of-another-format"),
]


@pytest.mark.parametrize("text, newline, valid", FRAMING)
@pytest.mark.parametrize("kind", ["system", "fourier"])
def test_comments_line_endings_and_headers_match_the_reference(kind, text, newline, valid):
    if kind == "system":
        parse, reference, name, other = parse_system, ref.parse_system, "maxlin", "fourier"
        rows = "1 0 2 1 3\nc mid\n3/2 1 1 2\n"
    else:
        parse, reference, name, other = parse_fourier, ref.parse_fourier, "fourier", "maxlin"
        rows = "const 1/2\n1 2 1 3\nc mid\n-3/2 1 2\n"
    text = text.format(head=f"p {name} 3", other=f"p {other} 3", rows=rows,
                       wide=f"p {name} {MAX_DECLARED_N + 1}")
    text = text.replace("\n", newline)
    got = outcome(parse, text)
    assert (got[0] == "ok") == valid
    assert got == outcome(reference, text)


def test_one_index_spelled_three_ways():
    # '3', '+3' and '03' are three memo entries with one value, so '+3 3'
    # is a repeated index
    files = [
        (parse_system, ref.parse_system, "p maxlin 5 {}\n1 0 2 1 3\n2 1 2 +3 4\n1 0 2 03 5\n",
         "1 1 2 +3 3\n", 5),
        (parse_fourier, ref.parse_fourier,
         "p fourier 5 {}\nconst 0\n1 2 1 3\n2 2 +3 4\n-1 2 03 5\n", "3 2 +3 3\n", 6),
    ]
    for parse, reference, body, bad, line in files:
        valid, broken = body.format(3), body.format(4) + bad
        got = outcome(parse, valid)
        assert got[0] == "ok" and got == outcome(reference, valid)
        got = outcome(parse, broken)
        assert got == outcome(reference, broken)
        assert got == ("error", line, f"line {line}: indices must be strictly increasing")


def test_parse_fourier_checks_each_term_once(monkeypatch):
    # the parser's own checks are the only ones a term gets
    rng = random.Random(5)
    n = 30
    subsets = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(60)}
    text = emit_fourier(FourierExpansion(n, Fraction(1, 3), {
        s: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)) for s in subsets
    }))
    want = ref.parse_fourier(text)
    checks = []
    real = FourierExpansion.__init__
    monkeypatch.setattr(FourierExpansion, "__init__",
                        lambda self, *args: checks.append(args) or real(self, *args))
    FourierExpansion(2, 0, {(0,): 1})
    assert len(checks) == 1  # the patch sees a constructor call
    checks.clear()
    got = parse_fourier(text)
    assert checks == []
    assert got == want and hash(got) == hash(want)
    assert type(got.masks) is type(want.masks)
    assert type(got.terms) is type(want.terms)


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_system, "p maxlin 1_0 1\n1 0 1 1\n", 1, "variable count must be an integer, got '1_0'"),
    (parse_system, "p maxlin 3 ١\n1 0 1 1\n", 1, "entry count must be an integer, got '١'"),
    (parse_system, "p maxlin 12 1\n1 0 1 1_0\n", 2,
     "variable index must be an integer, got '1_0'"),
    (parse_system, "p maxlin 3 1\n1 0 2 1 ٣\n", 2, "variable index must be an integer, got '٣'"),
    (parse_system, "p maxlin 3 1\n1 0 1 ２\n", 2, "variable index must be an integer, got '２'"),
    (parse_system, "p maxlin 3 1\n1 ١ 1 1\n", 2, "right-hand bit must be an integer, got '١'"),
    (parse_system, "p maxlin 3 1\n1 0_1 1 1\n", 2, "right-hand bit must be an integer, got '0_1'"),
    (parse_system, "p maxlin 3 1\n1 0 ١ 1\n", 2, "support size must be an integer, got '١'"),
    (parse_system, "p maxlin 3 1\n٣ 0 1 1\n", 2, "'٣' is not a decimal rational (p or p/q)"),
    (parse_system, "p maxlin 3 1\n３/2 0 1 1\n", 2, "'３/2' is not a decimal rational (p or p/q)"),
    (parse_system, "p maxlin 3 1\n1/٢ 0 1 1\n", 2, "'1/٢' is not a decimal rational (p or p/q)"),
    (parse_fourier, "p fourier 2 0\nconst ٣\n", 2, "'٣' is not a decimal rational (p or p/q)"),
    (parse_fourier, "p fourier 2 1\nconst 0\n-٣ 1 1\n", 3, "'-٣' is not a decimal rational (p or p/q)"),
    (parse_fourier, "p fourier 2 1\nconst 0\n1 1 ٢\n", 3,
     "variable index must be an integer, got '٢'"),
    (parse_cnf, "p cnf 30 1\n-2_0 0\n", 2, "literal must be an integer, got '-2_0'"),
    (parse_cnf, "p cnf 3 1\n1 ٢ 0\n", 2, "literal must be an integer, got '٢'"),
])
def test_integers_are_ascii_decimal(parse, text, line, message):
    # int() reads these as numbers (the reference parser still does)
    assert outcome(parse, text) == ("error", line, f"line {line}: {message}")


def test_signs_and_leading_zeros_stay_accepted():
    assert parse_system("p maxlin 03 +1\n+2 +1 01 +3\n") == LinearSystem.build(
        3, [([2], 1, 2)]
    )
    assert parse_cnf("p cnf 2 1\n+1 -02 0\n").clauses == ((1, -2),)


@pytest.mark.parametrize("parse, kind, body", [
    (parse_system, "maxlin", "1 0 1 {n}\n"),
    (parse_fourier, "fourier", "const 0\n1 1 {n}\n"),
    (parse_vectorset, "vecset", "1\n"),
    (parse_cnf, "cnf", "{n} 0\n"),
])
def test_a_declared_n_above_the_ceiling_is_refused_before_any_allocation(parse, kind, body):
    # 1 << n alone would take n / 8 bytes: 512 KiB just above the ceiling,
    # 12.5 GB at n = 10^11
    for n in (MAX_DECLARED_N + 1, 10**11):
        text = f"c one comment\np {kind} {n} 1\n" + body.format(n=n)
        tracemalloc.start()
        try:
            got = outcome(parse, text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == ("error", 2, f"line 2: variable count {n} exceeds the limit of {MAX_DECLARED_N}")
        assert peak < 64 * 1024


def test_the_ceiling_itself_is_accepted():
    n = MAX_DECLARED_N
    system = parse_system(f"p maxlin {n} 1\n1 0 1 {n}\n")
    assert system.n == n and system.rows[0][0] == 1 << (n - 1)


@pytest.mark.parametrize("kind", ["system", "fourier"])
def test_dense_parse_costs_a_few_steps_per_row_not_per_index(monkeypatch, kind):
    """A dense 420-row file (or 420-term expansion) over 140 variables
    converts at most n index tokens: _parse_int runs for the header and once
    per distinct support size, never per row or per index, and no row goes
    through F2Vector.from_support."""
    rng = random.Random(6)
    n, m = 140, 420
    if kind == "system":
        rows = [
            (sorted(rng.sample(range(n), rng.randint(50, 90))), rng.randint(0, 1),
             Fraction(rng.randint(1, 4), rng.randint(1, 2)))
            for _ in range(m)
        ]
        system = LinearSystem.build(n, rows)
        text = emit_system(system)
        assert text == emit_by_support(system)
        parse, want = parse_system, ref.parse_system(text)
        supports = [row[0] for row in rows]
    else:
        terms = {}
        while len(terms) < m:
            terms[frozenset(rng.sample(range(n), rng.randint(50, 90)))] = Fraction(
                rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 2))
        text = emit_fourier(FourierExpansion(n, Fraction(1, 2), terms))
        parse, want = parse_fourier, ref.parse_fourier(text)
        supports = list(terms)
    index_tokens = sum(map(len, supports))

    calls = {"_parse_int": 0, "from_support": 0}
    real_parse_int = formats._parse_int
    real_from_support = F2Vector.from_support.__func__

    def counting_parse_int(*args):
        calls["_parse_int"] += 1
        return real_parse_int(*args)

    def counting_from_support(cls, *args):
        calls["from_support"] += 1
        return real_from_support(cls, *args)

    converted = counting_conversions(monkeypatch)
    monkeypatch.setattr(formats, "_parse_int", counting_parse_int)
    monkeypatch.setattr(F2Vector, "from_support", classmethod(counting_from_support))
    got = parse(text)

    if kind == "system":
        assert got == want and [row[3] for row in got.rows] == [row[3] for row in want.rows]
    else:
        assert got == want
    assert calls["_parse_int"] == 2 + len(set(map(len, supports)))
    assert len(converted) <= n
    assert index_tokens > 20 * m
    assert calls["from_support"] == 0


def test_emit_writes_sparse_and_dense_rows_alike():
    # rows with fewer than 1 in 16 of their bits set walk their set bits,
    # the others read them from bin(); [15] and [16] sit on either side
    rng = random.Random(7)
    n = 300
    rows = [([j], 1, 2) for j in (0, 15, 16, n - 1)] + [
        (sorted(rng.sample(range(n), size)), rng.randint(0, 1),
         Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        for size in (1, 2, 3, 18, 19, 20, 150, n)
        for _ in range(3)
    ]
    system = LinearSystem.build(n, rows)
    assert emit_system(system) == emit_by_support(system)


def test_expansion_range_check_names_the_term():
    with pytest.raises(MaxlinError) as err:
        FourierExpansion(3, 0, {frozenset([0, 3]): Fraction(1)})
    assert str(err.value) == "term [0, 3] outside 0..2"
