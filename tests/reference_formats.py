"""Frozen reference for the text front end: the token-by-token parsers.

``_parse_index_list`` converts, range-checks and order-checks one index
token at a time, and ``parse_system`` hands the 0-based index lists to
``LinearSystem.build``, which walks them again in ``F2Vector.from_support``.
Every weight token is parsed afresh.  Tests compare the line-at-a-time
parsers in ``maxlin.formats`` against these: equal values on valid files,
and equal ``ParseError`` text and line numbers on broken ones.  The line
splitting, comment skipping and header checks are frozen here too, so the
comparisons cover them.
"""
from __future__ import annotations

import re
from fractions import Fraction

from maxlin import LinearSystem, ParseError
from maxlin.formats import MAX_DECLARED_N, parse_rational
from maxlin.fourier import FourierExpansion


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Every line that holds a token and does not start with the token
    ``c``, as (1-based line number, tokens)."""
    lines = []
    line_no = 0
    for line in text.splitlines():
        line_no += 1
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        lines.append((line_no, tokens))
    return lines


def _parse_count(token: str, line_no: int, what: str) -> int:
    """A header count: an optional sign and ASCII digits only."""
    if re.fullmatch(r"[+-]?[0-9]+", token) is None:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}")
    return int(token)


def _parse_header(lines, expected: str):
    if not lines:
        raise ParseError(1, f"missing 'p {expected}' header")
    line_no, tokens = lines[0]
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != expected:
        raise ParseError(line_no, f"header must be 'p {expected} <n> <count>'")
    n = _parse_count(tokens[2], line_no, "variable count")
    count = _parse_count(tokens[3], line_no, "entry count")
    if n < 0 or count < 0:
        raise ParseError(line_no, "header counts must be non-negative")
    if n > MAX_DECLARED_N:
        raise ParseError(line_no, f"variable count {n} exceeds the limit of {MAX_DECLARED_N}")
    return n, count, lines[1:]


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def _parse_index_list(tokens, line_no, n, count):
    if len(tokens) != count:
        raise ParseError(line_no, f"expected {count} indices, got {len(tokens)}")
    indices = []
    previous = 0
    for tok in tokens:
        idx = _parse_int(tok, line_no, "variable index")
        if not 1 <= idx <= n:
            raise ParseError(line_no, f"index {idx} outside 1..{n}")
        if idx <= previous:
            raise ParseError(line_no, "indices must be strictly increasing")
        previous = idx
        indices.append(idx - 1)
    return indices


def parse_system(text: str) -> LinearSystem:
    lines = _content_lines(text)
    n, m, rows = _parse_header(lines, "maxlin")
    if len(rows) != m:
        where = rows[m][0] if len(rows) > m else (rows[-1][0] if rows else 1)
        raise ParseError(where, f"header declares {m} equations, found {len(rows)}")
    built = []
    for line_no, tokens in rows:
        if len(tokens) < 3:
            raise ParseError(line_no, "equation lines need '<weight> <b> <t> <indices>'")
        weight = parse_rational(tokens[0], line_no)
        if weight <= 0:
            raise ParseError(line_no, f"weights must be positive, got {tokens[0]}")
        rhs = _parse_int(tokens[1], line_no, "right-hand bit")
        if rhs not in (0, 1):
            raise ParseError(line_no, f"right-hand bit must be 0 or 1, got {rhs}")
        t = _parse_int(tokens[2], line_no, "support size")
        if t < 1:
            raise ParseError(line_no, "equations must involve at least one variable")
        indices = _parse_index_list(tokens[3:], line_no, n, t)
        built.append((indices, rhs, weight))
    return LinearSystem.build(n, built)


def parse_fourier(text: str) -> FourierExpansion:
    lines = _content_lines(text)
    n, count, rows = _parse_header(lines, "fourier")
    if not rows:
        raise ParseError(lines[0][0], "missing 'const <rational>' line")
    const_no, const_tokens = rows[0]
    if len(const_tokens) != 2 or const_tokens[0] != "const":
        raise ParseError(const_no, "second line must be 'const <rational>'")
    constant = parse_rational(const_tokens[1], const_no)
    rows = rows[1:]
    if len(rows) != count:
        where = rows[count][0] if len(rows) > count else (rows[-1][0] if rows else const_no)
        raise ParseError(where, f"header declares {count} terms, found {len(rows)}")
    terms: dict[frozenset[int], Fraction] = {}
    for line_no, tokens in rows:
        if len(tokens) < 2:
            raise ParseError(line_no, "term lines need '<coefficient> <t> <indices>'")
        coeff = parse_rational(tokens[0], line_no)
        if coeff == 0:
            raise ParseError(line_no, "zero coefficients are not stored")
        t = _parse_int(tokens[1], line_no, "term size")
        if t < 1:
            raise ParseError(line_no, "terms must involve at least one variable")
        subset = frozenset(_parse_index_list(tokens[2:], line_no, n, t))
        if subset in terms:
            raise ParseError(line_no, "duplicate term subset")
        terms[subset] = coeff
    return FourierExpansion(n, constant, terms)
