"""Text formats: weighted systems, expansions, vector sets, DIMACS CNF, CSP.

All variable indices are 1-based on disk and 0-based in memory.  Rationals
are written in lowest terms as ``p`` or ``p/q``; floating-point notation is
rejected.  Comment lines start with ``c`` and are ignored everywhere.

Integers are ASCII decimal, with an optional sign: ``int`` alone would also
take ``_`` between digits and non-ASCII digits such as ``٣``.

Systems and expansions are read a line at a time, not a token at a time:
a line's index tokens are converted by one ``map(int, ...)`` and checked
for count, range and strict order in one pass, plus one ``_plain`` test of
the joined tokens; a system row's bits are packed from those indices into
the row ``LinearSystem.from_rows`` stores, with no ``Equation``.  Only a
line that fails the check is walked token by token, to raise the same
``ParseError`` (text and line number) that a token-at-a-time parser would
raise first.  Each distinct weight token of a system file is parsed once.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from operator import lt, sub

from .errors import ParseError
from .f2core import F2Vector, LinearSystem, _pack, _support
from .fourier import FourierExpansion
from .kset import VectorSet
from .reduce import ReductionTranscript
from .reductions import CnfFormula, CspConstraint, CspInstance

__all__ = [
    "parse_rational",
    "parse_system",
    "emit_system",
    "emit_transcript_comments",
    "parse_fourier",
    "emit_fourier",
    "parse_vectorset",
    "parse_cnf",
    "parse_csp",
]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(token: str, line_no: int) -> Fraction:
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(line_no, f"{token!r} is not a decimal rational (p or p/q)")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(line_no, f"{token!r} has a zero denominator") from None


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-comment, non-blank lines as (1-based line number, tokens)."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        out.append((i, tokens))
    return out


def _plain(text: str) -> bool:
    """ASCII without '_': then int() reads a whitespace-free token only as
    [+-]?[0-9]+."""
    return text.isascii() and "_" not in text


def _parse_int(token: str, line_no: int, what: str) -> int:
    if _plain(token):
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(line_no, f"{what} must be an integer, got {token!r}")


def _parse_header(lines, expected: str):
    if not lines:
        raise ParseError(1, f"missing 'p {expected}' header")
    line_no, tokens = lines[0]
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != expected:
        raise ParseError(line_no, f"header must be 'p {expected} <n> <count>'")
    n = _parse_int(tokens[2], line_no, "variable count")
    count = _parse_int(tokens[3], line_no, "entry count")
    if n < 0 or count < 0:
        raise ParseError(line_no, "header counts must be non-negative")
    return n, count, lines[1:]


def _check_count(rows, count: int, what: str, last_line: int) -> None:
    """Raise unless there are exactly ``count`` rows, at the first extra row,
    else at the last row read (``last_line`` when there is none)."""
    if len(rows) != count:
        where = rows[count][0] if len(rows) > count else (rows[-1][0] if rows else last_line)
        raise ParseError(where, f"header declares {count} {what}, found {len(rows)}")


def _parse_index_list(tokens, line_no, n, count):
    """The line's 1-based indices, checked to be count >= 1 integers strictly
    increasing within 1..n."""
    if len(tokens) == count:
        try:
            idx = list(map(int, tokens))
        except ValueError:
            pass
        else:
            if (idx[0] >= 1 and idx[-1] <= n and all(map(lt, idx, idx[1:]))
                    and _plain("".join(tokens))):
                return idx
    _raise_index_error(tokens, line_no, n, count)


def _raise_index_error(tokens, line_no, n, count):
    """Raise the first error of a line that failed _parse_index_list's check."""
    if len(tokens) != count:
        raise ParseError(line_no, f"expected {count} indices, got {len(tokens)}")
    previous = 0
    for tok in tokens:
        idx = _parse_int(tok, line_no, "variable index")
        if not 1 <= idx <= n:
            raise ParseError(line_no, f"index {idx} outside 1..{n}")
        if idx <= previous:
            raise ParseError(line_no, "indices must be strictly increasing")
        previous = idx


def parse_system(text: str) -> LinearSystem:
    """Parse the weighted-system format: 'p maxlin n m' then one equation per
    line as '<weight> <b> <t> <i1> ... <it>'."""
    lines = _content_lines(text)
    n, m, rows = _parse_header(lines, "maxlin")
    _check_count(rows, m, "equations", 1)
    weights: dict[str, Fraction] = {}
    built = []
    for line_no, tokens in rows:
        if len(tokens) < 3:
            raise ParseError(line_no, "equation lines need '<weight> <b> <t> <indices>'")
        weight = weights.get(tokens[0])
        if weight is None:
            weight = parse_rational(tokens[0], line_no)
            if weight <= 0:
                raise ParseError(line_no, f"weights must be positive, got {tokens[0]}")
            weights[tokens[0]] = weight
        rhs = _parse_int(tokens[1], line_no, "right-hand bit")
        if rhs not in (0, 1):
            raise ParseError(line_no, f"right-hand bit must be 0 or 1, got {rhs}")
        t = _parse_int(tokens[2], line_no, "support size")
        if t < 1:
            raise ParseError(line_no, "equations must involve at least one variable")
        idx = _parse_index_list(tokens[3:], line_no, n, t)
        # index i is bit i - 1
        built.append((_pack(idx) >> 1, rhs, weight, len(built)))
    return LinearSystem.from_rows(n, built)


def emit_system(sys: LinearSystem) -> str:
    lines = [f"p maxlin {sys.n} {sys.m}"]
    for bits, rhs, weight, _ in sys.rows:
        support = _support(bits)
        idx = " ".join(str(j + 1) for j in support)
        lines.append(f"{weight} {rhs} {len(support)} {idx}".rstrip())
    return "\n".join(lines) + "\n"


def emit_transcript_comments(tr: ReductionTranscript) -> str:
    """Transcript as 'c transcript ...' lines appended to an emitted system."""
    lines = [("c transcript kept " + " ".join(str(i + 1) for i in tr.kept_variables)).rstrip()]
    for j, deps in tr.deleted_variables:
        if deps:
            dep_list = " ".join(str(i + 1) for i in sorted(deps))
            lines.append(f"c transcript deleted {j + 1} {len(deps)} {dep_list}")
        else:
            lines.append(f"c transcript deleted {j + 1} 0")
    for event in tr.merge_log:
        survivor = "-" if event.surviving_id is None else str(event.surviving_id)
        lines.append(
            "c transcript merge "
            f"{event.merged_ids[0]} {event.merged_ids[1]} {survivor} {event.weight}"
        )
    return "\n".join(lines) + "\n"


def parse_fourier(text: str) -> FourierExpansion:
    """Parse the expansion format: 'p fourier n terms', 'const <rational>',
    then one term per line as '<coefficient> <t> <i1> ... <it>'."""
    lines = _content_lines(text)
    n, count, rows = _parse_header(lines, "fourier")
    if not rows:
        raise ParseError(lines[0][0], "missing 'const <rational>' line")
    const_no, const_tokens = rows[0]
    if len(const_tokens) != 2 or const_tokens[0] != "const":
        raise ParseError(const_no, "second line must be 'const <rational>'")
    constant = parse_rational(const_tokens[1], const_no)
    rows = rows[1:]
    _check_count(rows, count, "terms", const_no)
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
        subset = frozenset(map(sub, _parse_index_list(tokens[2:], line_no, n, t), repeat(1)))
        if subset in terms:
            raise ParseError(line_no, "duplicate term subset")
        terms[subset] = coeff
    return FourierExpansion(n, constant, terms)


def emit_fourier(f: FourierExpansion) -> str:
    lines = [f"p fourier {f.n} {f.term_count}", f"const {f.constant}"]
    for subset, coeff in f.sorted_terms():
        idx = " ".join(str(i + 1) for i in sorted(subset))
        lines.append(f"{coeff} {len(subset)} {idx}")
    return "\n".join(lines) + "\n"


def parse_vectorset(text: str) -> VectorSet:
    """Parse the vector-set format: 'p vecset n count' then 0/1 rows."""
    lines = _content_lines(text)
    n, count, rows = _parse_header(lines, "vecset")
    _check_count(rows, count, "vectors", 1)
    seen: set[int] = set()
    vectors = []
    for line_no, tokens in rows:
        if len(tokens) != 1 or len(tokens[0]) != n or set(tokens[0]) - {"0", "1"}:
            raise ParseError(line_no, f"expected a 0/1 string of length {n}")
        vec = F2Vector.from01(tokens[0])
        if vec.bits in seen:
            raise ParseError(line_no, "duplicate vector")
        seen.add(vec.bits)
        vectors.append(vec)
    return VectorSet(n, vectors)


def parse_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses are 0-terminated and may span lines."""
    lines = _content_lines(text)
    n, m, rows = _parse_header(lines, "cnf")
    stream = [(no, tok) for no, toks in rows for tok in toks]
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for no, tok in stream:
        lit = _parse_int(tok, no, "literal")
        if not current:
            clause_line = no
        if lit == 0:
            if not current:
                raise ParseError(no, "empty clause")
            seen = set()
            for entry in current:
                var = abs(entry)
                if var > n:
                    raise ParseError(clause_line, f"literal {entry} exceeds variable count {n}")
                if var in seen:
                    raise ParseError(clause_line, f"clause repeats variable {var}")
                seen.add(var)
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ParseError(stream[-1][0], "last clause is not terminated by 0")
    if len(clauses) != m:
        raise ParseError(stream[-1][0] if stream else lines[0][0],
                         f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def parse_csp(text: str) -> CspInstance:
    """Parse the CSP format: 'p csp n count', then per constraint a line
    '<arity> <i1> ... <ir> <|V|>' followed by |V| rows of +-1 tuples."""
    lines = _content_lines(text)
    n, count, rows = _parse_header(lines, "csp")
    constraints = []
    pos = 0
    for _ in range(count):
        if pos >= len(rows):
            raise ParseError(rows[-1][0] if rows else 1, f"expected {count} constraints")
        line_no, tokens = rows[pos]
        pos += 1
        if len(tokens) < 3:
            raise ParseError(line_no, "constraint lines need '<arity> <indices> <|V|>'")
        arity = _parse_int(tokens[0], line_no, "arity")
        if arity < 1:
            raise ParseError(line_no, "arity must be at least 1")
        if len(tokens) != arity + 2:
            raise ParseError(line_no, f"expected {arity} indices plus |V|")
        variables = []
        for tok in tokens[1 : 1 + arity]:
            idx = _parse_int(tok, line_no, "variable index")
            if not 1 <= idx <= n:
                raise ParseError(line_no, f"index {idx} outside 1..{n}")
            if idx - 1 in variables:
                raise ParseError(line_no, f"constraint repeats variable {idx}")
            variables.append(idx - 1)
        v_count = _parse_int(tokens[-1], line_no, "satisfying-point count")
        if not 1 <= v_count <= 2**arity:
            raise ParseError(line_no, f"|V| must be between 1 and 2^{arity}")
        points = set()
        for _ in range(v_count):
            if pos >= len(rows):
                raise ParseError(line_no, f"constraint needs {v_count} satisfying rows")
            row_no, row_tokens = rows[pos]
            pos += 1
            if len(row_tokens) != arity:
                raise ParseError(row_no, f"expected {arity} entries of -1 or 1")
            point = []
            for tok in row_tokens:
                value = _parse_int(tok, row_no, "entry")
                if value not in (-1, 1):
                    raise ParseError(row_no, f"entries must be -1 or 1, got {tok!r}")
                point.append(value)
            point_t = tuple(point)
            if point_t in points:
                raise ParseError(row_no, "duplicate satisfying point")
            points.add(point_t)
        constraints.append(CspConstraint(tuple(variables), frozenset(points)))
    if pos != len(rows):
        raise ParseError(rows[pos][0], "trailing content after the declared constraints")
    return CspInstance(n, tuple(constraints))
