"""Text formats: weighted systems, expansions, vector sets, DIMACS CNF, CSP.

All variable indices are 1-based on disk and 0-based in memory.  Rationals
are written in lowest terms as ``p`` or ``p/q``; floating-point notation is
rejected.  Comment lines start with ``c`` and are ignored everywhere.

Integers are ASCII decimal, with an optional sign: ``int`` alone would also
take ``_`` between digits and non-ASCII digits such as ``٣``.  Every header
declares at most ``MAX_DECLARED_N`` variables, checked before any index is
shifted or anything of size n is built.

Systems and expansions are read in one pass over their content lines, a
line at a time, not a token at a time.  Each file reads its index tokens
through one memo from a token naming index i to ``1 << i``, so that a row
or a term is the sum of its values shifted down by one: bit i - 1 for
index i.  The memo converts each distinct token once, on its first lookup,
and holds only tokens naming an index i in 1..n, so a file's cost follows
its distinct tokens and not its n.  A line of the right count is accepted
when its row has that many bits set, so its indices are distinct, and its
values equal their sorted list, so they ascend.  Any other line is walked
token by token, to raise the same ``ParseError`` (text and line number)
that a token-at-a-time parser would raise first.  The rows are counted
against the header only where a file ends short, runs past its count or
breaks, and a wrong count outranks a broken row, as in a parser that
counts before it reads a row.  Each distinct weight, coefficient and size
token of a file is parsed once too.  A system's rows go straight into
``LinearSystem._from_rows`` and an expansion's term masks into
``FourierExpansion._from_masks``, with no ``Equation``, no frozenset and no
check but the parser's own.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, islice

from .errors import ParseError
from .f2core import LinearSystem, _support
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
    "MAX_DECLARED_N",
]

# the most variables a file may declare: a row or a term is an int of up to
# n bits and a reduction lists every column, so the header refuses a larger
# n before anything of size n is built
MAX_DECLARED_N = 1 << 22

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_RHS = {"0": 0, "1": 1}


def parse_rational(token: str, line_no: int) -> Fraction:
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(line_no, f"{token!r} is not a decimal rational (p or p/q)")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(line_no, f"{token!r} has a zero denominator") from None


def _iter_content_lines(text: str):
    """Non-comment, non-blank lines as (1-based line number, tokens), one at
    a time."""
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens and tokens[0] != "c":
            yield i, tokens


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-comment, non-blank lines as (1-based line number, tokens)."""
    return list(_iter_content_lines(text))


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
    if n > MAX_DECLARED_N:
        raise ParseError(line_no, f"variable count {n} exceeds the limit of {MAX_DECLARED_N}")
    return n, count, lines[1:]


def _check_count(rows, count: int, what: str, last_line: int) -> None:
    """Raise unless there are exactly ``count`` rows, at the first extra row,
    else at the last row read (``last_line`` when there is none).  The
    system and expansion parsers read their rows in one pass and call this
    only where a file ends short, runs past its count or breaks."""
    if len(rows) != count:
        where = rows[count][0] if len(rows) > count else (rows[-1][0] if rows else last_line)
        raise ParseError(where, f"header declares {count} {what}, found {len(rows)}")


class _IndexMemo(dict):
    """1 << i for each index token of one file that names an index i in
    1..n, converted on its first lookup; any other token raises KeyError."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __missing__(self, token):
        if _plain(token):
            try:
                i = int(token)
            except ValueError:
                raise KeyError(token) from None
            if 1 <= i <= self.n:
                v = self[token] = 1 << i
                return v
        raise KeyError(token)


def _index_values(n):
    """The file's index reader: read(tokens, line_no, count) is the line's
    row or term, bit i - 1 for each of its indices i, checked to be count
    integers strictly increasing within 1..n, through one memo for the whole
    file.  The memo gives 1 << i, so the row is the values' sum shifted down
    by one; it has count bits set exactly when the values are distinct, and
    distinct values in sorted order hold strictly increasing indices."""
    get = _IndexMemo(n).__getitem__

    def read(tokens, line_no, count):
        if len(tokens) == count:
            try:
                p = list(map(get, tokens))
            except KeyError:
                pass
            else:
                bits = sum(p) >> 1
                if bits.bit_count() == count and p == sorted(p):
                    return bits
        _raise_index_error(tokens, line_no, n, count)

    return read


def _raise_index_error(tokens, line_no, n, count):
    """Raise the first error of a line that failed _index_values's check."""
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
    lines = _iter_content_lines(text)
    n, m, _ = _parse_header(list(islice(lines, 1)), "maxlin")
    read_indices = _index_values(n)
    weights: dict[str, Fraction] = {}
    sizes: dict[str, int] = {}
    built = []
    broken = None
    try:
        for line_no, tokens in islice(lines, m):
            if len(tokens) < 3:
                raise ParseError(line_no, "equation lines need '<weight> <b> <t> <indices>'")
            weight = weights.get(tokens[0])
            if weight is None:
                weight = parse_rational(tokens[0], line_no)
                if weight <= 0:
                    raise ParseError(line_no, f"weights must be positive, got {tokens[0]}")
                weights[tokens[0]] = weight
            rhs = _RHS.get(tokens[1])
            if rhs is None:
                rhs = _parse_int(tokens[1], line_no, "right-hand bit")
                if rhs not in (0, 1):
                    raise ParseError(line_no, f"right-hand bit must be 0 or 1, got {rhs}")
            t = sizes.get(tokens[2])
            if t is None:
                t = _parse_int(tokens[2], line_no, "support size")
                if t < 1:
                    raise ParseError(line_no, "equations must involve at least one variable")
                sizes[tokens[2]] = t
            del tokens[:3]
            built.append((read_indices(tokens, line_no, t), rhs, weight, len(built)))
    except ParseError as exc:
        broken = exc
    if broken or len(built) < m or next(lines, None):
        # a wrong count outranks a row's own error; with the count right,
        # only a broken row gets here
        _check_count(_content_lines(text)[1:], m, "equations", 1)
        raise broken
    return LinearSystem._from_rows(n, built)


def emit_system(sys: LinearSystem) -> str:
    # a row with at least 1 in 16 of its bits set reads its indices from its
    # reversed bin() digits, as 0/1 bytes selecting from a list of index
    # names; a sparser row walks its set bits, so that the cost follows the
    # output and not the declared n
    names: list[str] = []
    lines = [f"p maxlin {sys.n} {sys.m}"]
    for bits, rhs, weight, _ in sys.rows:
        count, length = bits.bit_count(), bits.bit_length()
        if count * 16 < length:
            idx = " ".join(str(j + 1) for j in _support(bits))
        else:
            names.extend(map(str, range(len(names) + 1, length + 1)))
            idx = " ".join(compress(names, bin(bits)[:1:-1].encode().translate(_BIT_BYTES)))
        lines.append(f"{weight} {rhs} {count} {idx}".rstrip())
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
    lines = _iter_content_lines(text)
    head = list(islice(lines, 2))
    n, count, rest = _parse_header(head, "fourier")
    if not rest:
        raise ParseError(head[0][0], "missing 'const <rational>' line")
    const_no, const_tokens = rest[0]
    if len(const_tokens) != 2 or const_tokens[0] != "const":
        raise ParseError(const_no, "second line must be 'const <rational>'")
    constant = parse_rational(const_tokens[1], const_no)
    read_indices = _index_values(n)
    coeffs: dict[str, Fraction] = {}
    sizes: dict[str, int] = {}
    masks: dict[int, Fraction] = {}
    broken = None
    try:
        for line_no, tokens in islice(lines, count):
            if len(tokens) < 2:
                raise ParseError(line_no, "term lines need '<coefficient> <t> <indices>'")
            coeff = coeffs.get(tokens[0])
            if coeff is None:
                coeff = parse_rational(tokens[0], line_no)
                if coeff == 0:
                    raise ParseError(line_no, "zero coefficients are not stored")
                coeffs[tokens[0]] = coeff
            t = sizes.get(tokens[1])
            if t is None:
                t = _parse_int(tokens[1], line_no, "term size")
                if t < 1:
                    raise ParseError(line_no, "terms must involve at least one variable")
                sizes[tokens[1]] = t
            del tokens[:2]
            mask = read_indices(tokens, line_no, t)
            if mask in masks:
                raise ParseError(line_no, "duplicate term subset")
            masks[mask] = coeff
    except ParseError as exc:
        broken = exc
    if broken or len(masks) < count or next(lines, None):
        # as in parse_system, the count is checked first
        _check_count(_content_lines(text)[2:], count, "terms", const_no)
        raise broken
    return FourierExpansion._from_masks(n, constant, masks)


def emit_fourier(f: FourierExpansion) -> str:
    lines = [f"p fourier {f.n} {len(f.masks)}", f"const {f.constant}"]
    for support, _, coeff in f.canonical_terms():
        idx = " ".join(str(i + 1) for i in support)
        lines.append(f"{coeff} {len(support)} {idx}")
    return "\n".join(lines) + "\n"


def parse_vectorset(text: str) -> VectorSet:
    """Parse the vector-set format: 'p vecset n count' then 0/1 rows."""
    lines = _content_lines(text)
    n, count, rows = _parse_header(lines, "vecset")
    _check_count(rows, count, "vectors", 1)
    seen: set[int] = set()
    for line_no, tokens in rows:
        if len(tokens) != 1 or len(tokens[0]) != n or set(tokens[0]) - {"0", "1"}:
            raise ParseError(line_no, f"expected a 0/1 string of length {n}")
        bits = int(tokens[0][::-1], 2)
        if bits in seen:
            raise ParseError(line_no, "duplicate vector")
        seen.add(bits)
    return VectorSet(n, seen)


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
