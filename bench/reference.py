"""Independent references and output checks for the benchmark.

Nothing here imports ``maxlin``.  Systems are plain ``(n, rows)`` pairs with
rows ``(mask, rhs, weight)``: ``mask`` bit j is variable j (0-based), ``rhs``
is 0 or 1 and ``weight`` a positive ``Fraction``.  Every check returns
``None`` when the output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------- evaluation


def excess(rows, z: int) -> Fraction:
    """Exact excess of assignment ``z`` (an integer mask) on ``rows``."""
    total = Fraction(0)
    for mask, rhs, weight in rows:
        total += weight if (mask & z).bit_count() & 1 == rhs else -weight
    return total


def parse_witness(text: str, n: int) -> int | None:
    if len(text) != n or set(text) - {"0", "1"}:
        return None
    return sum(1 << j for j, ch in enumerate(text) if ch == "1")


def walsh_max(n: int, rows, low_bits: int = 14) -> Fraction:
    """Maximum excess by a Walsh-Hadamard transform, blocked over the high
    variables so memory stays at 2^low_bits entries.

    The excess at z is sum_e c_e (-1)^<a_e, z> with c_e = +-w_e, i.e. the
    Hadamard transform of the coefficients placed at their masks.
    """
    scale = math.lcm(*(w.denominator for _, _, w in rows), 1)
    low = min(n, low_bits)
    high = n - low
    low_mask = (1 << low) - 1
    lows = np.array([mask & low_mask for mask, _, _ in rows], dtype=np.int64)
    highs = [mask >> low for mask, _, _ in rows]
    coeffs = np.array(
        [int(w * scale) * (-1 if rhs else 1) for _, rhs, w in rows], dtype=np.int64
    )
    best = None
    for zh in range(1 << high):
        signs = np.array([1 - 2 * ((h & zh).bit_count() & 1) for h in highs], dtype=np.int64)
        block = np.zeros(1 << low, dtype=np.int64)
        np.add.at(block, lows, coeffs * signs)
        h = 1
        while h < block.size:
            view = block.reshape(-1, 2, h)
            left = view[:, 0, :].copy()
            view[:, 0, :] += view[:, 1, :]
            view[:, 1, :] = left - view[:, 1, :]
            h *= 2
        top = int(block.max())
        if best is None or top > best:
            best = top
    return Fraction(best, scale)


# ------------------------------------------------------------- F2 reduction


def pivots(masks) -> list[int]:
    """Leftmost pivot columns of the row space, by lowest-set-bit elimination.

    The set of lowest bits over an echelon basis is a row-space invariant and
    equals the pivot columns of the leftmost-pivot reduced echelon form.
    """
    basis: dict[int, int] = {}
    for row in masks:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return sorted(low.bit_length() - 1 for low in basis)


def project(mask: int, kept) -> int:
    out = 0
    for new, old in enumerate(kept):
        if mask >> old & 1:
            out |= 1 << new
    return out


def reduce_system(n: int, rows):
    """Merge equal left-hand sides and drop dependent columns to a fixed point.

    Returns ``(kept original columns, {reduced mask: signed weight})`` where
    the signed weight is +w for rhs 0 and -w for rhs 1.
    """
    kept = list(range(n))
    signed: list[tuple[int, Fraction]] = [(m, -w if r else w) for m, r, w in rows]
    while True:
        merged: dict[int, Fraction] = {}
        for mask, c in signed:
            merged[mask] = merged.get(mask, Fraction(0)) + c
        merged = {mask: c for mask, c in merged.items() if c != 0}
        cols = pivots(merged)
        if len(merged) == len(signed) and len(cols) == len(kept):
            return kept, merged
        kept = [kept[c] for c in cols]
        signed = [(project(mask, cols), c) for mask, c in merged.items()]


def regime(n: int, m: int, k: int) -> bool:
    """The lower-bound regime k <= m and (m+2)^(k-1) <= 2^n, in exact ints."""
    return k <= m and (m + 2) ** (k - 1) <= 2**n


def largest_regime_k(n: int, m: int) -> int:
    k = 1
    while regime(n, m, k + 1):
        k += 1
    return k


# ------------------------------------------------------------------ marking


def marked_weight(rows, ids) -> Fraction | None:
    """Total weight marked by a certificate on a system whose equation ids
    are 0..m-1 in file order, or None when an id is gone at its turn.

    Replays the certificate semantics: the system is first merged by
    left-hand side; marking an equation adds it into every other row holding
    its lowest variable, then equal left-hand sides are merged pairwise in
    row order, merged rows taking fresh ids.  ``verify`` accepts iff the
    result is not None, has at most k ids, and reaches k.
    """
    table = [[mask, rhs, w, i] for i, (mask, rhs, w) in enumerate(rows)]
    fresh = [len(rows)]

    def merge(cur):
        groups: dict[int, list] = {}
        for row in cur:
            groups.setdefault(row[0], []).append(row)
        out = []
        for group in groups.values():
            acc = group[0]
            for nxt in group[1:]:
                if acc is None:
                    acc = nxt
                    continue
                if acc[1] == nxt[1]:
                    acc = [acc[0], acc[1], acc[2] + nxt[2], fresh[0]]
                elif acc[2] == nxt[2]:
                    acc = None
                    continue
                else:
                    big = acc if acc[2] > nxt[2] else nxt
                    acc = [acc[0], big[1], abs(acc[2] - nxt[2]), fresh[0]]
                fresh[0] += 1
            if acc is not None:
                out.append(acc)
        return out

    cur = merge(table)
    total = Fraction(0)
    for eq_id in ids:
        marked = next((row for row in cur if row[3] == eq_id), None)
        if marked is None:
            return None
        low = marked[0] & -marked[0]
        out = []
        for row in cur:
            if row is marked:
                continue
            if row[0] & low:
                summed = [row[0] ^ marked[0], row[1] ^ marked[1], row[2], row[3]]
                if summed[0]:
                    out.append(summed)
            else:
                out.append(row)
        cur = merge(out)
        total += marked[2]
    return total


# ------------------------------------------------------------------ parsing


def parse_emitted_system(lines):
    """Parse emitted 'p maxlin' text (comment lines skipped)."""
    body = [line.split() for line in lines if line and not line.startswith("c")]
    if not body or body[0][:2] != ["p", "maxlin"] or len(body[0]) != 4:
        return None
    n, m = int(body[0][2]), int(body[0][3])
    rows = []
    for tokens in body[1:]:
        t = int(tokens[2])
        if len(tokens) != 3 + t:
            return None
        mask = 0
        for tok in tokens[3:]:
            mask |= 1 << (int(tok) - 1)
        rows.append((mask, int(tokens[1]), Fraction(tokens[0])))
    if len(rows) != m:
        return None
    return n, rows


# ------------------------------------------------------------------- checks


def check_solve(req, code, out) -> str | None:
    lines = out.splitlines()
    if len(lines) != 3 or lines[0] not in ("YES", "NO"):
        return "solve output is not verdict, witness, excess"
    yes = lines[0] == "YES"
    if code != (0 if yes else 1):
        return f"exit code {code} disagrees with {lines[0]}"
    z = parse_witness(lines[1], req.n)
    if z is None:
        return "witness is not a 0/1 string over the original variables"
    printed = Fraction(lines[2])
    if excess(req.rows, z) != printed:
        return "printed excess differs from the witness's excess"
    if yes != (printed >= req.k):
        return "verdict disagrees with the printed excess"
    if req.expect_max is not None:
        if printed != req.expect_max:
            return f"oracle route printed {printed}, reference maximum is {req.expect_max}"
    elif not yes:
        return "lower-bound regime instance answered NO"
    return None


def check_excess(req, code, out) -> str | None:
    lines = out.splitlines()
    if code != 0 or len(lines) != 2:
        return "excess output is not value, witness"
    z = parse_witness(lines[1], req.n)
    if z is None:
        return "witness is not a 0/1 string"
    printed = Fraction(lines[0])
    if printed != req.expect_max:
        return f"printed maximum {printed}, reference maximum is {req.expect_max}"
    if excess(req.rows, z) != printed:
        return "witness does not reach the printed maximum"
    return None


def check_verify(req, code, out) -> str | None:
    expected = "ACCEPT\n" if req.expect_accept else "REJECT\n"
    if out != expected or code != (0 if req.expect_accept else 1):
        return f"verify printed {out.strip()!r} with exit {code}, reference says {expected.strip()}"
    return None


def _check_reduced(req, n, rows) -> str | None:
    """Irreducibility plus agreement with the reference reduction."""
    masks = [mask for mask, _, _ in rows]
    if len(set(masks)) != len(masks):
        return "reduced system repeats a left-hand side"
    if len(pivots(masks)) != n:
        return "reduced system's columns are dependent"
    kept, merged = req.expect_reduced
    if n != len(kept) or len(rows) != len(merged):
        return f"reduced to {n}x{len(rows)}, reference gives {len(kept)}x{len(merged)}"
    if {mask: (-w if rhs else w) for mask, rhs, w in rows} != merged:
        return "reduced rows differ from the reference reduction"
    return None


def check_reduce(req, code, out) -> str | None:
    lines = out.splitlines()
    parsed = parse_emitted_system(lines)
    if code != 0 or parsed is None:
        return "reduce output is not a system"
    n, rows = parsed
    problem = _check_reduced(req, n, rows)
    if problem:
        return problem
    kept_lines = [line.split()[3:] for line in lines if line.startswith("c transcript kept")]
    if len(kept_lines) != 1:
        return "reduce output lacks one 'c transcript kept' line"
    kept = [int(tok) - 1 for tok in kept_lines[0]]
    if len(kept) != n:
        return "kept line does not name one column per reduced variable"
    for z in req.lift_points:
        z &= (1 << n) - 1
        lifted = sum(1 << kept[i] for i in range(n) if z >> i & 1)
        if excess(req.rows, lifted) != excess(rows, z):
            return "a lifted assignment changed its excess"
    return None


def check_kernel(req, code, out) -> str | None:
    if code != 0:
        return f"kernel exited {code}"
    if req.expect_yes:
        return None if out == "YES\n" else "kernel missed a yes instance"
    parsed = parse_emitted_system(out.splitlines())
    if parsed is None:
        return "kernel output is neither YES nor a system"
    return _check_reduced(req, *parsed)


def check_bound(req, code, out) -> str | None:
    if code != 0 or out.count("\n") != 1:
        return "bound output is not one rational"
    if Fraction(out.strip()) != req.expect_bound:
        return f"bound {out.strip()}, reference gives {req.expect_bound}"
    return None


def reference_bound(constant: Fraction, terms) -> Fraction:
    """constant + (1+q) min|c| with q the largest (T+2)^q <= 2^rank."""
    rank = len(pivots(mask for mask, _ in terms))
    q = 0
    while (len(terms) + 2) ** (q + 1) <= 2**rank:
        q += 1
    return constant + (1 + q) * min(abs(c) for _, c in terms)


CHECKS = {
    "solve": check_solve,
    "excess": check_excess,
    "verify": check_verify,
    "reduce": check_reduce,
    "kernel": check_kernel,
    "bound": check_bound,
}
