"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own solving paths: the
expansion maximum is found by evaluating every point, and clause/constraint
satisfaction is counted directly from the input data.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from maxlin import (
    CnfFormula,
    CspConstraint,
    CspInstance,
    F2Vector,
    FourierExpansion,
    LinearSystem,
    VectorSet,
)


def random_system(
    rng: random.Random,
    *,
    n_min: int = 1,
    n_max: int = 10,
    m_min: int = 0,
    m_max: int = 30,
    w_max: int = 5,
    rational_weights: bool = False,
) -> LinearSystem:
    n = rng.randint(n_min, n_max)
    m = rng.randint(m_min, m_max)
    rows = []
    for _ in range(m):
        size = rng.randint(1, n)
        support = rng.sample(range(n), size)
        if rational_weights:
            weight = Fraction(rng.randint(1, w_max), rng.randint(1, 4))
        else:
            weight = Fraction(rng.randint(1, w_max))
        rows.append((sorted(support), rng.randint(0, 1), weight))
    return LinearSystem.build(n, rows)


def random_regime_system(rng: random.Random, k: int, *, n_max: int = 14, w_max: int = 5) -> LinearSystem:
    """Random irreducible system satisfying k <= m and (m+2)^(k-1) <= 2^n.

    Unit equations on every variable force full rank; extra equations get
    fresh distinct supports, keeping rule 2 idle.
    """
    while True:
        n = rng.randint(max(3, k), n_max)
        cap = n
        while (cap + 3) ** (k - 1) <= 2**n:
            cap += 1
        m_hi = min(cap, 3 * n)
        if m_hi < max(n, k):
            continue
        m = rng.randint(max(n, k), m_hi)
        supports = {frozenset([i]) for i in range(n)}
        while len(supports) < m:
            size = rng.randint(1, n)
            supports.add(frozenset(rng.sample(range(n), size)))
        rows = [
            (sorted(s), rng.randint(0, 1), rng.randint(1, w_max))
            for s in sorted(supports, key=lambda s: tuple(sorted(s)))
        ]
        sys = LinearSystem.build(n, rows)
        if k <= sys.m and (sys.m + 2) ** (k - 1) <= 2**sys.n:
            return sys


def random_fourier(
    rng: random.Random,
    *,
    n_min: int = 1,
    n_max: int = 10,
    max_terms: int = 20,
    max_size: int | None = None,
    rational: bool = True,
) -> FourierExpansion:
    n = rng.randint(n_min, n_max)
    limit = n if max_size is None else min(max_size, n)
    terms: dict[frozenset[int], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(1, limit)
        subset = frozenset(rng.sample(range(n), size))
        num = rng.choice([x for x in range(-6, 7) if x != 0])
        coeff = Fraction(num, rng.randint(1, 3)) if rational else Fraction(num)
        terms[subset] = coeff
    constant = Fraction(rng.randint(-5, 5))
    return FourierExpansion(n, constant, terms)


def random_cnf(rng: random.Random, *, n: int, m: int, r: int) -> CnfFormula:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), r)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def random_csp(rng: random.Random, *, n: int, count: int, r: int) -> CspInstance:
    constraints = []
    for _ in range(count):
        arity = rng.randint(1, min(r, n))
        variables = tuple(rng.sample(range(n), arity))
        points = [tuple(rng.choice((-1, 1)) for _ in range(arity)) for _ in range(2**arity)]
        chosen = set(points[: rng.randint(1, 2**arity)])
        constraints.append(CspConstraint(variables, frozenset(chosen)))
    return CspInstance(n, tuple(constraints))


def random_vectorset(rng: random.Random, *, n_max: int = 16, k_max: int = 4) -> tuple[VectorSet, int]:
    """Random set meeting every find_kset precondition.

    A spanning set needs n+1 vectors, so only (k, n) pairs with
    (n+1)^k <= 2^n are feasible; infeasible draws are rejected (with
    n_max = 16 that rules out k = 4 entirely).
    """
    while True:
        k = rng.randint(1, k_max)
        feasible = [
            n for n in range(max(2, k + 1), n_max + 1) if (n + 1) ** k <= 2**n
        ]
        if not feasible:
            continue
        n = rng.choice(feasible)
        largest = n + 1
        while (largest + 1) ** k <= 2**n:
            largest += 1
        size = rng.randint(n + 1, min(largest, 2**n - 1, 4 * n))
        bits = {0}
        basis = list(range(n))
        rng.shuffle(basis)
        for j in basis:
            bits.add(1 << j)
        while len(bits) < size:
            bits.add(rng.randrange(1, 2**n))
        vectors = frozenset(F2Vector(n, b) for b in bits)
        members = VectorSet(n, vectors)
        if len(members) ** k <= 2**n and k + 1 <= len(members) < 2**n:
            return members, k


def all_points(n: int):
    """Every point of {-1,+1}^n, variable 1 most significant."""
    for key in range(2**n):
        yield tuple(-1 if key >> (n - 1 - j) & 1 else 1 for j in range(n))


def enumerate_max_excess(sys: LinearSystem) -> tuple[Fraction, str]:
    """Maximum excess and its first maximizer as a 0/1 string.

    Walks every assignment in lexicographic order (z_1 most significant),
    summing each equation's signed weight straight from its support, and
    keeps the first point that reaches the maximum.
    """
    rows = [(eq.lhs.support(), eq.rhs, eq.weight) for eq in sys.equations]
    best = None
    for key in range(2**sys.n):
        text = format(key, f"0{sys.n}b") if sys.n else ""
        value = Fraction(0)
        for support, rhs, weight in rows:
            ones = sum(text[i] == "1" for i in support)
            value += weight if ones % 2 == rhs else -weight
        if best is None or value > best[0]:
            best = (value, text)
    return best


def fourier_values_vector(f: FourierExpansion) -> tuple[np.ndarray, int]:
    """Exact scaled values of f at all points, in the all_points order.

    Returns (int64 values, scale) with value/scale the exact rational; the
    evaluation goes monomial by monomial over a vectorized parity, fully
    independent of the library's bound computation.
    """
    n = f.n
    scale = math.lcm(f.constant.denominator, *(c.denominator for c in f.terms.values()))
    keys = np.arange(2**n, dtype=np.uint64)
    values = np.full(2**n, int(f.constant * scale), dtype=np.int64)
    for subset, coeff in f.terms.items():
        mask = 0
        for i in subset:
            mask |= 1 << (n - 1 - i)
        x = keys & np.uint64(mask)
        for shift in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(shift))
        sign = 1 - 2 * (x & np.uint64(1)).astype(np.int64)
        values += int(coeff * scale) * sign
    return values, scale


def fourier_brute_max(f: FourierExpansion) -> Fraction:
    values, scale = fourier_values_vector(f)
    return Fraction(int(values.max()), scale)


def enumerate_all_runs(sys: LinearSystem):
    """DFS over every marking order of the loop.

    Yields (records, total marked weight) for each complete run; the input
    is first re-merged exactly as run_h does.
    """
    from maxlin import h_step
    from maxlin.reduce import apply_rule2

    def rec(cur, records, total):
        if cur.m == 0:
            yield tuple(records), total
            return
        for eq in cur.equations:
            nxt, marked = h_step(cur, eq.eq_id)
            records.append(marked)
            yield from rec(nxt, records, total + marked.weight)
            records.pop()

    yield from rec(apply_rule2(sys), [], Fraction(0))


def max_marked_weight(sys: LinearSystem) -> Fraction:
    """Best total marked weight over all marking orders (memoized DFS)."""
    from maxlin import h_step
    from maxlin.reduce import apply_rule2

    memo: dict[tuple, Fraction] = {}

    def rec(cur) -> Fraction:
        if cur.m == 0:
            return Fraction(0)
        key = cur.content()
        if key in memo:
            return memo[key]
        best = Fraction(0)
        for eq in cur.equations:
            nxt, marked = h_step(cur, eq.eq_id)
            value = marked.weight + rec(nxt)
            if value > best:
                best = value
        memo[key] = best
        return best

    return rec(apply_rule2(sys))


def search_accepting_sequence(sys: LinearSystem, k: int):
    """Exhaustive search for a marking sequence of weight >= k.

    Returns the id sequence or None; memoized on (system content, reached
    weight capped at k), so a None return proves no certificate accepts.
    """
    from maxlin import h_step
    from maxlin.reduce import apply_rule2

    seen: set[tuple] = set()

    def rec(cur, acc, path):
        if acc >= k:
            return tuple(path)
        if cur.m == 0 or acc + sum(eq.weight for eq in cur.equations) < k:
            return None
        key = (cur.content(), min(acc, k))
        if key in seen:
            return None
        seen.add(key)
        for eq in cur.equations:
            nxt, marked = h_step(cur, eq.eq_id)
            path.append(eq.eq_id)
            found = rec(nxt, acc + marked.weight, path)
            if found is not None:
                return found
            path.pop()
        return None

    return rec(apply_rule2(sys), Fraction(0), [])


def certificate_from_assignment(sys: LinearSystem, k: int, assignment) -> tuple[int, ...]:
    """Build an accepting sequence by always marking a satisfied equation.

    Works whenever the assignment's excess is at least k: marking satisfied
    equations keeps the remaining excess positive, so a satisfied equation
    is always available, and integral weights reach k within k marks.
    """
    from maxlin import h_step
    from maxlin.reduce import apply_rule2

    cur = apply_rule2(sys)
    acc = Fraction(0)
    path: list[int] = []
    while acc < k:
        satisfied = [eq.eq_id for eq in cur.equations if eq.is_satisfied_by(assignment)]
        assert satisfied, "ran out of satisfied equations before reaching k"
        eq_id = min(satisfied)
        cur, marked = h_step(cur, eq_id)
        acc += marked.weight
        path.append(eq_id)
    return tuple(path)


def cnf_satisfied_counts_vector(formula: CnfFormula) -> np.ndarray:
    """Satisfied-clause counts at all points, in the all_points order.

    A clause is falsified exactly when every positive literal reads +1 and
    every negated literal reads -1; -1 entries are the set key bits.
    """
    n = formula.n
    keys = np.arange(2**n, dtype=np.uint64)
    counts = np.full(2**n, formula.m, dtype=np.int64)
    for clause in formula.clauses:
        pos_mask = 0
        neg_mask = 0
        for lit in clause:
            bit = 1 << (n - abs(lit))
            if lit > 0:
                pos_mask |= bit
            else:
                neg_mask |= bit
        falsified = ((keys & np.uint64(pos_mask)) == 0) & (
            (keys & np.uint64(neg_mask)) == np.uint64(neg_mask)
        )
        counts -= falsified.astype(np.int64)
    return counts


def csp_satisfied_counts_vector(inst: CspInstance) -> np.ndarray:
    """Satisfied-constraint counts at all points, in the all_points order."""
    n = inst.n
    keys = np.arange(2**n, dtype=np.uint64)
    counts = np.zeros(2**n, dtype=np.int64)
    for cons in inst.constraints:
        var_mask = 0
        for v in cons.variables:
            var_mask |= 1 << (n - 1 - v)
        hit = np.zeros(2**n, dtype=bool)
        for point in cons.satisfying:
            pattern = 0
            for v, value in zip(cons.variables, point):
                if value == -1:
                    pattern |= 1 << (n - 1 - v)
            hit |= (keys & np.uint64(var_mask)) == np.uint64(pattern)
        counts += hit.astype(np.int64)
    return counts


def paired_vectorset(rng: random.Random) -> tuple[VectorSet, int]:
    """A set in which every nonzero element pairs with its translate by the
    lexicographically smallest member, stalling the greedy phase and forcing
    the quotient recursion (k = 2)."""
    n = rng.randint(8, 14)
    shift = 1 << (n - 1)  # the lex-smallest nonzero vector, scanned first
    bits = {0, shift}
    for j in range(n - 1):
        bits.add(1 << j)
        bits.add((1 << j) | shift)
    allowed = math.isqrt(2**n)  # keep |M|^2 <= 2^n
    while len(bits) + 2 <= allowed and rng.random() < 0.7:
        extra = rng.randrange(1, 2**n)
        if extra in bits or extra ^ shift in bits:
            continue
        bits.add(extra)
        bits.add(extra ^ shift)
    members = VectorSet(n, [F2Vector(n, b) for b in bits])
    assert len(members) ** 2 <= 2**n
    return members, 2


def assert_raises(call, error: type, fragment: str) -> None:
    """``call()`` raises exactly ``error``, not a subclass of it, and its
    message contains ``fragment``."""
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert fragment in str(exc.value)
