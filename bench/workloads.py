"""Seeded request schedules for the three workloads.

A workload is one pass of requests, replayed in a closed loop.  Each request
is a CLI invocation on an input file written here, together with the
expectations the checks in ``reference`` compare its output against.  Every
workload carries all six request kinds so that each per-kind latency exists
everywhere; the kinds a workload is not built for are single small probes
drawn from the same family of inputs.

Shapes are fixed per workload and only the content depends on the seed, so
runs with different seeds time the same mix of work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

WORKLOADS = ("oracle", "marking", "sparse-reduce")
W_MAX = 9  # integral weights are drawn from 1..W_MAX
SPARSE_ARITY = 3  # variables per sparse row, and the kernel's --r
PROBES = 7  # dense probes of each small kind on the oracle workload


@dataclass
class Request:
    kind: str
    args: list[str]
    path: Path
    label: str
    n: int = 0
    rows: list = field(default_factory=list)
    k: int = 0
    expect_max: Fraction | None = None
    expect_accept: bool = False
    expect_reduced: tuple | None = None
    expect_yes: bool = False
    expect_bound: Fraction | None = None
    lift_points: tuple = ()

    def argv(self) -> list[str]:
        return [self.kind, *self.args, str(self.path)]


# ------------------------------------------------------------------- inputs


def _weight(rng: random.Random, rational: bool) -> Fraction:
    if rational:
        return Fraction(rng.randint(1, W_MAX), rng.randint(1, 4))
    return Fraction(rng.randint(1, W_MAX))


def dense_rows(rng, n, m, *, rational=False, full_rank=False):
    """m distinct random nonzero left-hand sides over n variables."""
    while True:
        masks: dict[int, None] = {}
        while len(masks) < m:
            mask = rng.getrandbits(n)
            if mask:
                masks[mask] = None
        if not full_rank or len(ref.pivots(masks)) == n:
            break
    return [(mask, rng.randint(0, 1), _weight(rng, rational)) for mask in masks]


def embed(rng, n, rows):
    """Append two dependent columns (sums of random columns) and repeat a
    tenth of the rows with the same right-hand side, so both reduction rules
    have work while the reduced system stays the input one."""
    sums = [rng.getrandbits(n) for _ in range(2)]
    out = []
    for mask, rhs, w in rows:
        for j, s in enumerate(sums):
            if (mask & s).bit_count() & 1:
                mask |= 1 << (n + j)
        out.append((mask, rhs, w))
    for mask, rhs, _ in rng.sample(out, max(1, len(out) // 10)):
        out.append((mask, rhs, _weight(rng, False)))
    return n + len(sums), out


def sparse_rows(rng, n, used, m, *, repeat_share=0.1):
    """Rows of 1..SPARSE_ARITY variables drawn from ``used`` random columns
    of n; about ``repeat_share`` of them repeat an earlier left-hand side."""
    cols = rng.sample(range(n), used)
    rows = []
    for _ in range(m):
        if rows and rng.random() < repeat_share:
            mask = rng.choice(rows)[0]
        else:
            mask = 0
            for j in rng.sample(cols, rng.randint(1, SPARSE_ARITY)):
                mask |= 1 << j
        rows.append((mask, rng.randint(0, 1), Fraction(rng.randint(1, 5))))
    return rows


def write_system(path: Path, n: int, rows) -> None:
    lines = [f"p maxlin {n} {len(rows)}"]
    for mask, rhs, w in rows:
        idx = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
        lines.append(f"{w} {rhs} {len(idx)} {' '.join(idx)}")
    path.write_text("\n".join(lines) + "\n")


def write_fourier(path: Path, n: int, constant: Fraction, terms) -> None:
    lines = [f"p fourier {n} {len(terms)}", f"const {constant}"]
    for mask, coeff in terms:
        idx = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
        lines.append(f"{coeff} {len(idx)} {' '.join(idx)}")
    path.write_text("\n".join(lines) + "\n")


def _reduced_rows(reduced):
    _, merged = reduced
    return [(mask, 1 if c < 0 else 0, abs(c)) for mask, c in merged.items()]


# ----------------------------------------------------------------- requests


class Plan:
    """One workload's pass: writes its input files and collects its requests."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.requests: list[Request] = []

    def rng(self) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{len(self.requests)}")

    def _path(self, kind: str, suffix: str) -> Path:
        return self.out_dir / f"{len(self.requests):03d}-{kind}.{suffix}"

    def solve_oracle(self, n, m, yes: bool):
        rng = self.rng()
        while True:
            n_decl, rows = embed(rng, n, dense_rows(rng, n, m, full_rank=True))
            reduced = ref.reduce_system(n_decl, rows)
            best = ref.walsh_max(len(reduced[0]), _reduced_rows(reduced))
            k = int(best) + (0 if yes else 1)
            if k >= 2 and not ref.regime(len(reduced[0]), len(reduced[1]), k):
                break
        self._solve(n_decl, rows, k, best, f"solve-oracle n={n} m={m} {'yes' if yes else 'no'}")

    def solve_regime(self, n_decl, rows, k, label):
        reduced = ref.reduce_system(n_decl, rows)
        n, m = len(reduced[0]), len(reduced[1])
        if not (m and (k == 1 or ref.regime(n, m, k))):
            raise ValueError(f"{label}: k={k} is outside the marking routes")
        self._solve(n_decl, rows, k, None, label)

    def _solve(self, n, rows, k, best, label):
        path = self._path("solve", "maxlin")
        write_system(path, n, rows)
        self.requests.append(
            Request("solve", ["--k", str(k)], path, label, n=n, rows=rows, k=k, expect_max=best)
        )

    def excess(self, n, m, sparse_used=0):
        rng = self.rng()
        if sparse_used:
            rows = sparse_rows(rng, n, sparse_used, m, repeat_share=0)
        else:
            rows = dense_rows(rng, n, m, rational=True)
        path = self._path("excess", "maxlin")
        write_system(path, n, rows)
        best = ref.walsh_max(n, rows)
        self.requests.append(
            Request("excess", ["--oracle"], path, f"excess n={n} m={m}", n=n, rows=rows,
                    expect_max=best)
        )

    def verify(self, n, rows, count, accept: bool):
        rng = self.rng()
        ids = rng.sample(range(len(rows)), count)
        total = ref.marked_weight(rows, ids)
        if total is None:
            k, accept = count, False
        else:
            k = int(total) if accept else int(total) + 1
        path = self._path("verify", "maxlin")
        write_system(path, n, rows)
        cert = ",".join(str(i) for i in ids)
        self.requests.append(
            Request("verify", ["--cert", cert, "--k", str(k)], path,
                    f"verify n={n} ids={count} {'accept' if accept else 'reject'}",
                    n=n, rows=rows, k=k, expect_accept=accept)
        )

    def reduce(self, n, rows, label):
        rng = self.rng()
        path = self._path("reduce", "maxlin")
        write_system(path, n, rows)
        self.requests.append(
            Request("reduce", [], path, label, n=n, rows=rows,
                    expect_reduced=ref.reduce_system(n, rows),
                    lift_points=tuple(rng.getrandbits(n) for _ in range(3)))
        )

    def kernel(self, n, rows, r, yes: bool, label):
        reduced = ref.reduce_system(n, rows)
        k = max(2, ref.largest_regime_k(len(reduced[0]), len(reduced[1])) + (0 if yes else 1))
        expect_yes = ref.regime(len(reduced[0]), len(reduced[1]), k)
        path = self._path("kernel", "maxlin")
        write_system(path, n, rows)
        self.requests.append(
            Request("kernel", ["--r", str(r), "--k", str(k)], path,
                    f"{label} {'yes' if expect_yes else 'kernel'}", n=n, rows=rows, k=k,
                    expect_reduced=reduced, expect_yes=expect_yes)
        )

    def bound(self, n, rows, label):
        rng = self.rng()
        constant = Fraction(rng.randint(-5, 5))
        terms = list({mask: (-w if rhs else w) for mask, rhs, w in rows}.items())
        path = self._path("bound", "fourier")
        write_fourier(path, n, constant, terms)
        self.requests.append(
            Request("bound", [], path, label,
                    expect_bound=ref.reference_bound(constant, terms))
        )


def _distinct(rows):
    return list({mask: (mask, rhs, w) for mask, rhs, w in rows}.values())


def _oracle(plan: Plan, tiny: bool) -> None:
    """Dense systems with n = 16..20 after reduction; k is the exact maximum
    or one more, which is never inside the lower-bound regime."""
    if tiny:
        sizes, grid = (8, 9, 10), [(8, 8), (8, 40), (9, 9), (9, 45), (10, 10)]
    else:
        sizes = (16, 18, 20)
        grid = [(16, 16), (16, 80), (16, 240), (17, 17), (17, 85), (18, 18),
                (18, 90), (18, 270), (19, 19), (20, 20), (20, 60)]
    for i, (n, m) in enumerate(grid):
        plan.solve_oracle(n, m, yes=i % 2 == 0)
    for n, m in zip(sizes, (5 * sizes[0], 5 * sizes[1], sizes[2])):
        plan.excess(n, m)
    n = sizes[1]
    for i in range(PROBES):
        rng = plan.rng()
        rows = dense_rows(rng, n, 5 * n, full_rank=True)
        plan.verify(n, rows, 3 + i, accept=i % 2 == 0)
        n_decl, embedded = embed(rng, n, rows)
        plan.reduce(n_decl, embedded, f"reduce-dense n={n_decl}")
        r = max(mask.bit_count() for mask, _, _ in embedded)
        plan.kernel(n_decl, embedded, r, i % 2 == 0, f"kernel-dense n={n_decl}")
        plan.bound(n, rows, f"bound-dense n={n}")


def _marking(plan: Plan, tiny: bool) -> None:
    """Dense distinct-lhs systems, m = 3n, k from 1 to the regime's top
    (17 at n = 140), plus short-prefix certificates on the same rows."""
    sizes = (24, 28, 32) if tiny else (80, 110, 140)
    systems = []
    for n in sizes:
        rows = dense_rows(plan.rng(), n, 3 * n, full_rank=True)
        systems.append((n, rows))
        top = min(20, ref.largest_regime_k(n, 3 * n))
        for k in (1, (top + 1) // 2, top):
            plan.solve_regime(n, rows, k, f"solve-marking n={n} k={k}")
    for n, rows in systems:
        for count in (2, 4, 6, 9, 12):
            plan.verify(n, rows, count, accept=count % 2 == 0)
    for i, (n, rows) in enumerate(systems):
        r = max(mask.bit_count() for mask, _, _ in rows)
        plan.reduce(n, rows, f"reduce-dense n={n}")
        for yes in (True, False) if i < 2 else (True,):
            plan.kernel(n, rows, r, yes, f"kernel-dense n={n}")
        plan.bound(n, rows, f"bound-dense n={n}")
        plan.excess(8 if tiny else 14, 42)


def _sparse_reduce(plan: Plan, tiny: bool) -> None:
    """At most 3 variables per row, declared n 2-10 times the used columns,
    about 10% repeated left-hand sides."""
    used = 30 if tiny else 200
    for cols, factors in ((used, (2, 3, 4, 5, 7, 10)), (2 * used, (2, 3, 5))):
        for factor in factors:
            n = factor * cols
            plan.reduce(n, sparse_rows(plan.rng(), n, cols, 2 * cols),
                     f"reduce-sparse n={n} used={cols}")
    for factor, verdicts in ((2, (True, False)), (5, (True, False)), (5, (True,)),
                             (10, (True, False))):
        n = factor * used
        rows = sparse_rows(plan.rng(), n, used, 2 * used)
        for yes in verdicts:
            plan.kernel(n, rows, SPARSE_ARITY, yes, f"kernel-sparse n={n} used={used}")
    for factor in (2, 3, 5, 7, 10):
        n = factor * used
        rows = sparse_rows(plan.rng(), n, used, 2 * used, repeat_share=0)
        plan.bound(n, _distinct(rows), f"bound-sparse n={n} used={used}")
    small = used // 5
    for _ in range(3):
        rows = sparse_rows(plan.rng(), 5 * small, small, 2 * small)
        reduced = ref.reduce_system(5 * small, rows)
        k = min(4, ref.largest_regime_k(len(reduced[0]), len(reduced[1])))
        plan.solve_regime(5 * small, rows, k, f"solve-sparse n={5 * small} k={k}")
        plan.verify(5 * small, _distinct(rows), 4, True)
        plan.excess(14, 14, sparse_used=7)


PLANS = {"oracle": _oracle, "marking": _marking, "sparse-reduce": _sparse_reduce}


def build(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Request]:
    """Write the workload's inputs under ``out_dir`` and return one pass."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = Plan(workload, seed, out_dir)
    PLANS[workload](plan, tiny)
    return plan.requests
