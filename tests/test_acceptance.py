"""Acceptance suite: one test per criterion, exact checks, fixed seeds.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and timings).
"""
import io
import random
import time
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from maxlin import (
    AaInstance,
    Certificate,
    FourierExpansion,
    LinearSystem,
    brute_force_max_excess,
    decide_aa,
    decide_sat_aa,
    eval_fourier,
    evaluate,
    find_kset,
    lower_bound_assignment,
    make_irreducible,
    maxima_lower_bound,
    reconstruct,
    sat_to_fourier,
    csp_to_fourier,
    satisfied_clause_count,
    verify_certificate,
    verify_kset,
)
from maxlin.cli import CommandConfig, run
from maxlin.formats import emit_fourier, emit_system

from helpers import (
    paired_vectorset,
    certificate_from_assignment,
    cnf_satisfied_counts_vector,
    csp_satisfied_counts_vector,
    enumerate_all_runs,
    fourier_brute_max,
    fourier_values_vector,
    random_cnf,
    random_csp,
    random_fourier,
    random_regime_system,
    random_system,
    random_vectorset,
    search_accepting_sequence,
)


def report(number: int, name: str, started: float) -> None:
    print(f"criterion {number:02d} {name}: PASS ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def decision_suite():
    """500 random above-average instances shared by criteria 5 and 6.

    Plain random draws are nearly always yes, so a third of the suite is
    cancelling-pair systems (maximum excess 0) and a third picks k just
    above the oracle optimum, keeping both answers well represented.
    """
    rng = random.Random(20260809)
    suite = []
    for index in range(500):
        if index % 5 == 3:
            n = rng.randint(1, 8)
            rows = []
            for _ in range(rng.randint(1, 6)):
                support = sorted(rng.sample(range(n), rng.randint(1, n)))
                weight = rng.randint(1, 5)
                rows.append((support, 0, weight))
                rows.append((support, 1, weight))
            for _ in range(rng.randint(0, 2)):
                support = sorted(rng.sample(range(n), rng.randint(1, n)))
                rows.append((support, rng.randint(0, 1), 1))
            sys = LinearSystem.build(n, rows)
            k = rng.randint(1, 5)
        elif index % 5 == 4:
            while True:
                sys = random_system(rng, n_min=1, n_max=6, m_min=2, m_max=8, w_max=2)
                excess = int(brute_force_max_excess(sys).excess)
                if excess < 5:
                    k = rng.randint(excess + 1, 5)
                    break
        else:
            sys = random_system(rng, n_min=1, n_max=14, m_min=1, m_max=30, w_max=5)
            k = rng.randint(1, 5)
        oracle = brute_force_max_excess(sys)
        suite.append((AaInstance(sys, k), oracle))
    return suite


def test_criterion_01_reduction_soundness():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        sys = random_system(rng, n_min=1, n_max=10, m_min=0, m_max=30, w_max=5)
        reduced, _ = make_irreducible(sys)
        assert (
            brute_force_max_excess(reduced).excess == brute_force_max_excess(sys).excess
        )
    report(1, "reduction soundness", started)


def test_criterion_02_marking_equivalence():
    started = time.perf_counter()
    rng = random.Random(102)
    for _ in range(100):
        sys = random_system(rng, n_min=1, n_max=6, m_min=0, m_max=6, w_max=5)
        oracle = brute_force_max_excess(sys).excess
        best = Fraction(0)
        for records, total in enumerate_all_runs(sys):
            if total > best:
                best = total
            assignment = reconstruct(records, sys.n)
            assert evaluate(sys, assignment).excess >= total
        assert best == oracle
    report(2, "marking equivalence", started)


def test_criterion_03_kset_construction():
    started = time.perf_counter()
    rng = random.Random(103)
    for index in range(200):
        if index % 5 == 4:
            members, k = paired_vectorset(rng)
        else:
            members, k = random_vectorset(rng, n_max=16, k_max=4)
        found = find_kset(members, k)
        assert len(found) == k + 1
        assert verify_kset(members, found)
    report(3, "sum-independent set construction", started)


def test_criterion_04_lower_bound_guarantee():
    started = time.perf_counter()
    rng = random.Random(104)
    for _ in range(200):
        k = rng.choice((2, 3))
        sys = random_regime_system(rng, k, n_max=14)
        witness = lower_bound_assignment(sys, k)
        assert evaluate(sys, witness.assignment).excess == witness.excess
        assert witness.excess >= k * sys.min_weight
        assert witness.excess <= brute_force_max_excess(sys).excess
    report(4, "constructive lower bound", started)


def test_criterion_05_decision_correctness(decision_suite):
    started = time.perf_counter()
    for instance, oracle in decision_suite:
        answer, witness = decide_aa(instance)
        assert answer == (oracle.excess >= instance.k)
        assert evaluate(instance.system, witness.assignment).excess == witness.excess
        if answer:
            assert witness.excess >= instance.k
    report(5, "decision correctness", started)


def test_criterion_06_certificate_verifier(decision_suite):
    started = time.perf_counter()
    rng = random.Random(106)
    for instance, oracle in decision_suite:
        sys, k = instance.system, instance.k
        is_yes = oracle.excess >= k
        if is_yes:
            cert = certificate_from_assignment(sys, k, oracle.assignment)
            assert len(cert) <= k
            assert verify_certificate(sys, Certificate(cert), k)
        if sys.n <= 6:
            found = search_accepting_sequence(sys, k)
            assert (found is not None) == is_yes
            if found is not None:
                assert len(found) <= k
                assert verify_certificate(sys, Certificate(found), k)
        elif not is_yes:
            # spot sample: random sequences must reject on no-instances
            for _ in range(5):
                size = rng.randint(1, min(k, sys.m))
                cert = Certificate(tuple(rng.sample(sys.ids(), size)))
                assert not verify_certificate(sys, cert, k)
    report(6, "certificate verifier", started)


def test_criterion_07_sat_identity():
    started = time.perf_counter()
    rng = random.Random(107)
    for _ in range(100):
        r = rng.choice((2, 3))
        n = rng.randint(r, 10)
        m = rng.randint(1, 20)
        formula = random_cnf(rng, n=n, m=m, r=r)
        expansion = sat_to_fourier(formula, r)
        values, scale = fourier_values_vector(expansion)
        assert scale == 1
        counts = cnf_satisfied_counts_vector(formula)
        assert np.array_equal(values, m - (m - counts) * 2**r)
        # ground the vectorized values in the scalar evaluator
        for _ in range(3):
            key = rng.randrange(2**n)
            point = tuple(-1 if key >> (n - 1 - j) & 1 else 1 for j in range(n))
            assert eval_fourier(expansion, point) == int(values[key])
            assert satisfied_clause_count(formula, point) == int(counts[key])
        k = rng.randint(1, 4)
        expected = 2**r * int(counts.max()) >= (2**r - 1) * m + k
        answer, point = decide_sat_aa(formula, r, k)
        assert answer == expected
        if answer:
            s = satisfied_clause_count(formula, point)
            assert 2**r * s >= (2**r - 1) * m + k
    report(7, "exact-r SAT bridge identity", started)


def test_criterion_08_csp_identity():
    started = time.perf_counter()
    rng = random.Random(108)
    for _ in range(100):
        r = 3
        n = rng.randint(1, 8)
        inst = random_csp(rng, n=n, count=rng.randint(1, 10), r=r)
        expansion = csp_to_fourier(inst, r)
        values, scale = fourier_values_vector(expansion)
        assert scale == 1
        counts = csp_satisfied_counts_vector(inst)
        average = sum(
            (Fraction(len(c.satisfying), 2**c.arity) for c in inst.constraints),
            Fraction(0),
        )
        scaled_average = 2**r * average
        assert scaled_average.denominator == 1
        assert np.array_equal(values, 2**r * counts - int(scaled_average))
        for _ in range(3):
            key = rng.randrange(2**n)
            point = tuple(-1 if key >> (n - 1 - j) & 1 else 1 for j in range(n))
            assert eval_fourier(expansion, point) == int(values[key])
    report(8, "bounded-arity CSP bridge identity", started)


def test_criterion_09_bound_soundness_and_tightness():
    started = time.perf_counter()
    rng = random.Random(109)
    for _ in range(200):
        f = random_fourier(rng, n_max=12, max_terms=25)
        assert maxima_lower_bound(f) <= fourier_brute_max(f)
    for n in range(2, 11):
        subsets = [
            frozenset(s)
            for s in chain.from_iterable(
                combinations(range(n), size) for size in range(1, n + 1)
            )
        ]
        family = FourierExpansion(n, 0, {s: Fraction(-1) for s in subsets})
        assert maxima_lower_bound(family) == 1
        assert fourier_brute_max(family) == 1
        removed = rng.choice(subsets)
        trimmed = FourierExpansion(
            n, 0, {s: Fraction(-1) for s in subsets if s != removed}
        )
        assert maxima_lower_bound(trimmed) == fourier_brute_max(trimmed)
    report(9, "expansion maximum bound: sound and tight", started)


def test_criterion_10_kernel_preservation():
    started = time.perf_counter()
    rng = random.Random(110)
    from maxlin import kernelize_rlin

    for _ in range(100):
        r = rng.choice((2, 3))
        n = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(1, 24)):
            size = rng.randint(1, min(r, n))
            rows.append(
                (sorted(rng.sample(range(n), size)), rng.randint(0, 1), rng.randint(1, 5))
            )
        sys = LinearSystem.build(n, rows)
        k = rng.randint(2, 5)
        outcome = kernelize_rlin(sys, r, k)
        original_yes = brute_force_max_excess(sys).excess >= k
        if outcome.is_yes:
            assert original_yes
        else:
            kernel = outcome.kernel
            assert all(eq.lhs.popcount() <= r for eq in kernel.equations)
            assert (brute_force_max_excess(kernel).excess >= k) == original_yes
    report(10, "kernel preservation", started)


def test_criterion_11_cli_determinism(tmp_path):
    started = time.perf_counter()
    rng = random.Random(111)

    def invoke(config):
        out = io.StringIO()
        code = run(config, out)
        return code, out.getvalue()

    for index in range(6):
        system = random_system(rng, n_min=2, n_max=10, m_min=1, m_max=18, w_max=5)
        sys_path = tmp_path / f"sys{index}"
        sys_path.write_text(emit_system(system))
        k = rng.randint(1, 4)
        commands = [
            CommandConfig("reduce", str(sys_path)),
            CommandConfig("solve", str(sys_path), k=k),
            CommandConfig("kernel", str(sys_path), r=system.n, k=2),
        ]
        for config in commands:
            first = invoke(config)
            second = invoke(config)
            assert first == second
        oracle_runs = {invoke(CommandConfig("excess", str(sys_path))) for _ in range(3)}
        assert len(oracle_runs) == 1
        solve_runs = {invoke(CommandConfig("solve", str(sys_path), k=k)) for _ in range(3)}
        assert len(solve_runs) == 1

        f = random_fourier(rng, n_max=8, max_terms=10)
        f_path = tmp_path / f"fourier{index}"
        f_path.write_text(emit_fourier(f))
        assert invoke(CommandConfig("bound", str(f_path))) == invoke(
            CommandConfig("bound", str(f_path))
        )
    report(11, "CLI determinism", started)
