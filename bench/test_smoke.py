"""Tiny-size smoke run of the benchmark and of its output checks.

Run from the repository root with ``python -m pytest bench/test_smoke.py -q``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))
import maxlin.cli as cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, tmp_path):
    result = run.run(workload, 5, 0.2, trace, tiny=True, work=tmp_path, log=lambda _: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _corrupt(kind: str, out: str) -> str:
    lines = out.splitlines()
    if kind == "solve":
        lines[2] = str(Fraction(lines[2]) + 1)
    elif kind == "excess":
        lines[1] = ("1" if lines[1][0] == "0" else "0") + lines[1][1:]
        lines[0] = str(Fraction(lines[0]) - 1)
    elif kind == "verify":
        lines[0] = "REJECT" if lines[0] == "ACCEPT" else "ACCEPT"
    elif kind in ("reduce", "kernel"):
        if lines == ["YES"]:
            return "p maxlin 0 0\n"
        weight, rest = lines[1].split(" ", 1)
        lines[1] = f"{Fraction(weight) + 1} {rest}"
    elif kind == "bound":
        lines[0] = str(Fraction(lines[0]) + Fraction(1, 2))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_an_injected_wrong_output(workload, tmp_path):
    for req in workloads.build(workload, 5, tmp_path, tiny=True):
        _, code, out = run.execute(cli, req)
        assert run.judge(req, code, out) is None, req.label
        assert run.judge(req, code, _corrupt(req.kind, out)) is not None, req.label
        assert run.judge(req, 2, out) is not None
        assert run.judge(req, 0, "1/0\nx\n") is not None


def test_walsh_max_matches_enumeration():
    rows = [(0b101, 0, Fraction(3)), (0b011, 1, Fraction(1, 2)), (0b110, 0, Fraction(2))]
    best = max(reference.excess(rows, z) for z in range(8))
    assert reference.walsh_max(3, rows, low_bits=2) == best


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
