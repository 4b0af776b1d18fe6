"""End-to-end benchmark of the maxlin CLI on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

One client drives ``maxlin.cli.main`` in this process, in a closed loop: it
replays the workload's pass of requests until the requests' own summed wall
time reaches ``--seconds`` (whole passes only), timing each request from
reading its input file to complete output.  A request's time is its median
over the passes, so percentiles are over the pass's distinct requests.  Every
time is scaled by a calibration kernel run after each request (see
``calibrate``), so that the shared machine's changing speed drops out.  Every
output is checked against the benchmark's own references (``reference.py``),
and every output of the default seed against the digests in ``golden.json``.
``--trace 1`` instead alternates untraced and traced passes and reports
per-module spans.

Only process-local timers are used (``perf_counter_ns``, ``getrusage``); there
is no system-wide tracing.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUP_RUNS = 7
KINDS = ("solve", "excess", "verify", "reduce", "kernel", "bound")
TAIL_BEYOND = 10
# Reported times are scaled by CAL_REF_NS / (this run's median calibration
# time), i.e. to a machine on which the calibration kernel takes 200 us.
CAL_REF_NS = 200_000
_CAL_ROWS = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 160) - 1) for i in range(300)]

# Spans each workload exists to exercise; a zero call count fails the run.
_ALL = ["cli.run", "excess.decide_aa", "f2core.evaluate", "reductions.kernelize_rlin",
        "fourier.maxima_lower_bound"]
EXPECTED_SPANS = {
    "oracle": _ALL + ["excess.brute_force_max_excess"],
    "marking": _ALL + ["excess.lower_bound_assignment", "kset.find_kset", "kset.verify_kset",
                       "algoh.run_h", "algoh.h_step", "algoh.apply_rule2", "algoh.reconstruct",
                       "algoh.verify_certificate"],
    "sparse-reduce": _ALL + ["excess.lower_bound_assignment", "reduce.make_irreducible",
                             "reduce.apply_rule1", "f2core.rref", "reduce.lift_assignment",
                             "formats.parse_system", "formats.parse_fourier",
                             "formats.emit_system", "formats.emit_transcript_comments"],
}

PER_SPAN = (("calls", "count"), ("self_s", "s"), ("share", "fraction"))
COUNTS = (
    ("excess.oracle.point_rows", "count"),
    ("excess.oracle.ns_per_point_row", "ns"),
    ("kset.subsets", "count"),
    ("algoh.h_step.us_per_call", "us"),
    ("reduce.rows_in", "count"),
    ("reduce.rows_out", "count"),
    ("reduce.cols_declared", "count"),
    ("reduce.cols_out", "count"),
    ("reduce.merges", "count"),
    *((f"excess.route.{route}", "count") for route in tracer.ROUTES),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every (name, unit) a ``--trace 1`` run reports, in order."""
    spans = [(f"{span}.{key}", unit) for span in tracer.SPANS for key, unit in PER_SPAN]
    return spans + list(COUNTS)


# ------------------------------------------------------------------ running


def execute(cli, req) -> tuple[int, object, str]:
    """Run one request in process; returns (ns, exit code or failure, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter_ns()
        try:
            code = cli.main(req.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing request is a failed request
            code = f"raised {exc!r}"
        elapsed = perf_counter_ns() - start
    return elapsed, code, out.getvalue()


def calibrate() -> int:
    """Time (ns) of a fixed pure-Python kernel of big-int XOR, popcount, dict
    and Fraction work, the operations the CLI spends most of its time in.

    Run after every request, it tracks how fast a shared machine is at that
    moment; on a shared 2-core x86 virtual machine the kernel and the
    requests slowed down together by up to 30 % over tens of seconds.
    """
    start = perf_counter_ns()
    seen: dict[int, int] = {}
    total = Fraction(0)
    for i, row in enumerate(_CAL_ROWS):
        x = row ^ _CAL_ROWS[i - 1]
        seen[x & 0xFFFF] = seen.get(x & 0xFFFF, 0) + (x.bit_count() & 1)
        if i % 10 == 0:
            total += Fraction(i, 7)
    return perf_counter_ns() - start


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def judge(req, code, out: str) -> str | None:
    if not isinstance(code, int) or code == 2:
        return f"request failed: {code}"
    try:
        return reference.CHECKS[req.kind](req, code, out)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc}"


class Client:
    """One closed-loop client; remembers each slot's first output and verdict
    so later passes are compared byte for byte instead of re-checked."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.first: list[str | None] = [None] * len(requests)
        self.verdicts: list[str | None] = [None] * len(requests)
        self.samples: list[list[int]] = [[] for _ in requests]
        self.calibration: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, samples: list[list[int]] | None = None) -> int:
        """Replay every request once, appending each time to ``samples``
        (the client's own by default); returns the summed time."""
        samples = self.samples if samples is None else samples
        total = 0
        for slot, req in enumerate(self.requests):
            ns, code, out = execute(self.cli, req)
            self.calibration.append(calibrate())
            total += ns
            self.attempted += 1
            samples[slot].append(ns)
            seen = digest(code, out)
            if self.first[slot] is None:
                self.first[slot] = seen
                self.verdicts[slot] = judge(req, code, out)
            if seen == self.first[slot]:
                problem = self.verdicts[slot]
            else:
                problem = "output changed between passes"
            if problem:
                self.failures.append(f"{req.label}: {problem}")
        return total


def measure_setup(runs: int) -> float:
    """Median time (s) of fresh interpreters importing maxlin and building the
    CLI parser, scaled by the calibration kernel timed between them."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import maxlin.cli; "
            "maxlin.cli._build_parser()")
    times, calibration = [], []
    for i in range(runs + 1):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        if i:  # the first start compiles bytecode; users do not pay that twice
            times.append(perf_counter_ns() - start)
        calibration += [calibrate() for _ in range(5)]
    return statistics.median(times) * CAL_REF_NS / statistics.median(calibration) / 1e9


def tail(values: list[int]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "timers": "perf_counter_ns and getrusage, this process only; no system-wide tracing"}


# ------------------------------------------------------------------ golden


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_failures(client: Client, expected: list[str] | None) -> list[str]:
    if expected is None:
        return ["golden.json has no digests for this workload"]
    if len(expected) != len(client.first):
        return [f"golden.json holds {len(expected)} digests, the pass has {len(client.first)}"]
    return [f"{req.label}: stdout or exit code differs from golden.json"
            for req, got, want in zip(client.requests, client.first, expected) if got != want]


# -------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        work: Path, log=print) -> dict:
    import maxlin.cli as cli

    requests = workloads.build(workload, seed, work / "inputs", tiny=tiny)
    client = Client(cli, requests)
    setup = None if trace else measure_setup(1 if tiny else SETUP_RUNS)
    spans = tracer.Tracer()
    traced = [[] for _ in requests]
    traced_ns = untraced_ns = 0
    passes = 0
    while traced_ns + untraced_ns < seconds * 1e9 or passes == 0:
        untraced_ns += client.run_pass()
        if trace:
            with spans:
                traced_ns += client.run_pass(traced)
        passes += 1
    failures = list(client.failures)
    attempted = client.attempted

    if not tiny:
        golden = load_golden().get(workload)
        if seed == DEFAULT_SEED:
            failures += golden_failures(client, golden)
        else:
            check = Client(cli, workloads.build(workload, DEFAULT_SEED, work / "golden"))
            check.run_pass()
            attempted += check.attempted
            failures += check.failures + golden_failures(check, golden)

    log(f"workload={workload} seed={seed} passes={passes} requests_per_pass={len(requests)}")
    for key, value in environment().items():
        log(f"env {key}={value}")
    if trace:
        overhead = (sum(map(statistics.median, traced))
                    / sum(map(statistics.median, client.samples)))
        metrics, gate = per_layer(workload, spans, passes, traced_ns, overhead, requests)
        failures += gate
    else:
        metrics = end_to_end(client, untraced_ns, passes, setup, log)
    for problem in failures:
        log(f"FAILED {problem}")
    log(f"failed_ratio={len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def end_to_end(client: Client, timed_ns: int, passes: int, setup: float, log) -> dict:
    """Each request's time is its median over the run's passes, so the
    percentiles are over the pass's distinct requests; every time is scaled
    to the reference calibration speed (see CAL_REF_NS)."""
    cal = statistics.median(client.calibration)
    scale = CAL_REF_NS / cal / 1e9
    times = [statistics.median(samples) * scale for samples in client.samples]
    correct = [t for t, verdict in zip(times, client.verdicts) if verdict is None]
    metrics = {}
    log(f"calibration median={cal / 1e3:.1f} us over {len(client.calibration)} samples; "
        f"times below are raw x {CAL_REF_NS / cal:.4f}")

    def put(name, value, unit, note):
        metrics[name] = {"value": value, "unit": unit}
        log(f"metric {name}={value:.6g} {unit} ({note})")

    put("setup_s", setup, "s", f"median of {SETUP_RUNS} fresh interpreters")
    put("requests_per_s", len(correct) / sum(correct) if correct else 0.0, "1/s",
        f"{len(correct)} correct requests of one pass; {passes} passes took "
        f"{timed_ns / 1e9:.2f} s raw for {client.attempted} requests")
    put("latency_p50_s", statistics.median(times), "s", f"n={len(times)}, median of {passes}")
    value, pct = tail(times)
    put("latency_tail_s", value, "s",
        f"p{pct:.1f}, {min(TAIL_BEYOND, len(times) - 1)} of n={len(times)} beyond")
    for kind in KINDS:
        values = [t for t, req in zip(times, client.requests) if req.kind == kind]
        put(f"{kind}_p50_s", statistics.median(values), "s", f"n={len(values)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    put("peak_rss_mb", peak, "MB", "getrusage of this process")
    return metrics


def per_layer(workload, spans, passes, traced_ns, overhead, requests):
    """Per-pass span totals, computed counts and the route/coverage gate."""
    values = {}
    for span in tracer.SPANS:
        values[f"{span}.calls"] = spans.calls[span] / passes
        values[f"{span}.self_s"] = spans.self_ns[span] / 1e9 / passes
        values[f"{span}.share"] = spans.self_ns[span] / traced_ns
    for name, _ in COUNTS:
        values[name] = spans.counts[name] / passes
    points = spans.counts["excess.oracle.point_rows"]
    steps = spans.calls["algoh.h_step"]
    values["excess.oracle.ns_per_point_row"] = (
        spans.self_ns["excess.brute_force_max_excess"] / points if points else 0.0)
    values["algoh.h_step.us_per_call"] = (
        spans.self_ns["algoh.h_step"] / 1e3 / steps if steps else 0.0)
    values["trace.overhead_ratio"] = overhead

    gate = [f"coverage: span {span} recorded 0 calls"
            for span in EXPECTED_SPANS[workload] if not spans.calls[span]]
    solves = sum(req.kind == "solve" for req in requests) * passes
    routes = spans.routes
    if workload == "oracle" and routes.count("oracle") != solves:
        gate.append(f"route: {solves - routes.count('oracle')} oracle-workload solves "
                    "left the oracle route")
    if workload == "marking":
        if "oracle" in routes or "empty" in routes:
            gate.append("route: a marking-workload solve reached the oracle")
        if not {"k1_marking", "lower_bound"} <= set(routes):
            gate.append("route: marking workload missed the k1_marking or lower_bound route")
    units = dict(per_layer_names())
    return {name: {"value": values[name], "unit": units[name]} for name in units}, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json for this workload from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "maxlin" / "__init__.py").is_file():
        print(f"error: no maxlin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.update_golden:
            import maxlin.cli as cli
            client = Client(cli, workloads.build(args.workload, DEFAULT_SEED, work))
            client.run_pass()
            if client.failures:
                print("\n".join(client.failures), file=sys.stderr)
                return 1
            golden = load_golden()
            golden[args.workload] = client.first
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
