"""Per-module spans recorded from outside the program.

Each traced function is replaced, in every ``maxlin`` module whose namespace
holds it, by a wrapper that times the call with ``perf_counter_ns`` and
subtracts the time of traced calls made inside it, giving self time.
Patching the module attributes is what makes the spans see calls between
modules (``maxlin.excess.find_kset``) and within one (``maxlin.algoh.h_step``
called from ``run_h``).  Counts marked *computed* come from argument and
result sizes, never from counters inside the program.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# span name -> (module defining the function, attribute name).  Rule 2 is
# named for its only caller, the marking loop in algoh.
SPANS = {
    "cli.run": ("maxlin.cli", "run"),
    "formats.parse_system": ("maxlin.formats", "parse_system"),
    "formats.parse_fourier": ("maxlin.formats", "parse_fourier"),
    "formats.emit_system": ("maxlin.formats", "emit_system"),
    "formats.emit_transcript_comments": ("maxlin.formats", "emit_transcript_comments"),
    "reduce.make_irreducible": ("maxlin.reduce", "make_irreducible"),
    "reduce.apply_rule1": ("maxlin.reduce", "apply_rule1"),
    "reduce.lift_assignment": ("maxlin.reduce", "lift_assignment"),
    "f2core.rref": ("maxlin.f2core", "rref"),
    "f2core.evaluate": ("maxlin.f2core", "evaluate"),
    "algoh.run_h": ("maxlin.algoh", "run_h"),
    "algoh.h_step": ("maxlin.algoh", "h_step"),
    "algoh.apply_rule2": ("maxlin.reduce", "apply_rule2"),
    "algoh.reconstruct": ("maxlin.algoh", "reconstruct"),
    "algoh.verify_certificate": ("maxlin.algoh", "verify_certificate"),
    "kset.find_kset": ("maxlin.kset", "find_kset"),
    "kset.verify_kset": ("maxlin.kset", "verify_kset"),
    "excess.decide_aa": ("maxlin.excess", "decide_aa"),
    "excess.lower_bound_assignment": ("maxlin.excess", "lower_bound_assignment"),
    "excess.brute_force_max_excess": ("maxlin.excess", "brute_force_max_excess"),
    "reductions.kernelize_rlin": ("maxlin.reductions", "kernelize_rlin"),
    "fourier.maxima_lower_bound": ("maxlin.fourier", "maxima_lower_bound"),
}

ROUTES = ("empty", "k1_marking", "lower_bound", "oracle")
_ROUTE_SPANS = ("excess.lower_bound_assignment", "excess.brute_force_max_excess", "algoh.run_h")


def _count_oracle(tracer, args, result, _token):
    system = args[0]
    tracer.counts["excess.oracle.point_rows"] += 2**system.n * system.m


def _count_subsets(tracer, args, result, _token):
    s = len(list(args[1]))
    tracer.counts["kset.subsets"] += 2**s - s - 1


def _count_reduction(tracer, args, result, _token):
    system, (reduced, transcript) = args[0], result
    tracer.counts["reduce.rows_in"] += system.m
    tracer.counts["reduce.cols_declared"] += system.n
    tracer.counts["reduce.rows_out"] += reduced.m
    tracer.counts["reduce.cols_out"] += reduced.n
    tracer.counts["reduce.merges"] += len(transcript.merge_log)
    tracer.last_reduced_m = reduced.m


def _route_snapshot(tracer):
    return tuple(tracer.calls[name] for name in _ROUTE_SPANS)


def _record_route(tracer, args, result, token):
    fired = [after > before for before, after in zip(token, _route_snapshot(tracer))]
    lower_bound, oracle, marking = fired
    if lower_bound:
        route = "lower_bound"
    elif oracle:
        route = "empty" if tracer.last_reduced_m == 0 else "oracle"
    elif marking:
        route = "k1_marking"
    else:
        raise RuntimeError("decide_aa returned without any route span firing")
    tracer.counts[f"excess.route.{route}"] += 1
    tracer.routes.append(route)


_EXIT_HOOKS = {
    "excess.brute_force_max_excess": _count_oracle,
    "kset.verify_kset": _count_subsets,
    "reduce.make_irreducible": _count_reduction,
    "excess.decide_aa": _record_route,
}
_ENTER_HOOKS = {"excess.decide_aa": _route_snapshot}


class Tracer:
    """Install with ``with Tracer() as t:``; totals accumulate across uses."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.routes: list[str] = []
        self.last_reduced_m = -1
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        enter, leave = _ENTER_HOOKS.get(name), _EXIT_HOOKS.get(name)

        def traced(*args, **kwargs):
            token = enter(self) if enter else None
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[0]
            if leave:
                leave(self, args, result, token)
            return result

        return traced

    def __enter__(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "maxlin" or key.startswith("maxlin.")]
        for name, (module, attr) in SPANS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))
        return self

    def __exit__(self, *exc):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()
        return False
