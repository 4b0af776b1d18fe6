"""Command-line front end with stable, scriptable output.

Exit codes: 0 for yes/accept/success, 1 for no/reject, 2 for usage,
parse or input-file errors.  Witness assignments print as one 0/1 string
over the original variables; rationals print in lowest terms.  With
``--output machine`` results come as one key=value line each.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable

from .algoh import Certificate, verify_certificate
from .errors import MaxlinError
from .excess import (
    DEFAULT_ORACLE_CAP,
    AaInstance,
    brute_force_max_excess,
    decide_aa,
)
from .formats import (
    emit_fourier,
    emit_system,
    emit_transcript_comments,
    parse_cnf,
    parse_fourier,
    parse_system,
    parse_vectorset,
)
from .fourier import fourier_to_system, maxima_lower_bound
from .kset import find_kset
from .reduce import make_irreducible
from .reductions import kernelize_rlin, sat_to_fourier

__all__ = ["CommandConfig", "run", "main"]


@dataclass(frozen=True)
class CommandConfig:
    """Validated flags for one invocation."""

    subcommand: str
    input_path: str = "-"
    k: int | None = None
    r: int | None = None
    cert: tuple[int, ...] = ()
    oracle_cap: int = DEFAULT_ORACLE_CAP
    output_mode: str = "plain"


def _read_input(config: CommandConfig) -> str:
    """The input as text, without a leading UTF-8 byte-order mark.  A byte
    that is not UTF-8 decodes to a lone surrogate, which no token accepts,
    so the parser reports its line; stdin is decoded here too, whatever the
    locale's error handler."""
    if config.input_path == "-":
        return sys.stdin.buffer.read().decode("utf-8-sig", "surrogateescape")
    with open(config.input_path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        return handle.read()


def _write_fields(
    config: CommandConfig, out: IO[str], fields: Iterable[tuple[str, object]]
) -> None:
    """Write each (key, value) result field: ``key=value`` lines with
    ``--output machine``; otherwise an answer as its upper-case word (none
    for ``kernel``, whose system follows) and any other value bare."""
    for key, value in fields:
        if config.output_mode == "machine":
            out.write(f"{key}={value}\n")
        elif key != "answer":
            out.write(f"{value}\n")
        elif value != "kernel":
            out.write(f"{value.upper()}\n")


def _cmd_reduce(config: CommandConfig, out: IO[str]) -> int:
    system = parse_system(_read_input(config))
    reduced, transcript = make_irreducible(system)
    out.write(emit_system(reduced))
    out.write(emit_transcript_comments(transcript))
    return 0


def _cmd_solve(config: CommandConfig, out: IO[str]) -> int:
    system = parse_system(_read_input(config))
    instance = AaInstance(system, config.k)
    answer, witness = decide_aa(instance, oracle_cap=config.oracle_cap)
    _write_fields(config, out, [
        ("answer", "yes" if answer else "no"),
        ("witness", witness.assignment.to01()),
        ("excess", witness.excess),
    ])
    return 0 if answer else 1


def _cmd_excess(config: CommandConfig, out: IO[str]) -> int:
    system = parse_system(_read_input(config))
    witness = brute_force_max_excess(system, cap=config.oracle_cap)
    _write_fields(config, out, [("excess", witness.excess), ("witness", witness.assignment.to01())])
    return 0


def _cmd_bound(config: CommandConfig, out: IO[str]) -> int:
    expansion = parse_fourier(_read_input(config))
    _write_fields(config, out, [("bound", maxima_lower_bound(expansion))])
    return 0


def _cmd_kset(config: CommandConfig, out: IO[str]) -> int:
    members = parse_vectorset(_read_input(config))
    chosen = find_kset(members, config.k)
    _write_fields(config, out, [(f"vector{i}", vec.to01()) for i, vec in enumerate(chosen, 1)])
    return 0


def _cmd_verify(config: CommandConfig, out: IO[str]) -> int:
    system = parse_system(_read_input(config))
    accepted = verify_certificate(system, Certificate(config.cert), config.k)
    _write_fields(config, out, [("answer", "accept" if accepted else "reject")])
    return 0 if accepted else 1


def _cmd_from_cnf(config: CommandConfig, out: IO[str]) -> int:
    formula = parse_cnf(_read_input(config))
    out.write(emit_fourier(sat_to_fourier(formula, config.r)))
    return 0


def _cmd_from_fourier(config: CommandConfig, out: IO[str]) -> int:
    expansion = parse_fourier(_read_input(config))
    system, constant = fourier_to_system(expansion)
    out.write(f"c constant {constant}\n")
    out.write(emit_system(system))
    return 0


def _cmd_kernel(config: CommandConfig, out: IO[str]) -> int:
    system = parse_system(_read_input(config))
    outcome = kernelize_rlin(system, config.r, config.k)
    _write_fields(config, out, [("answer", "yes" if outcome.is_yes else "kernel")])
    if not outcome.is_yes:
        out.write(emit_system(outcome.kernel))
    return 0


_HANDLERS = {
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "excess": _cmd_excess,
    "bound": _cmd_bound,
    "kset": _cmd_kset,
    "verify": _cmd_verify,
    "from-cnf": _cmd_from_cnf,
    "from-fourier": _cmd_from_fourier,
    "kernel": _cmd_kernel,
}


def run(config: CommandConfig, out: IO[str] | None = None) -> int:
    """Execute one validated command, writing results to ``out``."""
    stream = sys.stdout if out is None else out
    try:
        return _HANDLERS[config.subcommand](config, stream)
    except (MaxlinError, OSError) as exc:  # OSError: unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 2


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """An integer option, in ASCII decimal with no whitespace or '_'."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_cert(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(part) for part in text.split(",") if part != "")
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"certificate must be comma-separated ids: {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call
    in the process; ``parse_args`` leaves it unchanged, so callers must not
    modify it."""
    parser = argparse.ArgumentParser(
        prog="maxlin",
        description="Weighted F2 linear systems: reduction, above-average decisions, "
        "excess bounds, and SAT/CSP bridges.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
    common.add_argument(
        "--output", choices=("plain", "machine"), default="plain", dest="output_mode"
    )
    oracle_opts = argparse.ArgumentParser(add_help=False)
    oracle_opts.add_argument("--oracle-cap", type=_int, default=DEFAULT_ORACLE_CAP)

    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("reduce", parents=[common], help="emit the irreducible system + transcript")
    solve = sub.add_parser("solve", parents=[common, oracle_opts], help="decide excess >= k")
    solve.add_argument("--k", type=_int, required=True)
    excess = sub.add_parser(
        "excess", parents=[common, oracle_opts], help="exact maximum excess by enumeration"
    )
    excess.add_argument("--oracle", action="store_true", required=True)
    sub.add_parser("bound", parents=[common], help="lower bound on the expansion's maximum")
    kset = sub.add_parser("kset", parents=[common], help="find k+1 sum-independent vectors")
    kset.add_argument("--k", type=_int, required=True)
    verify = sub.add_parser("verify", parents=[common], help="check a marking certificate")
    verify.add_argument("--cert", type=_parse_cert, required=True)
    verify.add_argument("--k", type=_int, required=True)
    from_cnf = sub.add_parser("from-cnf", parents=[common], help="expand a DIMACS CNF formula")
    from_cnf.add_argument("--r", type=_int, required=True)
    sub.add_parser("from-fourier", parents=[common], help="emit the associated system")
    kernel = sub.add_parser("kernel", parents=[common], help="exact-threshold kernel")
    kernel.add_argument("--r", type=_int, required=True)
    kernel.add_argument("--k", type=_int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = CommandConfig(
        subcommand=args.subcommand,
        input_path=args.input,
        k=getattr(args, "k", None),
        r=getattr(args, "r", None),
        cert=getattr(args, "cert", ()),
        oracle_cap=getattr(args, "oracle_cap", DEFAULT_ORACLE_CAP),
        output_mode=args.output_mode,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
