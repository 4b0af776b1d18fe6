import codecs
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import maxlin
from maxlin import F2Vector, LinearSystem
from maxlin import cli
from maxlin.cli import _build_parser, main, run
from maxlin.formats import (
    MAX_DECLARED_N,
    emit_fourier,
    emit_system,
    parse_fourier,
    parse_system,
)

from helpers import random_fourier, random_system

PAIR = "p maxlin 2 2\n1 0 2 1 2\n1 1 2 1 2\n"
TRIPLE = "p maxlin 2 3\n2 0 1 1\n1 0 1 2\n1 1 2 1 2\n"
TIGHT2 = "p fourier 2 3\nconst 0\n-1 1 1\n-1 1 2\n-1 2 1 2\n"
CLAUSE = "p cnf 2 1\n1 2 0\n"
UNITS = "p vecset 3 4\n000\n100\n010\n001\n"


def invoke(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = run(_build_parser().parse_args(argv), out)
    return code, out.getvalue()


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("pair", PAIR),
        ("triple", TRIPLE),
        ("tight2", TIGHT2),
        ("clause", CLAUSE),
        ("units", UNITS),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestSubcommands:
    def test_solve_no_on_pair(self, files):
        code, text = invoke(["solve", "--k", "1", files["pair"]])
        assert code == 1
        assert text == "NO\n00\n0\n"

    def test_solve_yes_on_triple(self, files):
        code, text = invoke(["solve", "--k", "2", files["triple"]])
        assert code == 0
        assert text.splitlines()[0] == "YES"

    def test_solve_machine_mode(self, files):
        code, text = invoke(["solve", "--k", "1", "--output", "machine", files["pair"]])
        assert code == 1
        assert text == "answer=no\nwitness=00\nexcess=0\n"

    def test_excess_oracle(self, files):
        code, text = invoke(["excess", "--oracle", files["triple"]])
        assert code == 0
        assert text == "2\n00\n"

    def test_bound_on_tight_family(self, files):
        code, text = invoke(["bound", files["tight2"]])
        assert code == 0
        assert text == "1\n"

    def test_verify_accept_and_reject(self, files):
        code, text = invoke(["verify", "--cert", "0", "--k", "2", files["triple"]])
        assert (code, text) == (0, "ACCEPT\n")
        code, text = invoke(["verify", "--cert", "0,1", "--k", "3", files["triple"]])
        assert (code, text) == (1, "REJECT\n")

    def test_reduce_emits_reparseable_system(self, files):
        code, text = invoke(["reduce", files["pair"]])
        assert code == 0
        reparsed = parse_system(text)
        assert reparsed.n == 0 and reparsed.m == 0

    def test_kset_lists_vectors(self, files):
        code, text = invoke(["kset", "--k", "1", files["units"]])
        assert code == 0
        rows = text.splitlines()
        assert len(rows) == 2 and all(len(r) == 3 for r in rows)

    def test_from_cnf(self, files):
        code, text = invoke(["from-cnf", "--r", "2", files["clause"]])
        assert code == 0
        f = parse_fourier(text)
        assert len(f.masks) == 3

    def test_from_fourier(self, files):
        code, text = invoke(["from-fourier", files["tight2"]])
        assert code == 0
        sys_parsed = parse_system(text)
        assert sys_parsed.m == 3

    def test_kernel_yes_and_kernel_branch(self, tmp_path):
        wide = tmp_path / "wide"
        wide.write_text(emit_system(parse_system(
            "p maxlin 6 6\n" + "".join(f"1 0 1 {i}\n" for i in range(1, 7))
        )))
        code, text = invoke(["kernel", "--r", "2", "--k", "2", str(wide)])
        assert (code, text) == (0, "YES\n")
        dense = tmp_path / "dense"
        dense.write_text(TRIPLE)
        code, text = invoke(["kernel", "--r", "2", "--k", "4", str(dense)])
        assert code == 0
        assert parse_system(text).m == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_text("p maxlin 1 1\n1.5 0 1 1\n")
        code = main(["solve", "--k", "1", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = main(["reduce", str(tmp_path / "missing")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_non_utf8_input_exits_2_from_a_file_and_from_stdin(self, tmp_path, capsys, monkeypatch):
        data = b"p maxlin 1 1\n1 0 1 \xff1\n"
        message = "error: line 2: variable index must be an integer, got '\\udcff1'\n"
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        assert main(["reduce", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)
        # a stdin that decodes strictly, as under a UTF-8 locale without UTF-8 mode
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["reduce"]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_dropped(self, source, tmp_path, capsys, monkeypatch):
        plain = tmp_path / "plain"
        plain.write_text(TRIPLE)
        assert main(["reduce", str(plain)]) == 0
        want = capsys.readouterr()
        data = codecs.BOM_UTF8 + TRIPLE.encode()
        if source == "file":
            marked = tmp_path / "marked"
            marked.write_bytes(data)
            assert main(["reduce", str(marked)]) == 0
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            assert main(["reduce"]) == 0
        assert capsys.readouterr() == want

    def test_oracle_ceiling_exits_2_at_once(self, tmp_path):
        wide = tmp_path / "wide"
        wide.write_text("p maxlin 40 1\n1 0 1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "maxlin", "excess", "--oracle", "--oracle-cap", "60", str(wide)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")

    def test_a_consistent_system_past_the_cap_exits_2(self, tmp_path, capsys):
        # 25 unit rows hold at z = 0, so only the cap keeps the oracle from
        # answering them by elimination
        path = tmp_path / "units25"
        path.write_text("p maxlin 25 25\n" + "".join(f"1 0 1 {i}\n" for i in range(1, 26)))
        for argv in (["excess", "--oracle"], ["solve", "--k", "1000"]):
            assert main([*argv, str(path)]) == 2
            assert capsys.readouterr() == ("", "error: 25 variables exceed the oracle cap of 24\n")
        assert main(["excess", "--oracle", "--oracle-cap", "25", str(path)]) == 0
        assert capsys.readouterr().out == "25\n" + "0" * 25 + "\n"

    def test_running_out_of_memory_exits_2(self, tmp_path):
        # the child alone runs under a 256 MiB address-space limit: the
        # transcript of a system at the declared-n ceiling lists 2^22 deleted
        # columns, so reduce runs out of memory before it writes a byte, and
        # the 40-byte file declaring 10^11 variables is refused by its header
        # before anything of that size is built
        resource = pytest.importorskip("resource")
        limit = 1 << 28

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        def capped(argv, path):
            return subprocess.run(
                [sys.executable, "-m", "maxlin", *argv, str(path)],
                capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
            )

        ceiling = tmp_path / "ceiling"
        ceiling.write_text(f"p maxlin {MAX_DECLARED_N} 1\n1 0 1 {MAX_DECLARED_N}\n")
        huge = tmp_path / "huge"
        huge.write_text("p maxlin 100000000000 1\n1 0 1 100000000000\n")
        errors = []
        for path in (ceiling, huge):
            proc = capped(["reduce"], path)
            assert (proc.returncode, proc.stdout) == (2, "")
            errors.append(proc.stderr)
        # solve and kernel build nothing per unused column: only the witness
        # string has the declared n's length
        for argv in (["solve", "--k", "1"], ["kernel", "--r", "3", "--k", "2"]):
            proc = capped(argv, ceiling)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout == "p maxlin 1 1\n1 0 1 1\n"
        assert errors == [
            "error: out of memory\n",
            f"error: line 1: variable count 100000000000 exceeds the limit of {MAX_DECLARED_N}\n",
        ]

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "error: out of memory\n"),
        (RuntimeError("a bug"), "error: internal error\n"),
    ])
    def test_any_other_exception_exits_2(self, files, capsys, monkeypatch, exc, message):
        # exit 1 means "no", so no exception may leave with it
        def fail(args, out):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "reduce", fail)
        assert main(["reduce", files["pair"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(message)
        assert ("Traceback" in captured.err) == isinstance(exc, RuntimeError)

    def test_larger_oracle_cap_on_small_input(self, files, capsys):
        assert main(["excess", "--oracle", files["triple"]]) == 0
        default = capsys.readouterr().out
        assert main(["excess", "--oracle", "--oracle-cap", "60", files["triple"]]) == 0
        assert capsys.readouterr().out == default


# Every command's exact stdout and exit code under each --output mode, as
# (argv before the input, input text, plain stdout, machine stdout, exit code).
RATIONAL = "p maxlin 2 2\n3/2 0 1 1\n1/3 0 1 2\n"
MERGING = "p maxlin 3 4\n3/2 0 1 1\n1/2 1 2 1 2\n1 0 2 2 3\n1 1 2 2 3\n"
RATIONAL_FOURIER = "p fourier 2 2\nconst 1/2\n3/2 1 1\n-1/3 2 1 2\n"
WIDE = "p maxlin 6 6\n" + "".join(f"1 0 1 {i}\n" for i in range(1, 7))
# x1 + x2 = 0, 1, 0, 1, 0: four rows past the rank, so the oracle transforms
FAR = "p maxlin 2 5\n" + "".join(f"{w} {(w + 1) % 2} 2 1 2\n" for w in range(1, 6))
OUTPUT_TABLE = [
    (["reduce"], MERGING,
     "p maxlin 2 2\n3/2 0 1 1\n1/2 1 2 1 2\nc transcript kept 1 2\n"
     "c transcript deleted 3 0\nc transcript merge 2 3 - 0\n", None, 0),
    (["solve", "--k", "1"], PAIR, "NO\n00\n0\n", "answer=no\nwitness=00\nexcess=0\n", 1),
    (["solve", "--k", "2"], TRIPLE, "YES\n00\n2\n", "answer=yes\nwitness=00\nexcess=2\n", 0),
    (["excess", "--oracle"], RATIONAL, "11/6\n00\n", "excess=11/6\nwitness=00\n", 0),
    (["bound"], RATIONAL_FOURIER, "7/6\n", "bound=7/6\n", 0),
    (["kset", "--k", "1"], UNITS, "001\n010\n", "vector1=001\nvector2=010\n", 0),
    (["verify", "--cert", "0", "--k", "2"], TRIPLE, "ACCEPT\n", "answer=accept\n", 0),
    (["verify", "--cert", "0,1", "--k", "3"], TRIPLE, "REJECT\n", "answer=reject\n", 1),
    (["from-cnf", "--r", "2"], CLAUSE,
     "p fourier 2 3\nconst 0\n-1 1 1\n-1 2 1 2\n-1 1 2\n", None, 0),
    (["from-fourier"], RATIONAL_FOURIER,
     "c constant 1/2\np maxlin 2 2\n3/2 0 1 1\n1/3 1 2 1 2\n", None, 0),
    (["kernel", "--r", "2", "--k", "2"], WIDE, "YES\n", "answer=yes\n", 0),
    (["kernel", "--r", "2", "--k", "4"], TRIPLE,
     "p maxlin 2 3\n2 0 1 1\n1 0 1 2\n1 1 2 1 2\n",
     "answer=kernel\np maxlin 2 3\n2 0 1 1\n1 0 1 2\n1 1 2 1 2\n", 0),
]


@pytest.mark.parametrize("mode", ["plain", "machine"])
@pytest.mark.parametrize(
    "argv, text, plain, machine, code", OUTPUT_TABLE, ids=[" ".join(row[0]) for row in OUTPUT_TABLE]
)
def test_output_bytes_and_exit_code(tmp_path, capsys, mode, argv, text, plain, machine, code):
    # None: the command writes the same bytes in both modes
    path = tmp_path / "input"
    path.write_text(text)
    assert main(argv + ["--output", mode, str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == (machine if mode == "machine" and machine is not None else plain)
    assert captured.err == ""


# Runs main for each argv in a fresh interpreter and prints, as JSON, whether
# numpy was loaded after the import and after each command, with the command's
# exit code and stdout.
_COLD_CHILD = """
import contextlib, io, json, sys
from maxlin.cli import main
results = [["numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(results))
"""


def test_only_the_oracle_loads_numpy(tmp_path, capsys):
    rng = random.Random(60)
    dense = LinearSystem.build(60, [(F2Vector(60, rng.getrandbits(60) or 1), rng.randint(0, 1),
                                     rng.randint(1, 5)) for _ in range(180)])
    inputs = {"merging": MERGING, "triple": TRIPLE, "wide": WIDE, "pair": PAIR, "far": FAR,
              "fourier": RATIONAL_FOURIER, "rational": RATIONAL, "dense": emit_system(dense)}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in inputs}
    cold = [
        ["reduce", path["merging"]],
        ["verify", "--cert", "0", "--k", "2", path["triple"]],
        ["kernel", "--r", "2", "--k", "2", path["wide"]],
        ["kernel", "--r", "2", "--k", "4", path["triple"]],
        ["bound", path["fourier"]],
        ["solve", "--k", "1", path["triple"]],  # the plain marking run
        ["solve", "--k", "1", path["dense"]],  # a marking run that takes blocks
        ["solve", "--k", "2", path["wide"]],  # the marking lower bound
        ["solve", "--k", "1", path["pair"]],  # reduced to no rows: nothing to transform
        ["excess", "--oracle", path["rational"]],  # consistent: answered by elimination
        ["excess", "--oracle", path["triple"]],  # one row past the rank: one flip
    ]
    oracle = ["excess", "--oracle", path["far"]]  # four rows past the rank: the transform
    env = {**os.environ, "PYTHONPATH": str(Path(maxlin.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, json.dumps([*cold, oracle])],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (after_import,), *runs = json.loads(proc.stdout)
    assert not after_import
    assert [loaded for _, _, loaded in runs] == [False] * len(cold) + [True]
    expected = []
    for argv in [*cold, oracle]:
        code = main(argv)
        expected.append([code, capsys.readouterr().out])
    assert [[code, out] for code, out, _ in runs] == expected
    assert runs[-3][:2] == [0, "11/6\n00\n"]
    assert runs[-2][:2] == [0, "2\n00\n"]
    assert runs[-1][:2] == [0, "3\n00\n"]


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        rng = random.Random(81)
        for _ in range(5):
            system = random_system(rng, n_max=9, m_max=15)
            path = tmp_path / "sys"
            path.write_text(emit_system(system))
            k = rng.randint(1, 4)
            outputs = {invoke(["solve", "--k", str(k), str(path)])[1] for _ in range(4)}
            assert len(outputs) == 1
            oracle_outputs = {invoke(["excess", "--oracle", str(path)])[1] for _ in range(3)}
            assert len(oracle_outputs) == 1

    def test_emitted_files_reparse_to_equal_values(self, tmp_path):
        rng = random.Random(82)
        for _ in range(5):
            f = random_fourier(rng)
            assert parse_fourier(emit_fourier(f)) == f
            system = random_system(rng, rational_weights=True)
            assert parse_system(emit_system(system)) == system


class TestArgumentParsing:
    def test_main_runs_verify(self, files, capsys):
        code = main(["verify", "--cert", "0", "--k", "2", files["triple"]])
        assert code == 0
        assert capsys.readouterr().out == "ACCEPT\n"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # --k missing
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--k", "1", "--workers", "2"],
            ["excess", "--oracle", "--workers", "2"],
            ["kernel", "--r", "2", "--k", "2", "--oracle-cap", "5"],
        ],
    )
    def test_options_that_change_nothing_are_usage_errors(self, files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + [files["triple"]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--k", "\u0662"], "invalid int value"),  # Arabic-Indic two
            (["solve", "--k", "2_0"], "invalid int value"),
            (["solve", "--k", "2", "--oracle-cap", "\uff12\uff14"], "invalid int value"),
            (["excess", "--oracle", "--oracle-cap", "2_4"], "invalid int value"),
            (["kset", "--k", "\uff11"], "invalid int value"),
            (["from-cnf", "--r", "\u0663"], "invalid int value"),
            (["kernel", "--r", "2", "--k", "2_0"], "invalid int value"),
            (["verify", "--cert", "0_0", "--k", "2"], "certificate must be"),
            (["verify", "--cert", "1,\u0660", "--k", "2"], "certificate must be"),
            # int() strips whitespace, which no file token can hold
            (["solve", "--k", " 2 "], "invalid int value: ' 2 '"),
            (["solve", "--k", "2", "--oracle-cap", "24\n"], "invalid int value: '24\\n'"),
            (["kset", "--k", "\t1"], "invalid int value"),
            (["kernel", "--r", "2 ", "--k", "2"], "invalid int value"),
            (["verify", "--cert", " 0", "--k", "2"], "certificate must be"),
            (["verify", "--cert", "0, 1", "--k", "2"], "certificate must be"),
        ],
    )
    def test_integer_options_are_ascii_decimal(self, files, capsys, argv, message):
        # the file formats' rule: ASCII digits with an optional sign, and
        # nothing else: no '_' and no whitespace
        with pytest.raises(SystemExit) as exc:
            main(argv + [files["triple"]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2", "+2", "02"])
    def test_integer_options_keep_signs_and_leading_zeros(self, files, capsys, k):
        assert main(["solve", "--k", k, "--oracle-cap", "+024", files["triple"]]) == 0
        assert main(["verify", "--cert", "+0,", "--k", k, files["triple"]]) == 0
        assert capsys.readouterr().out == "YES\n00\n2\nACCEPT\n"

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_shared_parser_prints_what_separate_runs_print(self, files, capsys):
        calls = [
            ["solve", "--k", "2", files["triple"]],
            ["solve"],  # usage error: --k missing
            ["excess", "--oracle", "--output", "machine", files["triple"]],
            ["verify", "--cert", "0,x", "--k", "2", files["triple"]],  # usage error
            ["verify", "--cert", "0", "--k", "2", files["triple"]],
            ["bound", files["tight2"]],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        separate = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "maxlin", *argv], capture_output=True, text=True,
                timeout=60,
            )
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 0, 0]
        assert in_process == separate

    def test_stdin_input(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "maxlin", "solve", "--k", "1"],
            input=PAIR,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "NO\n00\n0\n"
