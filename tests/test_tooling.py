"""Source-level rules for the library itself, the README's example, and the
pytest settings."""
import argparse
import ast
import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import maxlin
import maxlin.cli
import maxlin.formats


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so library checks must raise MaxlinError
    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_cli_option_is_read():
    # an option whose value no handler reads is a flag that changes nothing;
    # `excess --oracle` is the one exception, a required marker that scripts
    # pass to name the exhaustive search
    parser = maxlin.cli._build_parser()
    subparsers = next(action for action in parser._actions if isinstance(action.choices, dict))
    dests = {
        action.dest
        for each in [parser, *subparsers.choices.values()]
        for action in each._actions
        if action.default is not argparse.SUPPRESS  # --help stores nothing
    }
    tree = ast.parse((Path(maxlin.__file__).parent / "cli.py").read_text())
    read = {
        node.attr
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == "_build_parser")
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    assert sorted(dests - read) == ["oracle"]


def test_every_exported_name_is_defined_in_its_module():
    # a deleted name must not linger in an export list
    package = Path(maxlin.__file__).parent
    undefined = []
    for path in sorted(package.glob("*.py")):
        defined, exported = set(), []
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                defined |= names
        undefined += [f"{path.stem}.{name}" for name in exported if name not in defined]
    assert undefined == []


def test_every_exported_function_has_a_src_caller():
    # an exported name that only tests call is surface to delete; these are
    # the paper's SAT and Fourier entry points, which nothing in the package
    # calls: the SAT decision, the system-to-expansion direction of the
    # bijection, and the value of an expansion at a point
    entry_points = {"decide_sat_aa", "system_to_fourier", "eval_fourier"}
    package = Path(maxlin.__file__).parent
    exported, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported += [(path.stem, name) for name in ast.literal_eval(node.value)]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    uncalled = [
        f"{module}.{name}" for module, name in exported
        if name not in referenced and name not in entry_points
    ]
    assert uncalled == []


def test_every_file_format_has_a_command():
    # a parser that no command calls is a file format only the library reads
    cli = Path(maxlin.cli.__file__)
    called = {
        node.func.id
        for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    parsers = [name for name in maxlin.formats.__all__
               if name.startswith("parse_") and name != "parse_rational"]
    assert parsers and [name for name in parsers if name not in called] == []


# the members the README lists as only for callers
BOUNDARY = {"F2Vector.support", "LinearSystem.build", "LinearSystem.equations",
            "FourierExpansion.terms"}


def unread_public_names(name_of):
    """``Class.name`` for each item of a public class's body that
    ``name_of`` names (it returns None for other items), unless the package
    reads it as an attribute outside ``__init__.py`` or it is on the
    boundary list.  Only attribute nodes count, so a local variable named
    like a member is no reader."""
    package = Path(maxlin.__file__).parent
    members, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        members += [
            (node.name, name)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if (name := name_of(item)) and not name.startswith("_")
        ]
        if path.name != "__init__.py":
            read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [
        f"{cls}.{name}" for cls, name in members
        if name not in read and f"{cls}.{name}" not in BOUNDARY
    ]


def test_every_public_member_has_a_src_reader():
    # the member-level twin of the check above: a public method or property
    # of a public class is read somewhere in the package, or is one of the
    # few the README lists as only for callers
    assert unread_public_names(
        lambda item: item.name if isinstance(item, ast.FunctionDef) else None
    ) == []
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in sorted(BOUNDARY) if f"`{name}`" not in readme] == []


def test_every_public_field_has_a_src_reader():
    # the field-level twin: an annotated field of a public class that the
    # package only fills in is a second copy of a value nothing reads
    assert unread_public_names(
        lambda item: item.target.id
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) else None
    ) == []


def test_library_has_no_mutable_default_arguments():
    # a mutable default is shared by every call; a read-only mapping or None
    # is safe
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{default.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in [*node.args.defaults, *node.args.kw_defaults]
        if isinstance(default, mutable)
        or isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in ("dict", "list", "set")
    ]
    assert found == []


def test_only_f2core_reads_equations():
    # the algorithms read LinearSystem.rows; Equation objects are for callers
    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "f2core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "equations"
    ]
    assert found == []


def test_only_f2core_builders_skip_the_row_checks():
    # a row is checked once, where it enters: an Equation or F2Vector made
    # through __new__, without its constructor's checks, comes only from
    # f2core's private builders of rows the library derived
    checked = {"Equation", "F2Vector", "Assignment"}

    def unchecked(node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr != "__new__":
            return False
        target = node.func.value
        if isinstance(target, ast.Name) and target.id == "object" and node.args:
            target = node.args[0]
        return isinstance(target, ast.Name) and target.id in checked

    package = Path(maxlin.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        builders = {
            node for node in tree.body
            if path.name == "f2core.py" and isinstance(node, ast.FunctionDef)
            and node.name.startswith("_")
        }
        allowed = {id(call) for node in builders for call in ast.walk(node)}
        found += [
            f"{path.relative_to(package)}:{node.lineno}"
            for node in ast.walk(tree)
            if unchecked(node) and id(node) not in allowed
        ]
    assert found == []
    # and the builder is there to be found
    source = (package / "f2core.py").read_text()
    assert "Equation.__new__(Equation)" in source and "F2Vector.__new__(F2Vector)" in source


def test_only_f2core_scales_weights():
    # the lcm of the weights' denominators is taken in one place,
    # f2core._scaled, which every caller that sums weights as ints shares
    package = Path(maxlin.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scaled = [
            node for node in tree.body
            if path.name == "f2core.py" and isinstance(node, ast.FunctionDef)
            and node.name == "_scaled"
        ]
        allowed = {id(node) for function in scaled for node in ast.walk(function)}
        found += [
            f"{path.relative_to(package)}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed and (
                isinstance(node, ast.Attribute) and node.attr == "lcm"
                or isinstance(node, ast.alias) and node.name == "lcm"
            )
        ]
    assert found == []
    # and the one place is there to be found
    assert "math.lcm(" in (package / "f2core.py").read_text()


def test_only_fourier_reads_terms():
    # the library reads FourierExpansion.masks; the frozenset-keyed terms
    # view is for callers
    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "fourier.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert found == []


def test_only_the_emitter_reads_the_deleted_columns():
    # a reduction's transcript lists every deleted column, O(n) entries for
    # a declared n, only when deleted_variables is read; outside the
    # transcript itself, only the reduce command's emitter may read it, so
    # solve, kernel and bound cost what the used columns cost
    allowed = {("formats.py", "emit_transcript_comments"), ("reduce.py", "ReductionTranscript")}
    package = Path(maxlin.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(inner)
            for node in tree.body
            if (path.name, getattr(node, "name", None)) in allowed
            for inner in ast.walk(node)
        }
        found += [
            f"{path.relative_to(package)}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in exempt and (
                isinstance(node, ast.Attribute) and node.attr == "deleted_variables"
                or isinstance(node, ast.Constant) and node.value == "deleted_variables"
            )
        ]
    assert found == []


def test_every_dimension_goes_through_the_one_check():
    # a class with a dimension field checks it with f2core._check_dimension
    # in one of its methods, and no other module defines that check
    dimensions = {"n", "original_n", "reduced_n"}
    package = Path(maxlin.__file__).parent
    unchecked, redefined = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_check_dimension":
                if path.name != "f2core.py":
                    redefined.append(f"{path.relative_to(package)}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            called = {
                call.func.id
                for method in node.body if isinstance(method, ast.FunctionDef)
                for call in ast.walk(method)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            }
            if fields & dimensions and "_check_dimension" not in called:
                unchecked.append(f"{path.relative_to(package)}:{node.name}")
    assert unchecked == [] and redefined == []


def test_formats_reads_index_lists_through_one_helper():
    # parse_system and parse_fourier share one index-list path: only
    # _index_values names the memo class and the token-by-token error walk
    tree = ast.parse((Path(maxlin.__file__).parent / "formats.py").read_text())
    for name in ("_IndexMemo", "_raise_index_error"):
        users = [
            top.name if isinstance(top, ast.FunctionDef) else f"line {top.lineno}"
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name
        ]
        assert users == ["_index_values"], name


def test_no_module_imports_numpy_at_import_time():
    # numpy is most of a cold start, and only the oracle needs it, so only
    # function bodies (and `if TYPE_CHECKING:` blocks) may import it
    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"

    def run_at_import(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                yield from run_at_import(node.orelse)
                continue
            yield node
            yield from run_at_import(ast.iter_child_nodes(node))

    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in run_at_import(ast.parse(path.read_text(), filename=str(path)).body)
        if imports_numpy(node)
    ]
    assert found == []


def test_library_names_no_floating_dtype():
    # all arithmetic stays exact: no float or complex numpy type, whether
    # named, spelled as a builtin or as a string, and no
    # np.bincount(weights=), which always sums in float64
    def inexact(node):
        if isinstance(node, ast.Name):
            return node.id in ("float", "complex")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return np.dtype(node.value).kind in "fc"
            except TypeError:
                return False
        return False

    def floating(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            named = getattr(np, node.attr, None) if node.value.id in ("np", "numpy") else None
            return isinstance(named, type) and issubclass(named, np.inexact)
        if not isinstance(node, ast.Call):
            return False
        method = node.func.attr if isinstance(node.func, ast.Attribute) else None
        return (
            any(kw.arg == "dtype" and inexact(kw.value) for kw in node.keywords)
            or method in ("astype", "dtype") and any(map(inexact, node.args))
            or method == "bincount" and any(kw.arg == "weights" for kw in node.keywords)
        )

    package = Path(maxlin.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if floating(node)
    ]
    assert found == []


def test_readme_quick_start_runs_and_prints_its_comment():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "True 00 2\n"
    assert "# True 00 2" in code


TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    # under filterwarnings = ["error"], a warning raised while Hypothesis
    # reports a failure would abort the session and skip every later test
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(pyproject.read_text())
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
