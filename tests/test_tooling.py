"""Source-level rules for the library itself."""
import ast
from pathlib import Path

import maxlin


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


def test_every_command_config_field_is_read():
    # a field that only main() fills in is a flag that changes nothing
    tree = ast.parse((Path(maxlin.__file__).parent / "cli.py").read_text())
    config_class = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CommandConfig"
    )
    fields = {
        node.target.id for node in config_class.body if isinstance(node, ast.AnnAssign)
    }
    read = {
        node.attr
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == "main")
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    }
    assert sorted(fields - read) == []


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
