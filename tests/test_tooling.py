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
