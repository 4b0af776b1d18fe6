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
