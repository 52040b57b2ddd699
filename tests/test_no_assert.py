"""No correctness check in the library may be an ``assert``.

``python -O`` strips ``assert`` statements, so a check written as one would
silently stop running. Checks in ``src/cycloderiv`` raise explicit
exceptions instead; this scan keeps it that way.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cycloderiv"


def test_library_has_no_assert_statements():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 10, modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
