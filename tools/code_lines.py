"""Count the code lines of Python modules.

A code line holds a token other than a comment, and is not part of a
docstring (the first statement of a module, class or function when it is a
string literal, found with ``ast``). Blank lines, comment lines and docstring
lines do not count; a string literal that is not a docstring does, on every
line it spans, as does each line of a bracketed continuation.

``python tools/code_lines.py [PATH...]`` prints each module's count and the
total; a PATH is a ``.py`` file or a directory searched for them, and the
default is ``src/cycloderiv``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(argv: list[str]) -> int:
    total = 0
    for module in _modules([Path(a) for a in argv or ["src/cycloderiv"]]):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,} {module}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
