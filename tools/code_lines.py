"""Count the code lines of Python modules.

A code line holds a token other than a comment, and is not part of a
docstring (the first statement of a module, class or function when it is a
string literal, found with ``ast``). Blank lines, comment lines and docstring
lines do not count; a string literal that is not a docstring does, on every
line it spans, as does each line of a bracketed continuation.

``python tools/code_lines.py [--commands] [PATH...]`` prints each module's
count and the total; a PATH is a ``.py`` file or a directory searched for
them, and the default is ``src/cycloderiv``. With ``--commands`` it then
prints, for each subcommand, the package modules that its first
``<command>_..._json`` golden case loads, found with ``python -X
importtime``, and their code-line total: what a run of that command
compiles when no bytecode cache is written.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycloderiv"
CASES = ROOT / "tests" / "golden" / "cases.json"
# one CLI run through cli.main, as the console script runs it
_RUN_CLI = "import sys; from cycloderiv.cli import main; sys.exit(main(sys.argv[1:]))"

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


def command_cases() -> dict[str, list[str]]:
    """Each subcommand's argv: its first ``<command>_..._json`` golden case."""
    out: dict[str, list[str]] = {}
    for name, case in json.loads(CASES.read_text(encoding="utf-8")).items():
        command = case["argv"][0]
        if name.startswith(f"{command}_") and name.endswith("_json") and case["exit"] == 0:
            out.setdefault(command, case["argv"])
    return out


def loaded_modules(argv: list[str]) -> list[str]:
    """The package modules one CLI run of ``argv`` imports, in import order."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _RUN_CLI, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    names = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return [m for m in names if m == "cycloderiv" or m.startswith("cycloderiv.")]


def _source(module: str) -> Path:
    _, _, name = module.partition(".")
    return PACKAGE / f"{name or '__init__'}.py"


def main(argv: list[str]) -> int:
    commands = "--commands" in argv
    argv = [a for a in argv if a != "--commands"]
    total = 0
    for module in _modules([Path(a) for a in argv or ["src/cycloderiv"]]):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,} {module}")
    print(f"{total:6,} total")
    if commands:
        for command, case in command_cases().items():
            modules = loaded_modules(case)
            count = sum(code_lines(_source(m).read_text(encoding="utf-8")) for m in modules)
            print(f"{count:6,} {command}: {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
