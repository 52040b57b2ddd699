"""Count the code lines of Python modules.

A code line holds a token other than a comment, and is not part of a
docstring (the first statement of a module, class or function when it is a
string literal, found with ``ast``). Blank lines, comment lines and docstring
lines do not count; a string literal that is not a docstring does, on every
line it spans, as does each line of a bracketed continuation.

``python tools/code_lines.py [--commands] [--unreached] [PATH...]`` prints
each module's count and the total; a PATH is a ``.py`` file or a directory
searched for them, and the default is ``src/cycloderiv``. With
``--commands`` it then prints, for each subcommand, the package modules that
its first ``<command>_..._json`` golden case loads, and their code-line
total: what a run of that command compiles when no bytecode cache is
written. ``run_traced`` finds them with ``python -X importtime``; it is
the one reader of that output, and ``tests/test_records.py`` uses it for
its table of each command's modules. With ``--unreached`` it then
runs every golden case through ``cli.main`` in this process under
``sys.setprofile`` and prints ``unreached: module.qualname`` for each
function of the package that none of them entered, value-semantics dunders
(``_VALUE_DUNDERS``) aside. ``tests/test_code_lines.py`` holds that list to
an allowlist that gives each name's reason.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycloderiv"
CASES = ROOT / "tests" / "golden" / "cases.json"
# one CLI run through cli.main, which loads what the console script's cli.run loads
RUN_CLI = "import sys; from cycloderiv.cli import main; sys.exit(main(sys.argv[1:]))"
_IMPORT_LINE = "import time:"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# compared, hashed or printed by value; a class keeps them whether or not a command does
_VALUE_DUNDERS = {"__bool__", "__eq__", "__hash__", "__repr__", "__str__"}


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


def run_traced(*args: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    """``python -X importtime ARGS``, finished, and the modules it imported, in import order.

    The package is first on the path and help is 80 columns wide. The
    process's stderr is text with the import lines taken out.
    """
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"), capture_output=True, text=True, timeout=60,
    )
    lines = proc.stderr.splitlines(keepends=True)
    proc.stderr = "".join(line for line in lines if not line.startswith(_IMPORT_LINE))
    # the first import line is the header
    return proc, [line.rpartition("|")[2].strip() for line in lines if line.startswith(_IMPORT_LINE)][1:]


def loaded_modules(argv: list[str]) -> list[str]:
    """The package modules one CLI run of ``argv`` imports, in import order."""
    proc, modules = run_traced("-c", RUN_CLI, *argv)
    proc.check_returncode()
    return [m for m in modules if m == "cycloderiv" or m.startswith("cycloderiv.")]


def _source(module: str) -> Path:
    _, _, name = module.partition(".")
    return PACKAGE / f"{name or '__init__'}.py"


def _module_name(path: Path) -> str:
    return "cycloderiv" if path.stem == "__init__" else f"cycloderiv.{path.stem}"


def defined_functions() -> dict[tuple[str, int], str]:
    """``module.qualname`` of each function of the package, keyed as its code object.

    The key is the file and the first line of the ``def`` or of its first
    decorator, which is the code object's ``co_firstlineno``.
    """
    out: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[file, first] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in _modules([PACKAGE]):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), f"{_module_name(path)}.")
    return out


def unreached() -> list[str]:
    """The package functions that no golden case enters, in source order.

    Every case runs through ``cli.main`` with its output discarded, under a
    profiler that records each code object entered. The package must not be
    imported yet: a cache that an earlier call filled would hide the calls
    that fill it.
    """
    if "cycloderiv" in sys.modules:
        raise RuntimeError("run the pass in a fresh interpreter, before cycloderiv is imported")
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["COLUMNS"] = "80"
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cases = json.loads(CASES.read_text(encoding="utf-8"))
    sys.setprofile(profile)
    try:
        from cycloderiv.cli import main as run_cli

        for case in cases.values():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                run_cli(case["argv"])
    finally:
        sys.setprofile(None)
    return [
        name for key, name in defined_functions().items()
        if key not in entered and name.rpartition(".")[2] not in _VALUE_DUNDERS
    ]


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv if a not in ("--commands", "--unreached")]
    total = 0
    for module in _modules(paths or [Path("src/cycloderiv")]):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,} {module}")
    print(f"{total:6,} total")
    if "--commands" in argv:
        for command, case in command_cases().items():
            modules = loaded_modules(case)
            count = sum(code_lines(_source(m).read_text(encoding="utf-8")) for m in modules)
            print(f"{count:6,} {command}: {' '.join(modules)}")
    if "--unreached" in argv:
        for name in unreached():
            print(f"unreached: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
