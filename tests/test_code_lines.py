"""The code-line counter in ``tools/code_lines.py``, on a small fixture and on one command,
and its list of the package functions that no golden case reaches."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# the comment at the right marks each line the counter must count
FIXTURE = '''\
"""Module docstring,
on two lines."""

import sys  # code


class Record:  # code
    """Class docstring."""

    size = 1  # code


def check(text):  # code
    """Function docstring.

    With a second paragraph.
    """
    # a comment line, then a blank one

    if not text:  # code
        raise ValueError(  # code
            "a string argument on its own line"  # code
        )  # code
    note = """a string that is not a docstring,
    on two lines"""  # code and the line above
    return (text,  # code
            note)  # code
'''


def test_counts_code_lines_but_not_comments_blanks_or_docstrings():
    assert code_lines.code_lines(FIXTURE) == 12


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    12 {tmp_path / 'a.py'}",
        f"     1 {tmp_path / 'b.py'}",
        "    13 total",
    ]


def test_commands_prints_what_verify_theorem_loads_and_its_code_lines(tmp_path, capsys):
    # the subcommand's golden case runs through cli.main under -X importtime;
    # verify-theorem loads the ring stack and the renderer, no batch driver
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    cases = code_lines.command_cases()
    assert list(cases) == [
        "phi-poly", "matrix", "classify", "sweep", "verify-theorem", "tables", "counterexamples",
    ]
    # the case verify-theorem_10_1_3_json
    assert cases["verify-theorem"] == ["verify-theorem", "10", "1", "3", "--trials", "20", "--seed", "42"]
    assert code_lines.main(["--commands", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"     1 {tmp_path / 'b.py'}", "     1 total"]
    (line,) = [line for line in lines if line.split()[1:2] == ["verify-theorem:"]]
    count, _, modules = line.split(maxsplit=2)
    modules = modules.split()
    assert modules == [
        "cycloderiv", "cycloderiv.arith", "cycloderiv.cli", "cycloderiv.polynomials",
        "cycloderiv.quotient", "cycloderiv.endomorphisms", "cycloderiv.reporting",
    ]
    package = TOOL.parents[1] / "src" / "cycloderiv"
    files = ["__init__", *(m.partition(".")[2] for m in modules[1:])]
    expected = sum(code_lines.code_lines((package / f"{f}.py").read_text(encoding="utf-8")) for f in files)
    assert int(count.replace(",", "")) == expected


_RING_API = "ring API that the tests state identities in"
_INTLINALG = "intlinalg library routine that no command calls (ROADMAP item 2)"
# every package function that no golden case enters, with the reason it stays
UNREACHED = {
    "cycloderiv.__getattr__": "resolves cycloderiv.<name> for library callers; the CLI imports modules",
    "cycloderiv.__dir__": "lists the names __getattr__ resolves",
    "cycloderiv.cli.run": (
        "the process entry point (python -m, the console script); it ends the "
        "process, so this in-process pass calls cli.main"
    ),
    "cycloderiv.endomorphisms.Endomorphism.__call__": _RING_API,
    "cycloderiv.endomorphisms.sum_powers": "perfbench/tracer.py wraps it (ROADMAP items 1 and 6)",
    "cycloderiv.endomorphisms.telescope_check": "the per-pair theorem check of ROADMAP item 12",
    "cycloderiv.harness.SweepReport.n": "perfbench/tracer.py reads it (ROADMAP items 1 and 6)",
    "cycloderiv.intlinalg.IntMatrix.from_rows": _INTLINALG,
    "cycloderiv.intlinalg.IntMatrix.identity": _INTLINALG,
    "cycloderiv.intlinalg.IntMatrix.at": _INTLINALG,
    "cycloderiv.intlinalg.IntMatrix.column": _INTLINALG,
    "cycloderiv.intlinalg.IntMatrix.row_list": _INTLINALG,
    "cycloderiv.intlinalg._Echelon.full_rank": _INTLINALG,
    "cycloderiv.intlinalg._Echelon.last_pivot": _INTLINALG,
    "cycloderiv.intlinalg._eliminate": _INTLINALG,
    "cycloderiv.intlinalg._back_substitute": _INTLINALG,
    "cycloderiv.intlinalg.det": _INTLINALG,
    "cycloderiv.intlinalg.adjugate": _INTLINALG,
    "cycloderiv.intlinalg.adjugate.<locals>.shifted": _INTLINALG,
    "cycloderiv.intlinalg.mat_vec": _INTLINALG,
    "cycloderiv.intlinalg.solve_unique": _INTLINALG,
    "cycloderiv.polynomials.Polynomial.degree": "the degree with its -inf sentinel for the zero polynomial",
    "cycloderiv.quotient.QuotientRing.zero": _RING_API,
    "cycloderiv.quotient.CyclotomicRing.zeta": _RING_API,
    "cycloderiv.quotient.RingElement.__rsub__": _RING_API,
    "cycloderiv.quotient.RingElement.__neg__": _RING_API,
    "cycloderiv.quotient.RingElement.__pow__": _RING_API,
}


@pytest.fixture(scope="module")
def unreached_run(tmp_path_factory):
    """The tool's ``--unreached`` output on a one-line module, from a fresh interpreter."""
    module = tmp_path_factory.mktemp("unreached") / "b.py"
    module.write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--unreached", str(module)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return module, proc.stdout.splitlines()


def test_unreached_prints_each_package_function_after_the_counts(unreached_run):
    module, lines = unreached_run
    assert lines[:2] == [f"     1 {module}", "     1 total"]
    assert all(line.startswith("unreached: cycloderiv.") for line in lines[2:])
    names = [line.removeprefix("unreached: ") for line in lines[2:]]
    assert len(names) == len(set(names))
    # each name is a package module and a qualname defined in it, module by module
    files = [p.stem for p in sorted(code_lines.PACKAGE.glob("*.py"))]
    homes = []
    for name in names:
        _, first, *rest = name.split(".")
        home, qualname = (first, rest) if first in files else ("__init__", [first, *rest])
        homes.append(files.index(home))
        target = importlib.import_module("cycloderiv" if home == "__init__" else f"cycloderiv.{home}")
        for part in qualname[:qualname.index("<locals>")] if "<locals>" in qualname else qualname:
            target = vars(target)[part]
    assert homes == sorted(homes)
    # the pass refuses to run once the package is imported, as it is here
    with pytest.raises(RuntimeError, match="fresh interpreter"):
        code_lines.unreached()


def test_unreached_is_exactly_the_allowlist(unreached_run):
    # a new function that no golden case reaches fails here, and so does an
    # allowlist entry that a case now reaches or that names no function
    _, lines = unreached_run
    assert {line.removeprefix("unreached: ") for line in lines[2:]} == set(UNREACHED)
