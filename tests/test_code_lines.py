"""The code-line counter in ``tools/code_lines.py``, on a small fixture and on one command."""

import importlib.util
from pathlib import Path

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
