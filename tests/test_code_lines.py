"""The code-line counter in ``tools/code_lines.py``, on a small fixture."""

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
