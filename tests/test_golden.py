"""Frozen command-line output.

``golden/cases.json`` maps each case name to its argv and exit code, and
``golden/<name>.out`` and ``golden/<name>.err`` hold the exact stdout and
stderr bytes; the directory holds no other file. The files were written before the renderer was rewritten, so a
changed byte is a changed output, not a changed layout. The ``version`` and
``help*`` cases pin the parser itself: ``--version``, the top-level
``--help`` and each subcommand's ``--help``, whose text carries every
argument, default, choice and metavar in order. They print before any
command runs, so they are not report cases. Help is formatted at a fixed
width of 80 columns, and the top-level usage is fixed text, so the help
bytes are the same on every supported Python (3.13's argparse would keep
``...`` on the 92-column choices line). ``contract.py`` replays these
cases, and the closed-stream runs, on any Python without pytest.

``python tests/test_golden.py NAME...`` runs the named cases of
``cases.json`` against the CLI on ``sys.path`` and writes their files and
exit codes; run it only to add a case or to record a deliberate change.
"""

import ast
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import contract
from cycloderiv.cli import _join_negative_values, _parse, build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "cases.json"
CASES = json.loads(MANIFEST.read_text(encoding="utf-8"))
PARSER_FLAGS = {"--help", "--version"}
REPORTS = [
    name for name, case in CASES.items()
    if case["exit"] == 0 and not PARSER_FLAGS.intersection(case["argv"])
]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _golden(name, stream):
    return (GOLDEN / f"{name}.{stream}").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_bytes(name):
    code, out, err = run_cli(CASES[name]["argv"])
    assert code == CASES[name]["exit"]
    assert out.encode("utf-8") == _golden(name, "out")
    assert err.encode("utf-8") == _golden(name, "err")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_keeps_the_exit_contract(name):
    # exit 0 writes nothing to stderr; exit 2 writes nothing to stdout and
    # ends stderr with an error line, never a traceback; no other exit code
    out, err = _golden(name, "out"), _golden(name, "err").decode("utf-8")
    assert CASES[name]["exit"] in (0, 2)
    if CASES[name]["exit"] == 0:
        assert err == ""
    else:
        assert out == b""
        assert "error: " in err.splitlines()[-1]
        assert "Traceback" not in err


def test_every_report_case_is_parsed_without_argparse_as_argparse_parses_it():
    # each report's argv is well formed, so main reads it from the command
    # table and builds no argparse parser
    for name in REPORTS:
        argv = _join_negative_values(CASES[name]["argv"])
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), name


def _format_of(argv):
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "json"


def test_every_subcommand_and_format_has_a_golden_case():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    expected = set()
    for command, parser in sub.choices.items():
        fmt = next(a for a in parser._actions if a.dest == "format")
        expected.update((command, f) for f in fmt.choices)
    covered = {
        (case["argv"][0], _format_of(case["argv"]))
        for case in map(CASES.get, REPORTS)
    }
    assert expected - covered == set()


def test_golden_holds_the_manifest_and_two_files_per_case():
    expected = {MANIFEST.name}
    expected.update(f"{name}.{stream}" for name in CASES for stream in ("out", "err"))
    assert {path.name for path in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("name", REPORTS)
def test_output_file_holds_the_golden_stdout(name, tmp_path):
    target = tmp_path / "report"
    code, out, err = run_cli([*CASES[name]["argv"], "--output", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == _golden(name, "out")


def test_the_process_contract_replay_imports_the_standard_library_alone():
    # CI runs contract.py on the installed script, with neither pytest nor
    # the package importable from the directory it runs in
    tree = ast.parse((Path(__file__).resolve().parent / "contract.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and {name.partition(".")[0] for name in modules} <= sys.stdlib_module_names


@pytest.mark.slow
def test_the_process_contract_replay_passes_on_this_checkout(monkeypatch, capsys):
    # what CI runs on the installed script: every golden case in a child
    # process, then every closed-stdout and closed-stderr run
    monkeypatch.setenv("PYTHONPATH", contract.env_with_src()["PYTHONPATH"])
    assert contract.main([sys.executable, *contract.CLI]) == 0, capsys.readouterr().out


def _write(names):
    for name in names:
        code, out, err = run_cli(CASES[name]["argv"])
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{name}.err").write_bytes(err.encode("utf-8"))
        CASES[name]["exit"] = code
    MANIFEST.write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(sys.argv[1:])
