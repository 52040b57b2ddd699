import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycloderiv import RingForm, SweepReport, render, reproduce_tables, sweep
from cycloderiv import cli
from cycloderiv.cli import build_parser, main
from cycloderiv.harness import _sweep_report, _tables_report
from cycloderiv.reporting import write_text


def _norm(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(value)
    return str(value)


def _markdown_rows(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    rows = []
    for ln in lines[2:]:
        cells = [c.strip() for c in ln.strip("|").split("|")]
        rows.append(dict(zip(header, cells)))
    return rows


def test_sweep_json_schema():
    report = sweep(RingForm.form_pk(3, 2), seed=0)
    payload = json.loads(render(_sweep_report(report), "json"))
    assert payload["ring"] == {"n": "9", "form": "pk", "params": {"p": "3", "k": "2"}}
    assert payload["summary"] == {
        "pairs": "15",
        "matches": "15",
        "seed": "0",
        "version": report.version,
    }
    assert len(payload["pairs"]) == 15
    first = payload["pairs"][0]
    # integers travel as decimal strings; booleans stay booleans
    assert first["u"] == "1" and first["v"] == "2"
    assert isinstance(first["det_abs"], str)
    assert first["match"] is True and first["roundtrip"] is True
    assert first["e2"] is None  # no second multiplicity for prime-power rings


def test_sweep_json_2rp_params_and_e2():
    report = _sweep_report(sweep(RingForm.form_2rp(1, 5), seed=0))
    payload = json.loads(render(report, "json"))
    assert payload["ring"]["params"] == {"r": "1", "p": "5"}
    assert all(p["e2"] is not None for p in payload["pairs"])


def test_sweep_csv_shape():
    report = _sweep_report(sweep(RingForm.form_2rp(1, 5), seed=0))
    lines = render(report, "csv").splitlines()
    assert lines[0] == "u,v,e1,e2,m,det_abs,predicted,match,roundtrip"
    assert len(lines) == 1 + 6


@pytest.mark.parametrize("argv, key", [
    (["sweep", "--form", "2rp", "--r", "1", "--p", "5", "--seed", "3"], "pairs"),
    (["phi-poly", "12"], None),
    (["classify", "10", "1", "3", "--dzeta=-9,4,0,2"], None),
    (["verify-theorem", "10", "1", "3", "--trials", "5"], None),
    (["counterexamples"], "cases"),
], ids=["sweep", "phi-poly", "classify", "verify-theorem", "counterexamples"])
def test_all_formats_encode_the_same_records(capsys, argv, key):
    out = {fmt: _run(capsys, [*argv, "--format", fmt])[1] for fmt in ("json", "csv", "markdown")}
    payload = json.loads(out["json"])
    rows = [payload] if key is None else payload[key]
    json_rows = [{k: _norm(v) for k, v in row.items()} for row in rows]
    csv_rows = [dict(r) for r in csv.DictReader(io.StringIO(out["csv"]))]
    md_rows = _markdown_rows(out["markdown"])
    assert json_rows == csv_rows == md_rows


def test_identical_reports_serialize_to_identical_bytes():
    record = sweep(RingForm.form_pk(3, 2), seed=5)
    for fmt in ("json", "csv", "markdown"):
        assert render(_sweep_report(record), fmt) == render(_sweep_report(record), fmt)


def test_empty_report_serializes():
    report = _sweep_report(SweepReport(form=RingForm.form_2rp(1, 5), records=(), seed=0, version="x"))
    payload = json.loads(render(report, "json"))
    assert payload["pairs"] == []
    assert payload["summary"]["pairs"] == "0"
    assert render(report, "csv").splitlines() == [
        "u,v,e1,e2,m,det_abs,predicted,match,roundtrip"
    ]


def test_tables_render_all_formats():
    artifact = _tables_report(reproduce_tables(10))
    payload = json.loads(render(artifact, "json"))
    assert payload["n"] == "10"
    assert len(payload["blocks"]) == 6
    block = payload["blocks"][0]
    assert block["u"] == "1" and block["v"] == "3"
    assert block["det_abs"] == "5"
    assert len(block["matrix"]) == 4
    assert len(block["solution"]) == 4
    csv_lines = render(artifact, "csv").splitlines()
    assert len(csv_lines) == 1 + 6
    assert "pair (1, 3)" in render(artifact, "markdown")


def test_render_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        render(_sweep_report(sweep(RingForm.form_2rp(1, 5), seed=0)), "yaml")


def test_write_text_reports_path_on_failure(tmp_path):
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(OSError, match=str(target)):
        write_text("{}", target)


# --- command-line surface ---------------------------------------------------


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_phi_poly(capsys):
    code, out, _ = _run(capsys, ["phi-poly", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "-1", "1", "-1", "1"]
    assert payload["degree"] == "4"


def test_cli_phi_poly_rejects_zero(capsys):
    code, _, err = _run(capsys, ["phi-poly", "0"])
    assert code == 2
    assert "error" in err


def test_cli_matrix(capsys):
    code, out, _ = _run(capsys, ["matrix", "10", "1", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["det_abs"] == "5"
    assert payload["predicted"] == "5"
    assert payload["match"] is True
    assert payload["matrix"] == [
        ["0", "-1", "-1", "1"],
        ["-1", "1", "0", "-2"],
        ["0", "-2", "0", "1"],
        ["1", "1", "-1", "-1"],
    ]


def test_cli_matrix_without_prediction(capsys):
    code, out, _ = _run(capsys, ["matrix", "15", "1", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] is None
    assert payload["match"] is None


def test_cli_classify_inner_example(capsys):
    code, out, _ = _run(capsys, ["classify", "10", "1", "3", "--dzeta", "0,-1,0,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "inner"
    assert payload["witness_numerators"] == ["1", "0", "0", "0"]
    assert payload["witness_denominator"] == "1"


def test_cli_classify_outer_example(capsys):
    code, out, _ = _run(capsys, ["classify", "9", "1", "2", "--dzeta", "0,1,0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "outer"
    assert payload["witness_denominator"] == "3"


def test_cli_classify_wrong_coordinate_count(capsys):
    code, _, err = _run(capsys, ["classify", "10", "1", "3", "--dzeta", "0,1"])
    assert code == 2
    assert "exactly 4" in err


@pytest.mark.parametrize("dzeta, line", [
    ("1,x,3,4", "error: --dzeta coordinate c1 is not an integer"),
    ("1,2,,4", "error: --dzeta coordinate c2 is not an integer"),
    ("1,+-5,3,4", "error: --dzeta coordinate c1 is not an integer"),
    ("9" * 5000 + "x,2,3,4", "error: --dzeta coordinate c0 is not an integer"),
    ("1,2,3," + "7" * 5000, "error: --dzeta coordinate c3 has more digits than Python converts"),
], ids=["letter", "empty", "two-signs", "long-non-numeral", "5000-digits"])
def test_cli_names_an_invalid_coordinate_by_position_without_echoing_it(capsys, dzeta, line):
    code, out, err = _run(capsys, ["classify", "10", "1", "3", "--dzeta", dzeta])
    assert (code, out, err.splitlines()) == (2, "", [line])


# one command line per integer argument, with X where the value goes
INTEGER_ARGUMENTS = {
    "n": ["matrix", "X", "1", "3"],
    "u": ["classify", "10", "X", "3", "--dzeta", "0,0,0,1"],
    "v": ["verify-theorem", "10", "1", "X"],
    "--p": ["sweep", "--form", "pk", "--p", "X", "--k", "2"],
    "--r": ["sweep", "--form", "2rp", "--r", "X", "--p", "3"],
    "--k": ["sweep", "--form", "pk", "--p", "3", "--k", "X"],
    "--seed": ["sweep", "--form", "pk", "--p", "3", "--k", "2", "--seed", "X"],
    "--trials": ["verify-theorem", "10", "1", "3", "--trials", "X"],
    "--cap": ["tables", "10", "--cap", "X"],
}


def test_every_integer_argument_has_the_one_converter():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    typed = {
        (action.option_strings or [action.dest])[0]: action.type
        for parser in sub.choices.values()
        for action in parser._actions
        if action.type is not None
    }
    assert set(typed) == set(INTEGER_ARGUMENTS)
    assert set(typed.values()) == {cli._integer}


@pytest.mark.parametrize("value, reason", [
    ("1.5", "is not an integer"),
    ("9" * 5000 + "x", "is not an integer"),
    ("7" * 5000, "has more digits than Python converts"),
    ("+" + "7_7" * 2500, "has more digits than Python converts"),
], ids=["decimal", "long-non-numeral", "5000-digits", "signed-5000-digits-with-underscores"])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_cli_refuses_a_non_integer_argument_without_echoing_it(capsys, name, value, reason):
    with pytest.raises(SystemExit) as exc:
        main([value if a == "X" else a for a in INTEGER_ARGUMENTS[name]])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1].endswith(f"error: argument {name}: the value {reason}")
    assert len(captured.err) < 500


@pytest.mark.parametrize("u, line", [
    ("13", "error: exponent 13 is not a unit modulo 10 in 1..9"),
    ("2", "error: exponent 2 is not a unit modulo 10"),
])
def test_cli_says_why_an_exponent_is_not_a_unit(capsys, u, line):
    code, out, err = _run(capsys, ["matrix", "10", u, "3"])
    assert (code, out, err.splitlines()) == (2, "", [line])


def test_cli_classify_noncoprime_exponent(capsys):
    code, _, err = _run(capsys, ["classify", "10", "2", "3", "--dzeta", "0,0,0,1"])
    assert code == 2
    assert "unit" in err


def test_cli_sweep_pk_3_2(capsys):
    code, out, _ = _run(capsys, ["sweep", "--form", "pk", "--p", "3", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["pairs"] == "15"
    assert payload["summary"]["matches"] == "15"
    assert payload["summary"]["seed"] == "0"


def test_cli_sweep_missing_params(capsys):
    code, _, err = _run(capsys, ["sweep", "--form", "2rp", "--p", "5"])
    assert code == 2
    assert "--r" in err


@pytest.mark.parametrize("argv, message", [
    (["--form", "pk", "--p", "3", "--k", "2", "--r", "1"], "error: form pk does not take r"),
    (["--form", "2rp", "--r", "1", "--p", "5", "--k", "2"], "error: form 2rp does not take k"),
])
def test_cli_sweep_refuses_an_option_the_form_does_not_take(capsys, argv, message):
    code, out, err = _run(capsys, ["sweep", *argv])
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_cli_sweep_missing_params_keep_their_messages(capsys):
    assert _run(capsys, ["sweep", "--form", "2rp", "--p", "5", "--k", "2"])[2].splitlines() == [
        "error: form 2rp requires --r and --p"
    ]
    assert _run(capsys, ["sweep", "--form", "pk", "--k", "2", "--r", "1"])[2].splitlines() == [
        "error: form pk requires --p and --k"
    ]


def test_cli_sweep_csv_row_count(capsys):
    code, out, _ = _run(
        capsys, ["sweep", "--form", "2rp", "--r", "1", "--p", "5", "--format", "csv"]
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 6


def test_cli_emits_identical_bytes_on_repeat(capsys):
    argv = ["sweep", "--form", "2rp", "--r", "1", "--p", "5", "--seed", "9"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_cli_verify_theorem(capsys):
    code, out, _ = _run(
        capsys, ["verify-theorem", "10", "1", "3", "--trials", "20", "--seed", "42"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passes"] == "20"
    assert payload["all_pass"] is True
    assert payload["seed"] == "42"


def test_cli_counterexamples(capsys):
    code, out, _ = _run(capsys, ["counterexamples"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert len(payload["cases"]) == 8


def test_cli_counterexamples_name_the_failing_pair(capsys):
    # first failures of the full d^2 basis-pair scan, computed before the
    # check was cut to two rows and then to the wrap pair (1, d - 1)
    golden = [
        ("(1, 1)", "(0, 0)", "(0, 3)"),
        ("(1, 1)", "(0, 0)", "(0, 4)"),
        ("(1, 2)", "(0, 0, 0)", "(0, 0, 7)"),
        ("(1, 2)", "(0, 0, 0)", "(0, 0, 13)"),
        ("(1, 3)", "(0, 0, 0, 0)", "(0, 0, 0, 15)"),
        ("(1, 3)", "(0, 0, 0, 0)", "(0, 0, 0, 40)"),
        (None, None, None),
        ("(1, 5)", "(0, 0, 0, 0, 0, 0)", "(1, 1, 1, 1, 1, 1)"),
    ]
    _, out, _ = _run(capsys, ["counterexamples"])
    cases = json.loads(out)["cases"]
    assert [(c["failing_pair"], c["lhs"], c["rhs"]) for c in cases] == golden
    _, out, _ = _run(capsys, ["counterexamples", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["failing_pair"], r["lhs"], r["rhs"]) for r in rows] == [
        tuple("" if x is None else x for x in row) for row in golden
    ]


def test_cli_tables(capsys):
    code, out, _ = _run(capsys, ["tables", "10"])
    assert code == 0
    payload = json.loads(out)
    assert [b["det_abs"] for b in payload["blocks"]] == ["5"] * 6


def test_cli_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required --form
    assert exc.value.code == 2


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        ["sweep", "--form", "2rp", "--r", "1", "--p", "5", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["summary"]["pairs"] == "6"


def test_cli_output_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CYCLODERIV_OUTPUT_DIR", str(tmp_path))
    code, _, _ = _run(capsys, ["phi-poly", "10", "--output", "phi.json"])
    assert code == 0
    payload = json.loads((tmp_path / "phi.json").read_text())
    assert payload["coefficients"] == ["1", "-1", "1", "-1", "1"]


def test_cli_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "nope" / "x.json"
    code, _, err = _run(capsys, ["phi-poly", "10", "--output", str(target)])
    assert code == 1
    assert str(target) in err


def test_cli_markdown_and_csv_formats(capsys):
    code, out, _ = _run(capsys, ["phi-poly", "10", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["coefficients"] == "1 -1 1 -1 1"
    code, out, _ = _run(capsys, ["phi-poly", "10", "--format", "markdown"])
    assert code == 0
    assert out.startswith("# Cyclotomic polynomial")


def test_cli_classify_negative_first_coordinate_after_a_space(capsys):
    joined = _run(capsys, ["classify", "10", "1", "3", "--dzeta=-9,4,0,2"])
    spaced = _run(capsys, ["classify", "10", "1", "3", "--dzeta", "-9,4,0,2"])
    assert joined[0] == 0
    assert spaced == joined
    assert json.loads(joined[1])["d_zeta"] == ["-9", "4", "0", "2"]


@pytest.mark.parametrize("argv", [
    ["phi-poly", "11"],
    ["matrix", "11", "1", "2"],
    ["classify", "11", "1", "2", "--dzeta", "1"],
    ["verify-theorem", "11", "1", "2", "--trials", "1"],
    ["sweep", "--form", "pk", "--p", "3", "--k", "3"],
    ["tables", "11"],
])
def test_cli_cap_applies_to_every_ring_command(capsys, argv):
    code, out, err = _run(capsys, [*argv, "--cap", "8"])
    assert code == 2 and out == ""
    assert "exceeds the cap 8" in err
    if argv[0] != "classify":  # its one coordinate is only right for the cap check
        assert _run(capsys, [*argv, "--cap", "18"])[0] == 0


def _run_process(argv):
    """The CLI in a child process with this checkout's ``src`` first on the path; 10 s at most."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cycloderiv.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )


def test_cli_refuses_a_huge_ring_before_building_it():
    proc = _run_process(["matrix", "100003", "1", "2"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: ring degree 100002 exceeds the cap 64; raise the cap to proceed"
    ]


def test_cli_builds_phi_30030_within_the_timeout():
    # Phi_n is built from phi(n) + 2 series coefficients, so degree 5760 takes well under 10 s
    proc = _run_process(["phi-poly", "30030", "--cap", "5760"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["degree"] == "5760"
    assert len(report["coefficients"]) == 5761


HUGE = "1000000000000000003"
# a prime above the Miller-Rabin limit, which only trial division to its
# square root would prove prime; at this cap every ring command refuses an
# n this large as one no list can index, before n or p is factored
ABOVE_MILLER_RABIN = "3317044064679887385962123"
ABOVE_MILLER_RABIN_ARGV = [
    [*argv, "--cap", str(10**30)]
    for argv in (
        ["phi-poly", ABOVE_MILLER_RABIN],
        ["classify", ABOVE_MILLER_RABIN, "1", "2", "--dzeta=1"],
        ["matrix", ABOVE_MILLER_RABIN, "1", "2"],
        ["verify-theorem", ABOVE_MILLER_RABIN, "1", "2"],
        ["tables", ABOVE_MILLER_RABIN],
        ["sweep", "--form", "2rp", "--r", "1", "--p", ABOVE_MILLER_RABIN],
    )
]
OUT_OF_MEMORY = "error: out of memory; a lower --cap refuses a ring this large"


@pytest.mark.parametrize("argv", [
    ["phi-poly", HUGE],
    ["matrix", HUGE, "1", "2"],
    ["classify", HUGE, "1", "2", "--dzeta", "1"],
    ["verify-theorem", HUGE, "1", "2"],
    ["tables", HUGE],
    ["sweep", "--form", "pk", "--p", HUGE, "--k", "2"],
    ["sweep", "--form", "2rp", "--r", "100000", "--p", "3"],
    ["sweep", "--form", "pk", "--p", "3", "--k", "100000"],
    ["sweep", "--form", "2rp", "--r", str(10**12), "--p", "3"],
    # a large cap still bounds the work: phi(n) >= n // n.bit_length(), and
    # phi(n) >= phi(p) for the p of a sweep form, which divides n
    *(
        [command, "--cap", "1000000000", *rest]
        for command, *rest in (
            ["phi-poly", HUGE],
            ["matrix", HUGE, "1", "2"],
            ["classify", HUGE, "1", "2", "--dzeta", "1"],
            ["verify-theorem", HUGE, "1", "2"],
            ["tables", HUGE],
            ["sweep", "--form", "pk", "--p", HUGE, "--k", "2"],
            ["sweep", "--form", "2rp", "--r", "1", "--p", HUGE],
        )
    ),
    # neither bound on phi(p) exceeds this cap, and this p, a prime above the
    # Miller-Rabin limit, is proven prime only by trial division to sqrt(p);
    # n = p^2 is bounded above the cap before p is tested
    ["sweep", "--form", "pk", "--p", ABOVE_MILLER_RABIN, "--k", "2", "--cap", str(10**30)],
    *ABOVE_MILLER_RABIN_ARGV,
], ids=lambda argv: " ".join(argv)[:40])
def test_cli_refuses_an_oversized_input_in_bounded_time(argv):
    proc = _run_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    cap = argv[argv.index("--cap") + 1] if "--cap" in argv else "64"
    (line,) = proc.stderr.splitlines()
    if argv in ABOVE_MILLER_RABIN_ARGV:
        assert line == OUT_OF_MEMORY
        return
    assert line.startswith("error: ring degree ")
    assert line.endswith(f" exceeds the cap {cap}; raise the cap to proceed")


@pytest.mark.parametrize("command", [["phi-poly", HUGE], ["matrix", HUGE, "1", "2"]])
def test_cli_refuses_a_huge_prime_n_at_a_huge_cap_with_its_exact_degree(command):
    # neither bound of check_degree exceeds this cap, so n is factored:
    # Miller-Rabin proves it prime at once, where trial division would run
    # to 10^9
    proc = _run_process([command[0], "--cap", "100000000000000000", *command[1:]])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: ring degree 1000000000000000002 exceeds the cap 100000000000000000; "
        "raise the cap to proceed"
    ]


TWO_TO_100 = str(2**100)


@pytest.mark.parametrize("argv", [
    ["phi-poly", TWO_TO_100],
    ["matrix", TWO_TO_100, "1", "3"],
    ["verify-theorem", TWO_TO_100, "1", "3", "--trials", "1"],
    ["tables", TWO_TO_100],
    ["classify", TWO_TO_100, "1", "3", "--dzeta", "1"],
    ["sweep", "--form", "pk", "--p", "2", "--k", "100"],
    ["sweep", "--form", "2rp", "--r", "99", "--p", "3"],
], ids=lambda argv: " ".join(argv)[:40])
def test_cli_refuses_a_degree_no_list_can_index_with_one_line(argv):
    # n = 2^100 factors at once and phi(n) = 2^99 passes this cap, but no
    # list of phi(n) + 2 coefficients can be built: the command exits 2 with
    # one error line, not a traceback
    proc = _run_process([*argv, "--cap", str(10**30)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["--form", "pk", "--p", "1", "--k", "100000"], "form pk requires a prime p, got 1"),
    (["--form", "2rp", "--r", "0", "--p", HUGE], "form 2rp requires r >= 1"),
])
def test_cli_sweep_size_bound_leaves_invalid_forms_to_their_own_error(capsys, argv, message):
    # n = p^k or 2^r p is no bound on phi(n) when p < 2 or the exponent is below 1
    assert _run(capsys, ["sweep", *argv]) == (2, "", f"error: {message}\n")
