"""The library's records: immutable values, validated where they validate.

Every record type is a ``typing.NamedTuple``. The three that check their
input (``IntMatrix``, ``RatVector``, ``RingForm``) are a fields tuple plus a
subclass whose ``__new__`` runs the checks. ``_make`` and ``_replace`` build
a tuple without calling that ``__new__``, so the library must not use them.
The CLI's import stays free of ``dataclasses`` and the introspection modules
it pulls in, which would otherwise dominate the start-up of every command.
A report run loads no ``argparse`` either, which only help, the version and
a refusal need. ``COMMAND_MODULES`` is the one table of what each command
loads: the exact package modules of its first JSON golden case, and never
``csv``. One pass of each benchmark workload loads each module the
benchmark's tracer wraps. Every ``-X importtime`` run goes through
``tools/code_lines.py``'s reader, ``run_traced``.
"""

import ast

import pytest

import cycloderiv.endomorphisms as endomorphisms
import cycloderiv.harness as harness
import cycloderiv.innerness as innerness
from cycloderiv import (
    Classification,
    CounterexampleCase,
    CyclotomicRing,
    IntMatrix,
    LeibnizReport,
    PairRecord,
    RatVector,
    RingForm,
    SweepReport,
    TableArtifact,
    TableBlock,
    TheoremVerdict,
    TwistedDerivation,
    TwistedPair,
    Valuation,
    classify,
)
from cycloderiv.intlinalg import _Echelon
from contract import CLI
from test_benchmark_names import load_tracer
from test_code_lines import code_lines
from test_golden import CASES, GOLDEN

SRC = code_lines.PACKAGE.parent
PERFBENCH = SRC.parent / "perfbench"
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# what start-up loads of the package: cli, with its table parser, and the
# argument rules; `-m` runs cli as __main__. argparse is not among them: it
# and the gettext it imports load only to print help, the version or a refusal
STARTUP = {"cycloderiv", "cycloderiv.arith", "cycloderiv.cli"}
ARGPARSE = {"argparse", "gettext"}
FORMATS = {"json", "csv"}
RING_STACK = {"polynomials", "quotient", "endomorphisms"}
EVERY_MODULE = RING_STACK | {"innerness", "intlinalg", "predictions", "reporting", "harness"}
# the package modules beyond STARTUP that each command's first JSON golden
# case loads through cli.main, as `tools/code_lines.py --commands` prints them
COMMAND_MODULES = {
    "phi-poly": {"polynomials", "reporting"},
    # the printed matrix (intlinalg) and the predictions, no batch drivers
    "matrix": RING_STACK | {"innerness", "intlinalg", "predictions", "reporting"},
    # no elimination, family predictions or batch drivers
    "classify": RING_STACK | {"innerness", "reporting"},
    "sweep": EVERY_MODULE,
    # verify_theorem sits beside leibniz_check: no classification either
    "verify-theorem": RING_STACK | {"reporting"},
    "tables": EVERY_MODULE,
    "counterexamples": EVERY_MODULE,
}
COMMAND_CASES = code_lines.command_cases()


def _library(modules):
    return {m for m in modules if m == "cycloderiv" or m.startswith("cycloderiv.")}


def test_cli_import_loads_no_dataclasses_or_introspection_modules():
    proc, modules = code_lines.run_traced("-c", "import cycloderiv.cli")
    assert proc.returncode == 0
    assert HEAVY_MODULES.isdisjoint(modules)
    assert _library(modules) == STARTUP
    assert FORMATS.isdisjoint(modules)


def test_version_and_a_refused_degree_load_only_the_parser_and_the_check():
    for argv, expected_code in (
        (["--version"], 0),
        (["classify", "1000000000000000003", "1", "2", "--dzeta", "1"], 2),
        (["matrix", "10", "13", "3"], 2),
        (["classify", "10", "2", "3", "--dzeta", "0,0,0,1"], 2),
        (["classify", "1", "0", "0", "--dzeta", "1"], 2),
        (["verify-theorem", "10", "1", "3", "--trials", "0"], 2),
        (["verify-theorem", "10", "1", "3", "--trials", "9" * 4300], 2),
    ):
        proc, modules = code_lines.run_traced(*CLI, *argv)
        assert proc.returncode == expected_code, argv
        assert _library(modules) <= STARTUP, argv
        assert FORMATS.isdisjoint(modules), argv


@pytest.mark.parametrize("command", list(COMMAND_CASES))
def test_each_command_loads_exactly_its_modules_and_no_csv(command):
    assert COMMAND_MODULES.keys() == COMMAND_CASES.keys()
    proc, modules = code_lines.run_traced("-c", code_lines.RUN_CLI, *COMMAND_CASES[command])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _library(modules) == STARTUP | {f"cycloderiv.{name}" for name in COMMAND_MODULES[command]}
    assert "csv" not in modules


def test_json_classify_loads_neither_the_batch_drivers_nor_csv():
    proc, modules = code_lines.run_traced(*CLI, "classify", "10", "1", "3", "--dzeta", "1,2,3,4")
    assert proc.returncode == 0
    assert "cycloderiv.innerness" in modules
    assert {"cycloderiv.harness", "csv"}.isdisjoint(modules)


def test_json_classify_loads_exactly_the_ring_stack_innerness_and_the_renderer():
    # the classify row of COMMAND_MODULES, on a larger ring than its golden case
    dzeta = ",".join(["1"] * 42)
    proc, modules = code_lines.run_traced("-c", code_lines.RUN_CLI, "classify", "49", "13", "3", f"--dzeta={dzeta}")
    assert proc.returncode == 0
    assert _library(modules) == STARTUP | {f"cycloderiv.{name}" for name in COMMAND_MODULES["classify"]}


def _golden_stdout(argv):
    (name,) = [name for name, case in CASES.items() if case["argv"] == argv]
    return (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, out", [(argv, _golden_stdout(argv)) for argv in COMMAND_CASES.values()], ids=lambda x: str(x)[:20]
)
def test_a_json_report_loads_no_argparse(argv, out):
    # cli._parse reads a well-formed argv from cli._COMMANDS, so a report run
    # builds no argparse parser
    proc, modules = code_lines.run_traced(*CLI, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert ARGPARSE.isdisjoint(modules)


SWEEP_USAGE = """\
usage: cycloderiv sweep [-h] --form {2rp,pk} [--r R] [--p P] [--k K]
                        [--seed SEED] [--cap CAP]
                        [--format {json,csv,markdown}] [--output PATH]
cycloderiv sweep: error: the following arguments are required: --form
"""


def test_help_version_a_refusal_and_an_abbreviation_load_argparse_and_keep_their_bytes():
    # the argv cli._parse leaves to argparse: argparse prints help, the
    # version and usage errors, and expands an abbreviated flag
    help_text, version = ((GOLDEN / f"{name}.out").read_text(encoding="utf-8") for name in ("help", "version"))
    full, _ = code_lines.run_traced(*CLI, "classify", "10", "1", "3", "--dzeta=1,2,3,4")
    assert full.returncode == 0
    for argv, expected in (
        (["--help"], (0, help_text, "")),
        (["--version"], (0, version, "")),
        (["sweep"], (2, "", SWEEP_USAGE)),
        (["classify", "10", "1", "3", "--dz=1,2,3,4"], (0, full.stdout, "")),
    ):
        proc, modules = code_lines.run_traced(*CLI, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
        assert ARGPARSE.issubset(modules), argv


def test_verify_theorem_is_defined_once_beside_leibniz_check():
    # harness binds the same function, for the benchmark's tracer; no second copy
    assert harness.verify_theorem is endomorphisms.verify_theorem
    assert endomorphisms.verify_theorem.__module__ == "cycloderiv.endomorphisms"
    assert TheoremVerdict is endomorphisms.TheoremVerdict
    assert not hasattr(harness, "TheoremVerdict")


def _traced_modules():
    return {f"cycloderiv.{module}" for module, _, _ in load_tracer().FUNCTIONS}


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--form", "pk", "--p", "3", "--k", "2"),
        ("tables", "10"),
        ("sweep", "--form", "2rp", "--p", "3", "--r", "1"),
        ("counterexamples",),
    ],
)
def test_each_batch_command_loads_every_module_the_benchmark_tracer_wraps(argv):
    # the batch drivers of harness import every module the tracer wraps
    proc, modules = code_lines.run_traced("-c", code_lines.RUN_CLI, *argv)
    assert proc.returncode == 0
    assert _traced_modules().difference(modules) == set()


# one pass of a workload, in one process, as run.py --trace 1 runs it; -B
# keeps bytecode out of perfbench/
_WORKLOAD_PASS = """\
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from cycloderiv.cli import main
from workloads import WORKLOADS
with redirect_stdout(io.StringIO()):
    codes = [main(list(inv.argv)) for inv in WORKLOADS[sys.argv[2]](1)]
sys.exit(max(codes))
"""


@pytest.mark.parametrize("workload", ["solve", "verify"])
def test_each_workload_pass_loads_every_module_the_benchmark_tracer_wraps(workload):
    # perfbench/run.py --trace 1 installs the tracer only after a whole
    # untraced pass, and the tracer looks each module of its table up in
    # sys.modules; a module the pass left unloaded would crash it with a
    # KeyError
    proc, modules = code_lines.run_traced("-B", "-c", _WORKLOAD_PASS, str(PERFBENCH), workload)
    assert proc.returncode == 0
    assert _traced_modules().difference(modules) == set()


def test_reporting_imports_no_module_of_the_package():
    # harness imports reporting to build the Report of a batch record; an
    # import the other way would bring the cycle back
    imported = []
    for node in ast.walk(ast.parse((SRC / "cycloderiv" / "reporting.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [m for m in imported if m.startswith((".", "cycloderiv"))] == []


def test_library_never_calls_make_or_replace():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "cycloderiv").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace")
    ]
    assert found == []


def _records():
    """Each record type, built twice from equal but separate values, and one field name."""
    ring = CyclotomicRing(10)
    form = RingForm.form_2rp(1, 5)
    witness = RatVector((1, -2, 0, 3), 5)
    matrix = IntMatrix(2, 2, [1, 2, 3, 4])
    record = PairRecord(1, 3, 1, 0, 1, 5, 5, True, True)
    return [
        (lambda: IntMatrix(2, 2, [1, 2, 3, 4]), "entries"),
        (lambda: RatVector((1, -2, 0, 3), 5), "denominator"),
        (lambda: RingForm.form_pk(3, 2), "k"),
        (lambda: RingForm(kind="2rp", p=5, r=1), "p"),
        (lambda: Valuation(e1=1, e2=None, m=2, predicted=27), "e2"),
        (lambda: Valuation(e1=1, e2=1, m=1, predicted=16), "e1"),
        (lambda: Classification("outer", RatVector((1, -2, 0, 3), 5)), "kind"),
        (lambda: LeibnizReport(True), "ok"),
        (lambda: LeibnizReport(False, (1, 3), ring.one(), ring.element((0, 1))), "lhs"),
        (lambda: PairRecord(1, 3, 1, 0, 1, 5, 5, True, True), "match"),
        (lambda: SweepReport(form, (record, record), 0, "0.1.0"), "version"),
        (lambda: TheoremVerdict(10, 1, 3, 5, 5, 0), "passes"),
        (
            lambda: CounterexampleCase(
                "c", "x^2", "s", "t", "(1, 0)", False, False, (1, 1), "(0, 1)", "(1, 0)"
            ),
            "failing_pair",
        ),
        (lambda: TableBlock(1, 3, matrix, 4, (witness,)), "solution_rows"),
        (lambda: TableArtifact(10, (TableBlock(1, 3, matrix, 4, (witness,)),), "0.1.0"), "blocks"),
    ]


@pytest.mark.parametrize("make, field", _records())
def test_equal_records_compare_and_hash_equal(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("make, field", _records())
def test_records_are_immutable(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.extra


def test_records_with_different_values_differ():
    assert RatVector((1, 2), 3) != RatVector((1, 2), 5)
    assert RingForm.form_pk(3, 2) != RingForm.form_pk(3, 3)
    assert IntMatrix(1, 2, (1, 2)) != IntMatrix(2, 1, (1, 2))
    assert LeibnizReport(True) != LeibnizReport(False)


def test_echelon_fields_cannot_be_rebound():
    ech = _Echelon([[1]], [0], 1, [0])
    with pytest.raises(AttributeError):
        ech.sign = -1
    assert ech.full_rank and ech.last_pivot == 1


def test_leibniz_report_truth_is_its_verdict():
    assert LeibnizReport(True)
    assert not LeibnizReport(False, (0, 0))


def test_int_matrix_checks_shape_and_stores_a_tuple():
    m = IntMatrix(2, 3, [1, 2, 3, 4, 5, 6])
    assert type(m.entries) is tuple and m.entries == (1, 2, 3, 4, 5, 6)
    assert IntMatrix(1, 2, iter([7, 8])).entries == (7, 8)
    assert IntMatrix(rows=1, cols=1, entries=[5]) == IntMatrix(1, 1, (5,))
    assert repr(m) == "IntMatrix(2x3, (1, 2, 3, 4, 5, 6))"
    for rows, cols in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            IntMatrix(rows, cols, ())
    with pytest.raises(ValueError, match="^expected 4 entries, got 3$"):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="^expected 4 entries, got 5$"):
        IntMatrix(2, 2, (1, 2, 3, 4, 5))


def test_rat_vector_checks_denominator_and_reduction():
    v = RatVector((1, -2, 0), 3)
    assert v.numerators == (1, -2, 0) and v.denominator == 3
    assert repr(v) == "RatVector(numerators=(1, -2, 0), denominator=3)"
    assert str(v) == repr(v)
    for den in (0, -3):
        with pytest.raises(ValueError, match="^denominator must be positive$"):
            RatVector((1, 2), den)
    for nums, den in (((2, 4), 6), ((0,), 2), ((), 2), ((3, 6), 3)):
        with pytest.raises(ValueError, match="^numerators and denominator must be reduced$"):
            RatVector(nums, den)
    assert RatVector.reduced((2, -4), -2) == RatVector((-1, 2), 1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("weird", 3), "unknown ring form kind 'weird'"),
        (("2rp", 5), "form 2rp requires r >= 1"),
        (("2rp", 5, 0), "form 2rp requires r >= 1"),
        (("2rp", 5, 1, 2), "form 2rp does not take k"),
        (("2rp", 2, 1), "form 2rp requires an odd prime p, got 2"),
        (("2rp", 9, 1), "form 2rp requires an odd prime p, got 9"),
        (("pk", 3), "form pk requires k >= 2"),
        (("pk", 3, None, 1), "form pk requires k >= 2"),
        (("pk", 3, 1, 2), "form pk does not take r"),
        (("pk", 6, None, 2), "form pk requires a prime p, got 6"),
    ],
)
def test_ring_form_rejects_each_bad_kind_or_parameter(args, message):
    with pytest.raises(ValueError) as info:
        RingForm(*args)
    assert str(info.value) == message


def test_ring_form_fields_and_repr():
    form = RingForm(kind="pk", p=3, k=2)
    assert form == RingForm.form_pk(3, 2) == RingForm.detect(9)
    assert (form.kind, form.p, form.r, form.k, form.n) == ("pk", 3, None, 2, 9)
    assert repr(form) == "RingForm(kind='pk', p=3, r=None, k=2)"
    assert repr(RingForm.form_2rp(1, 5)) == "RingForm(kind='2rp', p=5, r=1, k=None)"
    assert RingForm.form_2rp(1, 5).label() == "2rp(r = 1, p = 5)"


def test_record_reprs_name_the_type_and_fields():
    assert repr(Valuation(1, None, 2, 27)) == "Valuation(e1=1, e2=None, m=2, predicted=27)"
    assert repr(LeibnizReport(True)) == "LeibnizReport(ok=True, indices=None, lhs=None, rhs=None)"
    assert repr(Classification("inner", RatVector((1,), 1))) == (
        "Classification(kind='inner', witness=RatVector(numerators=(1,), denominator=1))"
    )


def test_classify_error_message_prints_the_witness_repr(monkeypatch):
    inverse = innerness.multiplier_inverse

    def tampered(pair):
        num, m = inverse(pair)
        return 2 * num, m

    monkeypatch.setattr(innerness, "multiplier_inverse", tampered)
    pair = TwistedPair.zeta_powers(CyclotomicRing(10), 1, 3)
    with pytest.raises(ArithmeticError) as info:
        classify(TwistedDerivation(pair, pair.theta_difference()))
    assert str(info.value) == (
        "witness RatVector(numerators=(2, 0, 0, 0), denominator=1) does not satisfy "
        "A X = 1 C for TwistedPair(Endomorphism(zeta -> zeta^1), Endomorphism(zeta -> zeta^3))"
    )
