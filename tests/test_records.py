"""The library's records: immutable values, validated where they validate.

Every record type is a ``typing.NamedTuple``. The three that check their
input (``IntMatrix``, ``RatVector``, ``RingForm``) are a fields tuple plus a
subclass whose ``__new__`` runs the checks. ``_make`` and ``_replace`` build
a tuple without calling that ``__new__``, so the library must not use them.
The CLI's import stays free of ``dataclasses`` and the introspection modules
it pulls in, which would otherwise dominate the start-up of every command,
and each command loads only the library modules it runs: ``classify`` and
``verify-theorem`` load no elimination, family predictions or batch
drivers, and one pass of each benchmark workload loads each module the
benchmark's tracer wraps.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
from test_benchmark_names import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# what the parser and the argument rules need; `-m` runs cli as __main__
STARTUP = {"cycloderiv", "cycloderiv.arith", "cycloderiv.cli"}
FORMATS = {"json", "csv"}


def _imports(*args):
    """Exit code and the set of modules imported by ``python -X importtime *args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rpartition("|")[2].strip() for line in lines[1:]}


def _library(modules):
    return {m for m in modules if m == "cycloderiv" or m.startswith("cycloderiv.")}


def test_cli_import_loads_no_dataclasses_or_introspection_modules():
    code, modules = _imports("-c", "import cycloderiv.cli")
    assert code == 0
    assert modules & HEAVY_MODULES == set()
    assert _library(modules) == STARTUP
    assert modules & FORMATS == set()


def test_version_and_a_refused_degree_load_only_the_parser_and_the_check():
    for argv, expected_code in (
        (["--version"], 0),
        (["classify", "1000000000000000003", "1", "2", "--dzeta", "1"], 2),
        (["matrix", "10", "13", "3"], 2),
        (["classify", "10", "2", "3", "--dzeta", "0,0,0,1"], 2),
        (["classify", "1", "0", "0", "--dzeta", "1"], 2),
        (["verify-theorem", "10", "1", "3", "--trials", "0"], 2),
    ):
        code, modules = _imports("-m", "cycloderiv.cli", *argv)
        assert code == expected_code, argv
        assert _library(modules) <= STARTUP, argv
        assert modules & FORMATS == set(), argv


def test_json_classify_loads_neither_the_batch_drivers_nor_csv():
    code, modules = _imports("-m", "cycloderiv.cli", "classify", "10", "1", "3", "--dzeta", "1,2,3,4")
    assert code == 0
    assert "cycloderiv.innerness" in modules
    assert modules & {"cycloderiv.harness", "csv"} == set()


def _main_imports(*argv):
    """``_imports`` of one CLI run through ``cli.main``, as the console script runs it."""
    script = "import sys; from cycloderiv.cli import main; sys.exit(main(sys.argv[1:]))"
    return _imports("-c", script, *argv)


def test_json_classify_loads_exactly_the_ring_stack_innerness_and_the_renderer():
    # no elimination (intlinalg), no family predictions, no batch drivers
    dzeta = ",".join(["1"] * 42)
    code, modules = _main_imports("classify", "49", "13", "3", f"--dzeta={dzeta}")
    assert code == 0
    assert _library(modules) == STARTUP | {
        f"cycloderiv.{name}"
        for name in ("polynomials", "quotient", "endomorphisms", "innerness", "reporting")
    }


def test_verify_theorem_loads_exactly_the_ring_stack_endomorphisms_and_the_renderer():
    # verify_theorem sits beside leibniz_check: no classification, elimination,
    # family predictions or batch drivers
    code, modules = _main_imports("verify-theorem", "49", "1", "2", "--trials", "5")
    assert code == 0
    assert _library(modules) == STARTUP | {
        f"cycloderiv.{name}" for name in ("polynomials", "quotient", "endomorphisms", "reporting")
    }


def test_verify_theorem_is_defined_once_beside_leibniz_check():
    # harness binds the same function, for the benchmark's tracer; no second copy
    assert harness.verify_theorem is endomorphisms.verify_theorem
    assert endomorphisms.verify_theorem.__module__ == "cycloderiv.endomorphisms"
    assert TheoremVerdict is endomorphisms.TheoremVerdict
    assert not hasattr(harness, "TheoremVerdict")


def test_matrix_loads_the_printed_matrix_and_the_predictions_but_not_the_batch_drivers():
    code, modules = _main_imports("matrix", "10", "1", "3")
    assert code == 0
    assert {"cycloderiv.intlinalg", "cycloderiv.predictions"} <= modules
    assert "cycloderiv.harness" not in modules


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
    code, modules = _main_imports(*argv)
    assert code == 0
    assert _traced_modules() - modules == set()


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
    code, modules = _imports("-B", "-c", _WORKLOAD_PASS, str(PERFBENCH), workload)
    assert code == 0
    assert _traced_modules() - modules == set()


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
