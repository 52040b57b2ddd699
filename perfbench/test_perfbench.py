"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import ast
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import MissedBinding, Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cycloderiv.cli as cli  # noqa: E402
from cycloderiv import intlinalg  # noqa: E402
from cycloderiv.polynomials import cyclotomic_poly  # noqa: E402


def _cli(argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().encode("utf-8")


def _bump_digit(text: str) -> str:
    digit = text[-1]
    return text[:-1] + ("0" if digit == "9" else str(int(digit) + 1))


def test_oracle_matches_the_library_on_small_rings():
    for n in range(3, 31):
        assert checks.cyclotomic(n) == list(cyclotomic_poly(n).coeffs)
    for n in (9, 10, 12, 15):
        for u, v in [(1, w) for w in checks.units(n)[1:]]:
            matrix = intlinalg.IntMatrix.from_rows(checks.multiplier_matrix(n, u, v))
            assert abs(intlinalg.det(matrix)) == checks.norm_det_abs(n, u, v)


@pytest.mark.parametrize("argv", [
    ("classify", "10", "3", "7", "--dzeta=-9,4,0,2"),
    ("tables", "10"),
    ("sweep", "--form", "2rp", "--r", "1", "--p", "5", "--seed", "4"),
])
def test_tampered_det_abs_counts_as_a_failure(argv):
    stdout = _cli(argv)
    assert checks.check_output(argv, 0, stdout) == []
    payload = json.loads(stdout)
    record = payload["blocks"][0] if "blocks" in payload else payload["pairs"][0] \
        if "pairs" in payload else payload
    record["det_abs"] = _bump_digit(record["det_abs"])
    tampered = json.dumps(payload, indent=2).encode()
    outcome = run.Outcome()
    outcome.record("tampered", checks.check_output(argv, 0, tampered))
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_wrong_exit_code_and_garbage_are_failures():
    argv = ("counterexamples",)
    assert checks.check_output(argv, 0, _cli(argv)) == []
    assert checks.check_output(argv, 1, _cli(argv)) != []
    assert checks.check_output(argv, 0, b"not json") != []


def test_seed_changes_classify_inputs_but_not_item_counts():
    a, b = workloads.solve(1), workloads.solve(2)
    assert workloads.solve(1) == a
    classify_a = [inv.argv for inv in a if inv.argv[0] == "classify"]
    classify_b = [inv.argv for inv in b if inv.argv[0] == "classify"]
    assert len(classify_a) == len(classify_b) == 20
    assert classify_a != classify_b
    assert workloads.items(a) == workloads.items(b)
    assert workloads.items(a)["sweep_pairs"] == 358
    assert workloads.items(a)["table_blocks"] == 6 + 66
    assert [inv.argv for inv in a if inv.argv[0] == "tables"] == \
        [inv.argv for inv in b if inv.argv[0] == "tables"]
    assert workloads.items(workloads.verify(1)) == workloads.items(workloads.verify(2))


def test_tracer_counts_identities_bytes_and_restores_bindings():
    invocations = [
        workloads.Invocation(("sweep", "--form", "2rp", "--r", "1", "--p", "5", "--seed", "0"), 4),
        workloads.Invocation(("tables", "10"), 4),
        workloads.Invocation(("classify", "12", "1", "5", "--dzeta=-3,1,0,2"), 4),
    ]
    clear = cyclotomic_poly.cache_clear
    originals = (intlinalg.det, cli.classify, cli.main, vars(cli.MultiplierMatrix)["__init__"])
    _, untraced = run._in_process(cli, invocations, clear)
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert intlinalg.det is not originals[0]
            _, traced = run._in_process(cli, invocations, clear)
        assert traced == untraced
        tracers.append(tracer)
    assert (intlinalg.det, cli.classify, cli.main,
            vars(cli.MultiplierMatrix)["__init__"]) == originals
    assert tracers[0].counts() == tracers[1].counts()
    identities = tracers[0].identities()
    assert set(identities) == {"intlinalg.solve_unique", "intlinalg.adjugate", "harness.sweep"}
    for pair in identities.values():
        assert pair["expected"] == pair["observed"] > 0
    stats = tracers[0].stats
    assert stats["intlinalg.adjugate"].det_inside == 6 * 4 * 4  # 6 pairs, d^2 minors each
    assert stats["intlinalg.solve_unique"].det_inside == 7 * (4 + 1)  # 6 round trips + 1
    assert tracers[0].bytes_written == sum(len(out) for _, out, _ in untraced)


def test_a_binding_the_tracer_cannot_reach_fails_loudly(monkeypatch):
    class Holder:
        kernel = intlinalg.det

    monkeypatch.setattr(intlinalg, "Holder", Holder, raising=False)
    with pytest.raises(MissedBinding, match="Holder.kernel"):
        with Tracer().installed():
            pass
    assert intlinalg.det is Holder.kernel


def test_reference_job_is_fixed_and_imports_nothing_of_the_package():
    path = ROOT / "perfbench" / "reference.py"
    imports = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.add(node.module)
    assert imports == {"random"}
    outputs = {subprocess.run([sys.executable, str(path)], capture_output=True,
                              timeout=60).stdout for _ in range(2)}
    assert len(outputs) == 1 and outputs.pop().strip().isdigit()


def _metric_specs(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _metric_specs(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)


def test_without_the_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
