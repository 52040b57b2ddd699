"""Benchmark of the cycloderiv CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it runs the workload's invocations as one client in a
closed loop (each ``python -m cycloderiv.cli ...`` starts after the previous
one exits), pass after pass for about ``--seconds`` seconds, and reports the
end-to-end metrics, pass times as multiples of ``reference.py``'s time. With
``--trace 1`` it runs the same invocations in this process (a first pass for
the expected bytes, then traced, untraced and traced again) and
reports the per-layer metrics. Every output is checked by ``checks.py``; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import selectors
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checks import check_output
from workloads import WORKLOADS, Invocation, items

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = (str(Path(__file__).resolve().parent / "reference.py"),)
CLI = ("-m", "cycloderiv.cli")
SETUP_RUNS_PER_PASS = 5
MIN_PASSES = 2  # byte identity is checked across passes
RUN_BUDGET_S = 170  # a run that takes longer is stopped and fails

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "large_ring_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "intlinalg.det.calls": "count",
    "intlinalg.det.s": "s",
    "intlinalg.det.max_dim": "rows",
    "intlinalg.max_int_bits": "bits",
    "intlinalg.solve_unique.calls": "count",
    "intlinalg.solve_unique.self_s": "s",
    "intlinalg.solve_unique.det_per_call": "det/call",
    "intlinalg.mat_vec.s": "s",
    "intlinalg.adjugate.calls": "count",
    "intlinalg.adjugate.self_s": "s",
    "intlinalg.adjugate.det_per_call": "det/call",
    "innerness.MultiplierMatrix.calls": "count",
    "innerness.MultiplierMatrix.s": "s",
    "innerness.classify.calls": "count",
    "innerness.classify.self_s": "s",
    "harness.sweep.self_s": "s",
    "harness.reproduce_tables.self_s": "s",
    "endomorphisms.leibniz_check.calls": "count",
    "endomorphisms.leibniz_check.self_s": "s",
    "endomorphisms.sum_powers.calls": "count",
    "endomorphisms.sum_powers.s": "s",
    "quotient.mul_ring.calls": "count",
    "quotient.mul_scalar.calls": "count",
    "quotient.mul.s": "s",
    "harness.verify_theorem.self_s": "s",
    "polynomials.cyclotomic_poly.s": "s",
    "quotient.CyclotomicRing.s": "s",
    "reporting.render.s": "s",
    "reporting.write_text.s": "s",
    "reporting.bytes": "bytes",
    "trace.overhead_s": "s",
}


class Outcome:
    """Attempts and failures of a run; failures are reported on stderr as they happen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems[:3])}", file=sys.stderr)


# -- end-to-end: one CLI process per invocation --------------------------------


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    max_rss_kib: int


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CYCLODERIV_OUTPUT_DIR", None)
    return env


def spawn(args: tuple[str, ...], env: dict[str, str]) -> Child:
    """Run ``python args`` to completion and read its own peak RSS."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out_w, 1),
                (os.POSIX_SPAWN_DUP2, err_w, 2),
            ],
        )
    except OSError:
        os.close(out_r)
        os.close(err_r)
        raise
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    reaped = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        seconds = time.perf_counter() - start
    finally:
        if not reaped:  # interrupted, e.g. by the run's time limit
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(out_r)
        os.close(err_r)
    return Child(
        returncode=os.waitstatus_to_exitcode(status),
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
        seconds=seconds,
        max_rss_kib=usage.ru_maxrss,
    )


def _stderr_problems(child: Child) -> list[str]:
    text = child.stderr.decode(errors="replace").strip()
    return [f"stderr: {text[-200:]}"] if text else []


def _record_repeat(outcome: Outcome, what: str, child: Child, expected: bytes) -> None:
    """A fixed job must exit 0, write nothing to stderr and repeat its first output."""
    problems = _stderr_problems(child)
    if child.returncode != 0 or not child.stdout.strip() or child.stdout != expected:
        problems.append(f"exit {child.returncode}, output {child.stdout[:80]!r}")
    outcome.record(what, problems)


def measure_end_to_end(invocations: list[Invocation], seconds: int, deadline: float,
                       outcome: Outcome) -> tuple[dict, dict]:
    env = _child_env()
    warm_up = spawn((*CLI, "--version"), env)  # writes the bytecode cache
    reference_out = spawn(REFERENCE, env).stdout
    first_digest: dict[int, str] = {}
    verdicts: dict[str, list[str]] = {}
    setup_times, reference_times, walls, large, per_invocation, rss_kib = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the run, so one slow moment moves few of them.
        for _ in range(SETUP_RUNS_PER_PASS):
            child = spawn((*CLI, "--version"), env)
            setup_times.append(child.seconds)
            _record_repeat(outcome, "--version", child, warm_up.stdout)
        # A reference job runs before each invocation, so that the two sample
        # the host at the same moments.
        results = []
        for inv in invocations:
            child = spawn(REFERENCE, env)
            reference_times.append(child.seconds)
            _record_repeat(outcome, "reference job", child, reference_out)
            results.append(spawn((*CLI, *inv.argv), env))
        walls.append(sum(r.seconds for r in results))
        large.append(sum(r.seconds for inv, r in zip(invocations, results) if inv.large))
        per_invocation.append([r.seconds for r in results])
        rss_kib.append([r.max_rss_kib for r in results])
        # Checks run outside the timed pass; identical bytes share one verdict.
        for i, (inv, r) in enumerate(zip(invocations, results)):
            digest = hashlib.sha256(b"%d\0" % r.returncode + r.stdout).hexdigest()
            if digest not in verdicts:
                verdicts[digest] = check_output(inv.argv, r.returncode, r.stdout)
            problems = _stderr_problems(r) + verdicts[digest]
            if first_digest.setdefault(i, digest) != digest:
                problems.append("bytes differ from the first pass")
            outcome.record(" ".join(inv.argv)[:80], problems)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(walls)  # with its set-up and reference runs and checks
        if len(walls) >= MIN_PASSES and (
            elapsed + per_pass > seconds or time.monotonic() + 2 * per_pass > deadline
        ):
            break

    # The host's speed drifts by up to 50% for minutes at a time, longer than
    # a run, and the reference job slows with it: pass times are reported as
    # multiples of its median time in the same run.
    reference_s = statistics.median(reference_times)
    metrics = {
        "wall_ref": statistics.median(walls) / reference_s,
        "large_ring_ref": statistics.median(large) / reference_s,
        "setup_s": statistics.median(setup_times),
        # A child's peak RSS varies a little from pass to pass; the largest of
        # all children would grow with the number of passes, so with speed.
        "peak_rss_mib": max(statistics.median(kib) for kib in zip(*rss_kib)) / 1024,
        "ok_share": 1 - outcome.failed / outcome.attempted,
    }
    detail = {"passes": len(walls), "wall_s": statistics.median(walls),
              "large_ring_s": statistics.median(large), "reference_s": reference_s,
              "pass_wall_s": walls, "reference_runs_s": reference_times,
              "invocation_s": per_invocation,
              "invocation_rss_kib": rss_kib, "setup_runs_s": setup_times}
    return metrics, detail


# -- per layer: the same invocations in this process, traced --------------------


def _in_process(cli, invocations: list[Invocation], clear_caches) -> tuple[float, list]:
    """Run each invocation through cli.main with fresh caches, as a new process would."""
    outputs = []
    start = time.perf_counter()
    for inv in invocations:
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        outputs.append((code, out.getvalue().encode("utf-8"), err.getvalue()))
    return time.perf_counter() - start, outputs


def measure_layers(invocations: list[Invocation], outcome: Outcome) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import cycloderiv.cli as cli
    from cycloderiv.polynomials import cyclotomic_poly
    from tracer import Tracer

    clear = cyclotomic_poly.cache_clear
    # The first pass gives the reference bytes and warms the allocator (a
    # first pass runs markedly slower); the timed untraced pass then sits
    # between the two traced ones, so drift in machine speed largely cancels.
    _, base = _in_process(cli, invocations, clear)
    verdicts = [check_output(inv.argv, code, out) + ([f"stderr: {err[-200:]}"] if err else [])
                for inv, (code, out, err) in zip(invocations, base)]
    for inv, problems in zip(invocations, verdicts):
        outcome.record(" ".join(inv.argv)[:80], problems)

    tracers, traced_s, untraced_s = [], [], 0.0
    for traced in (True, False, True):
        tracer = Tracer()
        with tracer.installed() if traced else nullcontext():
            seconds, outputs = _in_process(cli, invocations, clear)
        if traced:
            tracers.append(tracer)
            traced_s.append(seconds)
        else:
            untraced_s = seconds
        label = "traced " if traced else ""
        for inv, problems, got, want in zip(invocations, verdicts, outputs, base):
            if got != want:
                problems = problems + [f"{label}output differs from the first pass"]
            outcome.record(label + " ".join(inv.argv)[:80], problems)
    t1 = tracers[0]
    counts = [t.counts() for t in tracers]
    diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                  if counts[0].get(k) != counts[1].get(k))
    outcome.record("traced counts repeat",
                   [f"counts differ between the traced passes: {diff}"] if diff else [])

    identities = t1.identities()
    for name, pair in identities.items():
        if pair["expected"] != pair["observed"]:
            print(f"note: {name} made {pair['observed']} det calls where the Cramer/cofactor "
                  f"kernels make {pair['expected']}", file=sys.stderr)

    def from_spans(name: str):
        span, _, field = name.rpartition(".")
        stats = [t.stats.get(span) for t in tracers]
        if stats[0] is None or not stats[0].calls:
            return 0
        if field == "calls":
            return stats[0].calls
        if field == "det_per_call":
            return stats[0].det_inside / stats[0].calls
        attr = "self_seconds" if field == "self_s" else "seconds"
        return statistics.median(getattr(st, attr) for st in stats)

    derived = {
        "intlinalg.det.max_dim": t1.det_max_dim,
        "intlinalg.max_int_bits": t1.max_int_bits,
        "quotient.mul.s": from_spans("quotient.mul_ring.s") + from_spans("quotient.mul_scalar.s"),
        "reporting.bytes": t1.bytes_written,
        "trace.overhead_s": statistics.median(traced_s) - untraced_s,
    }
    metrics = {name: derived[name] if name in derived else from_spans(name)
               for name in PER_LAYER_UNITS}
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "identities": identities,
              "counts": counts[0]}
    return metrics, detail


# -- provenance and output -------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cycloderiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class OutOfTime(Exception):
    """Raised by SIGALRM; not an OSError, which the CLI would catch and report."""


def _out_of_time(signum, frame):
    raise OutOfTime(f"the run did not finish within {RUN_BUDGET_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cycloderiv" / "cli.py").is_file():
        print(f"error: no cycloderiv sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_BUDGET_S)
    invocations = WORKLOADS[args.workload](args.seed)
    outcome = Outcome()
    if args.trace:
        metrics, detail = measure_layers(invocations, outcome)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = measure_end_to_end(invocations, args.seconds, deadline, outcome)
        units = END_TO_END_UNITS

    provenance = {
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": items(invocations),
        "argv": [list(inv.argv) for inv in invocations],
        **detail,
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(f"failed {outcome.failed} of {outcome.attempted} attempted")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OutOfTime as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
