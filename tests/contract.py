"""The process contract of the command line, stated once and replayed with the standard library alone.

``python tests/contract.py COMMAND...`` runs COMMAND (the installed
``cycloderiv`` script, or ``python -m cycloderiv.cli`` with the package on
the path) in child processes and checks three things:

* every case of ``golden/cases.json``: its exit code and the exact bytes of
  stdout and stderr, at the 80 columns ``test_golden.py`` formats help with;
* ``CLOSED_STDOUT``: with stdout's read end closed, buffered or not, each
  argv's exit code and stderr (a report exits 1 with one ``error:`` line);
* ``CLOSED_STDERR``: with stderr's read end closed, or descriptor 2 closed,
  buffered or not, each argv's exit code and stdout (a refusal or a usage
  error exits 2 and writes nothing to stdout; a report writes its golden
  bytes).

It prints one line for each check that fails and exits 1 if any did, else 0.
It imports nothing outside the standard library, so it runs on every Python
the package supports, pytest or not; CI runs it on the installed script on
each Python of its matrix. The pytest tests of ``test_reporting_cli.py`` run
the same two tables through the same runner, ``run_closed``, and every test
that starts a Python child takes its environment from ``env_with_src``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parents[1] / "src"


def _golden_stdout(name):
    return (GOLDEN / f"{name}.out").read_bytes()


_BROKEN_PIPE = (1, b"error: [Errno 32] Broken pipe\n")
# exit code and stderr with stdout's read end closed, buffered or not: a
# report's write fails inside write_text and main prints one error line;
# argparse drops its own failed write of the version or the help
CLOSED_STDOUT = {
    "phi-poly 10": _BROKEN_PIPE,
    "tables 21": _BROKEN_PIPE,  # about 400 KB, more than one buffer
    "--version": (0, b""),
    "--help": (0, b""),
    "phi-poly 0": (2, b"error: totient undefined for 0\n"),
    "verify-theorem 49 1 2 --trials 5": _BROKEN_PIPE,
    "classify 49 1 2 --dzeta=" + ",".join(str(i % 7 - 3) for i in range(42)): _BROKEN_PIPE,
}
# exit code and stdout with stderr's read end closed or descriptor 2 closed,
# buffered or not: an error line that cannot be written is dropped, its exit
# code stands, and nothing meant for stderr reaches stdout
CLOSED_STDERR = {
    "phi-poly 0": (2, b""),
    "matrix 10 2 3": (2, b""),
    "sweep": (2, b""),  # a usage error: --form is required
    "phi-poly 10": (0, _golden_stdout("phi-poly_10_json")),
    "--version": (0, _golden_stdout("version")),
}
STDERR_CLOSINGS = ("read end", "descriptor 2")
BUFFERING = (False, True)  # PYTHONUNBUFFERED unset (empty) or set


def env_with_src(**extra):
    """``os.environ`` with this checkout's ``src`` first on ``PYTHONPATH``, and ``extra``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_closed(args, stream, closed, unbuffered, env):
    """Exit code and the other stream's bytes of ``args`` run with ``stream`` closed.

    ``stream`` is "stdout" or "stderr"; ``closed`` is "read end" for the read
    end of the pipe it writes to, else its descriptor is closed in the child
    before it starts. Stdout and stderr are buffered unless ``unbuffered``.
    60 s at most.
    """
    other = "stderr" if stream == "stdout" else "stdout"
    env = dict(env, PYTHONUNBUFFERED="1" if unbuffered else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    closing = ({stream: write_end} if closed == "read end"
               else {"preexec_fn": lambda: os.close(1 if stream == "stdout" else 2)})
    try:
        proc = subprocess.run(args, env=env, timeout=60, **{other: subprocess.PIPE}, **closing)
    finally:
        os.close(write_end)
    return proc.returncode, getattr(proc, other)


def golden_failures(command, env):
    """One line for each golden case whose exit code or bytes differ."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    for name in sorted(cases):
        proc = subprocess.run([*command, *cases[name]["argv"]], capture_output=True, env=env)
        got = (proc.returncode, proc.stdout, proc.stderr)
        want = (cases[name]["exit"], _golden_stdout(name), (GOLDEN / f"{name}.err").read_bytes())
        if got != want:
            yield f"{name}: got {got!r}, want {want!r}"


def closed_stream_failures(command, env):
    """One line for each closed-stream run whose outcome differs."""
    runs = [("stdout", "read end", argv, want) for argv, want in CLOSED_STDOUT.items()]
    runs += [("stderr", closed, argv, want) for argv, want in CLOSED_STDERR.items()
             for closed in STDERR_CLOSINGS]
    for stream, closed, argv, want in runs:
        for unbuffered in BUFFERING:
            got = run_closed([*command, *argv.split()], stream, closed, unbuffered, env)
            if got != want:
                yield (f"closed {stream} ({closed}, unbuffered={unbuffered}), {argv}: "
                       f"got {got!r}, want {want!r}")


def main(command):
    if not command:
        print("usage: python tests/contract.py COMMAND...", file=sys.stderr)
        return 2
    env = dict(os.environ, COLUMNS="80")
    failures = [*golden_failures(command, env), *closed_stream_failures(command, env)]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
