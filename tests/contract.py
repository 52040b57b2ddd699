"""The process contract of the command line, replayed with the standard library alone.

``python tests/contract.py COMMAND...`` runs COMMAND (the installed
``cycloderiv`` script, or ``python -m cycloderiv.cli`` with the package on
the path) in child processes and checks three things:

* every case of ``golden/cases.json``: its exit code and the exact bytes of
  stdout and stderr, at the 80 columns ``test_golden.py`` formats help with;
* with stdout's read end closed, buffered or not, a report exits 1 with one
  ``error:`` line, and ``--version`` exits 0 with nothing on stderr;
* with stderr's read end closed, or descriptor 2 closed, buffered or not, a
  refusal (``phi-poly 0``) and a usage error (``sweep``) exit 2 and write
  nothing to stdout.

It prints one line for each check that fails and exits 1 if any did, else 0.
It imports nothing outside the standard library, so it runs on every Python
the package supports, pytest or not; CI runs it on the installed script on
each Python of its matrix.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# (argv, (exit code, stderr)) with stdout's read end closed
CLOSED_STDOUT = (
    (["phi-poly", "10"], (1, b"error: [Errno 32] Broken pipe\n")),
    (["--version"], (0, b"")),
)
# argv that exit 2 with empty stdout when stderr is closed
CLOSED_STDERR = (["phi-poly", "0"], ["sweep"])
BUFFERING = ({}, {"PYTHONUNBUFFERED": "1"})


def golden_failures(command, env):
    """One line for each golden case whose exit code or bytes differ."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    for name in sorted(cases):
        proc = subprocess.run([*command, *cases[name]["argv"]], capture_output=True, env=env)
        got = (proc.returncode, proc.stdout, proc.stderr)
        want = (cases[name]["exit"], (GOLDEN / f"{name}.out").read_bytes(),
                (GOLDEN / f"{name}.err").read_bytes())
        if got != want:
            yield f"{name}: got {got!r}, want {want!r}"


def closed_stream_failures(command, env):
    """One line for each closed-stream run whose outcome differs."""
    env = {name: value for name, value in env.items() if name != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for mode in BUFFERING:
            for argv, want in CLOSED_STDOUT:
                proc = subprocess.run([*command, *argv], stdout=write_end, stderr=subprocess.PIPE,
                                      env={**env, **mode})
                if (proc.returncode, proc.stderr) != want:
                    yield (f"closed stdout {mode}, {argv}: got {(proc.returncode, proc.stderr)!r}, "
                           f"want {want!r}")
            for argv in CLOSED_STDERR:
                for closed, streams in (("read end", {"stderr": write_end}),
                                        ("descriptor 2", {"preexec_fn": lambda: os.close(2)})):
                    proc = subprocess.run([*command, *argv], stdout=subprocess.PIPE,
                                          env={**env, **mode}, **streams)
                    if (proc.returncode, proc.stdout) != (2, b""):
                        yield (f"closed stderr ({closed}) {mode}, {argv}: "
                               f"got {(proc.returncode, proc.stdout)!r}, want (2, b'')")
    finally:
        os.close(write_end)


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
