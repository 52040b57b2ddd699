"""Command-line interface.

Subcommands mirror the library surface: phi-poly, matrix, classify, sweep,
verify-theorem, tables, counterexamples. Output goes to stdout by default
(always UTF-8, integers as decimal strings in JSON); ``--output`` writes to a
file instead. ``main`` hands ``--output`` as given to
``reporting.write_text``, which alone decides where the report goes (a
relative path is resolved against ``CYCLODERIV_OUTPUT_DIR``) and raises
``OSError`` for every failed write. Every command that builds a ring takes
``--cap`` (default 64) and refuses a ring degree phi(n) above it before
building anything.

One table, ``_COMMANDS``, declares the subcommands: each entry gives a
name, its help, its integer positionals, its options in help order and the
``_cmd_*`` function it runs, and ``build_parser`` is one loop over it that
adds the shared ``--format`` and ``--output`` flags last. So an option is
declared once, and one that several commands share is one table edit.

``main`` reads a well-formed argv straight from that table (``_parse``): a
command name, then its integer positionals and its flags spelled in full,
each value after ``=`` or as the next token, every value valid. That gives
what argparse would, without importing argparse, which with the ``gettext``
it pulls in and seven subparsers to build costs a short command a few
milliseconds. Any other argv (``--help``, ``--version``, an abbreviated or
unknown flag, ``--``, a negative value as its own token, a bad value, a
missing or extra argument) goes to ``build_parser``'s argparse parser,
which is imported and built only then and remains the one source of help,
version, usage and refusal text.

Each command returns a ``reporting.Report`` and its exit code: ``sweep``
and ``tables`` convert their batch record with the converter ``harness``
keeps beside it, and the other commands build their ``Report`` here.
``main`` alone renders it through ``reporting.render`` and writes it.

Start-up loads only this module and the argument rules (``arith``). A command
checks its input first, in the order the library would refuse it (the ring
degree, then the trial count, then the exponents u and v: an n <= 2 has
fewer than two of them, and each must be a unit), and only then imports the
modules it runs. So ``--version``, ``--help`` and a refused degree, trial
count or exponent load no other part of the library (only argparse, for
the first two, and ``predictions``, which sizes a sweep form), and ``main``
imports the renderer once the command has returned.

Beside ``reporting``, ``verify-theorem`` loads only the ring stack
(``polynomials``, ``quotient``, ``endomorphisms``), ``classify`` adds
``innerness``, and the batch commands load ``harness`` and every module;
``COMMAND_MODULES`` in ``tests/test_records.py`` is the one table of each
command's exact set, and ``python tools/code_lines.py --commands`` prints
it.

Exit codes: 0 on success or all-pass, 1 on an assertion-style failure
(prediction mismatch, failed round-trip, a Leibniz failure where a pass was
expected), 2 on usage errors, including an n whose ``Phi_n`` no list can
hold and an input that runs out of memory (``Phi_n`` is built as a series
of phi(n) + 2 coefficients, which the cap bounds, so a cap far above the
default can admit an n whose series cannot be allocated).

Python converts an int of at most 4,300 digits (its default limit) to or
from decimal. The arguments and the ``--dzeta`` coordinates are read under
the limit the process has, so a longer one is refused as having more digits
than Python converts. The command and its rendering then run with no limit,
since a ``classify`` witness can have more digits than its coordinates, and
``main`` restores the limit before it returns.

A process enters through ``run`` (``python -m cycloderiv.cli`` and the
``cycloderiv`` console script); tests and tools call ``main(argv)``, which
returns every exit code and raises no ``SystemExit``: its parser's exit, for
``--version``, ``--help`` and a usage error, is a return value too. An
``error:`` line, and a usage error's usage and message, go out in one write
that drops the text, not the code, when stderr is a closed pipe or None
(descriptor 2 closed), so none of it lands on stdout. ``run`` calls
``main``, runs the ``atexit`` handlers, flushes stdout and stderr, ignoring
an ``OSError``, and ends the process with ``os._exit``, skipping
interpreter teardown: module cleanup and a last garbage collection that
take about a tenth of a short command's run and that no command needs, as
it starts no thread and closes an ``--output`` file itself. That is its one
exit. A report is flushed inside ``write_text``, so a closed stdout or a
broken pipe reaches ``main`` as an ``OSError``: one ``error:`` line and
exit 1. What is left to flush is what argparse wrote for ``--help`` or
``--version``, and a failed write of those is dropped (by argparse from
Python 3.11 on, and by the parser's own ``_print_message`` on 3.10, whose
argparse would raise), so they exit 0 whether stdout is open or not.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from types import SimpleNamespace
from typing import NoReturn

from . import __version__
from .arith import DEFAULT_DEGREE_CAP, check_degree, check_trials, check_two_units, check_unit

# Annotations such as ``Report``, ``RingForm`` and ``argparse.Namespace`` name
# types of the modules a command or a refusal imports when it runs; they are
# never evaluated at run time.


def _one_row(title: str, row: dict) -> Report:
    """A report whose JSON document is its one row."""
    from .reporting import Report

    return Report(title, tuple(row), [row], row)


def _cmd_phi_poly(args: argparse.Namespace) -> tuple[Report, int]:
    check_degree(args.n, args.cap)
    from .polynomials import cyclotomic_poly

    coeffs = [str(c) for c in cyclotomic_poly(args.n).coeffs]
    row = {"n": str(args.n), "degree": str(len(coeffs) - 1), "coefficients": coeffs}
    return _one_row(f"Cyclotomic polynomial, n = {args.n}", row), 0


def _prediction_fields(n: int, u: int, v: int, det_abs: int) -> dict:
    from .predictions import RingForm, Valuation, valuate
    from .reporting import record_cells

    form = RingForm.detect(n)
    if form is None:
        return {**dict.fromkeys(Valuation._fields), "match": None}
    valuation = valuate(form, u, v)
    return {**record_cells(valuation), "match": det_abs == valuation.predicted}


def _check_exponents(args: argparse.Namespace) -> None:
    check_two_units(args.n)
    check_unit(args.u, args.n)
    check_unit(args.v, args.n)


def _cmd_matrix(args: argparse.Namespace) -> tuple[Report, int]:
    check_degree(args.n, args.cap)
    _check_exponents(args)
    from .endomorphisms import TwistedPair
    from .innerness import MultiplierMatrix
    from .quotient import CyclotomicRing
    from .reporting import Report

    ring = CyclotomicRing(args.n)
    pair = TwistedPair.zeta_powers(ring, args.u, args.v)
    multiplier = MultiplierMatrix(pair)
    pred = _prediction_fields(args.n, args.u, args.v, multiplier.det_abs)
    matrix_rows = [
        [str(x) for x in multiplier.matrix.row(i)] for i in range(ring.degree)
    ]
    ids = {"n": str(args.n), "u": str(args.u), "v": str(args.v)}
    dets = {"det": str(multiplier.det), "det_abs": str(multiplier.det_abs), **pred}
    # JSON holds the whole matrix; CSV and Markdown give one row per matrix row
    rows = [
        {**ids, "row": str(i), "entries": r, **dets} for i, r in enumerate(matrix_rows)
    ]
    report = Report(
        f"Multiplier matrix: n = {args.n}, pair ({args.u}, {args.v})",
        tuple(rows[0]),
        rows,
        {**ids, "matrix": matrix_rows, **dets},
    )
    return report, 1 if pred["match"] is False else 0


def _not_an_int(text: str) -> str:
    """Why ``int(text)`` failed, without echoing text: it may be thousands of digits long."""
    if re.fullmatch(r"\s*[+-]?\d(?:_?\d)*\s*", text):
        return "has more digits than Python converts"
    return "is not an integer"


def _integer(text: str) -> int:
    """The ``type=`` of every integer argument; a refusal names the fault, not the text."""
    try:
        return int(text)
    except ValueError:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"the value {_not_an_int(text)}") from None


def _int_digits(limit: int) -> int:
    """Set Python's limit on the digits of an int/str conversion to ``limit``
    (0: none) and return the limit it replaces; a Python without the limit
    has none to set, and gets 0."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return previous


def _parse_coords(text: str, expected: int, digits: int) -> tuple[int, ...]:
    """The ``--dzeta`` coordinates, read under ``digits``, the limit the arguments were read under."""
    coords = []
    # on a refusal the limit stays at digits, which main restores anyway
    lifted = _int_digits(digits)
    for i, part in enumerate(text.split(",")):
        try:
            coords.append(int(part))
        except ValueError:
            raise ValueError(f"--dzeta coordinate c{i} {_not_an_int(part)}") from None
    _int_digits(lifted)
    if len(coords) != expected:
        raise ValueError(
            f"expected exactly {expected} comma-separated coordinates, got {len(coords)}"
        )
    return tuple(coords)


def _cmd_classify(args: argparse.Namespace) -> tuple[Report, int]:
    coords = _parse_coords(args.dzeta, check_degree(args.n, args.cap), args.digits)
    _check_exponents(args)
    from .endomorphisms import TwistedDerivation, TwistedPair
    from .innerness import MultiplierMatrix, classify
    from .quotient import CyclotomicRing

    ring = CyclotomicRing(args.n)
    pair = TwistedPair.zeta_powers(ring, args.u, args.v)
    derivation = TwistedDerivation(pair, ring.element(coords))
    verdict = classify(derivation)
    row = {
        "n": str(args.n),
        "u": str(args.u),
        "v": str(args.v),
        "d_zeta": [str(c) for c in coords],
        "kind": verdict.kind,
        "witness_numerators": [str(x) for x in verdict.witness.numerators],
        "witness_denominator": str(verdict.witness.denominator),
        "det_abs": str(MultiplierMatrix(pair).det_abs),
    }
    return _one_row(f"Classification: n = {args.n}, pair ({args.u}, {args.v})", row), 0


def _build_form(args: argparse.Namespace) -> RingForm:
    needed = ("r", "p") if args.form == "2rp" else ("p", "k")
    if None in (getattr(args, name) for name in needed):
        raise ValueError(f"form {args.form} requires --{needed[0]} and --{needed[1]}")
    from .predictions import RingForm

    # RingForm rejects the option the form does not take, then sizes the form
    # against the cap from its closed-form degree before n is built
    return RingForm(args.form, args.p, args.r, args.k, cap=args.cap)


def _cmd_sweep(args: argparse.Namespace) -> tuple[Report, int]:
    form = _build_form(args)
    from .harness import _sweep_report, sweep

    report = sweep(form, seed=args.seed, cap=args.cap)
    return _sweep_report(report), 0 if report.all_ok else 1


def _cmd_verify_theorem(args: argparse.Namespace) -> tuple[Report, int]:
    check_degree(args.n, args.cap)
    check_trials(args.trials)
    _check_exponents(args)
    from .endomorphisms import verify_theorem
    from .reporting import record_cells

    verdict = verify_theorem(args.n, args.u, args.v, args.trials, args.seed, args.cap)
    row = {**record_cells(verdict), "all_pass": verdict.all_pass}
    title = f"Derivation construction check: n = {verdict.n}, pair ({verdict.u}, {verdict.v})"
    return _one_row(title, row), 0 if verdict.all_pass else 1


def _cmd_tables(args: argparse.Namespace) -> tuple[Report, int]:
    check_degree(args.n, args.cap)
    from .harness import _tables_report, reproduce_tables

    return _tables_report(reproduce_tables(args.n, cap=args.cap)), 0


def _cmd_counterexamples(args: argparse.Namespace) -> tuple[Report, int]:
    from .harness import counterexample_suite
    from .reporting import Report, record_cells

    rows = [{**record_cells(c), "ok": c.ok} for c in counterexample_suite()]
    all_ok = all(row["ok"] for row in rows)
    report = Report(
        "Counterexample regressions", tuple(rows[0]), rows, {"cases": rows, "all_ok": all_ok}
    )
    return report, 0 if all_ok else 1


_INTEGER = {"type": _integer}
_SEED = {"type": _integer, "default": 0}
_CAP = {"--cap": {
    "type": _integer, "default": DEFAULT_DEGREE_CAP,
    "help": f"maximum ring degree phi(n), checked before any work (default {DEFAULT_DEGREE_CAP})",
}}
_OUTPUT = {
    "--format": {"choices": ("json", "csv", "markdown"), "default": "json",
                 "help": "output format (default json)"},
    "--output": {"metavar": "PATH", "help": "write to PATH instead of stdout ('-' keeps stdout)"},
}

# Each subcommand: its name, help, integer positionals, options in help order
# (a command that builds a ring ends them with --cap) and the function it
# runs. build_parser adds the _OUTPUT flags to every subcommand after these.
_COMMANDS = (
    ("phi-poly", "coefficients of the n-th cyclotomic polynomial", "n", _CAP, _cmd_phi_poly),
    ("matrix", "multiplier matrix and determinant for a pair", "n u v", _CAP, _cmd_matrix),
    ("classify", "inner/outer classification of D(zeta)", "n u v", {
        "--dzeta": {"required": True, "metavar": "c0,c1,...", "help": (
            "coordinates of D(zeta), ascending powers, exactly phi(n) entries")},
        **_CAP,
    }, _cmd_classify),
    ("sweep", "score the determinant prediction over all pairs", "", {
        "--form": {"choices": ("2rp", "pk"), "required": True},
        "--r": _INTEGER, "--p": _INTEGER, "--k": _INTEGER, "--seed": _SEED, **_CAP,
    }, _cmd_sweep),
    ("verify-theorem", "randomized derivation-construction check", "n u v", {
        "--trials": {"type": _integer, "default": 100}, "--seed": _SEED, **_CAP,
    }, _cmd_verify_theorem),
    ("tables", "per-pair matrices, determinants, solution templates", "n", _CAP, _cmd_tables),
    ("counterexamples", "regression suite over non-domain rings", "", {}, _cmd_counterexamples),
)


class _ParserExit(Exception):
    """argparse's exit, as the exit code and the message to write to stderr."""


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``, the one source of help, version,
    usage and refusal text; ``main`` builds it only for an argv ``_parse`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ``ArgumentParser`` whose exit (``--help``, ``--version``, a usage
        error) raises ``_ParserExit`` for ``main`` to return, not ``SystemExit``;
        its subparsers are of this class too. A usage error's usage and message
        go to ``main``'s one write: argparse would send the usage to stdout when
        stderr is None. A failed write of the help or the version is dropped, as
        argparse does from Python 3.11 on; Python 3.10's lets it raise."""

        def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
            raise _ParserExit(status, message or "")

        def error(self, message: str) -> NoReturn:
            raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

        def _print_message(self, message: str, file=None) -> None:
            try:
                super()._print_message(message, file)
            except (AttributeError, OSError):
                pass

    # a fixed top-level usage, wrapped as argparse wraps it at 80 columns up
    # to Python 3.12 (3.13 keeps "..." on the choices line), so help and
    # refusals print the same bytes on every Python; the subcommands' prog
    # is then given, since argparse would build it from this usage
    indent = "\n" + " " * len("usage: cycloderiv ")
    parser = _Parser(
        prog="cycloderiv",
        usage=f"%(prog)s [-h] [--version]{indent}{{{','.join(c[0] for c in _COMMANDS)}}}{indent}...",
        description="Exact twisted-derivation toolkit for cyclotomic integer rings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, prog="cycloderiv")
    for name, help_text, positionals, options, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for dest in positionals.split():
            p.add_argument(dest, **_INTEGER)
        for flag, kwargs in {**options, **_OUTPUT}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for an argv that names a command, then
    gives its positionals and exact flags, each flag's value after ``=`` or as
    the next token (one starting with '-' only if it is '-'), all valid; None
    for any other argv, which argparse then parses, accepts or refuses."""
    entry = next((entry for entry in _COMMANDS if argv[:1] == [entry[0]]), None)
    if entry is None:
        return None
    name, _, positionals, options, func = entry
    # each positional is a required integer option named by its dest
    required = {**_INTEGER, "required": True}
    options = {**dict.fromkeys(positionals.split(), required), **options, **_OUTPUT}
    values = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    dests, tokens = iter(positionals.split()), iter(argv[1:])
    try:
        for token in tokens:
            flag, sep, value = token.partition("=")
            if token[:1] != "-":
                flag, sep, value = next(dests, "-"), "=", token  # "-" past the last positional
            if flag not in options:
                return None
            if not sep:
                value = next(tokens, None)
                # argparse may read a next token that starts with '-' as a flag
                if value is None or value[:1] == "-" and value != "-":
                    return None
            kwargs = options[flag]
            value = int(value) if "type" in kwargs else value
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
            values[flag] = value
    except ValueError:  # int() refused the value
        return None
    # a required option has no default, so it is None until it is given
    if any(kwargs.get("required") and values[flag] is None for flag, kwargs in options.items()):
        return None
    return SimpleNamespace(**{flag.lstrip("-"): v for flag, v in values.items()}, command=name, func=func)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--dzeta -9,4`` as ``--dzeta=-9,4``.

    argparse takes a token that starts with '-' and is not a single number
    for an option, so a coordinate list with a negative first entry would
    otherwise be refused as a missing value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--dzeta" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--dzeta={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
        args = _parse(argv) or build_parser().parse_args(argv)
        # a report prints every integer in full, though a witness may have
        # more digits than an input may; main restores the limit on return
        args.digits = _int_digits(0)
        try:
            report, code = args.func(args)
            from .reporting import render, write_text

            write_text(render(report, args.format), args.output)
        finally:
            _int_digits(args.digits)
        return code
    except _ParserExit as exc:
        code, message = exc.args
    except ValueError as exc:
        code, message = 2, f"error: {exc}\n"
    except (MemoryError, OverflowError):
        code, message = 2, "error: out of memory; a lower --cap refuses a ring this large\n"
    except OSError as exc:
        code, message = 1, f"error: {exc}\n"
    # the one write to stderr: a closed stderr, or none, drops the text, not the code
    try:
        sys.stderr.write(message)
    except (AttributeError, OSError):
        pass
    return code


def run() -> NoReturn:
    """The process entry point: ``main`` on ``sys.argv``, then exit without teardown."""
    code = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
