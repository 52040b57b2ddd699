"""Command-line interface.

Subcommands mirror the library surface: phi-poly, matrix, classify, sweep,
verify-theorem, tables, counterexamples. Output goes to stdout by default
(always UTF-8, integers as decimal strings in JSON); ``--output`` writes to a
file instead, and a relative ``--output`` path is resolved against the
``CYCLODERIV_OUTPUT_DIR`` environment variable when that is set. Every
command that builds a ring takes ``--cap`` (default 64) and refuses a ring
degree phi(n) above it before building anything.

One table, ``_COMMANDS``, declares the subcommands: each entry gives a
name, its help, its integer positionals, its options in help order and the
``_cmd_*`` function it runs, and ``build_parser`` is one loop over it that
adds the shared ``--format`` and ``--output`` flags last. So an option is
declared once, and one that several commands share is one table edit.

Each command returns a ``reporting.Report`` and its exit code: ``sweep``
and ``tables`` convert their batch record with the converter ``harness``
keeps beside it, and the other commands build their ``Report`` here.
``main`` alone renders it through ``reporting.render`` and writes it.

Start-up loads only the parser and the argument rules (``arith``). A command
checks its input first, in the order the library would refuse it (the ring
degree, then the trial count, then the exponents u and v: an n <= 2 has
fewer than two of them, and each must be a unit), and only then imports the
modules it runs. So ``--version``, ``--help`` and a refused degree, trial
count or exponent load no other part of the library, and ``main`` imports
the renderer once the command has returned.

Beside ``reporting``, ``verify-theorem`` loads only the ring stack
(``polynomials``, ``quotient``, ``endomorphisms``), ``classify`` adds
``innerness``, and the batch commands load ``harness`` and every module;
``python tools/code_lines.py --commands`` prints each command's set.

Exit codes: 0 on success or all-pass, 1 on an assertion-style failure
(prediction mismatch, failed round-trip, a Leibniz failure where a pass was
expected), 2 on usage errors, including an input that runs out of memory
(``Phi_n`` is built as a series of phi(n) + 2 coefficients, which the cap
bounds, so a cap far above the default can admit an n whose series cannot
be allocated, or whose length does not even fit a list index).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__
from .arith import DEFAULT_DEGREE_CAP, check_degree, check_trials, check_two_units, check_unit
from .arith import _degree_bound, _factor_limit, check_indexable

# Annotations such as ``Report`` and ``RingForm`` name types of the modules a
# command imports when it runs; they are never evaluated at run time.


def _destination(args: argparse.Namespace) -> str | Path | None:
    dest = args.output
    if dest is None or dest == "-":
        return dest
    path = Path(dest)
    base = os.environ.get("CYCLODERIV_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


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
        raise argparse.ArgumentTypeError(f"the value {_not_an_int(text)}") from None


def _parse_coords(text: str, expected: int) -> tuple[int, ...]:
    coords = []
    for i, part in enumerate(text.split(",")):
        try:
            coords.append(int(part))
        except ValueError:
            raise ValueError(f"--dzeta coordinate c{i} {_not_an_int(part)}") from None
    if len(coords) != expected:
        raise ValueError(
            f"expected exactly {expected} comma-separated coordinates, got {len(coords)}"
        )
    return tuple(coords)


def _cmd_classify(args: argparse.Namespace) -> tuple[Report, int]:
    coords = _parse_coords(args.dzeta, check_degree(args.n, args.cap))
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
    if args.form == "2rp":
        if args.r is None or args.p is None:
            raise ValueError("form 2rp requires --r and --p")
    elif args.p is None or args.k is None:
        raise ValueError("form pk requires --p and --k")
    # p divides n, so phi(n) >= phi(p), and n >= 2^e for the form's exponent
    # e: a p or e this large is refused before p is tested or n is computed;
    # only then is n itself bounded, and an n whose Phi_n no list can hold is
    # refused too, so a p above the Miller-Rabin limit is never trial-divided
    e = args.r if args.form == "2rp" else args.k
    if args.p >= 2 and e >= 1:
        n = None
        if _degree_bound(args.p, args.cap) is None and e <= _factor_limit(args.cap).bit_length():
            n = 2**e * args.p if args.form == "2rp" else args.p**e
        if n is None or _degree_bound(n, args.cap) is not None:
            label = f"2^{e}*{args.p}" if args.form == "2rp" else f"{args.p}^{e}"
            raise ValueError(
                f"ring degree of n = {label} exceeds the cap {args.cap}; raise the cap to proceed"
            )
        check_indexable(n)
    from .predictions import RingForm

    # RingForm rejects the option the form does not take
    return RingForm(args.form, args.p, args.r, args.k)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloderiv",
        description="Exact twisted-derivation toolkit for cyclotomic integer rings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, options, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for dest in positionals.split():
            p.add_argument(dest, **_INTEGER)
        for flag, kwargs in {**options, **_OUTPUT}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


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
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        report, code = args.func(args)
        from .reporting import render, write_text

        write_text(render(report, args.format), _destination(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print("error: out of memory; a lower --cap refuses a ring this large", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
