"""Batch drivers: pair sweeps, regressions, tables.

Sweeps and tables share one pair walk, ``_zeta_pairs``, once the ring
degree is checked against the cap (a sweep's from its form's closed form by
``RingForm.degree``, a table's by ``check_degree``): it builds ``Z[zeta_n]``
and one endomorphism ``zeta -> zeta^u`` per unit u, and yields every
unordered pair of unit exponents in the order of
``combinations(units(n), 2)``. A sweep measures each pair's ``|det|`` as a
resultant, without building the multiplier matrix, compares it against the
prediction for the ring's form, and runs one seeded inner round-trip per
pair (draw an integral beta, rebuild the derivation it defines, confirm
classification recovers beta exactly). The regression suite is a table of
power-formula extensions over rings with zero divisors. Reports are
immutable named tuples. ``_sweep_report`` and ``_tables_report`` convert a
``SweepReport`` and a ``TableArtifact`` into the ``reporting.Report`` that
``render`` formats, so each batch record sits beside its output schema. The
CLI calls them; ``reporting`` imports nothing from this module. Identical
(form, seed, version) inputs produce identical reports and identical bytes.

The randomized product-rule check, ``verify_theorem``, lives in
``endomorphisms`` beside ``leibniz_check``; this module binds the name only
because the benchmark's tracer wraps ``harness.verify_theorem``.
"""

from __future__ import annotations

import random
from itertools import chain, combinations
from typing import Iterator, NamedTuple

from . import __version__
from .arith import DEFAULT_DEGREE_CAP, check_degree, check_two_units, units
from .endomorphisms import Endomorphism, TwistedDerivation, TwistedPair, leibniz_check
# bound here only for perfbench/tracer.py, which wraps harness.verify_theorem
from .endomorphisms import verify_theorem  # noqa: F401
from .innerness import (
    MultiplierMatrix,
    RatVector,
    classify,
    multiplication_matrix,
    multiplier_inverse,
)
# intlinalg is imported eagerly: perfbench/tracer.py wraps its functions and
# looks the module up in sys.modules
from .intlinalg import IntMatrix
from .polynomials import Polynomial
from .predictions import RingForm, valuate
from .quotient import CyclotomicRing, QuotientRing
from .reporting import Report, _markdown_table, record_cells


class PairRecord(NamedTuple):
    u: int
    v: int
    e1: int
    e2: int | None
    m: int
    det_abs: int
    predicted: int
    match: bool
    roundtrip: bool


class SweepReport(NamedTuple):
    form: RingForm
    records: tuple[PairRecord, ...]
    seed: int
    version: str

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def matches(self) -> int:
        return sum(1 for r in self.records if r.match)

    @property
    def all_ok(self) -> bool:
        return all(r.match and r.roundtrip for r in self.records)


def _zeta_pairs(n: int) -> Iterator[tuple[int, int, TwistedPair]]:
    """``(u, v, pair)`` for every unordered pair of unit exponents of Z[zeta_n].

    Each endomorphism zeta -> zeta^u is built once and shared by its pairs.
    """
    check_two_units(n)
    ring = CyclotomicRing(n)
    endos = {u: Endomorphism.zeta_power(ring, u) for u in units(n)}
    for u, v in combinations(endos, 2):
        yield u, v, TwistedPair(endos[u], endos[v])


def sweep(form: RingForm, seed: int = 0, cap: int = DEFAULT_DEGREE_CAP) -> SweepReport:
    """Score the determinant prediction over all unordered pairs of a ring."""
    form.degree(cap)
    rng = random.Random(seed)
    records = []
    for u, v, pair in _zeta_pairs(form.n):
        det_abs = MultiplierMatrix(pair).det_abs
        e1, e2, m, predicted = valuate(form, u, v)
        beta = pair.ring.random_element(rng)
        verdict = classify(TwistedDerivation(pair, beta * pair.theta_difference()))
        roundtrip = verdict.is_inner and verdict.witness.numerators == beta.coords
        match = det_abs == predicted
        records.append(PairRecord(u, v, e1, e2, m, det_abs, predicted, match, roundtrip))
    return SweepReport(form=form, records=tuple(records), seed=seed, version=__version__)


def _sweep_report(report: SweepReport) -> Report:
    form = report.form
    rows = [record_cells(rec) for rec in report.records]
    payload = {
        "ring": {
            "n": str(form.n),
            "form": form.kind,
            "params": {k: str(v) for k, v in form.params().items()},
        },
        "pairs": rows,
        "summary": {
            "pairs": str(len(rows)),
            "matches": str(report.matches),
            "seed": str(report.seed),
            "version": report.version,
        },
    }
    summary = (f"{len(rows)} pairs, {report.matches} matches, "
               f"seed {report.seed}, version {report.version}")
    columns = PairRecord._fields
    markdown = chain(_markdown_table(columns, rows), ("", summary))
    return Report(f"Sweep: n = {form.n}, form {form.label()}", columns, rows, payload, markdown)


class CounterexampleCase(NamedTuple):
    """One regression case: a power-formula extension and its expected verdict.

    A failing case keeps the first basis pair ``(i, j)`` where the product
    rule breaks, and the coordinates of both sides of it there.
    """

    name: str
    modulus: str
    sigma: str
    tau: str
    d_theta: str
    expects_derivation: bool
    leibniz_ok: bool
    failing_pair: tuple[int, int] | None
    lhs: str | None
    rhs: str | None

    @property
    def ok(self) -> bool:
        return self.leibniz_ok == self.expects_derivation


# name, modulus coefficients, (image, description) of sigma and of tau,
# D(theta), and whether the extension is expected to be a derivation; images
# and D(theta) are coordinates in the power basis
_CASES = (
    *(
        (f"truncated-x^{r}-scale-{m}", (0,) * r + (1,), ((0, 1), "theta -> theta"),
         ((0, m), f"theta -> {m}*theta"), (1,), False)
        for r in (2, 3, 4)
        for m in (2, 3)
    ),
    ("truncated-x^3-scale-2-zero-map", (0, 0, 0, 1), ((0, 1), "theta -> theta"),
     ((0, 2), "theta -> 2*theta"), (), True),
    ("sixth-roots-square-twist", (-1, 0, 0, 0, 0, 0, 1), ((0, 1), "x -> x"),
     ((0, 0, 1), "x -> x^2"), (0, 1), False),
)


def _run_case(
    name: str,
    modulus: tuple[int, ...],
    sigma: tuple[tuple[int, ...], str],
    tau: tuple[tuple[int, ...], str],
    d_theta: tuple[int, ...],
    expects_derivation: bool,
) -> CounterexampleCase:
    ring = QuotientRing(Polynomial(modulus))
    pair = TwistedPair(
        Endomorphism(ring, ring.element(sigma[0])), Endomorphism(ring, ring.element(tau[0]))
    )
    d = ring.element(d_theta)
    report = leibniz_check(TwistedDerivation(pair, d))
    return CounterexampleCase(
        name=name,
        modulus=str(ring.modulus),
        sigma=sigma[1],
        tau=tau[1],
        d_theta=str(d.coords),
        expects_derivation=expects_derivation,
        leibniz_ok=report.ok,
        failing_pair=report.indices,
        lhs=None if report.lhs is None else str(report.lhs.coords),
        rhs=None if report.rhs is None else str(report.rhs.coords),
    )


def counterexample_suite() -> tuple[CounterexampleCase, ...]:
    """Extensions over non-domains that fail the product rule, plus controls.

    Two families with zero divisors: truncated rings Z[x]/(x^r) where the
    second map rescales the nilpotent generator, and Z[x]/(x^6 - 1) with the
    squaring twist. In both, the power-formula extension of a well-chosen
    D(theta) is not a derivation; the zero map always is, which pins the
    failure on the construction rather than the ring.
    """
    return tuple(_run_case(*case) for case in _CASES)


class TableBlock(NamedTuple):
    u: int
    v: int
    matrix: IntMatrix
    det: int
    solution_rows: tuple[RatVector, ...]


class TableArtifact(NamedTuple):
    n: int
    blocks: tuple[TableBlock, ...]
    version: str


def reproduce_tables(n: int, cap: int = DEFAULT_DEGREE_CAP) -> TableArtifact:
    """Per-pair multiplier matrix, determinant, and exact solution template.

    Solution row i gives the coefficients of ``c_0 .. c_{d-1}`` over a
    positive denominator such that row . C is the i-th coordinate of the
    unique solution of ``A X = C``; each row is the corresponding row of
    ``A^-1``, reduced. ``A^-1`` is the matrix of ``num`` over m for the
    closed-form inverse ``(num, m)`` of ``multiplier_inverse``, checked per
    pair as ``delta * num == m``; the determinant is the resultant of
    ``MultiplierMatrix.det``, not an elimination of the printed matrix.
    Deterministic: no randomness is involved.
    """
    check_degree(n, cap)
    blocks = []
    for u, v, pair in _zeta_pairs(n):
        multiplier = MultiplierMatrix(pair)
        num, m = multiplier_inverse(pair)
        if pair.theta_difference() * num != pair.ring.element((m,)):
            raise ArithmeticError(f"inverse {num!r} does not satisfy delta * num = {m} for {pair!r}")
        inverse = multiplication_matrix(num)
        rows = tuple(RatVector.reduced(inverse.row(i), m) for i in range(pair.ring.degree))
        blocks.append(
            TableBlock(
                u=u,
                v=v,
                matrix=multiplier.matrix,
                det=multiplier.det,
                solution_rows=rows,
            )
        )
    return TableArtifact(n=n, blocks=tuple(blocks), version=__version__)


def _tables_markdown(blocks: list[dict], version: str):
    for blk in blocks:
        yield f"## pair ({blk['u']}, {blk['v']})"
        yield ""
        yield f"det = {blk['det']} (|det| = {blk['det_abs']})"
        yield ""
        yield "matrix rows:"
        for r in blk["matrix"]:
            yield "    " + " ".join(f"{x:>4}" for x in r)
        yield ""
        yield "solution template (coefficients of c_0..c_{d-1} over denominator):"
        for s in blk["solution"]:
            nums = " ".join(f"{x:>4}" for x in s["coeffs"])
            yield f"    ( {nums} ) / {s['denominator']}"
        yield ""
    yield f"version {version}"


def _tables_report(artifact: TableArtifact) -> Report:
    n = str(artifact.n)
    blocks = [
        {
            "u": str(b.u),
            "v": str(b.v),
            "det": str(b.det),
            "det_abs": str(abs(b.det)),
            "matrix": [[str(x) for x in b.matrix.row(i)] for i in range(b.matrix.rows)],
            "solution": [
                {"coeffs": [str(x) for x in row.numerators], "denominator": str(row.denominator)}
                for row in b.solution_rows
            ],
        }
        for b in artifact.blocks
    ]
    # CSV and Markdown read the JSON blocks, one CSV line per block: matrix
    # rows joined by " ; ", solution rows by " | "
    rows = (
        {
            "n": n,
            "u": blk["u"],
            "v": blk["v"],
            "det": blk["det"],
            "det_abs": blk["det_abs"],
            "matrix": " ; ".join(" ".join(r) for r in blk["matrix"]),
            "solution": " | ".join(
                " ".join(s["coeffs"]) + f" / {s['denominator']}" for s in blk["solution"]
            ),
        }
        for blk in blocks
    )
    return Report(
        f"Multiplier tables: n = {n}",
        ("n", "u", "v", "det", "det_abs", "matrix", "solution"),
        rows,
        {"n": n, "version": artifact.version, "blocks": blocks},
        _tables_markdown(blocks, artifact.version),
    )
