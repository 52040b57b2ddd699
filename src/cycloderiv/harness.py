"""Batch drivers: pair sweeps, randomized verification, regressions, tables.

A sweep walks every unordered pair of unit exponents of a ring, builds the
multiplier matrix, compares ``|det|`` against the prediction for the ring's
form, and runs one seeded inner round-trip per pair (draw an integral beta,
rebuild the derivation it defines, confirm classification recovers beta
exactly). Reports are immutable named tuples; rendering lives in
``reporting``. Identical (form, seed, version) inputs produce identical
reports; the measured elapsed time is kept on the object but never
serialized, so emitted bytes stay reproducible.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import NamedTuple

from ._version import __version__
from .arith import totient, units
from .endomorphisms import Endomorphism, TwistedDerivation, TwistedPair, leibniz_check
from .innerness import (
    Classification,
    MultiplierMatrix,
    RingForm,
    classify,
    multiplication_matrix,
    multiplier_inverse,
    predict_det,
    valuate,
)
from .intlinalg import IntMatrix, RatVector
from .polynomials import Polynomial
from .quotient import CyclotomicRing, QuotientRing, RingElement

DEFAULT_DEGREE_CAP = 64


def check_degree(n: int, cap: int = DEFAULT_DEGREE_CAP) -> int:
    """The ring degree phi(n), refused above the cap before anything is built.

    Rings and multiplier matrices grow with phi(n) and phi(n)^2, so every
    entry point checks the degree from the factorization of n alone first.
    """
    degree = totient(n)
    if degree > cap:
        raise ValueError(
            f"ring degree {degree} exceeds the cap {cap}; raise the cap to proceed"
        )
    return degree


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
    elapsed: float = 0.0  # informational only; excluded from serialization

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def matches(self) -> int:
        return sum(1 for r in self.records if r.match)

    @property
    def all_ok(self) -> bool:
        return all(r.match and r.roundtrip for r in self.records)


def _inner_roundtrip(
    ring: CyclotomicRing,
    pair: TwistedPair,
    multiplier: MultiplierMatrix,
    beta: RingElement,
) -> bool:
    d_theta = beta * pair.theta_difference()
    verdict: Classification = classify(TwistedDerivation(pair, d_theta), multiplier)
    return (
        verdict.is_inner
        and verdict.witness.numerators == beta.coords
        and verdict.witness.denominator == 1
    )


def sweep(form: RingForm, seed: int = 0, cap: int = DEFAULT_DEGREE_CAP) -> SweepReport:
    """Score the determinant prediction over all unordered pairs of a ring."""
    started = time.perf_counter()
    n = form.n
    if check_degree(n, cap) < 2:
        raise ValueError(f"n = {n} is degenerate: fewer than two unit exponents")
    ring = CyclotomicRing(n)
    us = units(n)
    endos = {u: Endomorphism.zeta_power(ring, u) for u in us}
    rng = random.Random(seed)
    records = []
    for u, v in combinations(us, 2):
        pair = TwistedPair(endos[u], endos[v])
        multiplier = MultiplierMatrix(pair)
        valuation = valuate(form, u, v)
        predicted = predict_det(form, valuation)
        det_abs = multiplier.det_abs
        beta = ring.random_element(rng)
        records.append(
            PairRecord(
                u=u,
                v=v,
                e1=valuation.e1,
                e2=valuation.e2,
                m=valuation.m,
                det_abs=det_abs,
                predicted=predicted,
                match=det_abs == predicted,
                roundtrip=_inner_roundtrip(ring, pair, multiplier, beta),
            )
        )
    elapsed = time.perf_counter() - started
    return SweepReport(
        form=form,
        records=tuple(records),
        seed=seed,
        version=__version__,
        elapsed=elapsed,
    )


class TheoremVerdict(NamedTuple):
    n: int
    u: int
    v: int
    trials: int
    passes: int
    seed: int

    @property
    def all_pass(self) -> bool:
        return self.passes == self.trials


def verify_theorem(n: int, u: int, v: int, trials: int = 100, seed: int = 0) -> TheoremVerdict:
    """Leibniz-check the power-formula extension for random D(theta) draws.

    Over a cyclotomic ring every draw must pass; the expected verdict is
    trials/trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ring = CyclotomicRing(n)
    pair = TwistedPair.zeta_powers(ring, u, v)
    rng = random.Random(seed)
    passes = 0
    for _ in range(trials):
        derivation = TwistedDerivation(pair, ring.random_element(rng))
        if leibniz_check(derivation).ok:
            passes += 1
    return TheoremVerdict(n=n, u=u, v=v, trials=trials, passes=passes, seed=seed)


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


def _run_case(
    name: str,
    pair: TwistedPair,
    d_theta: RingElement,
    expects_derivation: bool,
    sigma_desc: str,
    tau_desc: str,
) -> CounterexampleCase:
    report = leibniz_check(TwistedDerivation(pair, d_theta))
    return CounterexampleCase(
        name=name,
        modulus=str(pair.ring.modulus),
        sigma=sigma_desc,
        tau=tau_desc,
        d_theta=str(d_theta.coords),
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
    cases = []
    for r in (2, 3, 4):
        for m in (2, 3):
            ring = QuotientRing(Polynomial.monomial(r))
            theta = ring.generator()
            pair = TwistedPair(
                Endomorphism(ring, theta), Endomorphism(ring, m * theta)
            )
            cases.append(
                _run_case(
                    f"truncated-x^{r}-scale-{m}",
                    pair,
                    ring.one(),
                    expects_derivation=False,
                    sigma_desc="theta -> theta",
                    tau_desc=f"theta -> {m}*theta",
                )
            )
    control_ring = QuotientRing(Polynomial.monomial(3))
    control_theta = control_ring.generator()
    control_pair = TwistedPair(
        Endomorphism(control_ring, control_theta),
        Endomorphism(control_ring, 2 * control_theta),
    )
    cases.append(
        _run_case(
            "truncated-x^3-scale-2-zero-map",
            control_pair,
            control_ring.zero(),
            expects_derivation=True,
            sigma_desc="theta -> theta",
            tau_desc="theta -> 2*theta",
        )
    )
    ring6 = QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1)))
    pair6 = TwistedPair(
        Endomorphism(ring6, ring6.generator()),
        Endomorphism(ring6, ring6.reduce_power(2)),
    )
    cases.append(
        _run_case(
            "sixth-roots-square-twist",
            pair6,
            ring6.generator(),
            expects_derivation=False,
            sigma_desc="x -> x",
            tau_desc="x -> x^2",
        )
    )
    return tuple(cases)


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
    pair as ``delta * num == m``; the determinant is measured by the one
    elimination of ``MultiplierMatrix.det``.
    Deterministic: no randomness is involved.
    """
    if check_degree(n, cap) < 2:
        raise ValueError(f"n = {n} is unsupported: fewer than two unit exponents")
    ring = CyclotomicRing(n)
    us = units(n)
    endos = {u: Endomorphism.zeta_power(ring, u) for u in us}
    blocks = []
    for u, v in combinations(us, 2):
        pair = TwistedPair(endos[u], endos[v])
        multiplier = MultiplierMatrix(pair)
        num, m = multiplier_inverse(pair)
        if pair.theta_difference() * num != ring.element((m,)):
            raise ArithmeticError(f"inverse {num!r} does not satisfy delta * num = {m} for {pair!r}")
        inverse = multiplication_matrix(num)
        rows = tuple(RatVector.reduced(inverse.row(i), m) for i in range(ring.degree))
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
