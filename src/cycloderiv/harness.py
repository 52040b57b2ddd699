"""Batch drivers: pair sweeps, randomized verification, regressions, tables.

Sweeps and tables share one pair walk, ``_zeta_pairs``: it checks the ring
degree against the cap, builds ``Z[zeta_n]`` and one endomorphism
``zeta -> zeta^u`` per unit u, and yields every unordered pair of unit
exponents in the order of ``combinations(units(n), 2)``. A sweep builds each
pair's multiplier matrix, compares ``|det|`` against the prediction for the
ring's form, and runs one seeded inner round-trip per pair (draw an integral
beta, rebuild the derivation it defines, confirm classification recovers
beta exactly). The regression suite is a table of power-formula extensions
over rings with zero divisors. Reports are immutable named tuples; rendering
lives in ``reporting``. Identical (form, seed, version) inputs produce
identical reports; the measured elapsed time is kept on the object but never
serialized, so emitted bytes stay reproducible.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import isqrt
from typing import Iterator, NamedTuple

from ._version import __version__
from .arith import totient, units
from .endomorphisms import Endomorphism, TwistedDerivation, TwistedPair, leibniz_check
from .innerness import (
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
from .quotient import CyclotomicRing, QuotientRing

DEFAULT_DEGREE_CAP = 64


def _factor_limit(cap: int) -> int:
    """A bound on n above which phi(n) exceeds the cap: ``(2 cap^2 + 2)^2``.

    ``phi(n) >= sqrt(n / 2)``, so above this bound ``isqrt(n // 2) > cap``
    and n need not be factored. At or below it, trial division takes at most
    ``2 cap^2 + 2`` steps.
    """
    return (2 * cap * cap + 2) ** 2


def check_degree(n: int, cap: int = DEFAULT_DEGREE_CAP) -> int:
    """The ring degree phi(n), refused above the cap before anything is built.

    Rings and multiplier matrices grow with phi(n) and phi(n)^2, so every
    entry point checks the degree from n alone first. Above ``_factor_limit``
    the refusal states the lower bound ``isqrt(n // 2)`` of phi(n), so the
    work is bounded by the cap, not by n.
    """
    if n > _factor_limit(cap):
        raise ValueError(
            f"ring degree phi({n}) >= {isqrt(n // 2)} exceeds the cap {cap}; "
            "raise the cap to proceed"
        )
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


def _zeta_pairs(n: int, cap: int) -> Iterator[tuple[int, int, TwistedPair]]:
    """``(u, v, pair)`` for every unordered pair of unit exponents of Z[zeta_n].

    The degree is checked against the cap before the ring is built, and each
    endomorphism zeta -> zeta^u is built once and shared by its pairs.
    """
    if check_degree(n, cap) < 2:
        raise ValueError(f"n = {n} is unsupported: fewer than two unit exponents")
    ring = CyclotomicRing(n)
    endos = {u: Endomorphism.zeta_power(ring, u) for u in units(n)}
    for u, v in combinations(endos, 2):
        yield u, v, TwistedPair(endos[u], endos[v])


def sweep(form: RingForm, seed: int = 0, cap: int = DEFAULT_DEGREE_CAP) -> SweepReport:
    """Score the determinant prediction over all unordered pairs of a ring."""
    started = time.perf_counter()
    rng = random.Random(seed)
    records = []
    for u, v, pair in _zeta_pairs(form.n, cap):
        multiplier = MultiplierMatrix(pair)
        valuation = valuate(form, u, v)
        predicted = predict_det(form, valuation)
        det_abs = multiplier.det_abs
        beta = pair.ring.random_element(rng)
        verdict = classify(TwistedDerivation(pair, beta * pair.theta_difference()), multiplier)
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
                roundtrip=verdict.is_inner and verdict.witness.numerators == beta.coords,
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
    pair as ``delta * num == m``; the determinant is measured by the one
    elimination of ``MultiplierMatrix.det``.
    Deterministic: no randomness is involved.
    """
    blocks = []
    for u, v, pair in _zeta_pairs(n, cap):
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
