"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 1-11 run in the default suite; the extended sweep entries are
opt-in via ``pytest -m slow``.
"""

import random
from itertools import combinations
from math import gcd

import pytest

from cycloderiv import (
    CyclotomicRing,
    IntMatrix,
    MultiplierMatrix,
    Polynomial,
    RingForm,
    TwistedDerivation,
    TwistedPair,
    adjugate,
    classify,
    counterexample_suite,
    cyclotomic_poly,
    det,
    mat_vec,
    solve_unique,
    sweep,
    telescope_check,
    units,
    verify_theorem,
)

from cycloderiv.polynomials import _convolve
from oracles import at_power, matmul
from reference_tables import REF_N9_DETS

# three fixed pairs per ring for the randomized criteria
RING_PAIRS = {
    9: ((1, 2), (2, 5), (4, 7)),
    10: ((1, 3), (3, 7), (7, 9)),
    12: ((1, 5), (5, 7), (7, 11)),
}


def _verdict(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({description}): {status}")
    assert ok, f"criterion {number} failed: {description} {detail}".rstrip()


def test_criterion_01_n10_determinants():
    ring = CyclotomicRing(10)
    dets = {
        (u, v): MultiplierMatrix(TwistedPair.zeta_powers(ring, u, v)).det_abs
        for u, v in combinations(units(10), 2)
    }
    ok = len(dets) == 6 and all(d == 5 for d in dets.values())
    _verdict(1, "n=10: all 6 pairs have |det A| = 5", ok, detail=str(dets))


def test_criterion_02_n9_determinants():
    ring = CyclotomicRing(9)
    failures = []
    seen = {}
    for u, v in combinations(units(9), 2):
        det_abs = MultiplierMatrix(TwistedPair.zeta_powers(ring, u, v)).det_abs
        seen[(u, v)] = det_abs
        e1 = 1 if (v - u) % 3 == 0 else 0
        expected = 27 if e1 == 1 else 3
        if det_abs != expected or det_abs != REF_N9_DETS[(u, v)]:
            failures.append((u, v, det_abs))
    ok = len(seen) == 15 and not failures
    _verdict(2, "n=9: 15 pairs, dets 3/27 as the valuation dictates", ok, str(failures))


def _sweep_all_match(forms):
    failures = []
    for form in forms:
        report = sweep(form, seed=0)
        if not report.all_ok:
            bad = [(r.u, r.v, r.det_abs, r.predicted) for r in report.records if not (r.match and r.roundtrip)]
            failures.append((form.label(), bad))
    return failures


def test_criterion_03_even_form_sweeps():
    failures = _sweep_all_match(
        [
            RingForm.form_2rp(1, 3),
            RingForm.form_2rp(1, 5),
            RingForm.form_2rp(1, 7),
            RingForm.form_2rp(2, 3),
            RingForm.form_2rp(3, 3),
        ]
    )
    _verdict(3, "2^r p sweeps: 100% prediction match", not failures, str(failures))


def test_criterion_04_prime_power_sweeps():
    failures = _sweep_all_match(
        [
            RingForm.form_pk(2, 2),
            RingForm.form_pk(2, 3),
            RingForm.form_pk(2, 4),
            RingForm.form_pk(3, 2),
            RingForm.form_pk(5, 2),
        ]
    )
    _verdict(4, "p^k sweeps: 100% prediction match", not failures, str(failures))


@pytest.mark.slow
def test_criterion_04_extended_prime_power_sweeps():
    failures = _sweep_all_match([RingForm.form_pk(2, 5), RingForm.form_pk(3, 3)])
    _verdict(4, "extended p^k sweeps (2,5) and (3,3)", not failures, str(failures))


def test_criterion_05_derivation_construction_suite():
    failures = []
    for n, pairs in RING_PAIRS.items():
        for u, v in pairs:
            verdict = verify_theorem(n, u, v, trials=100, seed=n * 100 + u * 10 + v)
            if not verdict.all_pass:
                failures.append((n, u, v, verdict.passes))
    _verdict(5, "100 random D(zeta) per pair all satisfy the product rule", not failures, str(failures))


def test_criterion_06_telescoping_sums_vanish():
    failures = []
    for n, pairs in RING_PAIRS.items():
        ring = CyclotomicRing(n)
        for u, v in pairs:
            pair = TwistedPair.zeta_powers(ring, u, v)
            for k in range(0, 2 * ring.degree + 1):
                if not telescope_check(pair, k):
                    failures.append((n, u, v, k))
    _verdict(6, "telescoping sums vanish for k = 0..2*phi(n)", not failures, str(failures))


def test_criterion_07_counterexample_regressions():
    cases = counterexample_suite()
    failures = [c.name for c in cases if not c.ok]
    expected_failures = [c for c in cases if not c.expects_derivation]
    ok = not failures and expected_failures and all(
        not c.leibniz_ok for c in expected_failures
    )
    _verdict(7, "non-domain extensions fail the product rule as expected", ok, str(failures))


def test_criterion_08_inner_roundtrip_oracle():
    failures = []
    for n, pairs in RING_PAIRS.items():
        ring = CyclotomicRing(n)
        for u, v in pairs:
            pair = TwistedPair.zeta_powers(ring, u, v)
            rng = random.Random(n * 1000 + u * 10 + v)
            for _ in range(100):
                beta = ring.random_element(rng)
                verdict = classify(TwistedDerivation(pair, beta * pair.theta_difference()))
                if not (
                    verdict.is_inner
                    and verdict.witness.numerators == beta.coords
                    and verdict.witness.denominator == 1
                ):
                    failures.append((n, u, v, beta.coords))
    _verdict(8, "classification recovers 100 random integral betas exactly", not failures, str(failures))


def test_criterion_09_divisibility_sufficiency():
    failures = []
    for n, p, pairs in ((9, 3, ((1, 2), (1, 4))), (25, 5, ((1, 2), (1, 6)))):
        ring = CyclotomicRing(n)
        rng = random.Random(n)
        for u, v in pairs:
            pair = TwistedPair.zeta_powers(ring, u, v)
            for _ in range(50):
                d_theta = p * ring.random_element(rng)
                verdict = classify(TwistedDerivation(pair, d_theta))
                if not verdict.is_inner:
                    failures.append((n, u, v, d_theta.coords))
    _verdict(9, "coordinates divisible by p always classify inner", not failures, str(failures))


def test_criterion_10_integer_linear_algebra_identities():
    rng = random.Random(1010)
    failures = 0
    for _ in range(200):
        d = rng.randint(1, 8)
        m = IntMatrix(d, d, tuple(rng.randint(-9, 9) for _ in range(d * d)))
        d0 = det(m)
        adj = adjugate(m)
        scaled = IntMatrix(d, d, tuple(d0 if i == j else 0 for i in range(d) for j in range(d)))
        if matmul(m, adj) != scaled or matmul(adj, m) != scaled:
            failures += 1
            continue
        if d0 != 0:
            x0 = tuple(rng.randint(-9, 9) for _ in range(d))
            sol = solve_unique(m, mat_vec(m, x0))
            if sol.numerators != x0 or sol.denominator != 1:
                failures += 1
    _verdict(10, "adjugate and solve identities over 200 random matrices", failures == 0, f"{failures} failures")


def test_criterion_11_cyclotomic_identity_suite():
    ok = True
    # divisor product: prod over d | n of Phi_d = x^n - 1, n <= 64
    for n in range(1, 65):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _convolve(prod, cyclotomic_poly(d).coeffs)
        ok &= Polynomial(prod) == Polynomial([-1] + [0] * (n - 1) + [1])
        ok &= cyclotomic_poly(n).degree == sum(
            1 for x in range(1, n + 1) if gcd(x, n) == 1
        )
    # prime case: all-ones coefficients
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        ok &= cyclotomic_poly(p) == Polynomial((1,) * p)
    # prime powers within range
    for p in (2, 3, 5):
        k = 2
        while p**k <= 64:
            ok &= cyclotomic_poly(p**k) == at_power(cyclotomic_poly(p), p ** (k - 1))
            k += 1
    # doubling of odd conductors
    for n in range(3, 32, 2):
        ok &= cyclotomic_poly(2 * n) == at_power(cyclotomic_poly(n), 1, -1)
    # 2^k p identity
    for p in (3, 5, 7, 11, 13):
        k = 1
        while 2**k * p <= 64:
            ok &= cyclotomic_poly(2**k * p) == at_power(cyclotomic_poly(p), 2 ** (k - 1), -1)
            k += 1
    _verdict(11, "cyclotomic identities hold for n <= 64", ok)
