"""Property tests: the ring product, the product-rule check, the endomorphisms, the
elimination, the resultant and the inner/outer classification.

Runs only where ``hypothesis`` is installed. Examples are derandomized, so a
run is as deterministic as the rest of the suite.
"""

import random
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    bareiss_det,
    cofactor_adjugate,
    cramer_solve,
    dense_ring_product,
    leibniz_scan,
    sylvester_det,
)

from cycloderiv import (  # noqa: E402
    CyclotomicRing,
    Endomorphism,
    IntMatrix,
    Polynomial,
    QuotientRing,
    TwistedDerivation,
    TwistedPair,
    adjugate,
    classify,
    det,
    leibniz_check,
    solve_unique,
)
from cycloderiv.arith import factorize, units  # noqa: E402
from cycloderiv.polynomials import _convolve, resultant  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

coords = st.integers(min_value=-9, max_value=9)


@st.composite
def non_domain_images(draw, count):
    """Distinct generator images on Z[x]/(x^m - 1) (theta^a) or Z[x]/(x^r) (a theta)."""
    if draw(st.booleans()):
        m = draw(st.integers(min_value=2, max_value=9))
        ring = QuotientRing(Polynomial((-1,) + (0,) * (m - 1) + (1,)))
        powers = draw(st.lists(st.integers(0, m - 1), min_size=count, max_size=count, unique=True))
        return ring, [ring.reduce_power(a) for a in powers]
    ring = QuotientRing(Polynomial.monomial(draw(st.integers(min_value=2, max_value=7))))
    scales = draw(st.lists(st.integers(-5, 5), min_size=count, max_size=count, unique=True))
    return ring, [a * ring.generator() for a in scales]


@st.composite
def non_domain_twist(draw):
    """A pair of distinct maps of one non-domain ring, and a D(theta)."""
    ring, (sigma, tau) = draw(non_domain_images(2))
    pair = TwistedPair(Endomorphism(ring, sigma), Endomorphism(ring, tau))
    return pair, _element(draw, ring)


@st.composite
def endomorphism(draw):
    """theta -> theta^a, theta -> a theta or zeta -> zeta^u, on the ring it acts on."""
    if draw(st.booleans()):
        ring, (image,) = draw(non_domain_images(1))
        return Endomorphism(ring, image)
    ring = CyclotomicRing(draw(st.integers(min_value=3, max_value=30)))
    return Endomorphism.zeta_power(ring, draw(st.sampled_from(units(ring.n))))


def _element(draw, ring):
    return ring.element(draw(st.lists(coords, min_size=ring.degree, max_size=ring.degree)))


@PROPERTY_SETTINGS
@given(non_domain_twist())
def test_leibniz_check_equals_full_scan(twist):
    pair, d_theta = twist
    derivation = TwistedDerivation(pair, d_theta)
    fast, slow = leibniz_check(derivation), leibniz_scan(derivation)
    assert (fast.ok, fast.indices, fast.lhs, fast.rhs) == (
        slow.ok, slow.indices, slow.lhs, slow.rhs
    )


@st.composite
def cyclotomic_twist(draw):
    """zeta -> zeta^u, zeta -> zeta^v (u != v) of Z[zeta_n], 3 <= n <= 24, and a 200-bit D(zeta)."""
    n = draw(st.integers(min_value=3, max_value=24))
    u, v = draw(st.lists(st.sampled_from(units(n)), min_size=2, max_size=2, unique=True))
    ring = CyclotomicRing(n)
    wide = st.integers(-(2**200), 2**200)
    d_theta = ring.element(draw(st.lists(wide, min_size=ring.degree, max_size=ring.degree)))
    return TwistedPair.zeta_powers(ring, u, v), d_theta


@PROPERTY_SETTINGS
@given(cyclotomic_twist())
def test_leibniz_check_equals_full_scan_on_cyclotomic_rings(twist):
    pair, d_theta = twist
    derivation = TwistedDerivation(pair, d_theta)
    fast, slow = leibniz_check(derivation), leibniz_scan(derivation)
    assert (fast.ok, fast.indices, fast.lhs, fast.rhs) == (
        slow.ok, slow.indices, slow.lhs, slow.rhs
    ) == (True, None, None, None)


@PROPERTY_SETTINGS
@given(non_domain_twist(), st.data())
def test_derivations_sharing_a_pair_equal_the_full_scan(twist, data):
    # the pair keeps its tau powers and power sums for every derivation
    pair, first = twist
    more = data.draw(st.integers(min_value=1, max_value=3))
    for d_theta in [first, *(_element(data.draw, pair.ring) for _ in range(more))]:
        derivation = TwistedDerivation(pair, d_theta)
        fresh = TwistedDerivation(TwistedPair(pair.sigma, pair.tau), d_theta)
        reports = (leibniz_check(derivation), leibniz_check(fresh), leibniz_scan(derivation))
        assert len({(r.ok, r.indices, r.lhs, r.rhs) for r in reports}) == 1


@PROPERTY_SETTINGS
@given(endomorphism(), st.data())
def test_endomorphism_is_additive_and_multiplicative(e, data):
    a = _element(data.draw, e.ring)
    b = _element(data.draw, e.ring)
    assert e(a + b) == e(a) + e(b)
    assert e(a * b) == e(a) * e(b)
    assert e(e.ring.one()) == e.ring.one()


@st.composite
def ring_with_two_elements(draw):
    """Any monic modulus of degree 1-12 (zeros allowed) and two elements with wide coordinates."""
    d = draw(st.integers(min_value=1, max_value=12))
    low = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    ring = QuotientRing(Polynomial(low + [1]))
    entries = st.lists(coords | st.integers(-(2**80), 2**80), min_size=d, max_size=d)
    return ring.element(draw(entries)), ring.element(draw(entries))


@PROPERTY_SETTINGS
@given(ring_with_two_elements())
def test_ring_product_equals_dense_oracle(elements):
    x, y = elements
    assert x * y == dense_ring_product(x, y)
    assert y * x == dense_ring_product(y, x)


@st.composite
def sparse_system(draw):
    """A square matrix of size 1-8 with about one entry in four nonzero, and a right-hand side."""
    d = draw(st.integers(min_value=1, max_value=8))
    nonzero = st.integers(-9, 9) | st.integers(-(2**64), 2**64)
    entries = [draw(nonzero) if draw(st.integers(0, 3)) == 0 else 0 for _ in range(d * d)]
    rhs = draw(st.lists(coords, min_size=d, max_size=d))
    return IntMatrix(d, d, entries), tuple(rhs)


@PROPERTY_SETTINGS
@given(sparse_system())
def test_sparse_elimination_equals_the_oracles(system):
    m, c = system
    d0 = bareiss_det(m)
    assert det(m) == d0
    assert adjugate(m) == cofactor_adjugate(m)
    if d0:
        assert solve_unique(m, c) == cramer_solve(m, c)


@st.composite
def zeta_pair(draw):
    """A pair zeta -> zeta^u, zeta -> zeta^v (u != v) of Z[zeta_n], 3 <= n <= 60, and a seed."""
    n = draw(st.integers(min_value=3, max_value=60))
    u, v = draw(st.lists(st.sampled_from(units(n)), min_size=2, max_size=2, unique=True))
    return TwistedPair.zeta_powers(CyclotomicRing(n), u, v), draw(st.integers(0, 2**32))


@PROPERTY_SETTINGS
@given(zeta_pair())
def test_classify_round_trip_and_the_witness_denominator(drawn):
    pair, seed = drawn
    ring, delta = pair.ring, pair.theta_difference()
    rng = random.Random(seed)
    beta = ring.random_element(rng)
    verdict = classify(TwistedDerivation(pair, beta * delta))
    assert verdict.is_inner and verdict.witness.numerators == beta.coords
    d_theta = ring.random_element(rng)
    verdict = classify(TwistedDerivation(pair, d_theta))
    witness = verdict.witness
    assert delta * ring.element(witness.numerators) == witness.denominator * d_theta
    # delta * num = m in closed form, so the denominator divides m
    m = ring.n // gcd(ring.n, pair.tau.exponent - pair.sigma.exponent)
    assert m % witness.denominator == 0
    if len(factorize(m)) > 1:
        # delta is a unit when m is not a prime power: every derivation is inner
        assert verdict.is_inner


polynomials = st.lists(coords, max_size=7).map(Polynomial)


@st.composite
def polynomial_pair(draw):
    """Two integer polynomials of degree <= 6, zero and constants included.

    In half the draws both are multiplied by a common factor of degree 1 to 3.
    """
    f, g = draw(polynomials), draw(polynomials)
    if draw(st.booleans()):
        common = draw(st.lists(coords, min_size=2, max_size=4).filter(lambda c: c[-1]))
        f, g = Polynomial(_convolve(f.coeffs, common)), Polynomial(_convolve(g.coeffs, common))
    return f, g


@PROPERTY_SETTINGS
@given(polynomial_pair())
def test_resultant_equals_the_sylvester_determinant(fg):
    f, g = fg
    assert resultant(f, g) == sylvester_det(f, g)
