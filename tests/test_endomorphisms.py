import random

import pytest
from oracles import two_list_sum_powers

from cycloderiv import (
    CyclotomicRing,
    Endomorphism,
    Polynomial,
    QuotientRing,
    TwistedDerivation,
    TwistedPair,
    cyclotomic_poly,
    leibniz_check,
    sum_powers,
    telescope_check,
)


def _pair(n, u, v):
    return TwistedPair.zeta_powers(CyclotomicRing(n), u, v)


def test_apply_sends_generator_to_its_image():
    ring = CyclotomicRing(10)
    sigma = Endomorphism.zeta_power(ring, 3)
    assert sigma(ring.zeta()).coords == (0, 0, 0, 1)


def test_apply_fixes_the_identity():
    ring = CyclotomicRing(10)
    sigma = Endomorphism.zeta_power(ring, 7)
    assert sigma(ring.one()) == ring.one()


def test_apply_sends_zero_to_the_ring_zero():
    # Horner's rule over the zero polynomial yields the integer 0
    ring = CyclotomicRing(10)
    image = Endomorphism.zeta_power(ring, 3)(ring.zero())
    assert image == ring.zero()
    assert image.ring == ring


def test_apply_on_a_power_of_the_generator():
    # zeta^2 under zeta -> zeta^3 lands on zeta^6 = -zeta
    ring = CyclotomicRing(10)
    sigma = Endomorphism.zeta_power(ring, 3)
    image = sigma(ring.element((0, 0, 1, 0)))
    assert image.coords == (0, -1, 0, 0)
    assert image == ring.reduce(Polynomial.monomial(6))


def test_apply_is_a_ring_homomorphism():
    for n, u in ((10, 3), (9, 2), (12, 7)):
        ring = CyclotomicRing(n)
        e = Endomorphism.zeta_power(ring, u)
        rng = random.Random(n * 10 + u)
        for _ in range(50):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            assert e(a + b) == e(a) + e(b)
            assert e(a * b) == e(a) * e(b)


def test_non_root_image_is_rejected_with_residue():
    ring = CyclotomicRing(10)
    bad = ring.element((1, 1, 0, 0))  # zeta + 1 is not a root of the modulus
    with pytest.raises(ValueError, match="residue"):
        Endomorphism(ring, bad)


def test_zeta_power_validates_exponents():
    ring = CyclotomicRing(10)
    with pytest.raises(ValueError):
        Endomorphism.zeta_power(ring, 5)  # gcd(5, 10) != 1
    with pytest.raises(ValueError):
        Endomorphism.zeta_power(ring, 0)
    with pytest.raises(ValueError):
        Endomorphism.zeta_power(ring, 10)
    with pytest.raises(ValueError, match="only meaningful for cyclotomic rings"):
        Endomorphism.zeta_power(QuotientRing(Polynomial.monomial(2)), 1)


def test_zeta_power_checks_the_exponent_before_building_the_monomial(monkeypatch):
    ring = CyclotomicRing(10)
    zeta = ring.zeta()

    def no_power(self, k):
        raise AssertionError(f"theta^{k} built before the exponent was checked")

    monkeypatch.setattr(QuotientRing, "reduce_power", no_power)
    with pytest.raises(ValueError, match="is not a unit modulo 10"):
        Endomorphism.zeta_power(ring, 10**12 + 1)
    with pytest.raises(ValueError, match="is not a unit modulo 10"):
        Endomorphism(ring, zeta, exponent=10**12 + 1)


def test_image_that_is_not_the_stated_power_is_rejected():
    ring = CyclotomicRing(10)
    with pytest.raises(ValueError, match="does not match the stated exponent 7"):
        Endomorphism(ring, ring.reduce_power(3), exponent=7)


def test_zeta_power_evaluates_no_polynomial(monkeypatch):
    ring = CyclotomicRing(49)

    def no_evaluation(self, value):
        raise AssertionError("the ring modulus was evaluated at the image")

    monkeypatch.setattr(Polynomial, "__call__", no_evaluation)
    sigma = Endomorphism.zeta_power(ring, 13)
    assert sigma.theta_image == ring.reduce_power(13)
    assert sigma.exponent == 13


def test_pair_requires_distinct_generator_images():
    ring = CyclotomicRing(10)
    with pytest.raises(ValueError):
        TwistedPair(Endomorphism.zeta_power(ring, 3), Endomorphism.zeta_power(ring, 3))


def test_pair_requires_a_common_ring():
    with pytest.raises(ValueError):
        TwistedPair(
            Endomorphism.zeta_power(CyclotomicRing(10), 1),
            Endomorphism.zeta_power(CyclotomicRing(12), 5),
        )


def test_each_map_refuses_an_element_of_another_ring():
    ring, other = CyclotomicRing(10), CyclotomicRing(12)
    pair = TwistedPair.zeta_powers(ring, 1, 3)
    derivation = TwistedDerivation(pair, ring.one())
    foreign = other.zeta()
    for call, message in (
        (lambda: Endomorphism(ring, foreign), "generator image must live in the target ring"),
        (lambda: pair.sigma(foreign), "argument belongs to a different ring"),
        (lambda: TwistedDerivation(pair, foreign), "D(theta) must live in the pair's ring"),
        (lambda: derivation(foreign), "argument belongs to a different ring"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_sum_powers_base_cases():
    pair = _pair(10, 1, 3)
    ring = pair.ring
    assert sum_powers(pair, 1) == ring.one()
    assert sum_powers(pair, 2) == pair.sigma.theta_image + pair.tau.theta_image
    with pytest.raises(ValueError):
        sum_powers(pair, 0)


def test_sum_powers_k3_frozen_value():
    # zeta^2 + zeta^4 + zeta^6 = (-1, 0, 0, 1) for n = 10, (u, v) = (1, 3)
    pair = _pair(10, 1, 3)
    assert sum_powers(pair, 3).coords == (-1, 0, 0, 1)


def test_derivation_on_basis_matches_power_formula():
    for n, u, v in ((10, 1, 3), (9, 2, 5), (12, 5, 7)):
        pair = _pair(n, u, v)
        ring = pair.ring
        rng = random.Random(n)
        d_theta = ring.random_element(rng)
        derivation = TwistedDerivation(pair, d_theta)
        for k in range(1, ring.degree):
            assert derivation(ring.reduce_power(k)) == sum_powers(pair, k) * d_theta


def test_derivation_eval_examples():
    pair = _pair(10, 1, 3)
    ring = pair.ring
    derivation = TwistedDerivation(pair, ring.one())
    assert derivation(ring.one()).is_zero()
    assert TwistedDerivation(pair, ring.element((2, 1, 0, 0)))(ring.zeta()).coords == (2, 1, 0, 0)
    # zeta + zeta^3 for D(theta^2) with D(theta) = 1
    assert derivation(ring.element((0, 0, 1, 0))).coords == (0, 1, 0, 1)



def test_derivation_is_the_linear_combination_of_basis_images():
    rng = random.Random(7)
    truncated = QuotientRing(Polynomial.monomial(4))
    pairs = [
        _pair(10, 1, 3),
        _pair(27, 1, 2),
        _pair(3, 1, 2),
        TwistedPair(
            Endomorphism(truncated, truncated.generator()),
            Endomorphism(truncated, 3 * truncated.generator()),
        ),
    ]
    for pair in pairs:
        ring = pair.ring
        d_theta = ring.random_element(rng)
        derivation = TwistedDerivation(pair, d_theta)
        # D on the power basis, from the oracle's power sums; the samples
        # include theta^k for every k < 2d
        images = [ring.zero()] + [
            two_list_sum_powers(pair, k) * d_theta for k in range(1, ring.degree)
        ]
        samples = [ring.zero(), ring.one(), *(ring.reduce_power(k) for k in range(2 * ring.degree))]
        samples += [ring.random_element(rng) for _ in range(5)]
        samples.append(ring.element(tuple(rng.getrandbits(200) - 2**199 for _ in range(ring.degree))))
        for x in samples:
            expected = ring.zero()
            for c, image in zip(x.coords, images):
                expected = expected + c * image
            value = derivation(x)
            assert value == expected, (pair, x)
            assert value.ring is ring and type(value.coords) is tuple

def test_leibniz_passes_over_cyclotomic_rings():
    pair = _pair(10, 1, 3)
    rng = random.Random(42)
    for _ in range(25):
        report = leibniz_check(TwistedDerivation(pair, pair.ring.random_element(rng)))
        assert report.ok
        assert report.indices is None


def test_leibniz_zero_map_always_passes():
    ring = QuotientRing(Polynomial.monomial(3))
    pair = TwistedPair(
        Endomorphism(ring, ring.generator()),
        Endomorphism(ring, 2 * ring.generator()),
    )
    assert leibniz_check(TwistedDerivation(pair, ring.zero())).ok


def test_leibniz_fails_for_sixth_roots_square_twist():
    ring = QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1)))
    pair = TwistedPair(
        Endomorphism(ring, ring.generator()),
        Endomorphism(ring, ring.reduce_power(2)),
    )
    report = leibniz_check(TwistedDerivation(pair, ring.generator()))
    assert not report.ok
    i, j = report.indices
    assert report.lhs != report.rhs
    assert i + j >= ring.degree  # low powers satisfy the rule by construction


def test_leibniz_fails_for_truncated_scaling():
    ring = QuotientRing(Polynomial.monomial(3))
    theta = ring.generator()
    pair = TwistedPair(Endomorphism(ring, theta), Endomorphism(ring, 2 * theta))
    report = leibniz_check(TwistedDerivation(pair, ring.one()))
    assert not report.ok


def _telescope_by_expansion(n, u, v, k):
    # independent route: assemble one big unreduced polynomial, reduce once
    f = cyclotomic_poly(n)
    total = [0] * (max(u, v) * (k + len(f.coeffs)))
    for i in range(k, k + len(f.coeffs)):
        a = f.coeffs[i - k]
        if a == 0 or i == 0:
            continue
        for s in range(i):
            t = i - 1 - s
            total[u * s + v * t] += a
    return CyclotomicRing(n).reduce(Polynomial(total)).is_zero()


def test_telescope_examples():
    assert telescope_check(_pair(10, 1, 3), 0)
    assert telescope_check(_pair(10, 1, 3), 5)
    assert telescope_check(_pair(9, 2, 5), 2)
    assert _telescope_by_expansion(9, 2, 5, 2)


def test_telescope_agrees_with_expansion_oracle():
    for n, u, v in ((9, 1, 2), (10, 1, 3), (12, 5, 7)):
        pair = _pair(n, u, v)
        d = pair.ring.degree
        for k in range(0, 2 * d + 1):
            assert telescope_check(pair, k) == _telescope_by_expansion(n, u, v, k) == True


def test_telescope_rejects_negative_k():
    with pytest.raises(ValueError):
        telescope_check(_pair(10, 1, 3), -1)


def test_telescope_fails_outside_domains():
    # the vanishing is a domain phenomenon; the square twist on x^6 - 1 breaks it
    ring = QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1)))
    pair = TwistedPair(
        Endomorphism(ring, ring.generator()),
        Endomorphism(ring, ring.reduce_power(2)),
    )
    assert not telescope_check(pair, 0)
