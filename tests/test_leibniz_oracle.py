"""The d + 1 pair product-rule check and the power-sum recurrence against their oracles.

``leibniz_check`` must give exactly the report of the full d^2 scan (verdict,
first failing pair and both sides), and ``basis_images``, ``sum_powers`` and
``telescope_check`` must agree with power sums accumulated from two power
lists. The rings include zero divisors, where the power-formula extension
really fails the product rule. The values a ``TwistedPair`` keeps for its
derivations must equal the oracles, and reports over a shared pair must equal
those over fresh pairs.
"""

import random

from oracles import basis_pair_scan, leibniz_scan, two_list_sum_powers

from cycloderiv import (
    CyclotomicRing,
    Endomorphism,
    Polynomial,
    QuotientRing,
    TwistedDerivation,
    TwistedPair,
    leibniz_check,
    sum_powers,
    telescope_check,
)
from cycloderiv.arith import units


def roots_of_unity_pairs():
    """Z[x]/(x^m - 1) with theta -> theta^a and theta -> theta^b, m <= 9."""
    for m in range(2, 10):
        ring = QuotientRing(Polynomial((-1,) + (0,) * (m - 1) + (1,)))
        for a in range(m):
            for b in range(m):
                if a != b:
                    yield TwistedPair(
                        Endomorphism(ring, ring.reduce_power(a)),
                        Endomorphism(ring, ring.reduce_power(b)),
                    )


def truncated_pairs():
    """Z[x]/(x^r) with theta -> a theta and theta -> b theta."""
    for r in range(2, 7):
        ring = QuotientRing(Polynomial.monomial(r))
        theta = ring.generator()
        for a in range(-2, 4):
            for b in range(-2, 4):
                if a != b:
                    yield TwistedPair(Endomorphism(ring, a * theta), Endomorphism(ring, b * theta))


def cyclotomic_pairs(largest=16):
    """Z[zeta_n] with zeta -> zeta^u and zeta -> zeta^v, n <= largest."""
    for n in range(3, largest + 1):
        ring = CyclotomicRing(n)
        endos = [Endomorphism.zeta_power(ring, u) for u in units(n)]
        for sigma in endos:
            for tau in endos:
                if sigma is not tau:
                    yield TwistedPair(sigma, tau)


def _d_thetas(ring, rng):
    return (ring.one(), ring.generator(), ring.random_element(rng))


def _same_report(pair, d_theta):
    derivation = TwistedDerivation(pair, d_theta)
    fast, slow = leibniz_check(derivation), leibniz_scan(derivation)
    assert (fast.ok, fast.indices, fast.lhs, fast.rhs) == (
        slow.ok, slow.indices, slow.lhs, slow.rhs
    ), (pair, d_theta)
    return fast


def test_leibniz_check_equals_full_scan_on_non_domains():
    rng = random.Random(20260417)
    failures = checked = 0
    for family in (roots_of_unity_pairs, truncated_pairs):
        for pair in family():
            for d_theta in _d_thetas(pair.ring, rng):
                report = _same_report(pair, d_theta)
                checked += 1
                failures += not report.ok
    # both verdicts occur often, so the comparison covers failing reports
    assert checked == 3 * (240 + 5 * 30)
    assert 0.25 * checked < failures < 0.9 * checked


def test_leibniz_check_equals_full_scan_on_cyclotomic_rings():
    rng = random.Random(16)
    pairs = list(cyclotomic_pairs())
    for pair in rng.sample(pairs, 40):
        report = _same_report(pair, pair.ring.random_element(rng))
        assert report.ok


class LinearMap:
    """Any Z-linear map, given by its basis images, in the shape leibniz_check reads."""

    def __init__(self, pair, images):
        self.pair = pair
        self.basis_images = tuple(images)

    def __call__(self, x):
        total = self.pair.ring.zero()
        for c, image in zip(x.coords, self.basis_images):
            total = total + c * image
        return total


def test_two_rows_certify_any_linear_map():
    # the certificate holds for every Z-linear D, not only power-formula
    # extensions: D(1) != 0 fails at (0, 0), and inner derivations
    # beta (tau - sigma) pass
    rng = random.Random(5)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs()]
    seen = set()
    for pair in rng.sample(pairs, 40):
        ring = pair.ring
        basis = [ring.reduce_power(k) for k in range(ring.degree)]
        beta = ring.random_element(rng)
        inner = [beta * (pair.tau(b) - pair.sigma(b)) for b in basis]
        arbitrary = [ring.random_element(rng) for _ in basis]
        for images in (inner, arbitrary, [ring.zero(), *arbitrary[1:]]):
            fast = leibniz_check(LinearMap(pair, images))
            slow = basis_pair_scan(pair, images)
            assert (fast.ok, fast.indices, fast.lhs, fast.rhs) == (
                slow.ok, slow.indices, slow.lhs, slow.rhs
            )
            seen.add(fast.indices)
    assert {None, (0, 0)} < seen


def test_basis_images_follow_two_list_power_sums():
    rng = random.Random(7)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs()]
    for pair in rng.sample(pairs, 50):
        ring = pair.ring
        d_theta = ring.random_element(rng)
        images = TwistedDerivation(pair, d_theta).basis_images
        assert len(images) == ring.degree
        assert images[0].is_zero()
        for k in range(1, ring.degree):
            assert images[k] == two_list_sum_powers(pair, k) * d_theta
        for k in range(1, 2 * ring.degree + 2):
            assert sum_powers(pair, k) == two_list_sum_powers(pair, k)


def test_telescope_check_follows_two_list_power_sums():
    rng = random.Random(11)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs()]
    verdicts = set()
    for pair in rng.sample(pairs, 30):
        coeffs = pair.ring.modulus.coeffs
        d = pair.ring.degree
        sums = [pair.ring.zero()] + [two_list_sum_powers(pair, i) for i in range(1, 3 * d + 1)]
        for k in range(0, 2 * d + 1):
            total = pair.ring.zero()
            for i in range(k, k + d + 1):
                total = total + coeffs[i - k] * sums[i]
            verdict = telescope_check(pair, k)
            assert verdict == total.is_zero(), (pair, k)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _fields(report):
    return (report.ok, report.indices, report.lhs, report.rhs)


class CountingMap(LinearMap):
    """A ``LinearMap`` that counts its evaluations."""

    def __init__(self, pair, images):
        super().__init__(pair, images)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


def test_leibniz_check_evaluates_the_map_on_d_plus_one_pairs():
    # a passing map is evaluated at (0, 0) and on row 1 only, d + 1 times
    # where a scan of rows 0 and 1 takes 2d; D(1) != 0 stops at (0, 0)
    rng = random.Random(3)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs()]
    for pair in rng.sample(pairs, 40):
        ring = pair.ring
        basis = [ring.reduce_power(k) for k in range(ring.degree)]
        beta = ring.random_element(rng)
        inner = CountingMap(pair, [beta * (pair.tau(b) - pair.sigma(b)) for b in basis])
        assert leibniz_check(inner).ok
        assert inner.calls == ring.degree + 1
        lifted = CountingMap(pair, [ring.one(), *inner.basis_images[1:]])
        assert leibniz_check(lifted).indices == (0, 0)
        assert lifted.calls == 1


def test_kept_pair_values_equal_oracles():
    rng = random.Random(9)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs(30)]
    for pair in rng.sample(pairs, 60):
        ring = pair.ring
        d = ring.degree
        tau_powers, power_sums = pair.tau_powers, pair.power_sums
        assert isinstance(tau_powers, tuple) and isinstance(power_sums, tuple)
        assert pair.tau_powers is tau_powers and pair.power_sums is power_sums
        expected = [ring.one()]
        for _ in range(d - 1):
            expected.append(expected[-1] * pair.tau.theta_image)
        assert tau_powers == tuple(expected)
        assert power_sums == tuple(two_list_sum_powers(pair, k) for k in range(1, d))


def test_derivations_sharing_a_pair_report_as_on_fresh_pairs():
    # several pairs of each ring, several D(theta) per pair: the values one
    # pair keeps must serve only its own derivations
    rng = random.Random(30)
    by_ring = {}
    for pair in [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs(30)]:
        by_ring.setdefault(id(pair.ring), []).append(pair)
    verdicts = set()
    for pairs in by_ring.values():
        for pair in rng.sample(pairs, min(3, len(pairs))):
            ring = pair.ring
            domain = isinstance(ring, CyclotomicRing)
            for d_theta in _d_thetas(ring, rng):
                shared = leibniz_check(TwistedDerivation(pair, d_theta))
                fresh = TwistedDerivation(TwistedPair(pair.sigma, pair.tau), d_theta)
                assert _fields(shared) == _fields(leibniz_check(fresh)), (pair, d_theta)
                if domain:
                    assert shared.ok, (pair, d_theta)
                else:
                    assert _fields(shared) == _fields(leibniz_scan(fresh)), (pair, d_theta)
                verdicts.add((domain, shared.ok))
    assert verdicts == {(True, True), (False, True), (False, False)}
