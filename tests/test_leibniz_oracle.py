"""The one-pair product-rule check and the power-sum recurrence against their oracles.

``leibniz_check`` must give exactly the report of the full d^2 scan (verdict,
first failing pair and both sides), and D on the power basis, ``sum_powers``
and ``telescope_check`` must agree with power sums accumulated from two power
lists. The rings include zero divisors, where the power-formula extension
really fails the product rule. The two-row lemma behind the check is tested
for any Z-linear map through the ``two_row_scan`` oracle, and the check's
verdict is tied to the telescope at k = 0 and to the product rule on whole
elements. The power sums a ``TwistedPair`` keeps for its derivations must
equal the oracles, and reports over a shared pair must equal those over fresh
pairs.
"""

import random
from contextlib import contextmanager

from oracles import basis_pair_scan, leibniz_scan, two_list_sum_powers, two_row_scan

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
from cycloderiv.quotient import RingElement


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
    pairs = rng.sample(list(cyclotomic_pairs()), 40)
    # n = 27 (degree 18), one of the rings the benchmark's verify workload checks
    ring = CyclotomicRing(27)
    pairs += [TwistedPair.zeta_powers(ring, u, v) for u, v in ((1, 2), (2, 1), (5, 13), (26, 7))]
    for pair in pairs:
        report = _same_report(pair, pair.ring.random_element(rng))
        assert report.ok


def test_two_rows_certify_any_linear_map():
    # the two-row lemma holds for every Z-linear D, not only power-formula
    # extensions: D(1) != 0 fails at (0, 0), inner derivations
    # beta (tau - sigma) pass, and arbitrary images fail in row 1
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
            fast = two_row_scan(pair, images)
            slow = basis_pair_scan(pair, images)
            assert (fast.ok, fast.indices, fast.lhs, fast.rhs) == (
                slow.ok, slow.indices, slow.lhs, slow.rhs
            )
            seen.add(fast.indices)
    assert {None, (0, 0)} < seen
    assert any(indices and indices[0] == 1 for indices in seen)


def test_basis_images_follow_two_list_power_sums():
    rng = random.Random(7)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs()]
    for pair in rng.sample(pairs, 50):
        ring = pair.ring
        d_theta = ring.random_element(rng)
        derivation = TwistedDerivation(pair, d_theta)
        images = [ring.zero()] + [
            two_list_sum_powers(pair, k) * d_theta for k in range(1, ring.degree)
        ]
        for k, image in enumerate(images):
            assert derivation(ring.reduce_power(k)) == image, (pair, k)
        x = ring.random_element(rng)
        expected = sum((c * image for c, image in zip(x.coords, images)), ring.zero())
        assert derivation(x) == expected, (pair, x)
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


@contextmanager
def _ring_products(monkeypatch):
    """Collect the right factor of every product of two ring elements."""
    products = []
    multiply = RingElement.__mul__

    def counted(self, other):
        if isinstance(other, RingElement):
            products.append(other)
        return multiply(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(RingElement, "__mul__", counted)
        patch.setattr(RingElement, "__rmul__", counted)
        yield products


def test_leibniz_check_makes_two_ring_products(monkeypatch):
    # with the pair's power sums kept, a check is two products at every
    # degree: (sum of r_i S_i) times D(theta), the sum being integer work,
    # and S_d times D(theta)
    rng = random.Random(3)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs(30)]
    pairs = rng.sample(pairs, 60) + [
        TwistedPair.zeta_powers(CyclotomicRing(n), 1, 2) for n in (27, 49)
    ]
    for pair in pairs:
        ring = pair.ring
        assert len(pair.power_sums) == ring.degree
        derivation = TwistedDerivation(pair, ring.random_element(rng))
        with _ring_products(monkeypatch) as products:
            leibniz_check(derivation)
        assert len(products) == 2, pair


def test_leibniz_check_passes_a_degree_1_ring_at_once(monkeypatch):
    # Z[x]/(x - 2) has one endomorphism, so the pair is assembled by hand:
    # its only basis pair is (0, 0), which D(1) = 0 satisfies
    ring = QuotientRing(Polynomial((-2, 1)))
    pair = TwistedPair.__new__(TwistedPair)
    pair.sigma = pair.tau = Endomorphism(ring, ring.element((2,)))
    pair._sums = None
    for d_theta in (ring.zero(), ring.one(), ring.element((-7,))):
        with _ring_products(monkeypatch) as products:
            report = leibniz_check(TwistedDerivation(pair, d_theta))
        assert products == []
        expected = _fields(two_row_scan(pair, [ring.zero()]))
        assert _fields(report) == expected == (True, None, None, None)


def test_kept_pair_values_equal_oracles():
    rng = random.Random(9)
    pairs = [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs(30)]
    for pair in rng.sample(pairs, 60):
        ring = pair.ring
        d = ring.degree
        power_sums = pair.power_sums
        assert isinstance(power_sums, tuple) and pair.power_sums is power_sums
        assert power_sums == tuple(two_list_sum_powers(pair, k) for k in range(1, d + 1))


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


def test_wrap_pair_check_is_the_telescope_at_0():
    # rhs - lhs = (S_d - sum over i of r_i S_i) D(theta), and with
    # r_i = -a_i that is the k = 0 telescope sum times D(theta)
    verdicts = set()
    for pair in [*roots_of_unity_pairs(), *truncated_pairs(), *cyclotomic_pairs(30)]:
        verdict = leibniz_check(TwistedDerivation(pair, pair.ring.one())).ok
        assert verdict == telescope_check(pair, 0), pair
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _product_rule_holds(derivation, a, b):
    """``D(ab) = D(a) tau(b) + sigma(a) D(b)`` for two whole elements."""
    pair = derivation.pair
    return derivation(a * b) == derivation(a) * pair.tau(b) + pair.sigma(a) * derivation(b)


def _wide_element(ring, rng, bits):
    return ring.element(rng.getrandbits(bits) - 2 ** (bits - 1) for _ in range(ring.degree))


def test_product_rule_holds_on_whole_elements_of_cyclotomic_rings():
    # up to 40 pairs of every ring with n <= 30; D(theta) and the factors are
    # random elements, not basis elements, with 4-bit and 200-bit coordinates
    rng = random.Random(41)
    by_ring = {}
    for pair in cyclotomic_pairs(30):
        by_ring.setdefault(pair.ring.n, []).append(pair)
    for pairs in by_ring.values():
        for pair in rng.sample(pairs, min(40, len(pairs))):
            for bits in (4, 200):
                d_theta, a, b = (_wide_element(pair.ring, rng, bits) for _ in range(3))
                derivation = TwistedDerivation(pair, d_theta)
                assert _product_rule_holds(derivation, a, b), (pair, bits)


def test_product_rule_holds_on_whole_elements_wherever_the_check_passes():
    rng = random.Random(43)
    passed = 0
    for pair in [*roots_of_unity_pairs(), *truncated_pairs()]:
        ring = pair.ring
        for d_theta in _d_thetas(ring, rng):
            derivation = TwistedDerivation(pair, d_theta)
            if leibniz_check(derivation).ok:
                passed += 1
                for _ in range(3):
                    a, b = ring.random_element(rng), ring.random_element(rng)
                    assert _product_rule_holds(derivation, a, b), (pair, d_theta, a, b)
    assert passed > 100
