"""The ring product against the dense schoolbook product and a reduction by division.

``RingElement.__mul__`` multiplies only nonzero coefficient pairs and folds
the high part through the sparse wrap rows; ``dense_ring_product`` folds
every coefficient through the full row of ``theta^k``, found by dividing
``x^k`` by the modulus. The two must agree exactly, in both
operand orders, on cyclotomic rings (sparse wrap rows), on a modulus whose
wrap rows are all full, on ``Z[x]/(x^r)`` (all empty), on ``Z[x]/(x^6 - 1)``
and on degree-1 rings.
"""

import random

import pytest
from oracles import dense_ring_product

from cycloderiv import CyclotomicRing, Polynomial, QuotientRing


def _assert_products_match(x, y):
    assert x * y == dense_ring_product(x, y)
    assert y * x == dense_ring_product(y, x)


def _wide_element(ring, rng, bits=200):
    return ring.element(rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(ring.degree))


def _check_ring(ring, rng, samples=5):
    zero, one = ring.zero(), ring.one()
    for _ in range(samples):
        x, y = ring.random_element(rng), ring.random_element(rng)
        _assert_products_match(x, y)
        _assert_products_match(x, zero)
        _assert_products_match(x, one)
        _assert_products_match(_wide_element(ring, rng), _wide_element(ring, rng))
        _assert_products_match(_wide_element(ring, rng), y)
    _assert_products_match(zero, one)
    _assert_products_match(one, one)


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_products_match_dense_oracle(n):
    ring = CyclotomicRing(n)
    rng = random.Random(n)
    _check_ring(ring, rng)
    monomials = [ring.reduce_power(k) for k in range(n)]
    x = ring.random_element(rng)
    for k, mono in enumerate(monomials):
        _assert_products_match(mono, x)
        _assert_products_match(mono, mono)
        _assert_products_match(mono, monomials[n - 1 - k])
    assert monomials[n - 1] * ring.zeta() == ring.one()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 20])
def test_full_wrap_rows_match_dense_oracle(d):
    # theta^d = c_0 + ... + c_{d-1} theta^{d-1} with every c_i >= 1, so by
    # induction every entry of every wrap row is positive.
    rng = random.Random(100 + d)
    coeffs = [-rng.randint(1, 9) for _ in range(d)]
    ring = QuotientRing(Polynomial(coeffs + [1]))
    assert all(len(row) == d for row in ring.wrap_rows)
    _check_ring(ring, rng)


@pytest.mark.parametrize("r", range(1, 9))
def test_truncated_rings_match_dense_oracle(r):
    ring = QuotientRing(Polynomial.monomial(r))
    assert all(row == () for row in ring.wrap_rows)
    rng = random.Random(200 + r)
    _check_ring(ring, rng)
    theta = ring.generator()
    for k in range(r):
        _assert_products_match(ring.reduce_power(k), theta)


def test_sixth_roots_ring_matches_dense_oracle():
    ring = QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1)))
    rng = random.Random(6)
    _check_ring(ring, rng, samples=20)
    for i in range(6):
        for j in range(6):
            _assert_products_match(ring.reduce_power(i), ring.reduce_power(j))
            assert ring.reduce_power(i) * ring.reduce_power(j) == ring.reduce_power((i + j) % 6)


@pytest.mark.parametrize("a", [0, 1, -1, 7, -(2**100)])
def test_degree_one_rings_match_dense_oracle(a):
    ring = QuotientRing(Polynomial((-a, 1)))
    assert ring.wrap_rows == ()
    rng = random.Random(300)
    _check_ring(ring, rng)
    assert (ring.generator() * ring.generator()).coords == (a * a,)


def test_wrap_rows_are_the_nonzero_entries_of_the_power_table():
    # the ring builds its wrap rows by the recurrence theta^(k+1) = theta *
    # theta^k; reduce divides x^k by the modulus
    rings = [CyclotomicRing(n) for n in (1, 2, 7, 10, 21, 25, 27, 49)]
    rings.append(QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1))))
    rings.append(QuotientRing(Polynomial((-3, -1, -4, -1, -5, 1))))
    for ring in rings:
        d = ring.degree
        assert len(ring.wrap_rows) == d - 1
        for k, row in enumerate(ring.wrap_rows, start=d):
            coords = ring.reduce(Polynomial.monomial(k)).coords
            assert row == tuple((i, c) for i, c in enumerate(coords) if c)
