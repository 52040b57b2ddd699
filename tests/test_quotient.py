import random

import pytest

from cycloderiv import CyclotomicRing, Polynomial, QuotientRing
from cycloderiv.polynomials import _convolve


def test_modulus_must_be_monic_of_positive_degree():
    with pytest.raises(ValueError):
        QuotientRing(Polynomial((1, 2)))
    with pytest.raises(ValueError):
        QuotientRing(Polynomial((1,)))
    with pytest.raises(ValueError):
        QuotientRing(Polynomial())


def test_power_table_low_entries_are_unit_vectors():
    ring = CyclotomicRing(10)
    for k in range(4):
        assert ring.reduce_power(k).coords == tuple(1 if i == k else 0 for i in range(4))


def test_power_table_high_entries():
    # zeta^4 = zeta^3 - zeta^2 + zeta - 1, zeta^5 = -1, zeta^6 = -zeta
    ring = CyclotomicRing(10)
    assert ring.reduce_power(4).coords == (-1, 1, -1, 1)
    assert ring.reduce_power(5).coords == (-1, 0, 0, 0)
    assert ring.reduce_power(6).coords == (0, -1, 0, 0)
    assert len(ring.wrap_rows) == 4 - 1


@pytest.mark.parametrize("ring", [
    *(CyclotomicRing(n) for n in range(1, 31)),
    QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1))),
    *(QuotientRing(Polynomial.monomial(r)) for r in range(1, 7)),
], ids=repr)
def test_reduce_power_is_the_power_of_the_generator(ring):
    # division against the ring product's wrap rows, for k = 0 .. 3n; the
    # range covers 2d - 2 and 2d - 1, where the wrap rows end
    n = getattr(ring, "n", ring.degree)
    theta = ring.generator()
    for k in range(3 * n + 1):
        assert ring.reduce_power(k) == theta ** k


def test_reduce_examples_n10():
    ring = CyclotomicRing(10)
    assert ring.reduce(Polynomial.monomial(4)).coords == (-1, 1, -1, 1)
    assert ring.reduce(Polynomial.monomial(5)).coords == (-1, 0, 0, 0)
    # cross-check via one more multiplication by the generator
    again = ring.generator() * ring.reduce(Polynomial.monomial(4))
    assert again.coords == (-1, 0, 0, 0)
    assert ring.reduce(Polynomial((1,))).coords == (1, 0, 0, 0)


def test_reduce_of_the_modulus_is_zero():
    for n in (9, 10, 12, 16, 24, 25):
        ring = CyclotomicRing(n)
        assert ring.reduce(ring.modulus).is_zero()


def test_reduce_gives_the_remainder_on_random_monic_moduli():
    # reduce(q f + r) is r for any q, a monic f and deg r < deg f
    rng = random.Random(5)
    for _ in range(200):
        degree = rng.randint(1, 6)
        f = Polynomial([rng.randint(-9, 9) for _ in range(degree)] + [1])
        q = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        r = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, degree))])
        ring = QuotientRing(f)
        # q f has at least deg f coefficients, so r adds into it in place
        qf_plus_r = _convolve(q.coeffs, f.coeffs)
        for i, c in enumerate(r.coeffs):
            qf_plus_r[i] += c
        assert ring.reduce(Polynomial(qf_plus_r)) == ring.element(r.coeffs), (q, f, r)


def test_element_padding_and_length_guard():
    ring = CyclotomicRing(10)
    assert ring.element((3,)).coords == (3, 0, 0, 0)
    with pytest.raises(ValueError):
        ring.element((1, 2, 3, 4, 5))


def test_mixed_ring_operations_rejected():
    a = CyclotomicRing(10).one()
    b = CyclotomicRing(12).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert (a == b) is False


def test_pow_and_identities():
    ring = CyclotomicRing(10)
    zeta = ring.zeta()
    assert zeta**10 == ring.one()
    assert (zeta + (-zeta)).is_zero()
    assert zeta * zeta**3 == ring.reduce(Polynomial.monomial(4))
    assert zeta**0 == ring.one()
    with pytest.raises(ValueError):
        zeta ** (-1)


def test_integer_scalars_embed_as_constants():
    ring = CyclotomicRing(10)
    zeta = ring.zeta()
    assert 2 * zeta == zeta + zeta
    assert (zeta + 1) - 1 == zeta
    assert (1 - zeta) + zeta == ring.one()


def test_ring_axioms_on_random_elements():
    for n in (9, 10, 12, 16, 24, 25):
        ring = CyclotomicRing(n)
        rng = random.Random(n)
        for _ in range(100):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            c = ring.random_element(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_random_element_coordinates_within_bound():
    ring = CyclotomicRing(9)
    rng = random.Random(0)
    for _ in range(200):
        assert all(-9 <= c <= 9 for c in ring.random_element(rng).coords)


def test_ring_equality_is_by_modulus():
    assert CyclotomicRing(10) == QuotientRing(Polynomial((1, -1, 1, -1, 1)))
    assert CyclotomicRing(10) != CyclotomicRing(12)


def test_equal_rings_built_apart_still_combine():
    # ring equality answers at once for one ring object; two objects with
    # one modulus must still be the same ring, and same-degree rings with
    # different moduli must still refuse to mix
    a, b = CyclotomicRing(10), QuotientRing(Polynomial((1, -1, 1, -1, 1)))
    assert a is not b and a == b and a == a
    x, y = a.element((1, 2, 0, -3)), b.element((0, 4, 5, 1))
    assert (x + y).coords == (1, 6, 5, -2)
    assert x * y == y * x == a.element((1, 2, 0, -3)) * a.element((0, 4, 5, 1))
    assert a.element((7,)) == b.element((7,))
    for other in (CyclotomicRing(5), CyclotomicRing(8), CyclotomicRing(12)):
        z = other.element((1, 2, 0, -3))
        assert other.degree == a.degree and z != x
        with pytest.raises(ValueError):
            x + z
        with pytest.raises(ValueError):
            x * z
        with pytest.raises(ValueError):
            z - x


def test_reduce_power_refuses_a_negative_power():
    with pytest.raises(ValueError, match="^power must be non-negative, got -1$"):
        CyclotomicRing(10).reduce_power(-1)
