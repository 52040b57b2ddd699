import random
from math import gcd

import pytest

import cycloderiv.polynomials as polynomials
from cycloderiv import Polynomial, cyclotomic_poly
from cycloderiv.arith import factorize
from cycloderiv.polynomials import ZERO_POLY_DEGREE, _convolve, resultant
from contract import run_python
from oracles import at_power, sylvester_det


def brute_totient(n):
    # independent of the factorization formula used in the library
    return sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)


def test_trailing_zeros_are_stripped():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0, 0)).coeffs == ()
    assert Polynomial().is_zero()


def test_zero_polynomial_degree_is_a_sentinel():
    zero = Polynomial()
    assert zero.degree == ZERO_POLY_DEGREE
    assert zero.degree != 0
    assert Polynomial((7,)).degree == 0


def test_degree_is_additive_for_nonzero_products():
    rng = random.Random(7)
    for _ in range(100):
        p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 9)])
        q = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 9)])
        assert Polynomial(_convolve(p.coeffs, q.coeffs)).degree == p.degree + q.degree


def test_arithmetic_basics():
    x = (0, 1)
    assert Polynomial(_convolve((1, 1), (-1, 1))) == Polynomial((-1, 0, 1))
    assert at_power(Polynomial(x), 1, -1) == Polynomial((0, -1))
    assert Polynomial(_convolve((1,), x)) == Polynomial(x)
    assert Polynomial(_convolve(_convolve(x, x), x)) == Polynomial.monomial(3)
    assert Polynomial(_convolve((), x)).is_zero()
    with pytest.raises(ValueError):
        Polynomial.monomial(-1)


def test_str_rendering():
    assert str(Polynomial()) == "0"
    assert str(Polynomial((1, -1, 1, -1, 1))) == "x^4 - x^3 + x^2 - x + 1"
    assert str(Polynomial((0, -2))) == "-2x"


def test_cyclotomic_examples():
    assert cyclotomic_poly(1) == Polynomial((-1, 1))
    assert cyclotomic_poly(2) == Polynomial((1, 1))
    assert cyclotomic_poly(10) == Polynomial((1, -1, 1, -1, 1))
    assert cyclotomic_poly(9) == Polynomial((1, 0, 0, 1, 0, 0, 1))


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        cyclotomic_poly(-3)


def test_x10_minus_1_over_proper_factors_gives_phi10():
    # Phi_1 Phi_2 Phi_5, multiplied by x^4 - x^3 + x^2 - x + 1, is x^10 - 1
    den = _convolve(_convolve((-1, 1), (1, 1)), (1, 1, 1, 1, 1))
    assert Polynomial(_convolve((1, -1, 1, -1, 1), den)) == Polynomial([-1] + [0] * 9 + [1])


def test_cyclotomic_degree_is_totient_up_to_64():
    for n in range(1, 65):
        assert cyclotomic_poly(n).degree == brute_totient(n)
        assert cyclotomic_poly(n).is_monic()


def test_divisor_product_identity_up_to_64():
    for n in range(1, 65):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _convolve(prod, cyclotomic_poly(d).coeffs)
        assert Polynomial(prod) == Polynomial([-1] + [0] * (n - 1) + [1])


def test_prime_cyclotomic_is_all_ones():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        assert cyclotomic_poly(p) == Polynomial((1,) * p)


def test_prime_power_identity():
    # Phi_{p^k}(x) = Phi_p(x^{p^{k-1}})
    for p in (2, 3, 5):
        for k in range(2, 5):
            assert cyclotomic_poly(p**k) == at_power(cyclotomic_poly(p), p ** (k - 1))


def test_odd_doubling_identity():
    # Phi_{2n}(x) = Phi_n(-x) for odd n > 1
    for n in range(3, 32, 2):
        assert cyclotomic_poly(2 * n) == at_power(cyclotomic_poly(n), 1, -1)


def test_two_power_times_odd_prime_identity():
    # Phi_{2^k p}(x) = Phi_p(-x^{2^{k-1}})
    for p in (3, 5, 7, 11, 13):
        k = 1
        while 2**k * p <= 64:
            assert cyclotomic_poly(2**k * p) == at_power(cyclotomic_poly(p), 2 ** (k - 1), -1)
            k += 1


def test_composition_and_int_evaluation():
    p = Polynomial((1, 1, 1))
    assert p(2) == 7
    assert at_power(p, 1, 2) == Polynomial((1, 2, 4))
    assert at_power(p, 1, 2)(3) == p(6) == 43


_SERIES_SCRIPT = """
import sys
import cycloderiv.polynomials as polynomials

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
polynomials.factorize = lambda n: {2: 1}
try:
    polynomials.cyclotomic_poly(9)
except ArithmeticError as exc:
    print(exc)
else:
    sys.exit("cyclotomic_poly returned a series that ends wrong")
"""


def test_cyclotomic_poly_raises_when_the_series_ends_wrong(monkeypatch):
    # a wrong factorization of 9 builds (1 - x^9) / (1 - x^4) through degree 6
    message = "the series for Phi_9 ends in [0, 0], not [1, 0]"
    monkeypatch.setattr(polynomials, "factorize", lambda n: {2: 1})
    cyclotomic_poly.cache_clear()
    try:
        with pytest.raises(ArithmeticError) as caught:
            cyclotomic_poly(9)
    finally:
        cyclotomic_poly.cache_clear()
    assert str(caught.value) == message
    # the same under python -O, which strips assert statements
    proc = run_python("-O", "-c", _SERIES_SCRIPT, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


def test_cyclotomic_poly_refuses_an_unindexable_degree_before_factoring():
    # phi(n) >= n // n.bit_length() > sys.maxsize; factoring this n alone takes seconds
    script = (
        "from cycloderiv.polynomials import cyclotomic_poly\n"
        "cyclotomic_poly(33554393**3 * 33554383)\n"
    )
    proc = run_python("-c", script, text=True, timeout=5)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ValueError: ring degree phi(n) of a 100-bit n >= 2^93 has more coefficients than a list can hold"
    )


# squarefree n with three to six primes, up to 2 * 3 * 5 * 7 * 11 * 13
SQUAREFREE = (30, 105, 210, 330, 390, 462, 1001, 1155, 1365, 2310, 3003, 4290, 5005, 15015, 30030)


def test_cyclotomic_identities_on_squarefree_n_up_to_30030():
    # Phi_mp(x) Phi_m(x) = Phi_m(x^p) for a prime p not dividing m, here the
    # largest prime of n, and Phi_2m(x) = Phi_m(-x) for odd m
    for n in SQUAREFREE:
        p = max(factorize(n))
        m = n // p
        product = _convolve(cyclotomic_poly(n).coeffs, cyclotomic_poly(m).coeffs)
        assert Polynomial(product) == at_power(cyclotomic_poly(m), p), n
        if n % 2:
            assert cyclotomic_poly(2 * n) == at_power(cyclotomic_poly(n), 1, -1), n


def test_monomial_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="^monomial degree must be non-negative, got -1$"):
        Polynomial.monomial(-1)


P = Polynomial


# (f, g, Res(f, g)), each value worked by hand from lc(f)^deg g * prod g(roots of f)
RESULTANT_CASES = [
    (P((3, -3)), P((1,) + (0,) * 8 + (1,)), -39366),  # (-3)^9 * g(1): odd x odd degrees
    (P((-1, 0, 1)), P((0, 1)), -1),  # g(1) g(-1)
    (P((0, 1)), P((-1, 0, 1)), -1),
    (P((1, 0, 1)), P((0, 0, 1)), 1),  # i^2 (-i)^2
    (P((-2, 1)), P((0, 0, 3)), 12),
    (P((2, 3)), P((0, 0, 0, 1)), -8),  # 3^3 (-2/3)^3: non-monic f
    (P(_convolve((1, 1), (2, 0, 1))), P(_convolve((1, 1), (5, 3))), 0),  # shared factor x + 1
    (cyclotomic_poly(6), P((0, 1)), 1),
    (P((1, 2, 3)), P((7,)), 49),  # c^deg f
    (P((7,)), P((1, 2, 3)), 49),
    (P((4,)), P((-5,)), 1),  # two constants: the empty Sylvester matrix
    (P(), P((1, 2)), 0),
    (P((1, 2)), P(), 0),
    (P(), P((3,)), 0),
]


@pytest.mark.parametrize("f, g, expected", RESULTANT_CASES)
def test_resultant_worked_examples(f, g, expected):
    assert resultant(f, g) == sylvester_det(f, g) == expected


def _random_poly(rng, degree):
    if degree < 0:
        return Polynomial()
    lead = rng.choice((-3, -2, -1, 1, 2, 3))
    return Polynomial([rng.randint(-4, 4) for _ in range(degree)] + [lead])


def test_resultant_equals_the_sylvester_determinant_on_random_polynomials():
    rng = random.Random(15)
    for _ in range(600):
        f = _random_poly(rng, rng.randint(-1, 7))
        g = _random_poly(rng, rng.randint(-1, 7))
        if rng.random() < 0.25:
            common = _random_poly(rng, rng.randint(1, 3))
            f, g = P(_convolve(f.coeffs, common.coeffs)), P(_convolve(g.coeffs, common.coeffs))
        assert resultant(f, g) == sylvester_det(f, g), (f, g)


def test_resultant_of_phi_n_and_x_minus_1_is_the_cyclotomic_value_at_1():
    # the product of alpha - 1 over the roots of Phi_n is (-1)^phi(n) Phi_n(1),
    # and phi(n) is even for n >= 3
    for n in range(3, 60):
        phi = cyclotomic_poly(n)
        assert resultant(phi, Polynomial((-1, 1))) == phi(1), n
