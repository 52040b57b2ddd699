"""Primality, factorization and the unit check of ``arith``.

``is_prime`` and ``factorize`` share one trial-division loop; they are
checked against a smallest-prime-factor sieve, against sympy where it is
installed, and ``is_prime`` for stopping at the first factor it finds. The
unit check is the one rule behind every refused exponent, so every caller
raises the same message.
"""

import random
import time

import pytest

from cycloderiv import CyclotomicRing, Endomorphism, RingForm, valuate
from cycloderiv.arith import check_unit, factorize, is_prime, multiplicity

LIMIT = 20000


def _smallest_prime_factors(limit):
    """``spf[n]`` is the smallest prime factor of n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def test_is_prime_and_factorize_agree_with_a_sieve():
    spf = _smallest_prime_factors(LIMIT)
    for n in range(-3, LIMIT + 1):
        assert is_prime(n) == (n >= 2 and spf[n] == n), n
        if n < 1:
            with pytest.raises(ValueError, match="cannot factorize"):
                factorize(n)
            continue
        expected = {}
        rest = n
        while rest > 1:
            p = spf[rest]
            expected[p] = expected.get(p, 0) + 1
            rest //= p
        fac = factorize(n)
        assert fac == expected, n
        assert list(fac) == sorted(fac), n


def test_is_prime_and_factorize_agree_with_sympy_on_40_bit_n():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    # random n are rarely prime, so primes and products of two 20-bit
    # primes are drawn as well
    ns = [rng.getrandbits(40) | 1 << 39 for _ in range(60)]
    ns += [sympy.prevprime(rng.getrandbits(40) | 1 << 39) for _ in range(4)]
    ns += [
        sympy.prevprime(rng.getrandbits(19) | 1 << 19) * sympy.prevprime(rng.getrandbits(19) | 1 << 19)
        for _ in range(4)
    ]
    for n in ns:
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == sympy.factorint(n), n


def test_is_prime_stops_at_the_first_factor():
    # 10**18 + 3 is prime, so a full trial division of the cofactor would
    # run to 10**9
    started = time.perf_counter()
    assert is_prime(2 * (10**18 + 3)) is False
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize(
    "exponent, message",
    [
        (13, "exponent 13 is not a unit modulo 10 in 1..9"),
        (10, "exponent 10 is not a unit modulo 10 in 1..9"),
        (0, "exponent 0 is not a unit modulo 10 in 1..9"),
        (2, "exponent 2 is not a unit modulo 10"),
    ],
)
def test_every_exponent_refusal_is_the_one_unit_check(exponent, message):
    callers = (
        lambda: check_unit(exponent, 10),
        lambda: Endomorphism.zeta_power(CyclotomicRing(10), exponent),
        lambda: valuate(RingForm.form_2rp(1, 5), exponent, 3),
        lambda: valuate(RingForm.form_2rp(1, 5), 3, exponent),
    )
    for call in callers:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message



def test_multiplicity_splits_a_value_and_refuses_a_small_base_or_zero():
    assert multiplicity(2, 24) == (3, 3)
    assert multiplicity(3, -18) == (2, -2)
    assert multiplicity(5, 7) == (0, 7)
    with pytest.raises(ValueError, match="^multiplicity base must be at least 2, got 1$"):
        multiplicity(1, 5)
    with pytest.raises(ValueError, match="^multiplicity of zero is undefined$"):
        multiplicity(2, 0)
