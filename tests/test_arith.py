"""Primality, factorization and the unit check of ``arith``.

``is_prime`` is one deterministic Miller-Rabin test, exact below its limit
and a refusal at and above it. ``factorize`` is trial division, which stops
once ``is_prime`` says the cofactor left is prime, and Pollard's rho past a
small bound. They are checked against a smallest-prime-factor sieve (also
with the bound lowered, so that rho splits every composite cofactor),
against sympy where it is installed, on Carmichael numbers and strong
pseudoprimes, for refusing an n at or above the limit at once, and
``is_prime`` for stopping at an even n. The unit check is the one rule
behind every refused exponent, so every caller raises the same message.
"""

import random
import time

import pytest

from cycloderiv import CyclotomicRing, Endomorphism, RingForm, valuate
from cycloderiv import arith
from cycloderiv.arith import check_unit, factorize, is_prime, multiplicity

LIMIT = 20000

# Carmichael numbers: a^(n-1) = 1 mod n for every a coprime to n, so a
# Fermat test calls them prime; the larger ones are Chernick's
# (6k + 1)(12k + 1)(18k + 1) with three prime factors, at k = 1, 6, 35, 45,
# 51 and 10110
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    294409, 56052361, 118901521, 172947529,
    (6 * 10110 + 1) * (12 * 10110 + 1) * (18 * 10110 + 1),
)
# strong pseudoprimes to the first 4, 9 and 12 prime bases, each caught by a
# later base of the thirteen
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


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
    _check_against_the_sieve()


@pytest.mark.parametrize("bound", [0, 2, 30])
def test_pollard_rho_past_a_lowered_trial_bound_agrees_with_the_sieve(monkeypatch, bound):
    # below its bound of 1000 trial division alone factors every n of the
    # sieve, so the bound is lowered to send each composite cofactor to rho
    monkeypatch.setattr(arith, "_TRIAL_BOUND", bound)
    _check_against_the_sieve()


def _check_against_the_sieve():
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
    carmichael = [n for n in CARMICHAEL if n <= LIMIT]
    assert carmichael == [n for n in range(3, LIMIT + 1, 2) if _is_carmichael(n, spf)]


def _is_carmichael(n, spf):
    """Korselt: n composite, squarefree, and p - 1 divides n - 1 for each prime p | n."""
    if spf[n] == n:
        return False
    rest = n
    while rest > 1:
        p = spf[rest]
        rest //= p
        if rest % p == 0 or (n - 1) % (p - 1):
            return False
    return True


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
    # primes up to 80 bits, alone and times a small cofactor, and Carmichael
    # numbers and strong pseudoprimes, which pass weaker primality tests
    large = [sympy.prevprime(rng.getrandbits(bits) | 1 << (bits - 1)) for bits in (50, 64, 80)]
    ns += [*large, *(p * c for p in large for c in (2, 9, 1155)), 10**18 + 3]
    ns += [*CARMICHAEL, *STRONG_PSEUDOPRIMES[:2]]
    for n in ns:
        if n >= arith._MILLER_RABIN_LIMIT:  # an 80-bit prime times 9 or 1155
            with pytest.raises(ValueError, match=r"^a \d+-bit n is at or above the Miller-Rabin limit"):
                is_prime(n)
            continue
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == sympy.factorint(n), n


def test_pollard_rho_factors_products_of_large_primes_as_sympy_does():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    # every n stays below the Miller-Rabin limit (81 bits), where rho takes
    # over from trial division at its bound
    ns = [999999937 * 1000000007, 1009 * 1013, 1013**2]
    for bits in (11, 16, 20, 26):
        p, q, r = (sympy.randprime(2 ** (bits - 1), 2**bits) for _ in range(3))
        ns += [p * q, p * p, p**3, p * q * r, p * p * q, 2 * 3 * 997 * p * q]
    for n in ns:
        assert n < arith._MILLER_RABIN_LIMIT
        fac = factorize(n)
        assert fac == sympy.factorint(n), n
        assert list(fac) == sorted(fac), n
        assert is_prime(n) is False, n


def test_a_product_of_two_primes_near_10_9_factors_at_once():
    # trial division would run to 999999937, about 5 * 10**8 steps
    n = 999999937 * 1000000007
    started = time.perf_counter()
    assert factorize(n) == {999999937: 1, 1000000007: 1}
    assert list(arith._prime_factors(4 * n)) == [2, 2, 999999937, 1000000007]
    assert is_prime(n) is False
    with pytest.raises(ValueError, match="^ring degree 999999941999999616 exceeds the cap"):
        arith.check_degree(n, 10**17)
    assert time.perf_counter() - started < 1


def test_miller_rabin_is_exact_below_its_limit_and_refuses_at_it():
    sympy = pytest.importorskip("sympy")
    limit = arith._MILLER_RABIN_LIMIT
    # the largest primes below the limit are proven; the limit itself is
    # composite yet passes all thirteen bases, which is why it is the limit,
    # so it and everything above it are refused, by bit length alone
    below = [sympy.prevprime(limit)]
    below.append(sympy.prevprime(below[-1]))
    assert [is_prime(p) for p in below] == [True, True]
    assert limit == 1287836182261 * 2575672364521
    for n in (limit, sympy.nextprime(limit)):
        with pytest.raises(ValueError) as refused:
            is_prime(n)
        assert str(refused.value) == (
            "a 82-bit n is at or above the Miller-Rabin limit, about 3.3 * 10^24, "
            "where primality is not proven"
        )
    for n in (*CARMICHAEL, *STRONG_PSEUDOPRIMES):
        assert is_prime(n) is False, n


@pytest.mark.parametrize("function", [is_prime, factorize, arith.totient])
def test_an_n_above_the_miller_rabin_limit_is_refused_at_once(function):
    # 2^89 - 1 is a Mersenne prime: trial division to prove it would run for
    # about 2^44 steps; it is refused, by its bit length and with no digit
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        function(2**89 - 1)
    assert time.perf_counter() - started < 1
    assert str(refused.value).startswith("a 89-bit n is at or above the Miller-Rabin limit")
    assert str(2**89 - 1) not in str(refused.value)


def test_a_prime_cofactor_ends_trial_division():
    # 10**18 + 3 is prime: trial division of it would run to 10**9
    started = time.perf_counter()
    assert is_prime(10**18 + 3)
    assert factorize(2**5 * 3 * (10**18 + 3)) == {2: 5, 3: 1, 10**18 + 3: 1}
    assert arith.totient(10**18 + 3) == 10**18 + 2
    assert time.perf_counter() - started < 0.1


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
