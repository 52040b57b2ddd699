"""Small integer helpers: primality, totients, the argument rules, unit groups, multiplicities.

Most inputs are desk-sized (a few thousand at most), so plain trial division
is the right tool, and ``check_degree`` keeps it that way: it refuses an n
whose ring degree phi(n) exceeds the cap before any other work. A
deterministic Miller-Rabin test lets trial division stop as soon as what is
left of n is prime, so a large prime n costs no more than a small one, and
Pollard's rho splits what is left once trial division passes a small bound,
so a product of two large primes costs about the fourth root of n. The test
is exact below its limit, about 3.3 * 10^24, and ``is_prime``,
``factorize`` and ``totient`` refuse an n at or above it; no command
reaches that refusal, since ``check_indexable`` refuses every such n first.
The argument rules (``check_degree`` with ``check_indexable``,
``check_two_units``, ``check_unit``, ``check_trials``) live here so that
the CLI can apply them before it loads any ring module. ``check_degree``
sizes a bare n; a sweep form, which comes factored, is sized from its
closed-form degree by ``predictions.RingForm.degree``.
"""

from __future__ import annotations

import sys
from itertools import count
from math import gcd, isqrt
from typing import Iterator


# the first 13 primes: as Miller-Rabin bases they decide primality exactly for
# every n below _MILLER_RABIN_LIMIT, about 3.3 * 10^24 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981
# trial division runs to here; a larger factor of a composite cofactor is
# found by Pollard's rho
_TRIAL_BOUND = 1000


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the 13 bases: exact below ``_MILLER_RABIN_LIMIT``.

    At or above the limit no answer is proven, so such an n is refused with a
    ``ValueError`` that names it by bit length.
    """
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"a {n.bit_length()}-bit n is at or above the Miller-Rabin limit, "
                         "about 3.3 * 10^24, where primality is not proven")
    if n < 2 or n % 2 == 0 or n in _MILLER_RABIN_BASES:
        return n in _MILLER_RABIN_BASES  # 2, or an odd prime that a base would call composite
    s, q = multiplicity(2, n - 1)
    for a in _MILLER_RABIN_BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factors(n: int) -> list[int]:
    """The prime factors of an ``n > 1`` below the Miller-Rabin limit, unordered.

    A composite n is split by Pollard's rho with Brent's cycle detection:
    ``x -> x^2 + c`` cycles modulo each prime p | n after about ``sqrt(p)``
    steps, and the first repeat shows as ``gcd(x - y, n) > 1``.
    """
    if is_prime(n):
        return [n]
    for c in count(1):
        x = y = 2
        g, steps, power = 1, 0, 1
        while g == 1:
            if steps == power:
                x, steps, power = y, 0, 2 * power
            y = (y * y + c) % n
            steps += 1
            g = gcd(x - y, n)
        if g != n:
            return _rho_factors(g) + _rho_factors(n // g)


def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of ``1 <= n < _MILLER_RABIN_LIMIT`` with multiplicity, ascending.

    The one factoring loop of the package. Trial division stops as soon as
    the cofactor left is prime, which it then yields. Past ``_TRIAL_BOUND``
    a cofactor that is not prime is composite, and ``_rho_factors`` splits
    it. So the result is exact, and an n at or above the limit is refused
    by ``is_prime``. It is lazy, so a caller that needs only the smallest
    factor stops at the first one found.
    """
    f = 2
    prime = is_prime(n)
    while not prime and f * f <= n:
        if f > _TRIAL_BOUND:
            yield from sorted(_rho_factors(n))
            return
        if n % f:
            f += 1 if f == 2 else 2
        else:
            yield f
            n //= f
            prime = is_prime(n)
    if n > 1:
        yield n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as an ordered ``{prime: exponent}`` map."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; expected a positive integer")
    out: dict[int, int] = {}
    for p in _prime_factors(n):
        out[p] = out.get(p, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler's phi via the factorization formula."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


DEFAULT_DEGREE_CAP = 64


def _factor_limit(cap: int) -> int:
    """A bound on n above which phi(n) exceeds the cap: ``(2 cap^2 + 2)^2``.

    ``phi(n) >= sqrt(n / 2)``, so above this bound ``isqrt(n // 2) > cap``
    and n need not be factored. At or below it, trial division takes at most
    ``2 cap^2 + 2`` steps.
    """
    return (2 * cap * cap + 2) ** 2


def _degree_bound(n: int, cap: int) -> int | None:
    """A lower bound on phi(n) above the cap, found without factoring n, or None.

    Two bounds hold for every n >= 1: ``isqrt(n // 2)``, and
    ``n // n.bit_length()``, since phi(n) / n is the product of ``1 - 1/q``
    over the primes q dividing n, the j-th smallest of them is at least
    j + 1, and there are fewer than ``n.bit_length()`` of them. The first
    that exceeds the cap is returned, but only for n above
    ``_factor_limit(min(cap, 64))``: at or below it, trial division takes at
    most ``2 * 64^2 + 2`` steps, so at a cap up to 64 every n up to
    ``_factor_limit(cap)`` is refused with its exact degree. Above it, None
    means ``n // n.bit_length() <= cap``, and trial division takes at most
    about ``sqrt(cap * n.bit_length())`` steps; it stops sooner once the
    cofactor is prime, so a prime n takes none, and at the latest at
    ``_TRIAL_BOUND``, where Pollard's rho takes over.
    """
    if n > _factor_limit(min(cap, DEFAULT_DEGREE_CAP)):
        for bound in (isqrt(n // 2), n // n.bit_length()):
            if bound > cap:
                return bound
    return None


def check_indexable(n: int, n_stated: str = "") -> None:
    """Refuse an ``n >= 1`` whose ``Phi_n`` no list can hold, before n is factored.

    ``phi(n) >= n // n.bit_length()`` (see ``_degree_bound``), so past
    ``sys.maxsize`` no list of phi(n) coefficients can be built. The
    ``ValueError`` states that bound in bits, as ``check_degree`` does for an
    n too long to write, and no digit of n. Every n at or above the
    Miller-Rabin limit is refused here, before ``is_prime`` would refuse it.
    A caller that checks a divisor of its n, whose phi bounds phi(n) too,
    names that n in ``n_stated``.
    """
    if n >= 1 and (bound := n // n.bit_length()) > sys.maxsize:
        raise _unindexable(n_stated or f"a {n.bit_length()}-bit n", bound.bit_length() - 1)


def _decimal(value: int, name: str) -> str:
    """``value`` in decimal, or by bit length when it has more digits than Python writes."""
    try:
        return str(value)
    except ValueError:
        return f"(a {value.bit_length()}-bit {name})"


def _unindexable(n_stated: str, bound_log: int) -> ValueError:
    """The refusal of an n whose ``phi(n) >= 2^bound_log`` no list can index."""
    stated = f"phi(n) of {n_stated} >= 2^{_decimal(bound_log, 'exponent')}"
    return ValueError(f"ring degree {stated} has more coefficients than a list can hold")


def _above_cap(stated: str, cap: int) -> ValueError:
    """The refusal of a ring degree, as ``stated``, above the cap."""
    return ValueError(f"ring degree {stated} exceeds the cap {cap}; raise the cap to proceed")


def check_degree(n: int, cap: int = DEFAULT_DEGREE_CAP) -> int:
    """The ring degree phi(n), refused above the cap before anything is built.

    Rings and multiplier matrices grow with phi(n) and phi(n)^2, so every
    entry point checks the degree from n alone first. When ``_degree_bound``
    finds a lower bound of phi(n) above the cap, the refusal states it, so
    the work is bounded by the cap, not by n. An n too long to write in
    decimal (``sys.get_int_max_str_digits``) and its bound are given by bit
    length. Under a cap that high, ``check_indexable`` refuses an n whose
    ``Phi_n`` no list can hold before n is factored.
    """
    bound = _degree_bound(n, cap)
    if bound is not None:
        try:
            stated = f"phi({n}) >= {bound}"
        except ValueError:
            stated = f"phi(n) of a {n.bit_length()}-bit n >= 2^{bound.bit_length() - 1}"
        raise _above_cap(stated, cap)
    check_indexable(n)
    degree = totient(n)
    if degree > cap:
        raise _above_cap(str(degree), cap)
    return degree


def check_two_units(n: int) -> None:
    """Refuse an n with fewer than two unit exponents, which admits no pair.

    Only n = 1 and n = 2 have fewer than two units, so a ring there has no
    two distinct endomorphisms ``zeta -> zeta^u``.
    """
    if n <= 2:
        raise ValueError(f"n = {n} is unsupported: fewer than two unit exponents")


def check_unit(exponent: int, n: int) -> None:
    """Refuse an exponent that is not a unit modulo n in 1..n-1."""
    if not 1 <= exponent < n:
        raise ValueError(f"exponent {exponent} is not a unit modulo {n} in 1..{n - 1}")
    if gcd(exponent, n) != 1:
        raise ValueError(f"exponent {exponent} is not a unit modulo {n}")


def check_trials(trials: int) -> None:
    """Refuse a trial count below 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def units(n: int) -> tuple[int, ...]:
    """Exponents 1 <= x < n coprime to n, ascending."""
    return tuple(x for x in range(1, n) if gcd(x, n) == 1)


def multiplicity(base: int, value: int) -> tuple[int, int]:
    """Split ``value = base**e * cofactor`` with the cofactor coprime to base.

    Returns ``(e, cofactor)``; ``value`` must be nonzero and ``base >= 2``.
    """
    if base < 2:
        raise ValueError(f"multiplicity base must be at least 2, got {base}")
    if value == 0:
        raise ValueError("multiplicity of zero is undefined")
    e = 0
    while value % base == 0:
        value //= base
        e += 1
    return e, value
