"""Dense integer polynomials with exact arithmetic.

A polynomial is an ascending tuple of arbitrary-precision integer
coefficients: ``(1, -2, 0, 1)`` stands for ``1 - 2x + x^3``. Trailing zero
coefficients are stripped on construction, the zero polynomial is the empty
tuple, and its degree is the ``-inf`` sentinel so it can never be confused
with a degree-0 constant.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Sequence

from .arith import check_indexable, factorize

ZERO_POLY_DEGREE = float("-inf")


def _convolve(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Coefficients of the unreduced product of two ascending coefficient lists.

    The nonzero terms of ``right`` are collected once and only nonzero pairs
    are multiplied. The result has ``len(left) + len(right) - 1`` entries.
    """
    terms = [(j, b) for j, b in enumerate(right) if b]
    out = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def _power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply from ``one``; exponent >= 0."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class Polynomial:
    """An integer polynomial; all arithmetic stays in the integers.

    >>> Polynomial((1, 0, 1))
    Polynomial((1, 0, 1))
    >>> print(Polynomial((1, 0, 1)))
    x^2 + 1
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> Polynomial:
        if degree < 0:
            raise ValueError(f"monomial degree must be non-negative, got {degree}")
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int | float:
        """Index of the leading term; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else ZERO_POLY_DEGREE

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def _coerce(other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial((other,))
        return None

    def __add__(self, other: int | Polynomial) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(
            a + b for a, b in itertools.zip_longest(self.coeffs, rhs.coeffs, fillvalue=0)
        )

    __radd__ = __add__

    def __sub__(self, other: int | Polynomial) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(
            a - b for a, b in itertools.zip_longest(self.coeffs, rhs.coeffs, fillvalue=0)
        )

    def __rsub__(self, other: int | Polynomial) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other: int | Polynomial) -> Polynomial:
        if isinstance(other, int):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, exponent, Polynomial((1,)))

    def __call__(self, value):
        """Evaluate by Horner's rule.

        Works for plain integers, polynomials (composition) and quotient-ring
        elements, since all of those support ``+ int`` and ``* value``.
        """
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                term = "x" if i == 1 else f"x^{i}"
                if mag != 1:
                    term = f"{mag}{term}"
            if parts:
                parts.append(f"{'-' if c < 0 else '+'} {term}")
            else:
                parts.append(f"-{term}" if c < 0 else term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Polynomial:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    For n >= 2, ``Phi_n`` is the product of ``(1 - x^(n/s))^mu(s)`` over the
    squarefree divisors s of n, computed as a power series through degree
    phi(n) + 1 (Arnold and Monagan, *Calculating cyclotomic polynomials*,
    Math. Comp. 80 (2011)). Multiplying by ``1 - x^e`` subtracts a copy
    shifted by e, and dividing by it is a running sum with stride e, so
    nothing is divided and memory follows phi(n), not n. The products come
    first, so every partial series is the truncation of ``Phi_n`` times the
    factors still to divide, and its coefficients stay small. The series
    must end in 1, 0 at degrees phi(n) and phi(n) + 1; an n whose phi(n)
    cannot index a list is refused before it is factored.

    >>> print(cyclotomic_poly(10))
    x^4 - x^3 + x^2 - x + 1
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomials are indexed by n >= 1, got {n}")
    if n == 1:
        return Polynomial((-1, 1))
    check_indexable(n)
    factors = [(n, 1)]  # (n/s, mu(s)) for the squarefree divisors s of n
    for p in factorize(n):
        factors += [(e // p, -mu) for e, mu in factors]
    top = sum(e * mu for e, mu in factors) + 1
    series = [1] + [0] * top
    for e, mu in sorted(factors, key=lambda f: -f[1]):
        if e <= top and mu > 0:
            series[e:] = map(operator.sub, series[e:], series[:-e])
        elif e <= top:
            for r in range(e):
                series[r::e] = itertools.accumulate(series[r::e])
    if series[-2:] != [1, 0]:
        raise ArithmeticError(f"the series for Phi_{n} ends in {series[-2:]}, not [1, 0]")
    return Polynomial(series)


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of ``lc(b)^(deg a - deg b + 1) a mod b``; ``deg b >= 1``.

    One step per degree of the quotient, each scaling the running remainder
    by ``lc(b)`` (also when its leading term is already zero, so the power of
    ``lc(b)`` is exact) and cancelling that leading term. Trailing zeros are
    stripped from the result. An ``a`` of lower degree than b, the zero
    polynomial included, takes no step and comes back stripped. For a monic
    b nothing is scaled, so this is the plain remainder: the resultant uses
    it for its remainder sequence, and ``QuotientRing.reduce`` for any
    ``a``.
    """
    r = list(a)
    lead = b[-1]
    top = len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c = r.pop()
        if lead != 1:
            r = [x * lead for x in r]
        if c:
            for j in range(top):
                r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(f: Polynomial, g: Polynomial) -> int:
    """The resultant of f and g: the determinant of their Sylvester matrix.

    With f's rows first, that is ``lc(f)^deg g`` times the product of g over
    the roots of f, so for a monic f it is the determinant of multiplication
    by g on ``Z[x]/(f)``. Computed by the subresultant remainder sequence
    (Brown and Collins; Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 3.3.7) in integers only: each pseudo-remainder is divided
    exactly by ``scale * h^delta`` (Cohen's ``g h^delta``), the factor the
    subresultant theorem says it carries, which keeps coefficients the size
    of minors of the Sylvester matrix. 0 when either polynomial is zero,
    ``c^deg f`` for a constant ``g = c`` (``c^0 = 1`` when both are
    constants).
    """
    a, b = list(f.coeffs), list(g.coeffs)
    if not a or not b:
        return 0
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    if len(b) == 1:
        # a swap with a constant changes no sign
        return b[0] ** (len(a) - 1)
    scale, h = 1, 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        divisor = scale * h**delta
        a, b = b, [x // divisor for x in r]
        scale = a[-1]
        if delta:
            h = scale**delta // h ** (delta - 1)
        if len(b) == 1:
            return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)
