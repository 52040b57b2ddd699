"""Multiplier matrices, their determinant, and inner/outer classification with witnesses.

A twisted derivation D on Z[zeta] is inner exactly when some beta in the ring
satisfies ``D(zeta) = beta * delta`` with ``delta = tau(zeta) - sigma(zeta)``.
In coordinates that is the square integer system ``A X = C``: column j of the
multiplier matrix A holds ``theta^j * delta``, X the coordinates of beta, and
C those of D(zeta). Because the cyclotomic modulus is irreducible, A is
nonsingular and the unique rational solution decides the question: an
integral solution is the inner witness, a fractional one certifies an outer
derivation (there is no separate "outer" computation to disagree with).

That solution needs no elimination. For ``sigma: zeta -> zeta^u`` and
``tau: zeta -> zeta^v``, ``delta = zeta^u (w - 1)`` with ``w = zeta^k``,
``k = v - u mod n``, a primitive m-th root of unity, ``m = n / gcd(n, k)``.
Since ``1 + w + ... + w^(m-1) = 0``, ``(w - 1) sum_(j=1)^(m-1) j w^j = m``, so
``delta^-1 = num / m`` with ``num = sum_j j zeta^(kj - u)`` (Washington,
*Introduction to Cyclotomic Fields*, ch. 2); ``multiplier_inverse`` builds it.
The solution is ``D(zeta) num / m``, and ``A^-1`` is the matrix of ``num``
over m, so ``classify`` decides innerness without building A. The
determinant of A is a separate quantity with one routine,
``MultiplierMatrix.det``, the value the family formulas of ``predictions``
are scored against. It needs no matrix either: A is multiplication by delta
on ``Z[x]/(f)`` for the monic modulus f, so its determinant is the product
of ``delta(x)`` over the roots of f, the resultant ``Res(f, delta(x))``,
which ``polynomials.resultant`` computes by a remainder sequence.

The witness is a ``RatVector``: integer numerators over one positive
denominator, fully reduced, so integrality is decided by ``denominator ==
1``. ``IntMatrix`` is imported from ``intlinalg`` only when a matrix is
built to be printed, so classification loads no linear algebra.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .endomorphisms import TwistedDerivation, TwistedPair
from .polynomials import Polynomial, resultant
from .quotient import RingElement

if TYPE_CHECKING:
    from .intlinalg import IntMatrix


def multiplication_matrix(x: RingElement) -> IntMatrix:
    """The matrix of ``beta -> beta * x``: column j holds ``theta^j * x``."""
    from .intlinalg import IntMatrix

    theta = x.ring.generator()
    columns = [x.coords]
    for _ in range(x.ring.degree - 1):
        x = x * theta
        columns.append(x.coords)
    return IntMatrix.from_columns(columns)


def multiplier_inverse(pair: TwistedPair) -> tuple[RingElement, int]:
    """``(num, m)`` with ``(tau(zeta) - sigma(zeta)) * num = m``, in closed form.

    Puts the integer j at exponent ``(k j - u) mod n`` for ``1 <= j < m``
    (see the module docstring) and reduces modulo ``Phi_n`` once. The
    exponents u and v are those of ``Endomorphism.exponent``; a pair without
    them raises ``ValueError``.
    """
    u, v = pair.sigma.exponent, pair.tau.exponent
    if u is None or v is None:
        raise ValueError(f"the closed-form inverse needs zeta-power exponents, {pair!r} has none")
    ring = pair.ring
    n = ring.n
    k = (v - u) % n
    m = n // gcd(n, k)
    coeffs = [0] * n
    for j in range(1, m):
        coeffs[(k * j - u) % n] = j
    return ring.reduce(Polynomial(coeffs)), m


class MultiplierMatrix:
    """The matrix of ``beta -> beta * (tau(theta) - sigma(theta))``.

    Column j holds the coordinates of ``theta^j * (tau(theta) - sigma(theta))``
    in the power basis. The matrix is built on first use, for callers that
    print it. The determinant needs no matrix: for the monic modulus f it is
    the resultant ``Res(f, delta)`` of f and the polynomial of ``delta``'s
    coordinates, computed once and cached.
    """

    def __init__(self, pair: TwistedPair) -> None:
        self.pair = pair

    @cached_property
    def matrix(self) -> IntMatrix:
        return multiplication_matrix(self.pair.theta_difference())

    @cached_property
    def det(self) -> int:
        delta = self.pair.theta_difference()
        return resultant(self.pair.ring.modulus, Polynomial(delta.coords))

    @property
    def det_abs(self) -> int:
        return abs(self.det)

    def __repr__(self) -> str:
        return f"MultiplierMatrix({self.pair!r})"


class _RatVectorFields(NamedTuple):
    numerators: tuple[int, ...]
    denominator: int


class RatVector(_RatVectorFields):
    """Integer numerators over one positive denominator, fully reduced."""

    __slots__ = ()

    def __new__(cls, numerators: tuple[int, ...], denominator: int) -> RatVector:
        if denominator < 1:
            raise ValueError("denominator must be positive")
        if reduce(gcd, numerators, denominator) != 1:
            raise ValueError("numerators and denominator must be reduced")
        return super().__new__(cls, numerators, denominator)

    @classmethod
    def reduced(cls, numerators: Iterable[int], denominator: int) -> RatVector:
        nums = tuple(numerators)
        if denominator == 0:
            raise ValueError("denominator must be nonzero")
        g = reduce(gcd, nums, abs(denominator))
        if denominator < 0:
            g = -g
        return cls(tuple(x // g for x in nums), denominator // g)

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1


class Classification(NamedTuple):
    """Inner/outer verdict with the exact witness.

    The witness always satisfies ``A numerators = denominator * C``; the
    derivation is inner exactly when the denominator is 1, in which case the
    numerators are the coordinates of beta.
    """

    kind: str  # "inner" | "outer"
    witness: RatVector

    @property
    def is_inner(self) -> bool:
        return self.kind == "inner"


def classify(derivation: TwistedDerivation) -> Classification:
    """Decide innerness of a derivation from the closed-form inverse of its multiplier.

    The witness is ``D(zeta) num / m`` from ``multiplier_inverse``, reduced,
    and is checked in the ring as ``delta * numerators == denominator *
    D(zeta)``. No matrix is built and nothing is eliminated; ``|det A|`` is
    measured by ``MultiplierMatrix.det_abs`` alone. The pair needs zeta-power
    exponents, so the ring is ``Z[zeta_n]``, a domain, and ``delta != 0``.
    """
    pair = derivation.pair
    d_theta = derivation.d_theta
    num, m = multiplier_inverse(pair)
    witness = RatVector.reduced((d_theta * num).coords, m)
    # Independent check of the closed form, kept under ``python -O``.
    if pair.theta_difference() * pair.ring.element(witness.numerators) != (
        d_theta * witness.denominator
    ):
        raise ArithmeticError(
            f"witness {witness} does not satisfy A X = {witness.denominator} C for {pair!r}"
        )
    kind = "inner" if witness.is_integral else "outer"
    return Classification(kind=kind, witness=witness)
