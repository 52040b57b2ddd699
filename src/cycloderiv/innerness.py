"""Multiplier matrices, inner/outer classification, and determinant predictions.

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
``MultiplierMatrix.det``, the value the predictions below are scored against.
It needs no matrix either: A is multiplication by delta on ``Z[x]/(f)`` for
the monic modulus f, so its determinant is the product of ``delta(x)`` over
the roots of f, the resultant ``Res(f, delta(x))``, which
``polynomials.resultant`` computes by a remainder sequence.

For the two ring families that carry determinant predictions, ``valuate``
reads the absolute determinant of A off the multiplicities of 2 and p (or of
p alone) in ``v - u``:

* n = 2^r p (p an odd prime):  2^(2^e1 (p-1)) when 1 <= e1 <= r-1 and
  e2 >= 1;  p^(2^(r-1)) when e1 >= r and e2 = 0;  1 otherwise.
* n = p^k (k >= 2):  p^(p^e1).

Both use ``|v - u| = 2^e1 p^e2 m`` (resp. ``p^e1 m``) with m coprime to the
relevant primes; absolute values make the split independent of pair order.
They are the norm ``|N(w - 1)| = q^(phi(n)/phi(c))`` when the order
``c = n / gcd(n, v - u)`` of ``w`` (the m of the inverse above) is a power
of a prime q, and 1 otherwise (Washington, Prop. 2.8; Apostol, Proc. AMS 24
(1970)), specialised to each family. For p^k, c = p^(k-e1). For 2^r p, u
and v are odd, so e1 >= 1, and c is p (e1 >= r, e2 = 0), 2^(r-e1)
(e1 <= r-1, e2 >= 1) or not a prime power. ``sweep`` still scores them
against the determinant measured by ``MultiplierMatrix.det``.
Determinant signs depend on row-formation order, so every comparison here is
against ``|det|``.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import NamedTuple

from .arith import check_unit, factorize, is_prime, multiplicity
from .endomorphisms import TwistedDerivation, TwistedPair
from .intlinalg import IntMatrix, RatVector
from .polynomials import Polynomial, resultant
from .quotient import RingElement


def multiplication_matrix(x: RingElement) -> IntMatrix:
    """The matrix of ``beta -> beta * x``: column j holds ``theta^j * x``."""
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


class _RingFormFields(NamedTuple):
    kind: str
    p: int
    r: int | None = None
    k: int | None = None


class RingForm(_RingFormFields):
    """One of the two conductor families with a determinant prediction.

    kind "2rp" is n = 2^r p with r >= 1 and p an odd prime; kind "pk" is
    n = p^k with p prime and k >= 2 (k = 1 carries no prediction here).
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int, r: int | None = None, k: int | None = None) -> RingForm:
        if kind == "2rp":
            if r is None or r < 1:
                raise ValueError("form 2rp requires r >= 1")
            if k is not None:
                raise ValueError("form 2rp does not take k")
            if p == 2 or not is_prime(p):
                raise ValueError(f"form 2rp requires an odd prime p, got {p}")
        elif kind == "pk":
            if k is None or k < 2:
                raise ValueError("form pk requires k >= 2")
            if r is not None:
                raise ValueError("form pk does not take r")
            if not is_prime(p):
                raise ValueError(f"form pk requires a prime p, got {p}")
        else:
            raise ValueError(f"unknown ring form kind {kind!r}")
        return super().__new__(cls, kind, p, r, k)

    @classmethod
    def form_2rp(cls, r: int, p: int) -> RingForm:
        return cls(kind="2rp", p=p, r=r)

    @classmethod
    def form_pk(cls, p: int, k: int) -> RingForm:
        return cls(kind="pk", p=p, k=k)

    @classmethod
    def detect(cls, n: int) -> RingForm | None:
        """Match n against the two families; None when neither applies."""
        if n < 4:
            return None
        fac = factorize(n)
        if len(fac) == 1:
            ((q, e),) = fac.items()
            return cls.form_pk(q, e) if e >= 2 else None
        if len(fac) == 2 and 2 in fac:
            odd = [(q, e) for q, e in fac.items() if q != 2]
            (q, e) = odd[0]
            if e == 1:
                return cls.form_2rp(fac[2], q)
        return None

    @property
    def n(self) -> int:
        if self.kind == "2rp":
            return 2**self.r * self.p
        return self.p**self.k

    def params(self) -> dict[str, int]:
        if self.kind == "2rp":
            return {"r": self.r, "p": self.p}
        return {"p": self.p, "k": self.k}

    def label(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.params().items())
        return f"{self.kind}({inner})"


class Valuation(NamedTuple):
    """The multiplicities in |v - u| a family formula reads, and the |det| it predicts.

    e2 only exists for form 2rp.
    """

    e1: int
    e2: int | None
    m: int
    predicted: int


def valuate(form: RingForm, u: int, v: int) -> Valuation:
    """Split |v - u| into the prime multiplicities of the form and predict |det A|."""
    check_unit(u, form.n)
    check_unit(v, form.n)
    if u == v:
        raise ValueError("u and v must differ")
    diff = abs(v - u)
    if form.kind == "pk":
        e1, m = multiplicity(form.p, diff)
        return Valuation(e1, None, m, form.p ** (form.p**e1))
    e1, rest = multiplicity(2, diff)
    e2, m = multiplicity(form.p, rest)
    if 1 <= e1 <= form.r - 1 and e2 >= 1:
        return Valuation(e1, e2, m, 2 ** (2**e1 * (form.p - 1)))
    if e1 >= form.r and e2 == 0:
        return Valuation(e1, e2, m, form.p ** (2 ** (form.r - 1)))
    return Valuation(e1, e2, m, 1)


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
