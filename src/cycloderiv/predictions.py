"""The two conductor families with a determinant prediction, and the prediction.

For the two ring families that carry determinant predictions, ``valuate``
reads the absolute determinant of the multiplier matrix A (see
``innerness``) off the multiplicities of 2 and p (or of p alone) in
``v - u``:

* n = 2^r p (p an odd prime):  2^(2^e1 (p-1)) when 1 <= e1 <= r-1 and
  e2 >= 1;  p^(2^(r-1)) when e1 >= r and e2 = 0;  1 otherwise.
* n = p^k (k >= 2):  p^(p^e1).

Both use ``|v - u| = 2^e1 p^e2 m`` (resp. ``p^e1 m``) with m coprime to the
relevant primes; absolute values make the split independent of pair order.
They are the norm ``|N(w - 1)| = q^(phi(n)/phi(c))`` of ``w = zeta^(v-u)``
when its order ``c = n / gcd(n, v - u)`` (the m of ``innerness``'s
closed-form inverse) is a power of a prime q, and 1 otherwise (Washington,
*Introduction to Cyclotomic Fields*, Prop. 2.8; Apostol, Proc. AMS 24
(1970)), specialised to each family. For p^k, c = p^(k-e1). For 2^r p, u
and v are odd, so e1 >= 1, and c is p (e1 >= r, e2 = 0), 2^(r-e1)
(e1 <= r-1, e2 >= 1) or not a prime power. ``sweep`` still scores them
against the determinant measured by ``innerness.MultiplierMatrix.det``.
Determinant signs depend on row-formation order, so every comparison here is
against ``|det|``. The ``sweep`` and ``matrix`` commands and ``harness``
import this module; ``classify`` never does.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import check_indexable, check_indexable_above, check_unit, factorize, is_prime, multiplicity


class _RingFormFields(NamedTuple):
    kind: str
    p: int
    r: int | None = None
    k: int | None = None


class RingForm(_RingFormFields):
    """One of the two conductor families with a determinant prediction.

    kind "2rp" is n = 2^r p with r >= 1 and p an odd prime; kind "pk" is
    n = p^k with p prime and k >= 2 (k = 1 carries no prediction here). A
    form whose ``Phi_n`` no list can hold is refused with the message of
    ``arith.check_indexable``, in bounded time: from the bit lengths of p
    and the exponent alone before n is built, and before p is tested.
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int, r: int | None = None, k: int | None = None) -> RingForm:
        if kind == "2rp":
            if r is None or r < 1:
                raise ValueError("form 2rp requires r >= 1")
            if k is not None:
                raise ValueError("form 2rp does not take k")
        elif kind == "pk":
            if k is None or k < 2:
                raise ValueError("form pk requires k >= 2")
            if r is not None:
                raise ValueError("form pk does not take r")
        else:
            raise ValueError(f"unknown ring form kind {kind!r}")
        form = super().__new__(cls, kind, p, r, k)
        if p >= 2:
            # n >= 2^bits, so a form whose Phi_n no list can hold is refused
            # before n is built (3^(10^7) alone takes seconds) and before p is
            # tested (trial division of a p above the Miller-Rabin limit never
            # ends); past the first check n has at most 140 bits
            bits = r + p.bit_length() - 1 if kind == "2rp" else k * (p.bit_length() - 1)
            check_indexable_above(bits)
            check_indexable(form.n)
        if kind == "2rp" and (p == 2 or not is_prime(p)):
            raise ValueError(f"form 2rp requires an odd prime p, got {p}")
        if kind == "pk" and not is_prime(p):
            raise ValueError(f"form pk requires a prime p, got {p}")
        return form

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
