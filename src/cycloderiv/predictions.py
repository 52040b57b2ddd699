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

import sys
from typing import NamedTuple

from .arith import _above_cap, _decimal, _unindexable, check_indexable, check_unit, factorize
from .arith import is_prime, multiplicity


class _RingFormFields(NamedTuple):
    kind: str
    p: int
    r: int | None = None
    k: int | None = None


class RingForm(_RingFormFields):
    """One of the two conductor families with a determinant prediction.

    kind "2rp" is n = 2^r p with r >= 1 and p an odd prime; kind "pk" is
    n = p^k with p prime and k >= 2 (k = 1 carries no prediction here). A
    form is sized by ``degree`` as it is made, against ``cap`` when one is
    given, so a p that is not prime, and a ring degree above the cap or past
    what a list can hold, are refused in bounded time, before n is built.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, p: int, r: int | None = None, k: int | None = None, *, cap: int | None = None
    ) -> RingForm:
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
        form.degree(cap)
        return form

    def degree(self, cap: int | None = None) -> int:
        """phi(n) from the closed form, ``2^(r-1) (p-1)`` or ``p^(k-1) (p-1)``.

        The one routine that sizes a form: nothing is factored and n is not
        built. Four steps, in this order:

        1. for p >= 2, phi(n) >= 2^(e-1) for the exponent e, so an e whose
           bound exceeds the cap or ``sys.maxsize``, past which no list of
           phi(n) coefficients can be built, is refused by bit length alone
           (building 3^(10^7) takes seconds);
        2. p divides n, so ``phi(n) >= phi(p) >= p // p.bit_length()``, and
           ``check_indexable(p)`` refuses every p from the Miller-Rabin
           limit up;
        3. below that limit ``is_prime`` is one Miller-Rabin test, so a
           composite p is refused with no trial division or rho;
        4. the exact degree is compared with the cap and the list limit.

        A degree above a cap of at most ``sys.maxsize`` is refused as above
        the cap, and any other with its bound in bits.
        """
        p, e = self.p, self.r if self.kind == "2rp" else self.k
        limit = sys.maxsize if cap is None else min(cap, sys.maxsize)
        if p >= 2 and e > limit.bit_length():
            raise self._oversized(cap, e - 1)
        check_indexable(p, self._n_label())
        if not is_prime(p) or self.kind == "2rp" and p == 2:
            prime = "an odd prime" if self.kind == "2rp" else "a prime"
            raise ValueError(f"form {self.kind} requires {prime} p, got {p}")
        degree = (2 if self.kind == "2rp" else p) ** (e - 1) * (p - 1)
        if degree > limit:
            raise self._oversized(cap, degree.bit_length() - 1)
        return degree

    def _oversized(self, cap: int | None, log: int) -> ValueError:
        """The refusal of a degree of at least ``2^log`` above the cap or the list limit."""
        if cap is not None and cap <= sys.maxsize:
            return _above_cap(f"of {self._n_label()}", cap)
        return _unindexable(self._n_label(), log)

    def _n_label(self) -> str:
        """``n = 2^r*p`` or ``n = p^k``; each by bit length when it has too many digits to write."""
        p = _decimal(self.p, "p")
        if self.kind == "2rp":
            return f"n = 2^{_decimal(self.r, 'r')}*{p}"
        return f"n = {p}^{_decimal(self.k, 'k')}"

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
        match list(factorize(n).items()):  # primes ascending
            case [(q, e)] if e >= 2:
                return cls.form_pk(q, e)
            case [(2, r), (q, 1)]:
                return cls.form_2rp(r, q)
        return None

    @property
    def n(self) -> int:
        return 2**self.r * self.p if self.kind == "2rp" else self.p**self.k

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
