"""Power-basis arithmetic in quotient rings Z[x]/(f) with f monic.

Elements are coordinate vectors over the basis ``1, theta, ..., theta^(d-1)``
where ``theta`` is the class of x and d the degree of the modulus. The ring
keeps one table, ``wrap_rows``: the nonzero entries of ``theta^k`` for
``d <= k <= 2d - 2``, built by the recurrence ``theta^(k+1) = theta *
theta^k``. A product keeps the low d coefficients of its convolution and
folds each nonzero high coefficient through its wrap row, so it is reduced
without division; the convolution before it multiplies only nonzero pairs,
so no zero is ever multiplied. Any other reduction, ``reduce_power``
included, is a division by the modulus.

For ``Phi_n`` the wrap rows are sparse. ``Phi_n`` divides ``x^n - 1``, so
``theta^n = 1`` and a row with k >= n is the unit vector ``theta^(k-n)``. For
a prime power n = p^a, ``Phi_n(x) = Phi_p(x^(n/p))`` has p terms, and a row
with k < n is a shifted ``-(1 + y + ... + y^(p-2))``, ``y = theta^(n/p)``,
with p - 1 nonzeros (Washington, *Introduction to Cyclotomic Fields*, ch. 2).

All values are immutable after construction and every operation is a pure
function, so rings and elements are safe to share across threads.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .polynomials import Polynomial, _convolve, _pseudo_remainder, cyclotomic_poly


class QuotientRing:
    __slots__ = ("modulus", "degree", "wrap_rows")

    def __init__(self, modulus: Polynomial) -> None:
        if modulus.is_zero() or not modulus.is_monic():
            raise ValueError(f"ring modulus must be monic, got {modulus}")
        d = len(modulus.coeffs) - 1
        if d < 1:
            raise ValueError("ring modulus must have degree at least 1")
        self.modulus = modulus
        self.degree = d
        # theta^d = -(a_0 + a_1 theta + ... + a_{d-1} theta^{d-1})
        reduction = tuple(-c for c in modulus.coeffs[:d])
        power, rows = reduction, []
        for _ in range(d - 1):
            # the nonzero (index, value) entries of theta^k for d <= k <= 2d - 2
            rows.append(tuple((i, c) for i, c in enumerate(power) if c))
            lead = power[d - 1]
            power = tuple(s + lead * r for s, r in zip((0,) + power[:-1], reduction))
        self.wrap_rows = tuple(rows)

    def element(self, coords: Sequence[int] | Iterable[int]) -> RingElement:
        cs = list(coords)
        if len(cs) > self.degree:
            raise ValueError(
                f"expected at most {self.degree} coordinates, got {len(cs)}"
            )
        cs.extend([0] * (self.degree - len(cs)))
        return RingElement(self, tuple(cs))

    def zero(self) -> RingElement:
        return RingElement(self, (0,) * self.degree)

    def one(self) -> RingElement:
        return self.element((1,))

    def generator(self) -> RingElement:
        """The class of x, i.e. theta itself."""
        return self.reduce_power(1)

    def reduce(self, poly: Polynomial) -> RingElement:
        """Coordinates of ``poly(theta)``; accepts any degree.

        They are the remainder of ``poly`` on division by the monic modulus,
        which ``_pseudo_remainder`` gives with no scaling.
        """
        return self.element(_pseudo_remainder(poly.coeffs, self.modulus.coeffs))

    def reduce_power(self, k: int) -> RingElement:
        """Coordinates of ``theta^k``: the remainder of ``x^k`` by the modulus."""
        if k < 0:
            raise ValueError(f"power must be non-negative, got {k}")
        return self.reduce(Polynomial.monomial(k))

    def random_element(self, rng: random.Random) -> RingElement:
        """Element with coordinates drawn uniformly from [-9, 9]."""
        return RingElement(
            self, tuple(rng.randint(-9, 9) for _ in range(self.degree))
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.modulus})"


class CyclotomicRing(QuotientRing):
    """Z[zeta] for a primitive n-th root of unity, i.e. Z[x]/(Phi_n)."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__(cyclotomic_poly(n))
        self.n = n

    def zeta(self) -> RingElement:
        return self.generator()

    def __repr__(self) -> str:
        return f"CyclotomicRing({self.n})"


class RingElement:
    """A coordinate vector in the power basis of its ring.

    Supports ``+``, ``-``, ``*`` (including integer scalars, which embed as
    constants) and non-negative ``**``. Mixing elements of different rings
    raises; equality across rings is simply False.
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring: QuotientRing, coords: tuple[int, ...]) -> None:
        self.ring = ring
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _coerce(self, other: object) -> RingElement | None:
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("cannot combine elements of different rings")
            return other
        if isinstance(other, int):
            return self.ring.element((other,))
        return None

    def __add__(self, other: int | RingElement) -> RingElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RingElement(
            self.ring, tuple(a + b for a, b in zip(self.coords, rhs.coords))
        )

    __radd__ = __add__

    def __sub__(self, other: int | RingElement) -> RingElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RingElement(
            self.ring, tuple(a - b for a, b in zip(self.coords, rhs.coords))
        )

    def __rsub__(self, other: int | RingElement) -> RingElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> RingElement:
        return RingElement(self.ring, tuple(-c for c in self.coords))

    def __mul__(self, other: int | RingElement) -> RingElement:
        if isinstance(other, int):
            return RingElement(self.ring, tuple(c * other for c in self.coords))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        ring = self.ring
        d = ring.degree
        prod = _convolve(self.coords, rhs.coords)
        out = prod[:d]
        for c, row in zip(prod[d:], ring.wrap_rows):
            if c:
                for i, r in row:
                    out[i] += c * r
        return RingElement(ring, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> RingElement:
        """``self ** exponent`` by square-and-multiply; exponent >= 0."""
        if exponent < 0:
            raise ValueError("negative powers are not defined in the quotient ring")
        result, base = self.ring.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.ring, self.coords))

    def __repr__(self) -> str:
        return f"RingElement({self.coords!r})"
