"""Ring endomorphisms fixing Z, twisted pairs, and the maps they induce.

An endomorphism of ``Z[x]/(f)`` that fixes the integers is determined by the
image of the generator, which must itself be a root of f in the ring. Each
endomorphism is checked once, at construction: a given image by evaluating f
at it, and ``zeta -> zeta^u`` of a cyclotomic ring by the unit check on u and
a comparison with ``theta^u``, with no evaluation of ``Phi_n``. A
twisted pair ``(sigma, tau)`` of two such maps with different generator
images induces, for every choice of ``D(theta)``, a Z-linear map ``D`` with
``D(1) = 0`` and

    D(theta^k) = ( sum over s + t = k - 1 of sigma(theta)^s tau(theta)^t ) D(theta)

on the rest of the power basis. Over an integral domain that linear extension
is always a twisted derivation, i.e. it satisfies

    D(a b) = D(a) tau(b) + sigma(a) D(b).

For any Z-linear D, the product rule on the basis pair (1, 1) and on the
pairs (theta, theta^j) certifies it on the whole ring, by induction on powers
of theta (the two-row lemma). For a power-formula extension all but one of
those pairs hold in any commutative ring: (1, 1) because D(1) = 0, and
(theta, theta^j) for j <= d - 2 because it is the power-sum recurrence
``S_(j+1) = sigma(theta) S_j + tau(theta)^j`` times D(theta). Only the wrap
pair (theta, theta^(d-1)), where ``theta^d`` is reduced by the modulus, can
fail, and ``leibniz_check`` checks it alone; in rings with zero divisors it is
exactly where the extension fails. There the product rule reads
``D(theta^d) = S_d D(theta)``: D applied to ``theta^d``, reduced by the
modulus, must equal the next power sum times D(theta).

The power sums come from one recurrence, ``_power_sums``, shared by the
construction, ``sum_powers`` and ``telescope_check``. A ``TwistedPair`` keeps
``S_1 .. S_d``, so the derivations over one pair compute them once, and
``D(x)`` for ``x = sum c_k theta^k`` is ``(sum over k >= 1 of c_k S_k)
D(theta)``: integer work and one ring product.

``verify_theorem`` checks the classification on ``Z[zeta_n]``: it draws
seeded random D(theta) for one pair ``zeta -> zeta^u``, ``zeta -> zeta^v``
and runs ``leibniz_check`` on each extension, so every draw must pass. It
lives beside the check it drives, so the ``verify-theorem`` command loads
only the ring stack, this module and the renderer.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator, NamedTuple

from .arith import DEFAULT_DEGREE_CAP, check_degree, check_trials, check_unit
from .polynomials import Polynomial
from .quotient import CyclotomicRing, QuotientRing, RingElement


def _check_unit(exponent: int, ring: QuotientRing) -> None:
    """Refuse an exponent that is not a unit u in 1..n-1 of a cyclotomic ring."""
    n = getattr(ring, "n", None)
    if n is None:
        raise ValueError("exponents are only meaningful for cyclotomic rings")
    check_unit(exponent, n)


class Endomorphism:
    """A ring endomorphism fixing Z, given by the image of the generator.

    The image is validated once, at construction: it must be a root of the
    ring modulus, otherwise the map would not be well defined. Without an
    exponent the modulus is evaluated at the image, and a failed check
    reports the nonzero residue so the offending input is easy to spot. With
    an exponent u the image must equal ``theta^u`` for a unit u modulo n;
    ``zeta^u`` is then a primitive n-th root of unity, so a root of
    ``Phi_n``, and no evaluation is needed.
    """

    __slots__ = ("ring", "theta_image", "exponent")

    def __init__(
        self,
        ring: QuotientRing,
        theta_image: RingElement,
        exponent: int | None = None,
    ) -> None:
        if theta_image.ring != ring:
            raise ValueError("generator image must live in the target ring")
        if exponent is None:
            residue = ring.modulus(theta_image)
            if not residue.is_zero():
                raise ValueError(
                    "generator image is not a root of the ring modulus; "
                    f"residue has coordinates {residue.coords}"
                )
        else:
            _check_unit(exponent, ring)
            if theta_image != ring.reduce_power(exponent):
                raise ValueError(
                    f"image does not match the stated exponent {exponent}"
                )
        self.ring = ring
        self.theta_image = theta_image
        self.exponent = exponent

    @classmethod
    def zeta_power(cls, ring: CyclotomicRing, u: int) -> Endomorphism:
        """The endomorphism zeta -> zeta^u of a cyclotomic ring.

        u is checked before ``theta^u`` is built, so a huge exponent costs nothing.
        """
        _check_unit(u, ring)
        return cls(ring, ring.reduce_power(u), exponent=u)

    def __call__(self, x: RingElement) -> RingElement:
        """Apply the map: coordinates of x evaluated at the generator image."""
        if x.ring != self.ring:
            raise ValueError("argument belongs to a different ring")
        # the zero polynomial evaluates to the integer 0
        return self.ring.zero() + Polynomial(x.coords)(self.theta_image)

    def __repr__(self) -> str:
        if self.exponent is not None:
            return f"Endomorphism(zeta -> zeta^{self.exponent})"
        return f"Endomorphism(theta -> {self.theta_image.coords!r})"


class TwistedPair:
    """Two endomorphisms of the same ring with different generator images.

    What depends on the pair alone, the power sums ``S_1 .. S_d``, is
    computed on first use and kept, so every derivation over one pair shares
    it. Two threads racing on first use compute equal tuples, so a pair stays
    safe to share.
    """

    __slots__ = ("sigma", "tau", "_sums")

    def __init__(self, sigma: Endomorphism, tau: Endomorphism) -> None:
        if sigma.ring != tau.ring:
            raise ValueError("both endomorphisms must act on the same ring")
        if sigma.theta_image == tau.theta_image:
            raise ValueError("the two endomorphisms must differ on the generator")
        self.sigma = sigma
        self.tau = tau
        self._sums: tuple[RingElement, ...] | None = None

    @classmethod
    def zeta_powers(cls, ring: CyclotomicRing, u: int, v: int) -> TwistedPair:
        return cls(Endomorphism.zeta_power(ring, u), Endomorphism.zeta_power(ring, v))

    @property
    def ring(self) -> QuotientRing:
        return self.sigma.ring

    @property
    def power_sums(self) -> tuple[RingElement, ...]:
        """``S_1, ..., S_d`` of ``_power_sums``: index k - 1 holds ``sum_powers(self, k)``.

        ``S_1 .. S_(d-1)`` give D on the power basis and ``S_d`` the value
        ``D(theta^d)`` must take, the rhs of ``leibniz_check``.
        """
        if self._sums is None:
            self._sums = tuple(islice(_power_sums(self), self.ring.degree))
        return self._sums

    def theta_difference(self) -> RingElement:
        """tau(theta) - sigma(theta), the multiplier innerness reduces to."""
        return self.tau.theta_image - self.sigma.theta_image

    def __repr__(self) -> str:
        return f"TwistedPair({self.sigma!r}, {self.tau!r})"


def _power_sums(pair: TwistedPair) -> Iterator[RingElement]:
    """``S_1, S_2, ...`` where ``S_k`` sums ``sigma(theta)^s tau(theta)^t`` over ``s + t = k - 1``.

    Uses ``S_1 = 1`` and ``S_{k+1} = sigma(theta) S_k + tau(theta)^k``, two
    ring products per step. No closed form is used because that would require
    inverting ``sigma(theta) - tau(theta)``, which need not be possible inside
    the ring.
    """
    sig = pair.sigma.theta_image
    tau = pair.tau.theta_image
    total = pair.ring.one()
    tau_pow = total
    while True:
        yield total
        tau_pow = tau_pow * tau
        total = sig * total + tau_pow


def sum_powers(pair: TwistedPair, k: int) -> RingElement:
    """Sum of ``sigma(theta)^s * tau(theta)^t`` over ``s + t = k - 1``.

    For k = 1 the single (0, 0) term gives the multiplicative identity.
    """
    if k < 1:
        raise ValueError(f"sum_powers requires k >= 1, got {k}")
    return next(islice(_power_sums(pair), k - 1, None))


class TwistedDerivation:
    """The Z-linear extension of a generator image D(theta) under a pair.

    Images on the power basis follow the power formula above; no validation
    happens at construction, so the object can also represent the failed
    extensions that exist over rings with zero divisors (use
    ``leibniz_check`` to tell the two cases apart). It keeps nothing but the
    pair and D(theta).
    """

    __slots__ = ("pair", "d_theta")

    def __init__(self, pair: TwistedPair, d_theta: RingElement) -> None:
        if d_theta.ring != pair.ring:
            raise ValueError("D(theta) must live in the pair's ring")
        self.pair = pair
        self.d_theta = d_theta

    def __call__(self, x: RingElement) -> RingElement:
        """``D(x) = (sum over k >= 1 of c_k S_k) D(theta)`` for ``x = sum c_k theta^k``."""
        ring = self.pair.ring
        if x.ring != ring:
            raise ValueError("argument belongs to a different ring")
        total = [0] * ring.degree
        for c, s in zip(x.coords[1:], self.pair.power_sums):
            if c:
                for i, a in enumerate(s.coords):
                    total[i] += c * a
        return RingElement(ring, tuple(total)) * self.d_theta

    def __repr__(self) -> str:
        return f"TwistedDerivation({self.pair!r}, D(theta)={self.d_theta.coords!r})"


class LeibnizReport(NamedTuple):
    """Outcome of the basis-pair product-rule check."""

    ok: bool
    indices: tuple[int, int] | None = None
    lhs: RingElement | None = None
    rhs: RingElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def leibniz_check(derivation: TwistedDerivation) -> LeibnizReport:
    """Check a power-formula extension's product rule at (1, d - 1), the one pair that can fail.

    The report is the one a scan of all d^2 basis pairs would give: the
    verdict, and on failure the first failing pair with both sides. The
    certificate has three steps.

    *Rows 0 and 1 certify every pair* (the two-row lemma, for any Z-linear
    D). The defect ``D(ab) - D(a) tau(b) - sigma(a) D(b)`` is Z-bilinear, so
    basis pairs suffice. The pair (0, 0) reads ``D(1) = 2 D(1)``, so D(1) = 0,
    and then row 0 holds: at (0, j) the two sides are ``D(theta^j)`` and
    ``D(1) tau(theta^j) + D(theta^j)``. Row 1 gives
    ``D(theta y) = D(theta) tau(y) + sigma(theta) D(y)`` for every y, by
    linearity in y. If the rule holds for a = theta^i and every y, then

        D(theta^(i+1) y) = D(theta) tau(theta^i y) + sigma(theta) D(theta^i y)
                         = (D(theta) tau(theta^i) + sigma(theta) D(theta^i)) tau(y)
                           + sigma(theta^(i+1)) D(y)
                         = D(theta^(i+1)) tau(y) + sigma(theta^(i+1)) D(y),

    the last step being row 1 at y = theta^i. So if any pair fails, some pair
    in rows 0 and 1 fails, and the first failing pair of the full scan lies
    there.

    *(0, 0) holds* because the power formula sets D(1) = 0.

    *Row 1 holds at j <= d - 2.* There ``theta^(j+1)`` is a basis element,
    so the pair reads ``S_(j+1) D(theta) = D(theta) tau(theta)^j +
    sigma(theta) S_j D(theta)``: the recurrence
    ``S_(j+1) = sigma(theta) S_j + tau(theta)^j`` times D(theta), which holds
    in any commutative ring.

    So (1, d - 1) is the only pair that can fail, and when it fails it is the
    first failing pair of the scan. Its two sides are

        lhs = D(theta^d) = (sum over i >= 1 of r_i S_i) D(theta),
        rhs = D(theta) tau(theta)^(d-1) + sigma(theta) S_(d-1) D(theta)
            = S_d D(theta),

    with r_i the coordinates of ``theta^d``; the i = 0 term drops out since
    D(1) = 0, and the last step is the recurrence at j = d - 1. So
    ``rhs - lhs`` is the sum of ``telescope_check`` at k = 0 times D(theta).
    The pair keeps ``S_1 .. S_d``, so a check makes two ring products, one
    per side. A degree-1 ring has no row 1 and passes at once.
    """
    pair = derivation.pair
    ring = pair.ring
    d = ring.degree
    if d == 1:
        return LeibnizReport(True)
    lhs = derivation(ring.reduce_power(d))
    rhs = pair.power_sums[d - 1] * derivation.d_theta
    if lhs != rhs:
        return LeibnizReport(False, (1, d - 1), lhs, rhs)
    return LeibnizReport(True)


class TheoremVerdict(NamedTuple):
    n: int
    u: int
    v: int
    trials: int
    passes: int
    seed: int

    @property
    def all_pass(self) -> bool:
        return self.passes == self.trials


def verify_theorem(
    n: int, u: int, v: int, trials: int = 100, seed: int = 0, cap: int = DEFAULT_DEGREE_CAP
) -> TheoremVerdict:
    """Leibniz-check the power-formula extension for random D(theta) draws.

    Over a cyclotomic ring every draw must pass; the expected verdict is
    trials/trials. The degree is checked against the cap, then the trial
    count, before the ring is built.
    """
    check_degree(n, cap)
    check_trials(trials)
    ring = CyclotomicRing(n)
    pair = TwistedPair.zeta_powers(ring, u, v)
    rng = random.Random(seed)
    passes = 0
    for _ in range(trials):
        derivation = TwistedDerivation(pair, ring.random_element(rng))
        if leibniz_check(derivation).ok:
            passes += 1
    return TheoremVerdict(n=n, u=u, v=v, trials=trials, passes=passes, seed=seed)


def telescope_check(pair: TwistedPair, k: int) -> bool:
    """Whether the shifted modulus-weighted power sums collapse to zero.

    Evaluates ``sum over i = k .. k + d of a_{i-k} * sum_powers(pair, i)``
    exactly, where the a's are the modulus coefficients (monic, degree d).
    The i = 0 term is an empty sum and contributes nothing. Over an integral
    domain the result is zero for every k >= 0; that vanishing is what makes
    the power-formula extension a derivation. One pass of the power-sum
    recurrence supplies all the sums.
    """
    if k < 0:
        raise ValueError(f"telescope_check requires k >= 0, got {k}")
    ring = pair.ring
    coeffs = ring.modulus.coeffs
    total = ring.zero()
    for i, s in enumerate(islice(_power_sums(pair), k + ring.degree), start=1):
        if i >= k and coeffs[i - k]:
            total = total + coeffs[i - k] * s
    return total.is_zero()
