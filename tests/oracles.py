"""Textbook forms of the fast routines, kept as test oracles.

These are the slow, obviously-correct routines that ``cycloderiv.intlinalg``
replaced with one fraction-free elimination: Laplace expansion, a plain
Bareiss determinant, Cramer's rule and the cofactor adjugate, with the
``minor`` and matrix product ``matmul`` they and the tests use. None of them
calls into ``intlinalg`` beyond its ``IntMatrix`` type, or into ``innerness``
beyond its ``RatVector`` type, in which ``cramer_solve`` returns a solution.

The same holds for ``cycloderiv.endomorphisms``: the power sums accumulated
from two running power lists, the product-rule scan over all d^2 basis pairs,
and the scan of rows 0 and 1 alone (d + 1 pairs) that certifies it for any
Z-linear map, where ``leibniz_check`` now checks a power-formula extension at
its one wrap pair. They use only the ring arithmetic and the pair's generator
images.

``dense_ring_product`` is the ring product without its wrap rows: a
schoolbook convolution, then every coefficient folded through the full row of
``theta^k``, which ``QuotientRing.reduce`` finds by dividing ``x^k`` by the
modulus.

``sylvester_det`` is the resultant by its definition: ``bareiss_det`` of the
Sylvester matrix, against which ``polynomials.resultant`` is checked.

``Polynomial`` has no operators, so the tests multiply polynomials with
``polynomials._convolve`` and substitute ``c x^k`` for x with ``at_power``.
"""

from __future__ import annotations

from cycloderiv import IntMatrix, LeibnizReport, Polynomial, RatVector, RingElement


def dense_ring_product(x: RingElement, y: RingElement) -> RingElement:
    """x * y by the schoolbook loop, each power ``theta^k`` reduced by division."""
    d = x.ring.degree
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x.coords):
        if a:
            for j, b in enumerate(y.coords):
                if b:
                    prod[i + j] += a * b
    out = [0] * d
    for k, c in enumerate(prod):
        if c:
            row = x.ring.reduce(Polynomial.monomial(k)).coords
            for i in range(d):
                out[i] += c * row[i]
    return RingElement(x.ring, tuple(out))


def at_power(poly: Polynomial, k: int, c: int = 1) -> Polynomial:
    """``poly(c * x^k)``, built coefficient by coefficient."""
    out = [0] * (k * len(poly.coeffs))
    for i, a in enumerate(poly.coeffs):
        out[i * k] = a * c**i
    return Polynomial(out)


def minor(m: IntMatrix, i: int, j: int) -> IntMatrix:
    """m without row i and column j."""
    es = tuple(
        m.at(r, c) for r in range(m.rows) if r != i for c in range(m.cols) if c != j
    )
    return IntMatrix(m.rows - 1, m.cols - 1, es)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b by the row-times-column sums."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(
            sum(x * y for x, y in zip(a.row(i), b.column(j)))
            for i in range(a.rows)
            for j in range(b.cols)
        ),
    )


def laplace_det(m: IntMatrix) -> int:
    """Cofactor expansion along the first row; exponential, for small matrices."""
    if m.rows == 1:
        return m.at(0, 0)
    total = 0
    for j in range(m.cols):
        a = m.at(0, j)
        if a:
            term = a * laplace_det(minor(m, 0, j))
            total += -term if j % 2 else term
    return total


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by one Bareiss pass with row pivoting, stopping at a zero column."""
    n = m.rows
    a = m.row_list()
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def sylvester_det(f: Polynomial, g: Polynomial) -> int:
    """det of the Sylvester matrix of f and g, f's rows first; 0 if either is zero.

    Row i of the first ``deg g`` rows holds f's coefficients, leading first,
    shifted i places right; the last ``deg f`` rows do the same with g. Two
    constants give the empty matrix, whose determinant is 1.
    """
    a, b = f.coeffs[::-1], g.coeffs[::-1]
    if not a or not b:
        return 0
    m, n = len(a) - 1, len(b) - 1
    if m + n == 0:
        return 1
    rows = [[0] * i + [*a] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + [*b] + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_det(IntMatrix.from_rows(rows))


def replace_column(m: IntMatrix, j: int, values) -> IntMatrix:
    es = list(m.entries)
    for i, x in enumerate(values):
        es[i * m.cols + j] = x
    return IntMatrix(m.rows, m.cols, tuple(es))


def cramer_solve(m: IntMatrix, rhs) -> RatVector:
    """x_j = det(A with column j replaced by C) / det(A), reduced; A nonsingular."""
    d0 = bareiss_det(m)
    if d0 == 0:
        raise ValueError("Cramer's rule needs a nonsingular matrix")
    return RatVector.reduced((bareiss_det(replace_column(m, j, rhs)) for j in range(m.cols)), d0)


def cofactor_adjugate(m: IntMatrix) -> IntMatrix:
    """adj(A)_ij = (-1)^(i+j) det(A without row j and column i); adj of 1x1 is (1)."""
    d = m.rows
    if d == 1:
        return IntMatrix.identity(1)
    return IntMatrix.from_rows(
        [[(-1) ** (i + j) * bareiss_det(minor(m, j, i)) for j in range(d)] for i in range(d)]
    )


def two_list_sum_powers(pair, k: int):
    """Sum of sigma(theta)^s tau(theta)^t over s + t = k - 1, from two power lists."""
    ring = pair.ring
    sig_pows = [ring.one()]
    for _ in range(k - 1):
        sig_pows.append(sig_pows[-1] * pair.sigma.theta_image)
    total = ring.zero()
    tau_pow = ring.one()
    for t in range(k):
        total = total + sig_pows[k - 1 - t] * tau_pow
        tau_pow = tau_pow * pair.tau.theta_image
    return total


def _first_failure(pair, images, pairs) -> LeibnizReport:
    """The product rule on ``pairs`` in order; first failure wins.

    The map is the Z-linear one sending theta^k to ``images[k]``.
    """
    ring = pair.ring

    def apply(x):
        total = ring.zero()
        for c, image in zip(x.coords, images):
            total = total + c * image
        return total

    sig_pows = [ring.one()]
    tau_pows = [ring.one()]
    for _ in range(ring.degree - 1):
        sig_pows.append(sig_pows[-1] * pair.sigma.theta_image)
        tau_pows.append(tau_pows[-1] * pair.tau.theta_image)
    for i, j in pairs:
        lhs = apply(ring.reduce_power(i + j))
        rhs = images[i] * tau_pows[j] + sig_pows[i] * images[j]
        if lhs != rhs:
            return LeibnizReport(False, (i, j), lhs, rhs)
    return LeibnizReport(True)


def basis_pair_scan(pair, images) -> LeibnizReport:
    """``_first_failure`` on all d^2 basis pairs in row-major order."""
    d = pair.ring.degree
    return _first_failure(pair, images, [(i, j) for i in range(d) for j in range(d)])


def two_row_scan(pair, images) -> LeibnizReport:
    """``_first_failure`` at (0, 0), then at (1, j) for j < d: d + 1 pairs.

    The two-row lemma: for any Z-linear map, this is the report of
    ``basis_pair_scan``. (0, 0) forces D(1) = 0, which settles row 0, and row
    1 carries the rest by induction on powers of theta. A degree-1 ring has
    no row 1 and checks (0, 0) alone.
    """
    d = pair.ring.degree
    return _first_failure(pair, images, [(0, 0)] + ([(1, j) for j in range(d)] if d > 1 else []))


def leibniz_scan(derivation) -> LeibnizReport:
    """``basis_pair_scan`` of the power-formula extension of D(theta).

    D is rebuilt from D(theta) with ``two_list_sum_powers``, so neither the
    derivation's ``basis_images`` nor its evaluation is used.
    """
    pair = derivation.pair
    images = [pair.ring.zero()] + [
        two_list_sum_powers(pair, k) * derivation.d_theta for k in range(1, pair.ring.degree)
    ]
    return basis_pair_scan(pair, images)
