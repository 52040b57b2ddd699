"""sympy as a third-party oracle for the cyclotomic polynomials and the determinants.

The multiplier matrix of a pair represents multiplication by
``delta = zeta^v - zeta^u`` on the power basis, so its determinant is the norm
of delta, the product of ``x^v - x^u`` over the roots of the monic ``Phi_n``:
the resultant ``Res(Phi_n, x^v - x^u)``, sign included. Runs only where
``sympy`` is installed.
"""

from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from cycloderiv import (  # noqa: E402
    CyclotomicRing,
    MultiplierMatrix,
    TwistedPair,
    cyclotomic_poly,
)
from cycloderiv.arith import units  # noqa: E402

X = sympy.symbols("x")


def _sympy_poly(coeffs):
    """The sympy polynomial with ascending integer coefficients ``coeffs``."""
    return sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")


def _check_cyclotomic_polys(conductors):
    for n in conductors:
        expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="ZZ")
        assert _sympy_poly(cyclotomic_poly(n).coeffs) == expected, n


def test_cyclotomic_poly_equals_sympy():
    # n <= 200, then squarefree n with four or five primes, whose series runs
    # through 16 or 32 factors (1 - x^(n/s))^mu(s)
    _check_cyclotomic_polys([*range(1, 201), 210, 330, 390, 462, 1155, 1365, 2310])


@pytest.mark.slow
def test_cyclotomic_poly_equals_sympy_at_30030():
    # 2 * 3 * 5 * 7 * 11 * 13, degree 5760
    _check_cyclotomic_polys([30030])


def _check_dets_equal_resultants(conductors):
    pairs = 0
    for n in conductors:
        ring = CyclotomicRing(n)
        phi = _sympy_poly(ring.modulus.coeffs)
        for u, v in combinations(units(n), 2):
            det = MultiplierMatrix(TwistedPair.zeta_powers(ring, u, v)).det
            assert det == phi.resultant(sympy.Poly(X**v - X**u, X, domain="ZZ")), (n, u, v)
            pairs += 1
    return pairs


def test_multiplier_det_equals_resultant():
    assert _check_dets_equal_resultants(range(1, 21)) == 555


@pytest.mark.slow
def test_multiplier_det_equals_resultant_up_to_30():
    assert _check_dets_equal_resultants(range(1, 31)) == 1806
