import json
import random
import subprocess
import sys
from itertools import combinations
from math import gcd

import pytest

import cycloderiv
from cycloderiv import (
    Classification,
    CyclotomicRing,
    Endomorphism,
    MultiplierMatrix,
    Polynomial,
    QuotientRing,
    RatVector,
    RingForm,
    TwistedDerivation,
    TwistedPair,
    Valuation,
    classify,
    mat_vec,
    reproduce_tables,
    solve_unique,
    sweep,
    units,
    valuate,
)
from cycloderiv import cli, intlinalg
from cycloderiv.arith import factorize, totient
from cycloderiv.innerness import multiplication_matrix, multiplier_inverse
from contract import env_with_src
from oracles import laplace_det, minor


def _pair(n, u, v):
    return TwistedPair.zeta_powers(CyclotomicRing(n), u, v)


def test_multiplier_matrix_n10_pair_1_3_frozen():
    mm = MultiplierMatrix(_pair(10, 1, 3))
    assert mm.matrix.row_list() == [
        [0, -1, -1, 1],
        [-1, 1, 0, -2],
        [0, -2, 0, 1],
        [1, 1, -1, -1],
    ]
    assert mm.det_abs == 5


def test_multiplier_columns_are_shifted_differences():
    pair = _pair(9, 2, 5)
    ring = pair.ring
    mm = MultiplierMatrix(pair)
    col = pair.theta_difference()
    for j in range(ring.degree):
        assert mm.matrix.column(j) == col.coords
        col = col * ring.generator()


def test_det_abs_reference_values():
    assert MultiplierMatrix(_pair(9, 1, 4)).det_abs == 27
    assert MultiplierMatrix(_pair(9, 1, 2)).det_abs == 3


def test_multiplier_nonsingular_across_rings():
    for n in (9, 10, 12, 16, 24, 25, 27):
        for u, v in combinations(units(n), 2):
            assert MultiplierMatrix(_pair(n, u, v)).det != 0


def test_classify_difference_image_gives_unit_witness():
    pair = _pair(10, 1, 3)
    verdict = classify(TwistedDerivation(pair, pair.theta_difference()))
    assert verdict.kind == "inner"
    assert verdict.witness.numerators == (1, 0, 0, 0)
    assert verdict.witness.denominator == 1
    assert MultiplierMatrix(pair).det_abs == 5


def test_classify_roundtrip_recovers_random_beta():
    for n, u, v in ((10, 1, 3), (9, 2, 5), (12, 1, 7)):
        pair = _pair(n, u, v)
        ring = pair.ring
        rng = random.Random(n + u + v)
        for _ in range(25):
            beta = ring.random_element(rng)
            d_theta = beta * pair.theta_difference()
            verdict = classify(TwistedDerivation(pair, d_theta))
            assert verdict.is_inner
            assert verdict.witness.numerators == beta.coords
            assert verdict.witness.denominator == 1


def test_outer_case_matches_divisibility_oracle():
    # n = 9, (1, 2), D(zeta) = zeta: verdict is decided by whether det(A)
    # divides every entry of column 1 of the adjugate, computed here by
    # cofactor expansion.
    pair = _pair(9, 1, 2)
    ring = pair.ring
    mm = MultiplierMatrix(pair)
    adj_col = tuple(
        (-1 if (1 + i) % 2 else 1) * laplace_det(minor(mm.matrix, 1, i))
        for i in range(6)
    )
    divisible = all(x % mm.det_abs == 0 for x in adj_col)
    verdict = classify(TwistedDerivation(pair, ring.element((0, 1, 0, 0, 0, 0))))
    assert verdict.is_inner == divisible
    assert verdict.kind == "outer"
    assert verdict.witness.denominator == 3


def test_witness_always_satisfies_scaled_system():
    rng = random.Random(77)
    for n, u, v in ((9, 1, 2), (10, 3, 7), (12, 5, 11)):
        pair = _pair(n, u, v)
        mm = MultiplierMatrix(pair)
        for _ in range(20):
            d_theta = pair.ring.random_element(rng)
            verdict = classify(TwistedDerivation(pair, d_theta))
            lhs = mat_vec(mm.matrix, verdict.witness.numerators)
            rhs = tuple(verdict.witness.denominator * x for x in d_theta.coords)
            assert lhs == rhs


def test_classification_symmetric_under_pair_swap():
    rng = random.Random(11)
    for n, u, v in ((9, 1, 2), (10, 1, 3), (12, 5, 7)):
        ring = CyclotomicRing(n)
        fwd = TwistedPair.zeta_powers(ring, u, v)
        rev = TwistedPair.zeta_powers(ring, v, u)
        assert MultiplierMatrix(fwd).det_abs == MultiplierMatrix(rev).det_abs
        for _ in range(10):
            d_theta = ring.random_element(rng)
            a = classify(TwistedDerivation(fwd, d_theta))
            b = classify(TwistedDerivation(rev, -d_theta))
            assert a.kind == b.kind
            assert a.witness == b.witness


def test_divisible_coordinates_classify_inner():
    # multiples of p are always in the image of the multiplier map
    for n, p, pairs in ((9, 3, ((1, 2), (1, 4))),):
        ring = CyclotomicRing(n)
        rng = random.Random(n)
        for u, v in pairs:
            pair = TwistedPair.zeta_powers(ring, u, v)
            for _ in range(20):
                c = p * ring.random_element(rng)
                verdict = classify(TwistedDerivation(pair, c))
                assert verdict.is_inner


def test_valuate_examples():
    assert valuate(RingForm.form_2rp(1, 5), 1, 3) == Valuation(e1=1, e2=0, m=1, predicted=5)
    assert valuate(RingForm.form_pk(3, 2), 1, 7) == Valuation(e1=1, e2=None, m=2, predicted=27)
    assert valuate(RingForm.form_2rp(2, 3), 1, 7) == Valuation(e1=1, e2=1, m=1, predicted=16)
    # absolute value makes the split order-independent
    assert valuate(RingForm.form_2rp(1, 5), 3, 1) == Valuation(e1=1, e2=0, m=1, predicted=5)


def test_valuate_rejects_bad_exponents():
    form = RingForm.form_2rp(1, 5)
    with pytest.raises(ValueError):
        valuate(form, 1, 1)
    with pytest.raises(ValueError):
        valuate(form, 2, 3)  # gcd(2, 10) != 1
    with pytest.raises(ValueError):
        valuate(form, 1, 11)


@pytest.mark.parametrize("form, u, v, expected", [
    # pk: p^(p^e1), at e1 = 0 and e1 = 1
    (RingForm.form_pk(3, 2), 1, 2, (0, None, 1, 3)),
    (RingForm.form_pk(3, 2), 1, 7, (1, None, 2, 27)),
    # 2rp: 2^(2^e1 (p-1)) for 1 <= e1 <= r-1 and e2 >= 1
    (RingForm.form_2rp(2, 3), 1, 7, (1, 1, 1, 16)),
    (RingForm.form_2rp(3, 3), 1, 13, (2, 1, 1, 256)),
    # 2rp: p^(2^(r-1)) for e1 >= r and e2 = 0
    (RingForm.form_2rp(2, 3), 1, 5, (2, 0, 1, 9)),
    (RingForm.form_2rp(1, 5), 1, 3, (1, 0, 1, 5)),
    # 2rp: 1 otherwise (e1 < r and e2 = 0)
    (RingForm.form_2rp(2, 3), 5, 7, (1, 0, 1, 1)),
    (RingForm.form_2rp(2, 5), 1, 7, (1, 0, 3, 1)),
], ids=["pk-e1-0", "pk-e1-1", "2rp-two-e1-1", "2rp-two-e1-2", "2rp-p-r-2", "2rp-p-r-1",
        "2rp-one-m-1", "2rp-one-m-3"])
def test_valuate_predicts_each_branch_of_both_formulas(form, u, v, expected):
    valuation = valuate(form, u, v)
    assert valuation == Valuation(*expected)
    assert valuation.predicted == MultiplierMatrix(_pair(form.n, u, v)).det_abs


def test_ring_form_validation():
    with pytest.raises(ValueError):
        RingForm.form_2rp(0, 5)
    with pytest.raises(ValueError):
        RingForm.form_2rp(1, 2)  # p must be odd
    with pytest.raises(ValueError):
        RingForm.form_2rp(1, 9)  # p must be prime
    with pytest.raises(ValueError):
        RingForm.form_pk(3, 1)  # k >= 2
    with pytest.raises(ValueError):
        RingForm.form_pk(6, 2)  # p must be prime
    with pytest.raises(ValueError):
        RingForm(kind="weird", p=3)


def test_ring_form_detect():
    assert RingForm.detect(10) == RingForm.form_2rp(1, 5)
    assert RingForm.detect(12) == RingForm.form_2rp(2, 3)
    assert RingForm.detect(9) == RingForm.form_pk(3, 2)
    assert RingForm.detect(16) == RingForm.form_pk(2, 4)
    assert RingForm.detect(4) == RingForm.form_pk(2, 2)
    # no prediction exists for these
    assert RingForm.detect(15) is None
    assert RingForm.detect(7) is None  # prime conductor, k = 1
    assert RingForm.detect(36) is None
    assert RingForm.detect(2) is None


def test_ring_form_n_and_params():
    form = RingForm.form_2rp(3, 3)
    assert form.n == 24
    assert form.params() == {"r": 3, "p": 3}
    form = RingForm.form_pk(5, 2)
    assert form.n == 25
    assert form.params() == {"p": 5, "k": 2}


def test_classification_is_inner_flag():
    assert Classification("inner", RatVector((1,), 1)).is_inner
    assert not Classification("outer", RatVector((1,), 3)).is_inner


_TAMPER_SCRIPT = """
import sys
import cycloderiv.innerness as innerness
from cycloderiv import CyclotomicRing, TwistedDerivation, TwistedPair, classify

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
inverse = innerness.multiplier_inverse

def tampered(pair):
    num, m = inverse(pair)
    return 2 * num, m

innerness.multiplier_inverse = tampered
pair = TwistedPair.zeta_powers(CyclotomicRing(10), 1, 3)
try:
    classify(TwistedDerivation(pair, pair.theta_difference()))
except ArithmeticError as exc:
    print(exc)
else:
    sys.exit("classify accepted a tampered witness")
"""


def test_classify_rejects_a_tampered_witness_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER_SCRIPT],
        env=env_with_src(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not satisfy A X" in proc.stdout


# -- the closed-form inverse of the multiplier --------------------------------


def _pairs(lo, hi):
    for n in range(lo, hi + 1):
        ring = CyclotomicRing(n)
        for u, v in combinations(units(n), 2):
            yield TwistedPair.zeta_powers(ring, u, v)


def _assert_closed_form_equals_elimination(pairs, seed):
    """delta * num == m, and the witness is the unique solution of A X = C."""
    rng = random.Random(seed)
    count = 0
    for pair in pairs:
        ring = pair.ring
        num, m = multiplier_inverse(pair)
        u, v = pair.sigma.exponent, pair.tau.exponent
        assert m == ring.n // gcd(ring.n, v - u)
        assert pair.theta_difference() * num == ring.element((m,))
        mm = MultiplierMatrix(pair)
        big = ring.element(rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(ring.degree))
        for c in (ring.random_element(rng), big):
            verdict = classify(TwistedDerivation(pair, c))
            assert verdict.witness == solve_unique(mm.matrix, c.coords)
            assert verdict.kind == ("inner" if verdict.witness.denominator == 1 else "outer")
        count += 1
    return count


def test_closed_form_witness_equals_solve_unique_up_to_30():
    assert _assert_closed_form_equals_elimination(_pairs(3, 30), seed=30) == 1806


@pytest.mark.slow
def test_closed_form_witness_equals_solve_unique_from_31_to_45():
    assert _assert_closed_form_equals_elimination(_pairs(31, 45), seed=45) > 3000


def _norm_of_delta(n, u, v):
    """``q^(phi(n)/phi(m))`` when ``m = n / gcd(n, v - u)`` is a power of a prime q, else 1.

    The norm of ``delta = zeta^u (w - 1)``, w a primitive m-th root of unity:
    ``N(zeta^u) = 1`` and ``N(w - 1)`` is ``N(zeta_m - 1)`` to the power
    ``phi(n)/phi(m)`` (Washington, Prop. 2.8; Apostol, Proc. AMS 24 (1970)).
    """
    m = n // gcd(n, v - u)
    primes = factorize(m)
    if len(primes) != 1:
        return 1
    (q,) = primes
    return q ** (totient(n) // totient(m))


def _assert_det_is_the_norm(pairs):
    """The measured signed det equals the norm of delta on every pair; returns the count."""
    count = 0
    for pair in pairs:
        u, v = pair.sigma.exponent, pair.tau.exponent
        assert MultiplierMatrix(pair).det == _norm_of_delta(pair.ring.n, u, v), (pair.ring.n, u, v)
        count += 1
    return count


def test_det_is_the_norm_of_delta_up_to_30():
    assert _assert_det_is_the_norm(_pairs(3, 30)) == 1806


@pytest.mark.slow
def test_det_is_the_norm_of_delta_up_to_70_at_degree_48():
    pairs = (pair for n in range(31, 71) if totient(n) <= 48 for pair in _pairs(n, n))
    assert _assert_det_is_the_norm(pairs) == 14702


def _assert_det_equals_the_elimination(pairs):
    """det is ``intlinalg.det`` of the multiplication matrix of delta; returns the count."""
    count = 0
    for pair in pairs:
        delta = pair.theta_difference()
        assert MultiplierMatrix(pair).det == intlinalg.det(multiplication_matrix(delta)), pair
        count += 1
    return count


def test_det_equals_the_elimination_up_to_30():
    assert _assert_det_equals_the_elimination(_pairs(3, 30)) == 1806


@pytest.mark.slow
def test_det_equals_the_elimination_up_to_70_at_degree_48():
    pairs = (pair for n in range(3, 71) if totient(n) <= 48 for pair in _pairs(n, n))
    assert _assert_det_equals_the_elimination(pairs) == 1806 + 14702


def _maps(ring, images):
    return [Endomorphism(ring, ring.element(c)) for c in images]


def test_det_equals_the_elimination_on_rings_with_zero_divisors():
    # Z[x]/(x^6 - 1): the roots +-theta^a of the modulus; delta is a zero divisor
    # exactly when it vanishes at a sixth root of unity
    ring = QuotientRing(Polynomial((-1, 0, 0, 0, 0, 0, 1)))
    maps = _maps(ring, [(0,) * a + (s,) for a in range(6) for s in (1, -1)])
    pairs = [TwistedPair(f, g) for f, g in combinations(maps, 2)]
    assert _assert_det_equals_the_elimination(pairs) == 66
    dets = {MultiplierMatrix(pair).det for pair in pairs}
    assert 0 in dets and -64 in dets  # theta -> theta^2 against theta; theta against -theta
    squaring = TwistedPair(*_maps(ring, [(0, 1), (0, 0, 1)]))
    assert MultiplierMatrix(squaring).det == 0
    # Z[x]/(x^r): the images a theta have no constant term, so neither has
    # delta, which is nilpotent: det 0
    for r in (2, 3, 4):
        ring = QuotientRing(Polynomial.monomial(r))
        maps = _maps(ring, [(0, a) for a in range(-3, 4)])
        pairs = [TwistedPair(f, g) for f, g in combinations(maps, 2)]
        assert _assert_det_equals_the_elimination(pairs) == 21
        assert {MultiplierMatrix(pair).det for pair in pairs} == {0}


def test_det_keeps_the_sign_of_the_elimination_on_an_odd_degree_field():
    # Z[theta], theta = 2 cos(2 pi / 11), degree 5; its conjugates include the
    # Chebyshev values T_k(theta), k = 1..4. With delta of degree 3 as well,
    # Res(delta, f) = -Res(f, delta), so the order of the arguments shows.
    ring = QuotientRing(Polynomial((1, 3, -3, -4, 1, 1)))
    maps = _maps(ring, [(0, 1), (-2, 0, 1), (0, -3, 0, 1), (2, 0, -4, 0, 1)])
    pairs = [TwistedPair(f, g) for f, g in combinations(maps, 2)]
    assert _assert_det_equals_the_elimination(pairs) == 6
    assert MultiplierMatrix(pairs[1]).det == 11  # theta -> T_3(theta), delta = theta^3 - 4 theta


def test_closed_form_needs_the_exponents():
    ring = CyclotomicRing(10)
    pair = TwistedPair(
        Endomorphism(ring, ring.reduce_power(1)), Endomorphism(ring, ring.reduce_power(3))
    )
    with pytest.raises(ValueError, match="exponents"):
        multiplier_inverse(pair)
    with pytest.raises(ValueError, match="exponents"):
        classify(TwistedDerivation(pair, ring.one()))
    half = TwistedPair(Endomorphism.zeta_power(ring, 1), Endomorphism(ring, ring.reduce_power(3)))
    with pytest.raises(ValueError, match="exponents"):
        multiplier_inverse(half)


def _bindings(*functions):
    """(module, name) of every binding in the package of one of the given functions."""
    for key, module in list(sys.modules.items()):
        if key == "cycloderiv" or key.startswith("cycloderiv."):
            for name, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    yield module, name


def test_no_elimination_on_sweep_tables_or_classify_and_no_solve_or_adjugate(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("solve_unique and adjugate are not on the program's path")

    for module, name in list(_bindings(intlinalg.solve_unique, intlinalg.adjugate)):
        monkeypatch.setattr(module, name, refuse)
    assert cycloderiv.solve_unique is cycloderiv.adjugate is refuse
    dets, builds = [], []
    real_det, real_build = intlinalg.det, multiplication_matrix

    def counting_det(matrix):
        dets.append(matrix.rows)
        return real_det(matrix)

    def counting_build(x):
        builds.append(x.coords)
        return real_build(x)

    for module, name in list(_bindings(real_det)):
        monkeypatch.setattr(module, name, counting_det)
    for module, name in list(_bindings(real_build)):
        monkeypatch.setattr(module, name, counting_build)

    report = sweep(RingForm.form_pk(3, 2))
    assert len(report.records) == 15 and report.all_ok
    assert (dets, builds) == ([], [])
    # tables prints each pair's multiplier matrix and the matrix of its inverse
    tables = reproduce_tables(10)
    deltas = sorted(_pair(10, b.u, b.v).theta_difference().coords for b in tables.blocks)
    assert len(deltas) == 6 and dets == []
    assert sorted(c for c in builds if c in deltas) == deltas and len(builds) == 12
    builds.clear()
    pair = _pair(49, 13, 3)
    d_zeta = pair.ring.random_element(random.Random(4))
    verdict = classify(TwistedDerivation(pair, d_zeta))
    assert verdict.kind == "outer" and verdict.witness.denominator == 7
    # the classify command measures det_abs as a resultant, with no matrix
    dzeta = ",".join(map(str, d_zeta.coords))
    assert cli.main(["classify", "49", "13", "3", f"--dzeta={dzeta}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["witness_denominator"], payload["det_abs"]) == ("outer", "7", "7")
    assert (dets, builds) == ([], [])
