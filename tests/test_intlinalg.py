import random
from itertools import combinations

import pytest

from cycloderiv import (
    CyclotomicRing,
    IntMatrix,
    MultiplierMatrix,
    RatVector,
    SingularMatrixError,
    TwistedPair,
    adjugate,
    det,
    mat_vec,
    solve_unique,
    units,
)
from cycloderiv.intlinalg import _eliminate
from oracles import (
    bareiss_det,
    cofactor_adjugate,
    cramer_solve,
    laplace_det,
    matmul,
)


def _random_matrix(rng, d, bound=9):
    return IntMatrix(d, d, tuple(rng.randint(-bound, bound) for _ in range(d * d)))


def test_matrix_construction_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix(0, 1, ())
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.at(1, 2) == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(1) == (2, 5)
    assert IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)]) == m


def test_from_columns_is_the_transpose_of_from_rows():
    rng = random.Random(5)
    for _ in range(50):
        h, w = rng.randint(1, 9), rng.randint(1, 9)
        cols = [[rng.randint(-9, 9) for _ in range(h)] for _ in range(w)]
        m = IntMatrix.from_columns(cols)
        assert (m.rows, m.cols) == (h, w)
        assert m == IntMatrix.from_rows([[c[i] for c in cols] for i in range(h)])
        assert [list(m.column(j)) for j in range(w)] == cols


def test_det_identity_and_rejections():
    assert det(IntMatrix.identity(4)) == 1
    with pytest.raises(ValueError):
        det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_2x2_matches_formula():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert det(IntMatrix.from_rows([[a, b], [c, d]])) == a * d - b * c


def test_det_matches_cofactor_oracle_up_to_5():
    rng = random.Random(2)
    for _ in range(200):
        m = _random_matrix(rng, rng.randint(1, 5))
        assert det(m) == laplace_det(m)


def test_det_handles_zero_pivots():
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert det(m) == -1
    assert det(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert det(IntMatrix.from_rows([[0, 1, 2], [0, 2, 4], [1, 0, 0]])) == 0


def test_det_is_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 6)
        a = _random_matrix(rng, d, 5)
        b = _random_matrix(rng, d, 5)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_adjugate_identity_and_2x2():
    assert adjugate(IntMatrix.identity(5)) == IntMatrix.identity(5)
    m = IntMatrix.from_rows([[3, -2], [7, 4]])
    assert adjugate(m) == IntMatrix.from_rows([[4, 2], [-7, 3]])


def test_adjugate_product_identity_random():
    rng = random.Random(4)
    for _ in range(50):
        d = rng.randint(1, 5)
        m = _random_matrix(rng, d)
        adj = adjugate(m)
        scaled = IntMatrix(d, d, tuple(det(m) if i == j else 0 for i in range(d) for j in range(d)))
        assert matmul(m, adj) == scaled
        assert matmul(adj, m) == scaled


def test_mat_vec():
    m = IntMatrix.identity(3)
    assert mat_vec(m, (4, 5, 6)) == (4, 5, 6)
    zero = IntMatrix(2, 3, (0,) * 6)
    assert mat_vec(zero, (1, 2, 3)) == (0, 0)
    rng = random.Random(6)
    a = _random_matrix(rng, 3)
    for j in range(3):
        e = tuple(1 if i == j else 0 for i in range(3))
        assert mat_vec(a, e) == a.column(j)
    with pytest.raises(ValueError):
        mat_vec(m, (1, 2))


def test_ratvector_reduction():
    r = RatVector.reduced((2, 4, 6), 4)
    assert r.numerators == (1, 2, 3)
    assert r.denominator == 2
    # negative denominators are normalized away
    r = RatVector.reduced((2, -4), -2)
    assert r.numerators == (-1, 2)
    assert r.denominator == 1
    # the zero vector reduces to denominator 1
    r = RatVector.reduced((0, 0), 7)
    assert r.numerators == (0, 0)
    assert r.denominator == 1
    assert r.is_integral
    with pytest.raises(ValueError):
        RatVector((2, 4), 6)  # unreduced direct construction
    with pytest.raises(ValueError):
        RatVector.reduced((1,), 0)


def test_solve_identity_is_exact_copy():
    sol = solve_unique(IntMatrix.identity(3), (7, -8, 9))
    assert sol.numerators == (7, -8, 9)
    assert sol.denominator == 1


def test_solve_roundtrip_random():
    rng = random.Random(8)
    done = 0
    while done < 100:
        d = rng.randint(1, 6)
        m = _random_matrix(rng, d)
        if det(m) == 0:
            continue
        x0 = tuple(rng.randint(-9, 9) for _ in range(d))
        sol = solve_unique(m, mat_vec(m, x0))
        assert sol.numerators == x0
        assert sol.denominator == 1
        done += 1


def test_solve_reports_singular_and_mismatched_inputs():
    singular = IntMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError, match="det = 0"):
        solve_unique(singular, (1, 1))
    with pytest.raises(ValueError):
        solve_unique(IntMatrix.identity(2), (1, 2, 3))
    with pytest.raises(ValueError):
        solve_unique(IntMatrix(2, 3, (0,) * 6), (1, 1))


def test_solve_result_satisfies_scaled_system():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randint(1, 5)
        m = _random_matrix(rng, d)
        if det(m) == 0:
            continue
        c = tuple(rng.randint(-9, 9) for _ in range(d))
        sol = solve_unique(m, c)
        assert mat_vec(m, sol.numerators) == tuple(sol.denominator * x for x in c)


# -- the elimination kernel against the textbook oracles ----------------------


def _zero(d):
    return IntMatrix(d, d, (0,) * (d * d))


def _assert_matches_oracles(m, rng, bits=None):
    """det, adjugate and (when nonsingular) solve_unique equal the oracles exactly."""
    d0 = bareiss_det(m)
    assert det(m) == d0
    if m.rows <= 5:
        assert d0 == laplace_det(m)
    assert adjugate(m) == cofactor_adjugate(m)
    c = tuple(
        rng.randint(-9, 9) if bits is None else rng.choice((-1, 1)) * rng.getrandbits(bits)
        for _ in range(m.rows)
    )
    if d0:
        assert solve_unique(m, c) == cramer_solve(m, c)
    else:
        with pytest.raises(SingularMatrixError):
            solve_unique(m, c)


def test_kernel_matches_oracles_small_entries():
    rng = random.Random(2024)
    for _ in range(300):
        _assert_matches_oracles(_random_matrix(rng, rng.randint(1, 7)), rng)


def test_kernel_matches_oracles_200_bit_entries():
    rng = random.Random(200)
    for _ in range(40):
        d = rng.randint(1, 7)
        m = IntMatrix(d, d, tuple(rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(d * d)))
        _assert_matches_oracles(m, rng, bits=200)


def test_kernel_matches_oracles_with_row_swaps():
    rng = random.Random(31)
    swaps = 0
    for _ in range(150):
        d = rng.randint(2, 7)
        rows = _random_matrix(rng, d).row_list()
        # zero the top of the first column (and sometimes of the second) so
        # that the first pivots have to come from lower rows
        for i in range(rng.randint(1, d - 1)):
            rows[i][0] = 0
        if d > 2 and rng.random() < 0.5:
            rows[1][1] = 0
        m = IntMatrix.from_rows(rows)
        swaps += m.at(0, 0) == 0
        _assert_matches_oracles(m, rng)
    assert swaps == 150
    assert det(IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert adjugate(IntMatrix.from_rows([[0, 2], [3, 0]])) == IntMatrix.from_rows([[0, -2], [-3, 0]])


def test_kernel_on_1x1_matrices():
    rng = random.Random(1)
    for a in range(-4, 5):
        m = IntMatrix(1, 1, (a,))
        assert det(m) == a
        assert adjugate(m) == IntMatrix.identity(1)  # the empty minor is 1, also for a = 0
        _assert_matches_oracles(m, rng)
    assert solve_unique(IntMatrix(1, 1, (-6,)), (4,)) == RatVector((-2,), 3)


def _low_rank(rng, d, rank, bound=4):
    if rank == 0:
        return _zero(d)
    b = IntMatrix(d, rank, tuple(rng.randint(-bound, bound) for _ in range(d * rank)))
    c = IntMatrix(rank, d, tuple(rng.randint(-bound, bound) for _ in range(rank * d)))
    return matmul(b, c)


def test_adjugate_is_exact_on_rank_d_minus_1():
    rng = random.Random(17)
    nonzero = 0
    for _ in range(120):
        d = rng.randint(2, 7)
        m = _low_rank(rng, d, d - 1)
        _assert_matches_oracles(m, rng)
        nonzero += adjugate(m) != _zero(d)
    assert nonzero >= 100  # most draws have rank exactly d - 1 and a rank-one adjugate
    # structured cases: a zero first column (no pivot at column 0), equal rows
    for rows in (
        [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
        [[1, 2, 3], [1, 2, 3], [4, 5, 7]],
        [[2, 4], [1, 2]],
        [[0, 0], [0, 5]],
    ):
        m = IntMatrix.from_rows(rows)
        assert adjugate(m) == cofactor_adjugate(m) != _zero(m.rows)


def test_adjugate_is_zero_below_rank_d_minus_1():
    rng = random.Random(18)
    for _ in range(60):
        d = rng.randint(2, 7)
        m = _low_rank(rng, d, rng.randint(0, d - 2))
        assert cofactor_adjugate(m) == _zero(d)
        _assert_matches_oracles(m, rng)


def _multiplier_matrices(max_n):
    for n in range(3, max_n + 1):
        ring = CyclotomicRing(n)
        us = units(n)
        for i, u in enumerate(us):
            for v in us[i + 1 :]:
                yield MultiplierMatrix(TwistedPair.zeta_powers(ring, u, v)).matrix


def _assert_multiplier_matches_oracles(m, rng, cofactor_up_to):
    d0 = bareiss_det(m)
    assert det(m) == d0 != 0
    c = tuple(rng.randint(-9, 9) for _ in range(m.rows))
    assert solve_unique(m, c) == cramer_solve(m, c)
    adj = adjugate(m)
    if m.rows <= cofactor_up_to:
        assert adj == cofactor_adjugate(m)
    else:
        # for det != 0 the adjugate is the only X with A X = det(A) I
        assert matmul(m, adj) == IntMatrix(m.rows, m.rows, tuple(
            d0 if i == j else 0 for i in range(m.rows) for j in range(m.rows)))


def test_kernel_matches_oracles_on_multiplier_matrices_up_to_16():
    rng = random.Random(16)
    for m in _multiplier_matrices(16):
        _assert_multiplier_matches_oracles(m, rng, cofactor_up_to=8)


@pytest.mark.slow
def test_kernel_matches_oracles_on_every_multiplier_matrix_up_to_30():
    rng = random.Random(30)
    for m in _multiplier_matrices(30):
        _assert_multiplier_matches_oracles(m, rng, cofactor_up_to=10)


# -- sparse matrices, where most multipliers are zero --------------------------


def _sparse_matrix(rng, d, density, bits=None):
    def entry():
        if rng.random() >= density:
            return 0
        if bits is None:
            return rng.choice((-1, 1)) * rng.randint(1, 9)
        return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)

    return IntMatrix(d, d, tuple(entry() for _ in range(d * d)))


def _assert_sparse_matches_oracles(m, rng, bits=None):
    _assert_matches_oracles(m, rng, bits)
    if m.rows == 6:  # _assert_matches_oracles expands up to 5
        assert det(m) == laplace_det(m)


def test_kernel_matches_oracles_on_sparse_matrices_small_entries():
    rng = random.Random(55)
    ranks = set()
    for _ in range(160):
        d = rng.randint(1, 12)
        m = _sparse_matrix(rng, d, rng.uniform(0.05, 0.3))
        _assert_sparse_matches_oracles(m, rng)
        ranks.add(len(_eliminate(m).pivots) - d)
    assert {0, -1, -2} <= ranks  # full rank, rank d - 1 and below are all drawn


def test_kernel_matches_oracles_on_sparse_matrices_200_bit_entries():
    rng = random.Random(56)
    for _ in range(40):
        d = rng.randint(1, 10)
        m = _sparse_matrix(rng, d, rng.uniform(0.05, 0.3), bits=200)
        _assert_sparse_matches_oracles(m, rng, bits=200)


def _block_diagonal(blocks):
    d = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for i in range(b.rows):
            rows.append([0] * at + list(b.row(i)) + [0] * (d - at - b.cols))
        at += b.cols
    return IntMatrix.from_rows(rows)


def test_kernel_matches_oracles_on_structured_matrices():
    rng = random.Random(58)
    for _ in range(30):
        d = rng.randint(1, 12)
        perm = list(range(d))
        rng.shuffle(perm)
        m = IntMatrix.from_rows([[1 if j == perm[i] else 0 for j in range(d)] for i in range(d)])
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        assert det(m) == (-1) ** inversions
        _assert_sparse_matches_oracles(m, rng)
    for _ in range(30):
        blocks = [_sparse_matrix(rng, rng.randint(1, 4), 0.6) for _ in range(rng.randint(2, 3))]
        m = _block_diagonal(blocks)
        product = 1
        for b in blocks:
            product *= bareiss_det(b)
        assert det(m) == product
        _assert_sparse_matches_oracles(m, rng)
    for _ in range(30):
        d = rng.randint(2, 10)
        rows = _sparse_matrix(rng, d, 0.4).row_list()
        if rng.random() < 0.5:
            rows[rng.randrange(d)] = [0] * d
        else:
            j = rng.randrange(d)
            for r in rows:
                r[j] = 0
        m = IntMatrix.from_rows(rows)
        assert det(m) == 0
        _assert_sparse_matches_oracles(m, rng)


def _sparse_low_rank(rng, d, rank):
    if rank == 0:
        return _zero(d)
    b = [[rng.randint(-4, 4) if rng.random() < 0.35 else 0 for _ in range(rank)] for _ in range(d)]
    c = [[rng.randint(-4, 4) if rng.random() < 0.35 else 0 for _ in range(d)] for _ in range(rank)]
    for i in range(rank):  # keep the rank: a unit in each factor's diagonal
        b[i][i] = c[i][i] = 1
    return matmul(IntMatrix.from_rows(b), IntMatrix.from_rows(c))


def test_kernel_matches_oracles_on_sparse_low_rank_matrices():
    rng = random.Random(59)
    nonzero = 0
    for _ in range(60):
        d = rng.randint(2, 10)
        m = _sparse_low_rank(rng, d, d - 1)
        _assert_sparse_matches_oracles(m, rng)
        nonzero += adjugate(m) != _zero(d)
    assert nonzero >= 30
    for _ in range(40):
        d = rng.randint(2, 10)
        m = _sparse_low_rank(rng, d, rng.randint(0, d - 2))
        assert adjugate(m) == _zero(d)
        _assert_sparse_matches_oracles(m, rng)


def test_kernel_matches_oracles_on_multiplier_matrices_at_n_14_21_25_27():
    rng = random.Random(60)
    for n in (14, 21, 25, 27):
        ring = CyclotomicRing(n)
        for u, v in list(combinations(units(n), 2))[:12]:
            m = MultiplierMatrix(TwistedPair.zeta_powers(ring, u, v)).matrix
            _assert_multiplier_matches_oracles(m, rng, cofactor_up_to=8)


def test_matrix_builders_and_adjugate_refuse_empty_ragged_or_non_square_input():
    for build, arg, message in (
        (IntMatrix.from_rows, [], "need at least one row"),
        (IntMatrix.from_columns, [], "need at least one column"),
        (IntMatrix.from_columns, [(1, 2), (3,)], "columns must all have the same length"),
        (adjugate, IntMatrix(2, 3, range(6)), "adjugate needs a square matrix, got 2x3"),
    ):
        with pytest.raises(ValueError) as info:
            build(arg)
        assert str(info.value) == message
