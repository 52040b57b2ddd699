"""Exact integer linear algebra: one fraction-free elimination behind det, solve and adjugate.

Everything works on arbitrary-precision integers; no floats, no modular
shortcuts. A single private kernel runs one forward Bareiss pass (Bareiss
1968, *Sylvester's identity and multistep integer-preserving Gaussian
elimination*) with row pivoting over an augmented matrix ``[A | B]``. Every
intermediate value is a minor of ``[A | B]`` and therefore an integer, and
the last pivot is ``det(PA)`` for the row permutation P. A row whose
multiplier is zero is not rescaled at that step: the kernel keeps, per row,
the pivot it was last divided by and brings the row up to date only when it
is next updated or chosen as pivot (see ``_eliminate``). On multiplier
matrices most multipliers are zero, so most row passes are skipped. The
public routines are thin callers:

* ``det`` eliminates A alone;
* ``solve_unique`` eliminates ``[A | C]`` and back-substitutes fraction-free
  for ``det(PA) A^-1 C``;
* ``adjugate`` eliminates ``[A | I]`` the same way and applies the sign of P.

The package itself calls none of them. ``IntMatrix`` holds the matrices the
``matrix`` and ``tables`` commands print; ``innerness`` inverts a multiplier
in closed form, takes its determinant as a resultant, and imports this
module only to print a matrix, so ``classify`` loads no elimination.
``det``, ``solve_unique`` and ``adjugate`` stay public for callers with other
matrices and as the references the tests check those closed forms against.

The unique solution of a nonsingular square system is returned as a
``RatVector``, the witness record of ``innerness``: an integer vector over a
single positive denominator, fully reduced, so integrality is decided by
``denominator == 1``.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .innerness import RatVector

IntVector = tuple[int, ...]


class SingularMatrixError(ValueError):
    pass


class _IntMatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major


class IntMatrix(_IntMatrixFields):
    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: Iterable[int]) -> IntMatrix:
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        if not rows:
            raise ValueError("need at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows must all have the same length")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> IntMatrix:
        if not cols:
            raise ValueError("need at least one column")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError("columns must all have the same length")
        return cls(height, len(cols), tuple(chain.from_iterable(zip(*cols))))

    @classmethod
    def identity(cls, d: int) -> IntMatrix:
        return cls(d, d, tuple(1 if i == j else 0 for i in range(d) for j in range(d)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> IntVector:
        return self.entries[j :: self.cols]

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.entries!r})"


class _Echelon(NamedTuple):
    """``[PA | PB]`` after one forward Bareiss pass, in the pivot columns of A.

    Pivot rows are exact. Rows past the rank of a singular A keep their
    stored, not yet rescaled, values.
    """

    rows: list[list[int]]
    order: list[int]  # order[i] is the row of A that ended in position i
    sign: int  # sign of that row permutation
    pivots: list[int]  # pivot column of row i, ascending; fewer than d when singular

    @property
    def full_rank(self) -> bool:
        return len(self.pivots) == len(self.rows)

    @property
    def last_pivot(self) -> int:
        """``det(PA)`` when A has full rank."""
        d = len(self.rows)
        return self.rows[d - 1][d - 1]


def _eliminate(matrix: IntMatrix, rhs: Sequence[Sequence[int]] = ()) -> _Echelon:
    """One forward Bareiss pass over ``[A | B]`` for a square A; B is given by its columns.

    After the step with pivot row r, the true value of every entry below it
    is the minor of ``[PA | PB]`` on rows ``0..r`` plus its own row and the
    pivot columns plus its own column. A row is not rewritten to that value
    at every step. Row i keeps ``div[i]``, the pivot of the last step that
    updated it (1 at the start), and stores ``true * div[i] / prev``, where
    prev is the latest pivot: between two updates the eager pass would only
    rescale it by ``pivot / prev`` per step, and those factors telescope.

    * A row whose multiplier is zero is left as it is.
    * A row with a nonzero multiplier is updated in one pass as
      ``(x * pivot - a_ik * y) // div[i]`` from its stored values. The
      quotient is the true minor, so the division is exact. Then
      ``div[i] = pivot``.
    * The pivot row is caught up once, over A and B, as
      ``x * prev // div[r]`` when it is chosen; again the quotient is a minor.

    So every pivot row ends exact, as in the eager pass, and only rows past
    the rank of a singular A are left stored, not caught up. A column with no
    nonzero entry at or below the current row (a stored entry is zero exactly
    when its true value is) is skipped, which leaves the rank and, for a
    full-rank A, ``det(PA)`` as the last pivot.
    """
    d = matrix.rows
    a = [list(matrix.row(i)) + [c[i] for c in rhs] for i in range(d)]
    div = [1] * d
    order = list(range(d))
    sign, prev, r = 1, 1, 0
    pivots: list[int] = []
    for k in range(d):
        p = next((i for i in range(r, d) if a[i][k]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            div[r], div[p] = div[p], div[r]
            order[r], order[p] = order[p], order[r]
            sign = -sign
        row_r = a[r]
        if div[r] != prev:
            row_r[k:] = [x * prev // div[r] for x in row_r[k:]]
        pivot = row_r[k]
        tail_r = row_r[k + 1 :]
        for i in range(r + 1, d):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                di = div[i]
                row_i[k + 1 :] = [
                    (x * pivot - aik * y) // di for x, y in zip(row_i[k + 1 :], tail_r)
                ]
                row_i[k] = 0
                div[i] = pivot
        prev = pivot
        pivots.append(k)
        r += 1
    return _Echelon(a, order, sign, pivots)


def _back_substitute(ech: _Echelon) -> list[list[int]]:
    """Columns of ``det(PA) A^-1 B`` for a full-rank elimination of ``[A | B]``.

    Row i of the echelon form is an equation ``sum_j u_ij x_j = b'_i`` of the
    system, and ``y = det(PA) x`` is integral (Cramer), so the fraction-free
    step ``y_i = (det(PA) b'_i - sum_{j>i} u_ij y_j) / u_ii`` divides exactly.
    """
    a = ech.rows
    d = len(a)
    det_pa = ech.last_pivot
    columns = []
    for c in range(d, len(a[0])):
        y = [0] * d
        for i in range(d - 1, -1, -1):
            row = a[i]
            s = det_pa * row[c] - sum(row[j] * y[j] for j in range(i + 1, d))
            y[i] = s // row[i]
        columns.append(y)
    return columns


def det(matrix: IntMatrix) -> int:
    """Exact determinant: the sign-corrected last pivot of one Bareiss pass."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    ech = _eliminate(matrix)
    return ech.sign * ech.last_pivot if ech.full_rank else 0


def adjugate(matrix: IntMatrix) -> IntMatrix:
    """The adjugate, satisfying ``A adj(A) = adj(A) A = det(A) I``; exact for every A.

    For a nonsingular A one elimination of ``[A | I]`` gives
    ``det(PA) A^-1 = sign(P) adj(A)``. A singular A of rank below d - 1 has
    every (d-1)-minor zero. At rank d - 1 the pass leaves one pivot-free
    column k and one last row l whose cofactor ``C_lk`` is nonzero; every
    entry of ``adj(A + t E_lk)`` is affine in t and ``det(A + t E_lk) =
    t C_lk``, so ``adj(A) = 2 adj(A + E_lk) - adj(A + 2 E_lk)`` from two
    nonsingular eliminations.
    """
    if matrix.rows != matrix.cols:
        raise ValueError(f"adjugate needs a square matrix, got {matrix.rows}x{matrix.cols}")
    d = matrix.rows
    identity = IntMatrix.identity(d)
    ech = _eliminate(matrix, [identity.column(j) for j in range(d)])
    if ech.full_rank:
        columns = _back_substitute(ech)
        return IntMatrix.from_columns([[ech.sign * x for x in col] for col in columns])
    if len(ech.pivots) < d - 1:
        return IntMatrix(d, d, (0,) * (d * d))
    (k,) = set(range(d)) - set(ech.pivots)
    at = ech.order[d - 1] * d + k

    def shifted(t: int) -> IntMatrix:
        es = list(matrix.entries)
        es[at] += t
        return adjugate(IntMatrix(d, d, tuple(es)))

    once, twice = shifted(1), shifted(2)
    return IntMatrix(d, d, tuple(2 * x - y for x, y in zip(once.entries, twice.entries)))


def mat_vec(matrix: IntMatrix, vector: Sequence[int]) -> IntVector:
    if len(vector) != matrix.cols:
        raise ValueError(
            f"vector length {len(vector)} does not match {matrix.cols} columns"
        )
    return tuple(
        sum(a * b for a, b in zip(matrix.row(i), vector)) for i in range(matrix.rows)
    )


def solve_unique(matrix: IntMatrix, rhs: Sequence[int]) -> RatVector:
    """The unique rational solution of a nonsingular square system A X = C.

    One elimination of ``[A | C]`` and a fraction-free back-substitution give
    ``det(PA) A^-1 C`` over ``det(PA)``; the result is reduced jointly, so the
    solution is integral exactly when the denominator comes out as 1.
    """
    if matrix.rows != matrix.cols:
        raise ValueError(f"solve needs a square matrix, got {matrix.rows}x{matrix.cols}")
    if len(rhs) != matrix.rows:
        raise ValueError(
            f"right-hand side length {len(rhs)} does not match {matrix.rows} rows"
        )
    from .innerness import RatVector

    ech = _eliminate(matrix, [rhs])
    if not ech.full_rank:
        raise SingularMatrixError("matrix is singular (det = 0)")
    (numerators,) = _back_substitute(ech)
    return RatVector.reduced(numerators, ech.last_pivot)
