"""Exact rational linear algebra for Gram factorizations.

The weighted monomial bases used on the curved model have exactly computable
but badly conditioned Gram matrices.  All factorization work is therefore
exact: G = L D L^T with unit lower triangular L and a positive rational
diagonal D.  Floating point enters only in the final diagonal scaling by
D^{1/2}, which is entrywise stable, so the orthonormal operator blocks fed
to the dense eigensolver carry no factorization error.

The exact format is Python integers: a Gram matrix is an integer matrix over
one denominator and an operator an integer matrix.  The factorization is
Bareiss fraction-free elimination (Math. Comp. 22, 1968) on the integer
Gram, and the triangular inverse keeps each row over one denominator.
`Orthonormalizer` alone holds these integer factors (each column of L over
its pivot, each row of L^{-1} over its gcd-reduced denominator) and runs the
exact steps on them: the orthonormal view of an operator, the inverse form
B^T G^{-1} B and the congruence L^{-1} R L^{-T}.  Its float views are
integer dot products divided straight into floats, which is as correctly
rounded as float(Fraction).  `ldlt`, `invert_unit_lower` and `fmatmul` are
Fraction views of the same kernels.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

FMatrix = list[list[Fraction]]
IMatrix = list[list[int]]


class GramError(ValueError):
    """Gram matrix failed positive definiteness; carries the offending pivot."""

    def __init__(self, pivot_index: int, pivot_value: Fraction):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"Gram matrix not positive definite: pivot {pivot_index} = {pivot_value}")

    def __reduce__(self):
        return type(self), (self.pivot_index, self.pivot_value)


class EigensolverError(RuntimeError):
    """Dense eigensolver failure with conditioning diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict):
        self.message = message
        self.diagnostics = diagnostics
        super().__init__(f"{message}; diagnostics: {diagnostics}")

    def __reduce__(self):
        # unpickling calls the class with these, not with self.args, so the
        # error survives a trip back from a worker process
        return type(self), (self.message, self.diagnostics)


def _common_denominator(xs) -> int:
    # pairwise, so no argument tuple is built per call (freed tuples of
    # small sizes stay on the interpreter's free lists)
    return functools.reduce(math.lcm, (x.denominator for x in xs), 1)


def to_ints(row) -> tuple[list[int], int]:
    """A rational vector as integer numerators over its least common
    denominator: (nums, den) with row[i] = nums[i] / den."""
    den = _common_denominator(row)
    return [x.numerator * (den // x.denominator) for x in row], den


def fmatmul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact product, one Fraction per output entry.  Each row of a and each
    column of b is scaled to integers over its own common denominator, so
    an entry is one integer dot product."""
    rows = [to_ints(row) for row in a]
    cols = [to_ints(col) for col in zip(*b)]
    return [[Fraction(sum(map(operator.mul, anums, bnums)), aden * bden)
             for bnums, bden in cols] for anums, aden in rows]


def float_ratios(nums: list[list[int]], rden: list[int],
                 cden: list[int]) -> np.ndarray:
    """The float matrix nums[i][j] / (rden[i] cden[j]): integer true
    division is correctly rounded, as float(Fraction) is."""
    return np.array([[n / (rd * cd) for n, cd in zip(row, cden)]
                     for row, rd in zip(nums, rden)],
                    dtype=float).reshape(len(rden), len(cden))


def _bareiss(a: IMatrix, c: int
             ) -> tuple[list[list[int]], list[int], list[Fraction]]:
    """G = L D L^T for symmetric positive definite G = A / c, given the
    lower triangle of the integer matrix A (a[i] holds entries 0..i of row
    i; it is overwritten), as (cols, pivots, D): column j of L from row j
    down is cols[j] / pivots[j], so cols[j][0] = pivots[j].

    Bareiss fraction-free elimination on A: after step j each remaining
    entry is the minor of A on the leading j+1 rows and columns bordered by
    its own row and column (Sylvester's identity), so the division by the
    previous pivot is exact.  Pivot j is the leading (j+1)-minor; D_j is the
    ratio of consecutive pivots over c and L_ij the entry below pivot j over
    it.
    """
    n = len(a)
    cols: list[list[int]] = []
    pivots: list[int] = []
    D: list[Fraction] = []
    prev = 1
    for j in range(n):
        pivot = a[j][j]
        if pivot <= 0:
            raise GramError(j, Fraction(pivot, c * prev))
        D.append(Fraction(pivot, c * prev))
        col = [a[i][j] for i in range(j, n)]
        for i in range(j + 1, n):
            ai, aij = a[i], col[i - j]
            ai[j + 1:] = [(pivot * x - aij * y) // prev
                          for x, y in zip(ai[j + 1:], col[1:i - j + 1])]
        cols.append(col)
        pivots.append(pivot)
        prev = pivot
    return cols, pivots, D


def _lower_rows(cols: list[list[int]], pivots: list[int]):
    """The strict lower part of each row of L = cols / pivots, as integer
    numerators over the least common denominator of its reduced entries."""
    for i in range(len(cols)):
        fracs = []
        for k in range(i):
            num, den = cols[k][i - k], pivots[k]
            g = math.gcd(num, den)
            fracs.append((num // g, den // g))
        lden = functools.reduce(math.lcm, (d for _, d in fracs), 1)
        yield [num * (lden // den) for num, den in fracs], lden


def _inverse_rows(lower) -> list[tuple[list[int], int]]:
    """Rows of L^{-1} for unit lower triangular L, given by the strict lower
    part of each row of L as (integer numerators, denominator).  Row i of
    the inverse, e_i - sum_k L_ik row k, is returned as its entries 0..i in
    integer numerators over one denominator, reduced by their gcd."""
    rows: list[tuple[list[int], int]] = []
    for i, (lnums, lden) in enumerate(lower):
        den = lden * functools.reduce(
            math.lcm, (rows[k][1] for k in range(i) if lnums[k]), 1)
        acc = [0] * i + [den]
        for k in range(i):
            if lnums[k]:
                f = lnums[k] * (den // (lden * rows[k][1]))
                acc[:k + 1] = [x - f * y for x, y in zip(acc, rows[k][0])]
        common = functools.reduce(math.gcd, acc, den)
        rows.append(([x // common for x in acc], den // common))
    return rows


def ldlt(g: FMatrix) -> tuple[FMatrix, list[Fraction]]:
    """G = L D L^T as Fractions: a view of the Bareiss factors."""
    lower = [row[:i + 1] for i, row in enumerate(g)]
    c = _common_denominator(x for row in lower for x in row)
    cols, pivots, D = _bareiss(
        [[x.numerator * (c // x.denominator) for x in row] for row in lower], c)
    n = len(g)
    L = [[Fraction(cols[j][i - j], pivots[j]) if j < i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    return L, D


def invert_unit_lower(L: FMatrix) -> FMatrix:
    """Inverse of a unit lower triangular rational matrix as Fractions: a
    view of the integer rows of the inverse."""
    n = len(L)
    rows = _inverse_rows(to_ints(L[i][:i]) for i in range(n))
    return [[Fraction(x, den) for x in nums] + [Fraction(0)] * (n - i - 1)
            for i, (nums, den) in enumerate(rows)]


def to_float(a: FMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


class Orthonormalizer:
    """Exact change of basis to an orthonormal frame for one Gram block.

    With G = L D L^T, orthonormal coordinates are y = D^{1/2} L^T x; an
    operator with coefficient matrix M (source -> target) becomes
    D_t^{1/2} (L_t^T M L_s^{-T}) D_s^{-1/2}, where the bracket is exact.

    The factors are kept as integers: column j of L from row j down is
    lcols[j] / pivots[j], and row i of L^{-1} is inv_rows[i] = (nums, den),
    its entries 0..i as nums / den.
    """

    def __init__(self, gram: IMatrix, den: int):
        """Factor G = gram / den, an integer matrix over one denominator."""
        self.dim = len(gram)
        self.lcols, self.pivots, self.D = _bareiss(
            [row[:i + 1] for i, row in enumerate(gram)], den)
        self.inv_rows = _inverse_rows(_lower_rows(self.lcols, self.pivots))
        self.sqrt_d = np.sqrt(np.array([float(d) for d in self.D],
                                       dtype=float))

    def _solve(self, vectors) -> IMatrix:
        """L^{-1} v for each integer vector v; entry i of each result is
        over the denominator of inverse row i."""
        return [[sum(map(operator.mul, inv, v)) for inv, _ in self.inv_rows]
                for v in vectors]

    def transform_op(self, m: IMatrix, source: "Orthonormalizer") -> np.ndarray:
        """Float matrix of the integer operator m in orthonormal bases on
        both sides."""
        mcols = list(zip(*m))
        # row i of L_t^T M is column i of L_t against the rows i.. of M
        lt_m = [[sum(map(operator.mul, col, mcol[i:])) for mcol in mcols]
                for i, col in enumerate(self.lcols)]
        # row i of (L_t^T M) L_s^{-T} is L_s^{-1} applied to row i of L_t^T M
        out = float_ratios(source._solve(lt_m), self.pivots,
                           [den for _, den in source.inv_rows])
        out *= self.sqrt_d[:, None]
        out /= source.sqrt_d[None, :]
        return out

    def inverse_form(self, bcols: IMatrix) -> tuple[IMatrix, int]:
        """B^T G^{-1} B = Y^T D^{-1} Y, Y = L^{-1} B, for the integer matrix B
        given by its columns, as a symmetric integer matrix over one
        denominator.  Row v of Y is over den_v, the denominator of inverse
        row v, so it is weighed by 1 / (den_v^2 D_v) = weights[v] / wden."""
        ycols = self._solve(bcols)
        wdens = [den * den * d.numerator
                 for (_, den), d in zip(self.inv_rows, self.D)]
        wden = functools.reduce(math.lcm, wdens, 1)
        weights = [wden // wd * d.denominator for wd, d in zip(wdens, self.D)]
        wy = [list(map(operator.mul, weights, y)) for y in ycols]
        return _symmetric_dots(wy, ycols), wden

    def congruence(self, r: IMatrix, rden: int
                   ) -> tuple[IMatrix, list[int], list[int]]:
        """L^{-1} R L^{-T} for the symmetric R = r / rden, as (nums, rdens,
        cdens) with entry (i, j) nums[i][j] / (rdens[i] cdens[j])."""
        # R L^{-T} by rows, then each of its columns against the inverse rows
        nums = _symmetric_dots([inv for inv, _ in self.inv_rows],
                               list(zip(*self._solve(r))))
        dens = [den for _, den in self.inv_rows]
        return nums, [den * rden for den in dens], dens


def _symmetric_dots(a: IMatrix, b: IMatrix) -> IMatrix:
    """The matrix of dot products a[i] . b[j] when it is known to be
    symmetric: only its lower triangle is computed."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i, ai in enumerate(a):
        for j in range(i + 1):
            out[i][j] = out[j][i] = sum(map(operator.mul, ai, b[j]))
    return out


def hermitian_eigenvalues(h: np.ndarray, context: dict | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian float matrix, or of each matrix of a stack
    along the leading axis, with diagnostics surfaced on solver failure.
    The input must be exactly Hermitian, as `deformed.dirac` builds it:
    eigvalsh reads only the lower triangle."""
    if h.size == 0:
        return np.zeros(h.shape[:-1])
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        diag = dict(context or {})
        diag["shape"] = h.shape[-2:]
        if h.ndim > 2:
            diag["members"] = h.shape[0]
        diag["norm"] = float(np.linalg.norm(h))
        diag["herm_defect"] = hermiticity_defect(h)
        raise EigensolverError(str(exc), diag) from exc


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of h - h^*, the largest over a stack: an upper bound
    on the spectral norm that needs no singular value decomposition."""
    if h.size == 0:
        return 0.0
    return float(np.linalg.norm(h - h.conj().swapaxes(-1, -2),
                                axis=(-2, -1)).max())
