"""Exact rational linear algebra for Gram factorizations.

The weighted monomial bases used on the curved model have exactly computable
but badly conditioned Gram matrices.  All factorization work is therefore
exact: G = L D L^T with unit lower triangular L and a positive rational
diagonal D.  Floating point enters only in the final diagonal scaling by
D^{1/2}, which is entrywise stable, so the orthonormal operator blocks fed
to the dense eigensolver carry no factorization error.

Matrices are lists of Fraction rows, but the arithmetic runs on Python
integers: products scale each row and column to one common denominator and
form integer dot products, the factorization is Bareiss fraction-free
elimination (Math. Comp. 22, 1968) on the integer Gram numerators, and the
triangular inverse keeps each row over one denominator.  `Orthonormalizer`
holds only these integer factors (each column of L over its pivot, each row
of L^{-1} over its gcd-reduced denominator) and forms its float views by
integer dot products divided straight into floats, which is as correctly
rounded as float(Fraction).  `ldlt` and `invert_unit_lower` are Fraction
views of the same kernels.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

FMatrix = list[list[Fraction]]


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


def fzeros(rows: int, cols: int) -> FMatrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def fidentity(n: int) -> FMatrix:
    out = fzeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def _common_denominator(xs) -> int:
    # pairwise, so no argument tuple is built per call (freed tuples of
    # small sizes stay on the interpreter's free lists)
    return functools.reduce(math.lcm, (x.denominator for x in xs), 1)


def to_ints(row) -> tuple[list[int], int]:
    """A rational vector as integer numerators over its least common
    denominator: (nums, den) with row[i] = nums[i] / den."""
    den = _common_denominator(row)
    return [x.numerator * (den // x.denominator) for x in row], den


def _int_product(a: FMatrix, b: FMatrix
                 ) -> tuple[list[list[int]], list[int], list[int]]:
    """a b over the integers: entry (i, j) is nums[i][j] / (aden[i] bden[j]).
    Each row of a and each column of b is scaled to integers over its own
    common denominator, so an entry is one integer dot product."""
    rows = [to_ints(row) for row in a]
    cols = [to_ints(col) for col in zip(*b)]
    nums = [[sum(map(operator.mul, anums, bnums)) for bnums, _ in cols]
            for anums, _ in rows]
    return nums, [d for _, d in rows], [d for _, d in cols]


def fmatmul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact product, one Fraction per output entry."""
    if not a or not b or not b[0]:
        return fzeros(len(a), len(b[0]) if b else 0)
    nums, adens, bdens = _int_product(a, b)
    return [[Fraction(n, aden * bden) for n, bden in zip(row, bdens)]
            for row, aden in zip(nums, adens)]


def float_ratios(nums: list[list[int]], rden: list[int],
                 cden: list[int]) -> np.ndarray:
    """The float matrix nums[i][j] / (rden[i] cden[j]): integer true
    division is correctly rounded, as float(Fraction) is."""
    return np.array([[n / (rd * cd) for n, cd in zip(row, cden)]
                     for row, rd in zip(nums, rden)],
                    dtype=float).reshape(len(rden), len(cden))


def is_zero_matrix(a: FMatrix) -> bool:
    return all(not x for row in a for x in row)


def _bareiss(g: FMatrix) -> tuple[list[list[int]], list[int], list[Fraction]]:
    """G = L D L^T for symmetric positive definite rational G, reading the
    lower triangle only, as (cols, pivots, D): column j of L from row j
    down is cols[j] / pivots[j], so cols[j][0] = pivots[j].

    Bareiss fraction-free elimination on the integer matrix c G, c the
    common denominator: after step j each remaining entry is the minor of
    c G on the leading j+1 rows and columns bordered by its own row and
    column (Sylvester's identity), so the division by the previous pivot is
    exact.  Pivot j is the leading (j+1)-minor; D_j is the ratio of
    consecutive pivots over c and L_ij the entry below pivot j over it.
    """
    n = len(g)
    c = _common_denominator(x for i, row in enumerate(g) for x in row[:i + 1])
    a = [[x.numerator * (c // x.denominator) for x in row[:i + 1]]
         for i, row in enumerate(g)]
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
    cols, pivots, D = _bareiss(g)
    L = fidentity(len(g))
    for j, (col, pivot) in enumerate(zip(cols, pivots)):
        for i in range(j + 1, len(g)):
            L[i][j] = Fraction(col[i - j], pivot)
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

    def __init__(self, gram: FMatrix):
        self.dim = len(gram)
        self.lcols, self.pivots, self.D = _bareiss(gram)
        self.inv_rows = _inverse_rows(_lower_rows(self.lcols, self.pivots))
        self.sqrt_d = np.sqrt(np.array([float(d) for d in self.D],
                                       dtype=float))

    def transform_op(self, m: FMatrix, source: "Orthonormalizer") -> np.ndarray:
        """Float matrix of the operator in orthonormal bases on both sides."""
        if self.dim == 0 or source.dim == 0:
            return np.zeros((self.dim, source.dim))
        mnums, mden = to_ints([x for row in m for x in row])
        mcols = [mnums[j::source.dim] for j in range(source.dim)]
        # row i of L_t^T M is column i of L_t against the rows i.. of M
        lt_m = [[sum(map(operator.mul, col, mcol[i:])) for mcol in mcols]
                for i, col in enumerate(self.lcols)]
        core = [[sum(map(operator.mul, row, inv)) for inv, _ in source.inv_rows]
                for row in lt_m]
        out = float_ratios(core, [p * mden for p in self.pivots],
                           [den for _, den in source.inv_rows])
        out *= self.sqrt_d[:, None]
        out /= source.sqrt_d[None, :]
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
