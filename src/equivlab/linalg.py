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
triangular inverse keeps each row over one denominator.  A Fraction is built
once per output entry, and the float view of a product divides the integer
numerator by its denominator directly (as correctly rounded as
float(Fraction)).
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


def fmatmul_float(a: FMatrix, b: FMatrix) -> np.ndarray:
    """to_float(fmatmul(a, b)) without building the Fractions: integer
    true division is correctly rounded, as float(Fraction) is."""
    if not a or not b or not b[0]:
        return np.zeros((len(a), len(b[0]) if b else 0))
    nums, adens, bdens = _int_product(a, b)
    return np.array([[n / (aden * bden) for n, bden in zip(row, bdens)]
                     for row, aden in zip(nums, adens)], dtype=float)


def ftranspose(a: FMatrix) -> FMatrix:
    return [list(row) for row in zip(*a)] if a else []


def is_zero_matrix(a: FMatrix) -> bool:
    return all(not x for row in a for x in row)


def ldlt(g: FMatrix) -> tuple[FMatrix, list[Fraction]]:
    """G = L D L^T for symmetric positive definite rational G, reading the
    lower triangle only.

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
    L = fidentity(n)
    D: list[Fraction] = [Fraction(0)] * n
    prev = 1
    for j in range(n):
        pivot = a[j][j]
        if pivot <= 0:
            raise GramError(j, Fraction(pivot, c * prev))
        D[j] = Fraction(pivot, c * prev)
        col = [0] * j + [a[i][j] for i in range(j, n)]
        for i in range(j + 1, n):
            L[i][j] = Fraction(col[i], pivot)
            ai, aij = a[i], col[i]
            ai[j + 1:] = [(pivot * x - aij * y) // prev
                          for x, y in zip(ai[j + 1:], col[j + 1:i + 1])]
        prev = pivot
    return L, D


def invert_unit_lower(L: FMatrix) -> FMatrix:
    """Inverse of a unit lower triangular rational matrix, row by row:
    row i is e_i - sum_k L_ik row k, kept as integers over one common
    denominator and reduced by their gcd."""
    n = len(L)
    rows: list[tuple[list[int], int]] = []
    out = []
    for i in range(n):
        lnums, lden = to_ints(L[i][:i])
        den = lden * functools.reduce(
            math.lcm, (rows[k][1] for k in range(i) if lnums[k]), 1)
        acc = [0] * i + [den]
        for k in range(i):
            if lnums[k]:
                f = lnums[k] * (den // (lden * rows[k][1]))
                acc[:k + 1] = [x - f * y for x, y in zip(acc, rows[k][0])]
        common = functools.reduce(math.gcd, acc, den)
        acc = [x // common for x in acc]
        den //= common
        rows.append((acc, den))
        out.append([Fraction(x, den) for x in acc]
                   + [Fraction(0)] * (n - i - 1))
    return out


def to_float(a: FMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


class Orthonormalizer:
    """Exact change of basis to an orthonormal frame for one Gram block.

    With G = L D L^T, orthonormal coordinates are y = D^{1/2} L^T x; an
    operator with coefficient matrix M (source -> target) becomes
    D_t^{1/2} (L_t^T M L_s^{-T}) D_s^{-1/2}, where the bracket is exact.
    """

    def __init__(self, gram: FMatrix):
        self.dim = len(gram)
        if self.dim == 0:
            self.L, self.D, self.Linv = [], [], []
            self.sqrt_d = np.zeros(0)
            return
        self.L, self.D = ldlt(gram)
        self.Linv = invert_unit_lower(self.L)
        self.sqrt_d = np.sqrt(to_float([[d] for d in self.D])[:, 0])

    def transform_op(self, m: FMatrix, source: "Orthonormalizer") -> np.ndarray:
        """Float matrix of the operator in orthonormal bases on both sides."""
        if self.dim == 0 or source.dim == 0:
            return np.zeros((self.dim, source.dim))
        lt_m = fmatmul(ftranspose(self.L), m)
        out = fmatmul_float(lt_m, ftranspose(source.Linv))
        out *= self.sqrt_d[:, None]
        out /= source.sqrt_d[None, :]
        return out

    def solve(self, b: FMatrix) -> FMatrix:
        """Exact X with G X = B, as L^{-T} D^{-1} L^{-1} B."""
        y = fmatmul(self.Linv, b)
        y = [[x / d for x in row] for row, d in zip(y, self.D)]
        return fmatmul(ftranspose(self.Linv), y)


def hermitian_eigenvalues(h: np.ndarray, context: dict | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian float matrix, with an explicit-symmetrize
    guard and diagnostics surfaced on solver failure."""
    if h.size == 0:
        return np.zeros(0)
    hs = 0.5 * (h + h.conj().T)
    try:
        return np.linalg.eigvalsh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        diag = dict(context or {})
        diag["shape"] = h.shape
        diag["norm"] = float(np.linalg.norm(h))
        diag["herm_defect"] = float(np.linalg.norm(h - h.conj().T))
        raise EigensolverError(str(exc), diag) from exc


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of h - h^*: an upper bound on its spectral norm that
    needs no singular value decomposition."""
    if h.size == 0:
        return 0.0
    return float(np.linalg.norm(h - h.conj().T))
