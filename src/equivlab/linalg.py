"""Exact rational linear algebra for Gram factorizations.

The weighted monomial bases used on the curved model have exactly computable
but badly conditioned Gram matrices.  All factorization work is therefore
exact: G = L D L^T with unit lower triangular L and a positive rational
diagonal D.  Floating point enters only in the final diagonal scaling by
D^{1/2}, which is entrywise stable, so the orthonormal operator blocks fed
to the dense eigensolver carry no factorization error.

Every such Gram is the Hankel moment matrix m(alpha + i + j, P) of the
weight t^alpha (1+t)^-P, so its factors are known in closed form and nothing
is eliminated: the rows of L^{-1} are the monic finite Romanovski
polynomials of the weight (Raposo, Weber, Alvarez-Castillo & Kirchbach,
2007), the columns of L follow from Rodrigues' formula, and the pivots D_m
are their squared norms: `romanovski_row` and `romanovski_pivot`, one m at
a time.  Row m and pivot m depend only on (alpha, P, m), and a column of L
cut at n rows is a prefix of the same column cut lower, so one
`RomanovskiTable` per weight computes each once and grows on demand; the
Grams of every size of that weight read it.  It holds the factors as
integers (each column of L and row of L^{-1} over its least common
denominator), and a Gram is its table and its size n: `transform_op` runs
the exact steps of the orthonormal view of an operator on such (table, n)
pairs.  An operator is given by its few nonzero diagonals (`Diagonals`),
so L_t^T M costs O(n^2) and only L_s^{-1} is applied in full (`_solve`).
`geometry.cp1` runs `transform_op` on its contraction chunks; its dbar
chunks are bidiagonal in orthonormal bases and written in closed form
there, with `transform_op` as their test oracle.
Its float views are integer dot products divided straight into floats, as
correctly rounded as float(Fraction).  `ldlt` and `invert_unit_lower` are
plain Fraction elimination, the independent oracle of the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

FMatrix = list[list[Fraction]]
IMatrix = list[list[int]]
# an operator by its nonzero diagonals: (shift, coeffs) holds coeffs[j] in
# column j at row j + shift; a coefficient whose row is outside is 0
Diagonals = list[tuple[int, Sequence[int]]]


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


def ldlt(g: FMatrix) -> tuple[FMatrix, list[Fraction]]:
    """G = L D L^T for a symmetric rational G, read from its lower
    triangle, by right-looking elimination in Fractions.  A test oracle for
    `RomanovskiTable`, which uses neither this nor `invert_unit_lower`."""
    n = len(g)
    a = [list(row[:i + 1]) for i, row in enumerate(g)]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D: list[Fraction] = []
    for j in range(n):
        d = a[j][j]
        if d <= 0:
            raise GramError(j, d)
        D.append(d)
        for i in range(j + 1, n):
            L[i][j] = a[i][j] / d
            for k in range(j + 1, i + 1):
                a[i][k] -= L[i][j] * a[k][j]
    return L, D


def invert_unit_lower(L: FMatrix) -> FMatrix:
    """Inverse of a unit lower triangular rational matrix, row i as
    e_i minus L_ik times row k of the inverse, in Fractions."""
    n = len(L)
    inv: FMatrix = []
    for i in range(n):
        row = [Fraction(int(i == j)) for j in range(n)]
        for k in range(i):
            for j in range(k + 1):
                row[j] -= L[i][k] * inv[k][j]
        inv.append(row)
    return inv


def _ratio_products(nums: list[int], dens: list[int]
                    ) -> tuple[list[int], int]:
    """The running products 1, r_0, r_0 r_1, ... of r_l = nums[l] / dens[l],
    as integers over their least common denominator: product j is
    nums[:j] times dens[j:] over all of dens."""
    prefix = itertools.accumulate(nums, operator.mul, initial=1)
    suffix = list(itertools.accumulate(dens[::-1], operator.mul, initial=1))
    out = [x * y for x, y in zip(prefix, reversed(suffix))]
    g = math.gcd(*out) if out[0] > 0 else -math.gcd(*out)
    return [x // g for x in out], out[0] // g


def romanovski_row(alpha: int, big_p: int, m: int) -> tuple[list[int], int]:
    """Row m of L^{-1}, the monic Romanovski p_m of t^alpha (1+t)^-P, over
    its least common denominator: from e_m = 1 down, e_j / e_{j+1} is
    (j+1)(alpha+j+1) over (m-j)(m+alpha-P+1+j)."""
    nums, den = _ratio_products(
        [(j + 1) * (alpha + j + 1) for j in reversed(range(m))],
        [(m - j) * (m + alpha - big_p + 1 + j) for j in reversed(range(m))])
    return nums[::-1], den


def romanovski_pivot(alpha: int, big_p: int, m: int) -> Fraction:
    """The pivot D_m = |p_m|^2 under the weight t^alpha (1+t)^-P, a ratio
    of factorials."""
    fact = math.factorial
    r = big_p - alpha - 2 * m
    return Fraction(fact(m) * fact(alpha + m) * fact(r - 2) * fact(r - 1),
                    fact(big_p - m - 1) * fact(big_p - alpha - m - 1))


class RomanovskiTable:
    """The closed-form factors shared by every Hankel Gram of one weight
    t^alpha (1+t)^-P, grown on demand.  Row m of L^{-1} and pivot D_m
    depend only on (alpha, P, m), so the n x n Gram of the weight reads the
    first n of each; and a column of L cut at n rows is a prefix of the
    same column cut lower, over a common denominator that the prefix's gcd
    reduces."""

    def __init__(self, alpha: int, big_p: int):
        self.alpha, self.big_p = alpha, big_p
        self.rows: list[tuple[list[int], int]] = []     # of L^{-1}
        self.pivots: list[Fraction] = []
        # (max, min) of pivots 0..m, per m
        self._extremes: list[tuple[Fraction, Fraction]] = []
        self._float_pivots: list[float] = []
        self._sqrt_pivots = np.zeros(0)
        # columns of L, all cut at len(self._cols) rows
        self._cols: list[tuple[list[int], int]] = []

    def grow(self, n: int) -> None:
        """Make rows and pivots 0..n-1 available: those of the n x n Gram
        G_ij = m(alpha + i + j, P), whose moments m(u, P) = u! (P-u-2)! /
        (P-1)! must all be finite."""
        alpha, big_p = self.alpha, self.big_p
        if alpha < 0 or alpha + 2 * (n - 1) > big_p - 2:
            raise ValueError(
                f"divergent moments: alpha={alpha}, P={big_p}, n={n}")
        for m in range(len(self.rows), n):
            self.rows.append(romanovski_row(alpha, big_p, m))
            d = romanovski_pivot(alpha, big_p, m)
            hi, lo = self._extremes[-1] if m else (d, d)
            self.pivots.append(d)
            self._extremes.append((max(hi, d), min(lo, d)))
            self._float_pivots.append(float(d))

    def pivot_ratio(self, n: int) -> float:
        """max D_m / min D_m over m < n, exact and then rounded."""
        self.grow(n)
        hi, lo = self._extremes[n - 1]
        return float(hi / lo)

    def sqrt_pivots(self, n: int) -> np.ndarray:
        """D_m^{1/2} for m < n, each the rounded square root of the rounded
        pivot."""
        if len(self._sqrt_pivots) < n:
            self.grow(n)
            self._sqrt_pivots = np.sqrt(np.array(self._float_pivots))
        return self._sqrt_pivots[:n]

    def lcols(self, n: int) -> list[tuple[list[int], int]]:
        """Columns 0..n-1 of L cut at n rows, each over its least common
        denominator: its first entry, L_mm = 1."""
        if len(self._cols) < n:
            alpha, big_p = self.alpha, self.big_p
            size = max(n, len(self.rows))
            # column m of L from L_mm = 1 down by the ratios L_{j+1,m} /
            # L_{j,m} (Rodrigues) (j+1)(alpha+j+1) over (j+1-m)(P-m-alpha-j-2)
            self._cols = [_ratio_products(
                [(j + 1) * (alpha + j + 1) for j in range(m, size - 1)],
                [(j + 1 - m) * (big_p - m - alpha - j - 2)
                 for j in range(m, size - 1)]) for m in range(size)]
        if len(self._cols) == n:
            return self._cols
        out = []
        for m, (col, _) in enumerate(self._cols[:n]):
            head = col[:n - m]
            g = math.gcd(*head)
            out.append(([x // g for x in head], head[0] // g))
        return out


def _solve(inv_rows: list[tuple[list[int], int]], vectors) -> IMatrix:
    """L^{-1} v for each integer vector v, L^{-1} given by its integer rows;
    entry i of each result is over the denominator of inverse row i."""
    return [[sum(map(operator.mul, inv, v)) for inv, _ in inv_rows]
            for v in vectors]


def transform_op(diagonals: Diagonals, target: RomanovskiTable, n_t: int,
                 source: RomanovskiTable, n_s: int) -> np.ndarray:
    """Float matrix of the integer operator given by its diagonals, from the
    n_s x n_s Gram of source's weight to the n_t x n_t Gram of target's, in
    orthonormal bases on both sides.

    With G = L D L^T, orthonormal coordinates are y = D^{1/2} L^T x; an
    operator with coefficient matrix M becomes D_t^{1/2} (L_t^T M L_s^{-T})
    D_s^{-1/2}, where the bracket is exact."""
    # row i of L_t^T M is column i of L_t, which holds rows i.., against
    # each column j of M; a diagonal meets it at row j + shift, which is
    # col[j + shift - i] for the columns j0 <= j < j1
    lcols, lt_m = target.lcols(n_t), []
    for i, (col, _) in enumerate(lcols):
        row = [0] * n_s
        for s, c in diagonals:
            j0, j1 = max(i - s, 0), min(n_s, i - s + len(col))
            row[j0:j1] = map(operator.add, row[j0:j1],
                             map(operator.mul, col[j0 + s - i:], c[j0:j1]))
        lt_m.append(row)
    # row i of (L_t^T M) L_s^{-T} is L_s^{-1} applied to row i of L_t^T M
    source.grow(n_s)
    inv_rows = source.rows[:n_s]
    out = float_ratios(_solve(inv_rows, lt_m), [den for _, den in lcols],
                       [den for _, den in inv_rows])
    out *= target.sqrt_pivots(n_t)[:, None]
    out /= source.sqrt_pivots(n_s)[None, :]
    return out


def hermitian_eigenvalues(h: np.ndarray, context: dict | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian float matrix, or of each matrix of a stack
    along the leading axes, with diagnostics surfaced on solver failure.
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
            diag["members"] = h.shape[-3]
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
