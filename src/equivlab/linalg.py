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
2007), and the pivots D_m are their squared norms, `romanovski_pivot`.
Pivot m depends only on (alpha, P, m), so one `RomanovskiTable` per weight
computes each once, D_m from D_(m-1) by their ratio, and grows on demand;
the Grams of every size of that weight read it.
`geometry.cp1` writes the float block of each operator chunk (given by its
few nonzero diagonals, `Diagonals`) in closed form from the Romanovski
recurrences and scales it by the tables' square-root pivots.
The dense transform D_t^{1/2} (L_t^T M L_s^{-T}) D_s^{-1/2}, with the rows
and columns of the factors as integers, is the test oracle of those blocks
(`tests/transform_oracle.py`).  `ldlt` and `invert_unit_lower` are plain
Fraction elimination, the independent oracle of the tests.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

FMatrix = list[list[Fraction]]
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


def romanovski_pivot(alpha: int, big_p: int, m: int) -> Fraction:
    """The pivot D_m = |p_m|^2 under the weight t^alpha (1+t)^-P, a ratio
    of factorials."""
    fact = math.factorial
    r = big_p - alpha - 2 * m
    return Fraction(fact(m) * fact(alpha + m) * fact(r - 2) * fact(r - 1),
                    fact(big_p - m - 1) * fact(big_p - alpha - m - 1))


class RomanovskiTable:
    """The pivots D_m shared by every Hankel Gram of one weight
    t^alpha (1+t)^-P, grown on demand.  Pivot m depends only on
    (alpha, P, m), so the n x n Gram of the weight reads the first n.
    D_m is nums[m] / dens[m] in lowest terms: D_0 from `romanovski_pivot`,
    then D_m / D_(m-1) = m (alpha+m) (P-m) (P-alpha-m) / ((r+1) r^2 (r-1))
    with r = P - alpha - 2m."""

    def __init__(self, alpha: int, big_p: int):
        self.alpha, self.big_p = alpha, big_p
        self.nums: list[int] = []
        self.dens: list[int] = []
        # the indices of the largest and the smallest of pivots 0..m, per m
        self._extremes: list[tuple[int, int]] = []
        self._sqrt_pivots = np.zeros(0)

    def grow(self, n: int) -> None:
        """Make pivots 0..n-1 available: those of the n x n Gram
        G_ij = m(alpha + i + j, P), whose moments m(u, P) = u! (P-u-2)! /
        (P-1)! must all be finite."""
        alpha, big_p = self.alpha, self.big_p
        if alpha < 0 or alpha + 2 * (n - 1) > big_p - 2:
            raise ValueError(
                f"divergent moments: alpha={alpha}, P={big_p}, n={n}")
        nums, dens = self.nums, self.dens
        for m in range(len(nums), n):
            if m:
                r = big_p - alpha - 2 * m
                num = nums[-1] * m * (alpha + m) * (big_p - m) * (
                    big_p - alpha - m)
                den = dens[-1] * (r + 1) * r * r * (r - 1)
                g = math.gcd(num, den)
                num, den = num // g, den // g
                hi, lo = self._extremes[-1]
                hi = m if num * dens[hi] > nums[hi] * den else hi
                lo = m if num * dens[lo] < nums[lo] * den else lo
            else:
                d = romanovski_pivot(alpha, big_p, 0)
                num, den, hi, lo = d.numerator, d.denominator, 0, 0
            nums.append(num)
            dens.append(den)
            self._extremes.append((hi, lo))

    def pivot_ratio(self, n: int) -> float:
        """max D_m / min D_m over m < n, exact and then rounded."""
        self.grow(n)
        hi, lo = self._extremes[n - 1]
        return self.nums[hi] * self.dens[lo] / (self.dens[hi] * self.nums[lo])

    def sqrt_pivots(self, n: int) -> np.ndarray:
        """D_m^{1/2} for m < n, each the rounded square root of the rounded
        pivot."""
        if len(self._sqrt_pivots) < n:
            self.grow(n)
            self._sqrt_pivots = np.sqrt(
                [x / y for x, y in zip(self.nums, self.dens)])
        return self._sqrt_pivots[:n]


def hermitian_eigenvalues(h: np.ndarray, context: dict | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian float matrix, or of each matrix of a stack
    along the leading axes, with diagnostics surfaced on solver failure; a
    non-finite eigenvalue, which an overflowed entry gives, is a failure
    too.  The input must be exactly Hermitian, as `deformed.dirac` builds
    it: eigvalsh reads only the lower triangle."""
    if h.size == 0:
        return np.zeros(h.shape[:-1])
    try:
        evals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise _solver_error(str(exc), h, context) from exc
    # NaN propagates through min and max, so the two extremes decide
    if not (math.isfinite(evals.min()) and math.isfinite(evals.max())):
        raise _solver_error("eigenvalue not finite", h, context)
    return evals


def _solver_error(message: str, h: np.ndarray, context: dict | None
                  ) -> EigensolverError:
    diag = dict(context or {})
    diag["shape"] = h.shape[-2:]
    if h.ndim > 2:
        diag["members"] = h.shape[-3]
    diag["norm"] = float(np.linalg.norm(h))
    diag["herm_defect"] = hermiticity_defect(h)
    return EigensolverError(message, diag)


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of h - h^*, the largest over a stack: an upper bound
    on the spectral norm that needs no singular value decomposition."""
    if h.size == 0:
        return 0.0
    return float(np.linalg.norm(h - h.conj().swapaxes(-1, -2),
                                axis=(-2, -1)).max())
