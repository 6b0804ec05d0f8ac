"""The dense orthonormal transform of an integer operator between two Hankel
Grams: the test oracle of the closed-form float blocks `geometry.cp1`
builds (`_dbar_block` and `_iv_block`).

Every Gram of cp1 is the Hankel moment matrix m(alpha + i + j, P) of the
weight t^alpha (1+t)^-P.  Its factors G = L D L^T are closed forms: the
rows of L^{-1} are the monic finite Romanovski polynomials of the weight
(`romanovski_row`), the columns of L follow from Rodrigues' formula, and
the pivots D_m are `linalg.romanovski_pivot`.  A `FactorTable` holds the
rows and columns beside the pivots its `linalg.RomanovskiTable` base
holds.  `exact_core` forms the exact core L_t^T M L_s^{-T} of an operator
M given by its diagonals with integer dot products, and `transform_op`
rounds each entry once and scales by the square-root pivots.  It costs O(n^3) per
chunk; the run path's closed forms are O(n) and O(n^2)."""

import itertools
import math
import operator

import numpy as np

from equivlab.linalg import Diagonals, RomanovskiTable

IMatrix = list[list[int]]


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


class FactorTable(RomanovskiTable):
    """A weight's pivots with the rows of L^{-1} and the columns of L.  Row
    m depends only on (alpha, P, m), and a column of L cut at n rows is a
    prefix of the same column cut lower, over a common denominator that the
    prefix's gcd reduces."""

    def __init__(self, alpha: int, big_p: int):
        super().__init__(alpha, big_p)
        self.rows: list[tuple[list[int], int]] = []     # of L^{-1}
        # columns of L, all cut at len(self._cols) rows
        self._cols: list[tuple[list[int], int]] = []

    def grow(self, n: int) -> None:
        super().grow(n)
        for m in range(len(self.rows), n):
            self.rows.append(romanovski_row(self.alpha, self.big_p, m))

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


class FactorTables(dict):
    """The `FactorTable` of each weight (alpha, P), made on first use."""

    def __missing__(self, weight: tuple[int, int]) -> FactorTable:
        table = self[weight] = FactorTable(*weight)
        return table


TABLES = FactorTables()


def factor_table(table: RomanovskiTable) -> FactorTable:
    """The factor table of table's weight: table itself if it holds the
    factors, else the shared one of `TABLES`."""
    if isinstance(table, FactorTable):
        return table
    return TABLES[table.alpha, table.big_p]


def float_ratios(nums: list[list[int]], rden: list[int],
                 cden: list[int]) -> np.ndarray:
    """The float matrix nums[i][j] / (rden[i] cden[j]): integer true
    division is correctly rounded, as float(Fraction) is."""
    return np.array([[n / (rd * cd) for n, cd in zip(row, cden)]
                     for row, rd in zip(nums, rden)],
                    dtype=float).reshape(len(rden), len(cden))


def solve(inv_rows: list[tuple[list[int], int]], vectors) -> IMatrix:
    """L^{-1} v for each integer vector v, L^{-1} given by its integer rows;
    entry i of each result is over the denominator of inverse row i."""
    return [[sum(map(operator.mul, inv, v)) for inv, _ in inv_rows]
            for v in vectors]


def exact_core(diagonals: Diagonals, target: RomanovskiTable, n_t: int,
               source: RomanovskiTable, n_s: int
               ) -> tuple[IMatrix, list[int], list[int]]:
    """The exact core L_t^T M L_s^{-T} of the integer operator M given by
    its diagonals, from the n_s x n_s Gram of source's weight to the
    n_t x n_t Gram of target's, as (nums, rden, cden): entry (i, j) is
    nums[i][j] / (rden[i] cden[j])."""
    target, source = factor_table(target), factor_table(source)
    # row i of L_t^T M is column i of L_t, which holds rows i.., against
    # each column j of M; a diagonal meets it at row j + shift, which is
    # col[j + shift - i] for the columns j0 <= j < j1
    target.grow(n_t)
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
    return (solve(inv_rows, lt_m), [den for _, den in lcols],
            [den for _, den in inv_rows])


def transform_op(diagonals: Diagonals, target: RomanovskiTable, n_t: int,
                 source: RomanovskiTable, n_s: int) -> np.ndarray:
    """Float matrix of the integer operator given by its diagonals, from the
    n_s x n_s Gram of source's weight to the n_t x n_t Gram of target's, in
    orthonormal bases on both sides.

    With G = L D L^T, orthonormal coordinates are y = D^{1/2} L^T x; an
    operator with coefficient matrix M becomes D_t^{1/2} (L_t^T M L_s^{-T})
    D_s^{-1/2}, where the bracket is `exact_core`, rounded entrywise."""
    out = float_ratios(*exact_core(diagonals, target, n_t, source, n_s))
    out *= target.sqrt_pivots(n_t)[:, None]
    out /= source.sqrt_pivots(n_s)[None, :]
    return out
