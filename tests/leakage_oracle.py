"""The dual-wedge pencil by Hankel moments: the test oracle of the closed
form `geometry.cp1._leakage_pencil`.

Within one charge chunk of a (0,q) block the wedge-by-dual-field residual
has rank 2.  In t = |z|^2 the images of the basis monomials are powers of t
in P_{<n_t+2}, and the target chunk is (1+t)^2 P_{<n_t}, so what leaves the
target lies in the 2-d complement C of the target there, spanned by two
orthogonal polynomials of the weight with (1+t)^2 absorbed, read as two
Romanovski rows of that weight's table.  The squared leakage is the larger
root of the 2 x 2 pencil det(K - lambda H) = 0 of the pairings with C,
whose trace and determinant come from integer moments and the inverse form
B^T G^{-1} B of the source chunk's Gram."""

import functools
import math
import operator
from fractions import Fraction

from equivlab.geometry.base import ModelError
from equivlab.geometry.cp1 import Block, Chunk, weight_exponent
from equivlab.linalg import RomanovskiTable
from transform_oracle import TABLES, IMatrix, factor_table, solve


def chunk_monomials(chunk: Chunk) -> list[tuple[int, int]]:
    """The exponents (a, b) of a chunk's basis monomials, in order."""
    return [(chunk.a0 + i, chunk.b0 + i) for i in range(chunk.n)]


def moment_numerators(us: range, big_p: int) -> dict[int, int]:
    """u! (P-u-2)! for each u in us: the Beta moments m(u, P) times (P-1)!."""
    if us and (us[0] < 0 or us[-1] > big_p - 2):
        bad = us[0] if us[0] < 0 else us[-1]
        raise ModelError(f"divergent moment: u={bad}, P={big_p}")
    fact = math.factorial
    return {u: fact(u) * fact(big_p - u - 2) for u in us}


def inverse_form(table: RomanovskiTable, n: int, bcols: IMatrix
                 ) -> tuple[IMatrix, int]:
    """B^T G^{-1} B = Y^T D^{-1} Y, Y = L^{-1} B, for the n x n Gram G of
    table's weight and the integer matrix B given by its columns, as a
    symmetric integer matrix over one denominator.  Row v of Y is over
    den_v, the denominator of inverse row v, so it is weighed by
    1 / (den_v^2 D_v) = weights[v] / wden."""
    table = factor_table(table)
    table.grow(n)
    inv_rows = table.rows[:n]
    pivots = [Fraction(*d) for d in zip(table.nums[:n], table.dens[:n])]
    ycols = solve(inv_rows, bcols)
    wdens = [den * den * d.numerator for (_, den), d in zip(inv_rows, pivots)]
    wden = functools.reduce(math.lcm, wdens, 1)
    weights = [wden // wd * d.denominator for wd, d in zip(wdens, pivots)]
    wy = [list(map(operator.mul, weights, y)) for y in ycols]
    return [[sum(map(operator.mul, w, y)) for y in ycols] for w in wy], wden


def moment_pencil(k: int, src: Block, tgt: Block, chi: int
                  ) -> tuple[Fraction, Fraction]:
    """Exact trace and determinant of H^{-1} K for one charge chunk of the
    (0,q) block; its larger eigenvalue is the chunk's squared leakage.

    The image z^a zbar^(b+1) / (1+s)^(den+2) of a source monomial is z^e t^j
    (zbar^-e t^j when e < 0), t = |z|^2, with e = a - b - 1 fixed on the
    chunk and j = b + 1 - delta, delta = max(0, -e): pairings are moments
    of w = t^alpha (1+t)^-P, alpha = |e|.  Over (1+s)^(den+2) the target
    chunk is (1+t)^2 P_{<n_t}, so its complement C in P_{<n_t+2} is the f
    orthogonal to P_{<n_t} under (1+t)^2 w = t^alpha (1+t)^-(P-2), the
    source block's own weight exponent: with n = n_t and p'_m, D'_m the
    monic orthogonal polynomials of that weight and their squared norms,
    C is spanned by p'_n and t p'_n - (D'_n / D'_{n-1}) p'_{n-1} (by 1 and
    t when n = 0).  H is the Gram of this basis c under w, and
    K = X G_s^{-1} X^T with X_im = <c_i, image m>.
    """
    q = src.pq[1]
    big_p = weight_exponent(1, q, src.den + 2, k)
    e = chi + q - 1
    delta, alpha = max(0, -e), abs(e)
    n_t = tgt.chunks[chi].n if chi in tgt.chunks else 0
    table = TABLES[alpha, big_p - 2]
    table.grow(n_t + 1)
    top, tden = table.rows[n_t]
    c2 = [0, *top]
    if n_t:
        # t p'_n - (D'_n / D'_{n-1}) p'_{n-1}, scaled to integers
        prev, pden = table.rows[n_t - 1]
        r = Fraction(table.nums[n_t] * table.dens[n_t - 1],
                     table.dens[n_t] * table.nums[n_t - 1])
        c2 = [pden * r.denominator * x - tden * r.numerator * y
              for x, y in zip(c2, [*prev, 0, 0])]
    hankel = list(moment_numerators(range(alpha, alpha + 2 * n_t + 3),
                                    big_p).values())
    # g[i][s] = <c_i, t^s> under w, times (P-1)!
    g = [[sum(map(operator.mul, c, hankel[s:])) for s in range(n_t + 2)]
         for c in (top, c2)]
    (h00, h01), (_, h11) = [[sum(map(operator.mul, gi, c)) for c in (top, c2)]
                            for gi in g]
    chunk = src.chunks[chi]
    ((k00, k01), (_, k11)), kden = inverse_form(
        chunk.table, chunk.n,
        [[gi[b + 1 - delta] for _, b in chunk_monomials(chunk)] for gi in g])
    # H and X are over (P-1)!, so H^{-1} K is over it once
    det_h = h00 * h11 - h01 * h01
    kf = kden * math.factorial(big_p - 1)
    return (Fraction(h11 * k00 - 2 * h01 * k01 + h00 * k11, det_h * kf),
            Fraction(k00 * k11 - k01 * k01, det_h * kf * kf))
