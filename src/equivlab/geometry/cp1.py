"""Projective line with the Fubini-Study metric and a twist-k line bundle.

Sections are represented in the affine chart as

    F(z, zbar) / (1 + |z|^2)^den  *  dz^p dzbar^q  *  e_k,

with polynomial numerators and rational coefficients; e_k is the holomorphic
chart frame of the twist bundle.  The metric normalization is
|d/dz|^2 = (1 + |z|^2)^{-2}, which gives total volume 2 pi, so the global
1/(2 pi)^n prefactor of the inner product makes <1, 1> = 1 for the trivial
twist.  Every L2 pairing of such sections reduces to Beta-function moments,

    integral t^u (1+t)^{-P} dt = u! (P-u-2)! / (P-1)!,

hence all Gram matrices and operator blocks are exact rationals, and the
operator chunks have integer entries.  A charge chunk is fixed by e = a - b:
its monomials are (a0 + i, b0 + i), i < n, with a0 = max(e, 0), b0 = a0 - e
and n = min(amax - a0, bmax - b0) + 1, so its Gram is the Hankel matrix
m(alpha + i + j, P), alpha = a0 + b0 = |e|, of the weight t^alpha (1+t)^{-P}.
No Gram is built: its L D L^T factors are closed forms in (alpha, P, n),
the rows of L^{-1} being the finite Romanovski polynomials of that weight
and the pivots D their squared norms.  The pivots depend on n only through
a prefix, so `Cp1Exact` keeps one `linalg.RomanovskiTable` of pivots per
weight (`Weights`), and a chunk is (a0, b0, n) with its weight's table,
which every chunk of that weight reads: the (0,0) and (0,1) blocks share
P, as do (1,0) and (1,1), and each alpha recurs across charges.  Each
pivot is computed once per model.

Every operator is an integer monomial rule (`dbar` and the six after it):
it sends z^a zbar^b / (1+s)^den to at most two monomials at offsets (da, db)
over (1+s)^(den + shift), both fixed per operator and block, with integer
coefficients affine in (a, b).  So a rule is evaluated on exponent arrays:
per chunk for the operator chunks, per block for the T-free certificate
`Cp1Exact.bochner_brackets`, which the Bochner residual at any T scales.
An operator chunk is stored as the rule's coefficient arrays, one
diagonal per offset (at most two for dbar, one for the contraction), with
no chunk matrix built; the d_T^2 certificate composes these diagonals.
Its float block in orthonormal bases is a closed form too: each exact
entry is rounded once and scaled by the square-root pivots of the two
chunks.  A dbar chunk's is bidiagonal, fixed by its two diagonals and the
subleading coefficients of the monic Romanovski rows (`_dbar_block`).  A
contraction chunk's is a banded recurrence down its columns, since every
weight it meets is a Christoffel modification of one (`_iv_block`).  Both
equal, bit for bit, the dense transform D_t^{1/2} L_t^T M L_s^{-T}
D_s^{-1/2} of the tests (`tests/transform_oracle.transform_op`).

Truncation: the degree-(p,q) block at cutoff N uses denominator exponent
den = N + q and numerator degrees a <= den + k - 2p, b <= den - 2q, which is
precisely the span of the rotation-isotypic components shared by all blocks.
With these bounds the Dolbeault operator and the field contraction map each
truncated block exactly into the next (the assembly errors out otherwise),
so the deformed complex closes at finite cutoff and its kernel counts are
honest finite-complex cohomology dimensions.  The metric dual operators leak
outside the truncation; the wedge-by-dual-field leakage is computed exactly
and reported.  Within one charge chunk it is a rank-2 problem: what leaves
the target lies in a 2-d complement, and the squared leakage is the larger
root of a 2 x 2 pencil of exact pairings.  Its trace and determinant are
rational functions of (k, N, q, chi) in closed form (`_leakage_pencil`), so
floats enter only in that root.  They depend on chi only through
(2 chi - k)^2, so the pencils of chi and k - chi are equal and one is
evaluated per pair.

All operators conserve the rotation charge chi = a - b + p - q, so every
block is assembled, factored, and orthonormalized charge chunk by charge
chunk.  The assembled model is a list of cell stacks, one per layout: the
charges with the same chunk dimension in every block (chi and k - chi have
the same one) are the members, named chi<chi>, of one stack.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..linalg import Diagonals, RomanovskiTable
# unused here, but perfbench/tracing.py wraps it under this name
from ..linalg import fmatmul  # noqa: F401
from .base import AssembledModel, CellStack, FieldSpec, ModelError, ModelSpec, PQ

Exps = int | np.ndarray         # exponents or coefficients, one per monomial
Image = tuple[PQ, int, list[tuple[tuple[int, int], Exps]]]
Rule = Callable[[int, int, int, int, Exps, Exps], "Image | None"]

_PQS = ((0, 0), (1, 0), (0, 1), (1, 1))


# ---------------------------------------------------------------------------
# Operators as monomial rules
# ---------------------------------------------------------------------------
# A rule maps the monomial z^a zbar^b / (1+s)^den of the (p,q) block with
# twist k to (target (p,q), target den, [((da, db), coeff), ...]), the sum of
# coeff z^(a+da) zbar^(b+db), or to None where it vanishes by degree.  On
# exponent arrays the coefficients are arrays; zero coefficients are kept.

def dbar(k: int, p: int, q: int, den: int, a: Exps, b: Exps) -> Image | None:
    """Dolbeault operator; zero on q = 1 blocks.  The sign on the (1,0)
    block comes from moving dzbar past dz into canonical order."""
    if q == 1:
        return None
    sign = 1 if p == 0 else -1
    return (p, 1), den + 1, [((0, -1), sign * b), ((1, 0), sign * (b - den))]


def dbar_star(k: int, p: int, q: int, den: int, a: Exps, b: Exps
              ) -> Image | None:
    """Formal adjoint of the Dolbeault operator; zero on q = 0 blocks."""
    if q == 0:
        return None
    if p == 0:
        down, up = -a, den + k - a
    else:
        down, up = a, a - den + 2 - k
    return (p, 0), den - 1, [((-1, 0), down), ((0, 1), up)]


def field_contract(k: int, p: int, q: int, den: int, a: Exps, b: Exps
                   ) -> Image | None:
    """Contraction by the linear field z d/dz; zero on p = 0 blocks."""
    return None if p == 0 else ((0, q), den, [((1, 0), 1)])


def dual_field_wedge(k: int, p: int, q: int, den: int, a: Exps, b: Exps
                     ) -> Image | None:
    """Wedge by the metric dual (1,0)-form of the conjugated field,
    zbar (1+|z|^2)^{-2} dz; zero on p = 1 blocks."""
    return None if p == 1 else ((1, q), den + 2, [((0, 1), 1)])


def field_norm_mul(k: int, p: int, q: int, den: int, a: Exps, b: Exps
                   ) -> Image | None:
    """Multiplication by |v|^2 = |z|^2 (1+|z|^2)^{-2}."""
    return (p, q), den + 2, [((1, 1), 1)]


def curvature_wedge(k: int, p: int, q: int, den: int, a: Exps, b: Exps
                    ) -> Image | None:
    """Wedge by the (1,1)-form dbar(dual field): (s-1)(1+s)^{-3} dz wedge
    dzbar in canonical order; zero except on the (0,0) block."""
    if (p, q) != (0, 0):
        return None
    return (1, 1), den + 3, [((1, 1), 1), ((0, 0), -1)]


def curvature_contract(k: int, p: int, q: int, den: int, a: Exps, b: Exps
                       ) -> Image | None:
    """Adjoint of curvature_wedge, from the (1,1) block to the (0,0) block:
    multiplication by |z|^4 - 1, written over (1+s)^(den-1) as
    multiplication by s - 1."""
    if (p, q) != (1, 1):
        return None
    return (0, 0), den - 1, [((1, 1), 1), ((0, 0), -1)]


Family = dict[tuple[PQ, int, int, int], np.ndarray]


def _apply(k: int, a: Exps, b: Exps, rules: tuple[Rule, ...], family: Family,
           out: Family | None = None, scale: int = 1) -> Family:
    """Add scale times the sum of the rules, applied to family, into out.
    A family maps (p,q), den and an offset (da, db) from the monomials
    (a, b) to the coefficients of (a + da, b + db), one per monomial."""
    out = {} if out is None else out
    for (pq, den, da, db), co in family.items():
        ta, tb = a + da, b + db
        for rule in rules:
            image = rule(k, *pq, den, ta, tb)
            for (ea, eb), x in image[2] if image else ():
                key = (*image[:2], da + ea, db + eb)
                out[key] = out.get(key, 0) + scale * co * x
    return out


def _largest(family: Family) -> int:
    return max((np.abs(co).max() for co in family.values()), default=0)


@lru_cache(maxsize=None)
def beta_moment(u: int, big_p: int) -> Fraction:
    """integral_0^inf t^u (1+t)^{-P} dt for integers 0 <= u <= P-2."""
    if u < 0 or big_p - u - 2 < 0:
        raise ModelError(f"divergent moment: u={u}, P={big_p}")
    return Fraction(math.factorial(u) * math.factorial(big_p - u - 2),
                    math.factorial(big_p - 1))


def weight_exponent(p: int, q: int, den: int, k: int) -> int:
    return 2 * den - 2 * p - 2 * q + k + 2


# ---------------------------------------------------------------------------
# Block structure
# ---------------------------------------------------------------------------

def block_params(k: int, cutoff: int, p: int, q: int) -> tuple[int, int, int]:
    """(denominator exponent, max z-degree, max zbar-degree) of a block."""
    den = cutoff + q
    return den, den + k - 2 * p, den - 2 * q


class Chunk(NamedTuple):
    """One charge chunk of a block: the monomials (a0 + i, b0 + i) for
    i < n, and the factor table of their Gram's weight, grown to n."""

    a0: int
    b0: int
    n: int
    table: RomanovskiTable

    def exponents(self) -> tuple[np.ndarray, np.ndarray]:
        i = np.arange(self.n, dtype=object)     # Python ints
        return self.a0 + i, self.b0 + i


class Weights(dict):
    """The pivot table (`RomanovskiTable`) of each weight (alpha, P), made
    on first use; both float blocks and `Block.gram_condition` read it."""

    def __missing__(self, weight: tuple[int, int]) -> RomanovskiTable:
        table = self[weight] = RomanovskiTable(*weight)
        return table


@dataclass
class Block:
    pq: PQ
    den: int
    chunks: dict[int, Chunk]                # by charge, ascending

    @property
    def dim(self) -> int:
        return sum(c.n for c in self.chunks.values())

    def gram_condition(self) -> float:
        """The exact pivot ratio max D / min D of G = L D L^T, worst over
        the charge chunks.  Every pivot lies between the extreme eigenvalues
        of its chunk's Gram, so this is a lower bound on the chunk's
        condition number, computed with no round-off: each chunk's ratio is
        rounded once, and rounding keeps their order."""
        return max(c.table.pivot_ratio(c.n)
                   for c in self.chunks.values())


def _build_block(k: int, cutoff: int, p: int, q: int, weights: Weights
                 ) -> Block:
    den, amax, bmax = block_params(k, cutoff, p, q)
    big_p = weight_exponent(p, q, den, k)
    chunks = {}
    for e in range(-bmax, amax + 1):
        a0, b0 = max(e, 0), max(-e, 0)
        n = min(amax - a0, bmax - b0) + 1
        table = weights[abs(e), big_p]
        table.grow(n)
        chunks[e + p - q] = Chunk(a0, b0, n, table)
    return Block((p, q), den, chunks)


def _exact_op_chunks(k: int, src: Block, tgt: Block, rule: Rule
                     ) -> dict[int, Diagonals]:
    """Chunk-diagonal integer operator of a rule between two blocks, each
    chunk as its diagonals, one per term of the rule; errors if an image
    leaves the target truncation (this is the closure proof).  Term
    (da, db) of source monomial col lies in the target chunk at row
    col + shift exactly when that row is in [0, n) and b' - b0 equals it."""
    out: dict[int, Diagonals] = {}
    for chi, chunk in src.chunks.items():
        a0, b0, n, _ = tgt.chunks.get(chi, (0, 0, 0, None))
        _, den, terms = rule(k, *src.pq, src.den, *chunk.exponents())
        if den != tgt.den:
            raise ModelError(
                f"{rule.__name__}: image denominator {den} != block {tgt.den}")
        out[chi] = []
        for (da, db), co in terms:
            shift = chunk.a0 + da - a0
            on_diagonal = chunk.b0 + db - b0 == shift
            coeffs = np.full(chunk.n, co, dtype=object).tolist()
            for col, x in enumerate(coeffs):
                if x and (not on_diagonal or not 0 <= col + shift < n):
                    image = (chunk.a0 + col + da, chunk.b0 + col + db)
                    raise ModelError(f"{rule.__name__}: image monomial "
                                     f"{image} escapes the truncation")
            out[chi].append((shift, coeffs))
    return out


def _compose(left: Diagonals, right: Diagonals, out: Counter) -> Counter:
    """Add the entries {(row, col): value} of the chunk product left right
    into out.  Entry j of a right diagonal (s, c) lands on row j + s of the
    middle chunk, which a left diagonal (s', c') sends to row j + s + s'
    with c'[j + s]."""
    for s, c in right:
        for j, x in enumerate(c):
            if x:               # so row j + s is in the middle chunk
                for s2, c2 in left:
                    out[j + s + s2, j] += c2[j + s] * x
    return out


class Cp1Exact:
    """Exact-arithmetic payload: blocks, chunked operator matrices, and the
    identity checks that only make sense at infinite precision."""

    def __init__(self, k: int, cutoff: int):
        # every block needs a monomial: cutoff >= max(1, 2 - k) for k >= 0
        if min(min(block_params(k, cutoff, *pq)[1:]) for pq in _PQS) < 0:
            raise ModelError(
                f"cp1 cutoff {cutoff} leaves a block empty at twist {k}")
        self.k = k
        self.cutoff = cutoff
        weights = Weights()     # one pivot table per weight, for every block
        self.blocks: dict[PQ, Block] = {
            pq: _build_block(k, cutoff, *pq, weights) for pq in _PQS}
        self.dbar_chunks: dict[PQ, dict[int, Diagonals]] = {}
        self.iv_chunks: dict[PQ, dict[int, Diagonals]] = {}
        for (p, q) in ((0, 0), (1, 0)):
            self.dbar_chunks[(p, q)] = _exact_op_chunks(
                k, self.blocks[(p, q)], self.blocks[(p, 1)], dbar)
        for (p, q) in ((1, 0), (1, 1)):
            self.iv_chunks[(p, q)] = _exact_op_chunks(
                k, self.blocks[(p, q)], self.blocks[(0, q)], field_contract)

    # -- orthonormal float views -------------------------------------------

    def ortho_chunk(self, src_pq: PQ, tgt_pq: PQ, chi: int) -> np.ndarray:
        """The float block of charge chi of the operator from block src_pq
        to block tgt_pq in orthonormal bases: dbar where q rises, in closed
        form (`_dbar_block`), else the contraction (`_iv_block`)."""
        tgt = self.blocks[tgt_pq].chunks[chi]
        src = self.blocks[src_pq].chunks[chi]
        if tgt_pq[1] > src_pq[1]:
            return _dbar_block(self.dbar_chunks[src_pq][chi], tgt, src)
        return _iv_block(self.iv_chunks[src_pq][chi], tgt, src)

    # -- exact identity checks ---------------------------------------------

    def deformed_square_is_zero(self, T: Fraction) -> bool:
        """(dbar + T iv)^2 = 0 as exact chunk matrices, every degree.

        dbar^2 and iv^2 vanish by degree, so the square is T times the
        degree -1 -> +1 composite dbar iv + iv dbar: zero at T = 0, and for
        T != 0 zero exactly when that T-free composite is."""
        return not T or self._anticommutator_is_zero

    @cached_property
    def _anticommutator_is_zero(self) -> bool:
        # (1,0) -> (0,0) -> (0,1) plus (1,0) -> (1,1) -> (0,1), composed
        # diagonal by diagonal per charge; a charge of the (1,0) block is a
        # charge of every block
        paths = ((self.dbar_chunks[(0, 0)], self.iv_chunks[(1, 0)]),
                 (self.iv_chunks[(1, 1)], self.dbar_chunks[(1, 0)]))
        for chi in self.blocks[(1, 0)].chunks:
            entries = Counter()
            for left, right in paths:
                _compose(left[chi], right[chi], entries)
            if any(entries.values()):
                return False
        return True

    @cached_property
    def bochner_brackets(self) -> tuple[int, int, int]:
        """(curvature, clifford, theta): the largest coefficient of
        D V + V D - Theta, of V^2 - |v|^2 and of Theta over every truncated
        basis section, with D = dbar + dbar^*, V = iv + (dual field) wedge
        and Theta the curvature wedge plus its adjoint.

        With these T-free brackets, 2 (D + T V)^2 - 2 D^2 - 2 T^2 |v|^2 -
        2 T Theta = 2 T (D V + V D - Theta) + 2 T^2 (V^2 - |v|^2): the
        curvature identity holds at every T exactly when the first two are
        0.  Images are summed per (p,q) and den, so a term landing at the
        wrong den cannot cancel and can only make the brackets nonzero."""
        d_ops, v_ops = (dbar, dbar_star), (field_contract, dual_field_wedge)
        theta_ops = (curvature_wedge, curvature_contract)
        curvature = clifford = theta = 0
        for pq, block in self.blocks.items():
            a, b = map(np.concatenate, zip(*(
                c.exponents() for c in block.chunks.values())))
            apply = partial(_apply, self.k, a, b)
            e = {(pq, block.den, 0, 0): np.ones(len(a), dtype=object)}
            ve = apply(v_ops, e)
            # -Theta e, then D V e + V D e added onto it
            bracket = apply(theta_ops, e, scale=-1)
            theta = max(theta, _largest(bracket))
            apply(d_ops, ve, bracket)
            apply(v_ops, apply(d_ops, e), bracket)
            curvature = max(curvature, _largest(bracket))
            # -|v|^2 e, then V V e added onto it
            bracket = apply((field_norm_mul,), e, scale=-1)
            apply(v_ops, ve, bracket)
            clifford = max(clifford, _largest(bracket))
        return curvature, clifford, theta

    def dual_wedge_leakage(self) -> dict[PQ, float]:
        """Operator-norm distance of the wedge-by-dual-field image from the
        truncated target block, per source block: the worst over its charge
        chunks of the square root of the larger root of the chunk's 2 x 2
        pencil, lambda = (tr + sqrt(tr^2 - 4 det)) / 2 from the exact trace
        and determinant, so floats enter only in the two square roots."""
        out: dict[PQ, float] = {}
        for q in (0, 1):
            # the pencils of chi and k - chi are equal, so one per pair
            pencils = (_leakage_pencil(self.k, self.cutoff, q, chi)
                       for chi in self.blocks[(0, q)].chunks
                       if 2 * chi <= self.k)
            out[(0, q)] = max(math.sqrt((float(tr) + math.sqrt(
                float(tr * tr - 4 * det))) / 2) for tr, det in pencils)
        return out


def _dbar_block(diagonals: Diagonals, tgt: Chunk, src: Chunk) -> np.ndarray:
    """The orthonormal float block of one dbar chunk, in closed form.

    In the monic Romanovski bases of the two chunks dbar is bidiagonal:
    from its diagonals (s - 1, c') and (s, c), column j holds c[j] at row
    j + s and c[j-1] x_j + c'[j] - c[j] y_(j+s) at row j + s - 1, where
    x_j = j (alpha + j) / (2j + alpha - P) is the t^(j-1) coefficient of
    the source's monic row j and y the same of the target's (the last
    term dropped where row j + s does not exist).  Each entry is one
    integer ratio, over a positive denominator so that a zero is +0.0,
    divided into a float, and then scaled by the square-root pivots, as
    the dense transform of the tests rounds and scales its exact core:
    the two agree bit for bit."""
    (_, c1), (s, c) = sorted(diagonals)
    sa, sp = src.table.alpha, src.table.big_p
    ta, tp = tgt.table.alpha, tgt.table.big_p
    out = np.zeros((tgt.n, src.n))
    for j in range(src.n):
        top = j + s
        xn, xd = j * (sa + j), 2 * j + sa - sp
        yn, yd = 0, 1
        if 0 <= top < tgt.n:
            out[top, j] = c[j]
            yn, yd = top * (ta + top), 2 * top + ta - tp
        if 0 <= top - 1 < tgt.n:
            num = ((c[j - 1] * xn if j else 0) + c1[j] * xd) * yd
            num -= c[j] * yn * xd
            den = xd * yd
            if den < 0:
                num, den = -num, -den
            out[top - 1, j] = num / den
    out *= tgt.table.sqrt_pivots(tgt.n)[:, None]
    out /= src.table.sqrt_pivots(src.n)[None, :]
    return out


def _iv_block(diagonals: Diagonals, tgt: Chunk, src: Chunk) -> np.ndarray:
    """The orthonormal float block of one contraction chunk, in closed form:
    each entry of `_iv_core` divided into a float once and scaled as
    `_dbar_block` scales, so the block equals the dense transform's bit
    for bit.  The chunk's one diagonal has every coefficient 1, so only its
    shift is read."""
    (s, _), = diagonals
    out = np.zeros((tgt.n, src.n))
    for i, (nums, den) in enumerate(_iv_core(s, src.table.alpha,
                                             tgt.table.big_p, src.n, tgt.n)):
        out[:len(nums), i] = [x / den for x in nums]
    out *= tgt.table.sqrt_pivots(tgt.n)[:, None]
    out /= src.table.sqrt_pivots(src.n)[None, :]
    return out


def _iv_core(s: int, alpha: int, big_p: int, n_s: int, n_t: int
             ) -> Iterator[tuple[list[int], int]]:
    """The columns of the exact core of a contraction chunk (its block
    before the pivot scaling), each as integers over one positive
    denominator that their gcd reduces.

    The contraction is t^s on the chunk's polynomials, s its one diagonal's
    shift, from the weight t^alpha (1+t)^-(Q-2) to t^(alpha+1-2s) (1+t)^-Q,
    a Christoffel modification of it.  Column i holds the coordinates of
    t^s p_i, p the source's monic Romanovski rows, in the target's, q; and
    with r = Q - alpha - 2i these obey the connection formula

        t^s (p_i + a_i p_(i-1) + b_i p_(i-2)) = q_(i+s) + h_i q_(i+s-1),

    a_i = 2i (alpha+i) / (r (r-2)), b_i = i (i-1) (alpha+i) (alpha+i-1) /
    ((r-1) r^2 (r+1)), and h_i = i (Q-i) / (r (r-1)) for s = 0 or
    (alpha+i) (Q-alpha-i) / (r (r-1)) for s = 1 (terms past the target's
    n_t dropped).  So column i is that right side minus a_i times column
    i - 1 and b_i times column i - 2: O(n^2) integer work per chunk."""
    back = [([], 1), ([], 1)]       # columns i - 2 and i - 1, (nums, den)
    for i in range(n_s):
        r = big_p - alpha - 2 * i
        den = r * (r - 1)
        side = i * (big_p - i) if s == 0 else (alpha + i) * (big_p - alpha - i)
        h = [0] * (i + s - 1) + [side, den] if i + s else [den]
        # the nonzero a_i and b_i as a / d, each with its column (nums, den)
        terms = [(a, d, *col) for a, d, col in (
            (2 * i * (alpha + i), r * (r - 2), back[1]),
            (i * (i - 1) * (alpha + i) * (alpha + i - 1),
             (r - 1) * r * r * (r + 1), back[0])) if a]
        total = math.lcm(den, *(d * e for _, d, _, e in terms))
        nums = [x * (total // den) for x in h[:n_t]]
        for a, d, col, e in terms:
            f = a * (total // (d * e))
            nums[:len(col)] = [x - f * y for x, y in zip(nums, col)]
        g = math.gcd(total, *nums)
        back = [back[1], ([x // g for x in nums], total // g)]
        yield back[1]


def _leakage_pencil(k: int, cutoff: int, q: int, chi: int
                    ) -> tuple[Fraction, Fraction]:
    """Exact trace and determinant of H^{-1} K for the charge chunk chi of
    the (0,q) block, whose larger eigenvalue is the chunk's squared
    leakage, in closed form for cutoff N >= 1.  With P = 2N + k + 2 the
    weight exponent of the (0,0) and (0,1) blocks, m = P - k - 2q and
    v = (2 chi - k)^2, both are rational in (P, k, q, v).  The determinant
    vanishes at v = (P - 2)^2, the edge charges -N and N + k whose target
    chunk is empty, and at v = P^2, the first charges outside the block.
    H is the Gram of a basis of the complement of the target chunk and
    K = X G_s^{-1} X^T its pairings with the images; the tests hold that
    Hankel-moment construction as the oracle."""
    big_p, m, v = 2 * cutoff + k + 2, 2 * (cutoff - q + 1), (2 * chi - k) ** 2
    tr = m * ((big_p * big_p + 3 * big_p * k - 5 * big_p - 3 * k
               + 6 * q * (big_p - 1)) * v
              + big_p * (big_p - 2) * (big_p * big_p - big_p * k - big_p + k
                                       - 4 - 2 * q * (big_p - 1)))
    det = m * m * (m * m - 4) * (v - big_p ** 2) * (v - (big_p - 2) ** 2)
    # P (P-3) (P-2) (P-1), then the rest of each denominator
    base = big_p * (big_p - 3) * (big_p - 2) * (big_p - 1)
    return (Fraction(tr, 8 * base * (big_p + 1)),
            Fraction(det, 256 * base * big_p * (big_p - 2) * (big_p - 1)
                     * (big_p + 1)))


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

def assemble_cp1(spec: ModelSpec) -> AssembledModel:
    exact = Cp1Exact(spec.k, spec.cutoff)
    # the charges of one layout (chi and k - chi among them) form a stack
    layouts: dict[tuple, list[int]] = {}
    for chi in sorted({chi for b in exact.blocks.values() for chi in b.chunks}):
        layouts.setdefault(tuple((pq, blk.chunks[chi].n)
                                 for pq, blk in exact.blocks.items()
                                 if chi in blk.chunks), []).append(chi)
    cells = []
    for layout, chis in layouts.items():
        dims = dict(layout)
        # each block is its charges' float chunks along a member axis
        dbar_blocks = {
            pq: np.stack([exact.ortho_chunk(pq, (pq[0], 1), chi)
                          for chi in chis])
            for pq in ((0, 0), (1, 0)) if pq in dims and (pq[0], 1) in dims}
        iv_blocks = {
            pq: np.stack([exact.ortho_chunk(pq, (0, pq[1]), chi)
                          for chi in chis])
            for pq in ((1, 0), (1, 1)) if pq in dims and (0, pq[1]) in dims}
        names = [f"chi{chi}" for chi in chis]
        cells.append(CellStack(name="+".join(names), names=names, dims=dims,
                               dbar=dbar_blocks, iv=iv_blocks))
    return AssembledModel(spec=spec, cells=cells, exact=exact)


def cp1_model(k: int, cutoff: int) -> AssembledModel:
    """Assembled projective-line model with twist k and the linear field."""
    spec = ModelSpec(kind="cp1", k=k, cutoff=cutoff, field=FieldSpec("linear"))
    return assemble_cp1(spec)
