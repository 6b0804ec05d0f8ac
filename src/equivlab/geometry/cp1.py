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
coefficients affine in (a, b).  So a rule is evaluated once per block, on
its exponent arrays (`Block.exponents`): the operator chunks slice that
image, and the T-free certificate `Cp1Exact.bochner_brackets`, which the
Bochner residual at any T scales, reads it whole.
An operator chunk is stored as the rule's coefficient arrays, one
diagonal per offset (at most two for dbar, one for the contraction), with
no chunk matrix built; the d_T^2 certificate composes these diagonals.
Its float block in orthonormal bases is a closed form too: each exact
entry is rounded once and scaled by the square-root pivots of the two
chunks.  A dbar chunk's is bidiagonal, fixed by its two diagonals and the
subleading coefficients of the monic Romanovski rows (`_dbar_block`).  A
contraction chunk's is a banded recurrence down its columns, since every
weight it meets is a Christoffel modification of one (`_iv_block`), built
once per source charge for the two chunks that share it (`_iv_shared`).
Both equal, bit for bit, the dense transform D_t^{1/2} L_t^T M L_s^{-T}
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
integer ratios in closed form in (k, N, q, chi) (`_leakage_pencil`), so
floats enter only in their quotients and that root.  They depend on chi
only through (2 chi - k)^2, so the pencils of chi and k - chi are equal
and one is evaluated per pair.

All operators conserve the rotation charge chi = a - b + p - q, so every
block is assembled, factored, and orthonormalized charge chunk by charge
chunk.  The assembled model is a list of cell stacks, one per layout: the
charges with the same chunk dimension in every block (chi and k - chi have
the same one) are the members, named chi<chi>, of one stack.  The stacks
hold `stack_entries` floats, about 8 N^3 / 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import islice
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


Family = dict[tuple[PQ, int, int, int], Exps]


def _apply(k: int, a: Exps, b: Exps, rules: tuple[Rule, ...], family: Family,
           out: Family | None = None, scale: int = 1) -> Family:
    """Add scale times the sum of the rules, applied to family, into out.
    A family maps (p,q), den and an offset (da, db) from the monomials
    (a, b) to the coefficients of (a + da, b + db), one per monomial or one
    int for all of them."""
    out = {} if out is None else out
    for (pq, den, da, db), co in family.items():
        ta, tb = a + da, b + db
        for rule in rules:
            image = rule(k, *pq, den, ta, tb)
            for (ea, eb), x in image[2] if image else ():
                key = (*image[:2], da + ea, db + eb)
                term = co * (scale * x)
                out[key] = out[key] + term if key in out else term
    return out


def _largest(family: Family) -> int:
    return max((np.abs(co).max() if isinstance(co, np.ndarray) else abs(co)
                for co in family.values()), default=0)


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


def stack_entries(k: int, cutoff: int) -> int:
    """The float entries of the stacks `assemble_cp1` allocates, in closed
    form: (2N + 1)(4N^2 + 6Nk + 4N + 3k - 3) / 3 at cutoff N."""
    n = cutoff
    return (2 * n + 1) * (4 * n * n + 6 * n * k + 4 * n + 3 * k - 3) // 3


def dimension(k: int, cutoff: int) -> int:
    """The model's basis size in closed form: 4N^2 + 4Nk + 4N + 2k."""
    n = cutoff
    return 2 * (2 * n * n + 2 * n * k + 2 * n + k)


class Chunk(NamedTuple):
    """One charge chunk of a block: the monomials (a0 + i, b0 + i) for
    i < n, and the factor table of their Gram's weight, grown to n."""

    a0: int
    b0: int
    n: int
    table: RomanovskiTable


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

    @cached_property
    def exponents(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) of each monomial, chunk by chunk, as Python ints."""
        a, b = zip(*((c.a0 + i, c.b0 + i)
                     for c in self.chunks.values() for i in range(c.n)))
        return np.array(a, dtype=object), np.array(b, dtype=object)

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
    chunk as its diagonals, one per term of the rule, sliced from the
    rule's image on the source block; errors if an image leaves the target
    truncation (this is the closure proof).  Term (da, db) of source
    monomial col lies in the target chunk at row col + shift exactly when
    b' - b0 equals that row and the row is in [0, n), so only a prefix and
    a suffix of the columns can escape."""
    _, den, terms = rule(k, *src.pq, src.den, *src.exponents)
    if den != tgt.den:
        raise ModelError(
            f"{rule.__name__}: image denominator {den} != block {tgt.den}")
    out: dict[int, Diagonals] = {chi: [] for chi in src.chunks}
    for (da, db), co in terms:
        coeffs = iter(np.full(src.dim, co, dtype=object).tolist())
        for chi, chunk in src.chunks.items():
            a0, b0, n = tgt.chunks[chi][:3] if chi in tgt.chunks else (0, 0, 0)
            shift = chunk.a0 + da - a0
            c = list(islice(coeffs, chunk.n))
            # columns lo .. hi - 1 land inside the target chunk
            lo = hi = 0
            if chunk.b0 + db - b0 == shift:
                lo, hi = max(-shift, 0), max(n - shift, 0)
            for col in (*range(lo), *range(hi, chunk.n)):
                if c[col]:
                    image = (chunk.a0 + col + da, chunk.b0 + col + db)
                    raise ModelError(f"{rule.__name__}: image monomial "
                                     f"{image} escapes the truncation")
            out[chi].append((shift, c))
    return out


def _compose(left: Diagonals, right: Diagonals,
             out: dict[int, list[int]]) -> dict[int, list[int]]:
    """Add the diagonals {shift: entries} of the chunk product left right
    into out.  Entry j of a right diagonal (s, c) lands on row j + s of the
    middle chunk (c[j] is 0 where that row does not exist), which a left
    diagonal (s', c') sends to row j + s + s' with c'[j + s]."""
    for s, c in right:
        for s2, c2 in left:
            lo, hi = max(0, -s), min(len(c), len(c2) - s)
            if lo < hi:
                d = out.setdefault(s + s2, [0] * len(c))
                d[lo:hi] = [x + y * z for x, y, z in
                            zip(d[lo:hi], c2[lo + s:hi + s], c[lo:hi])]
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
        # per source charge, a shared contraction block and its readers left
        self._iv_blocks: dict[int, tuple[np.ndarray, int]] = {}

    # -- orthonormal float views -------------------------------------------

    def ortho_chunk(self, src_pq: PQ, tgt_pq: PQ, chi: int) -> np.ndarray:
        """The float block of charge chi of the operator from block src_pq
        to block tgt_pq in orthonormal bases: dbar where q rises, in closed
        form (`_dbar_block`), else the contraction (`_iv_shared`)."""
        tgt = self.blocks[tgt_pq].chunks[chi]
        src = self.blocks[src_pq].chunks[chi]
        if tgt_pq[1] > src_pq[1]:
            return _dbar_block(self.dbar_chunks[src_pq][chi], tgt, src)
        return self._iv_shared(chi - 1 + src_pq[1])[:tgt.n, :src.n]

    def _iv_shared(self, e: int) -> np.ndarray:
        """The read-only contraction block of the chunks whose source
        monomials have a - b = e, charge e + 1 of (1,0) -> (0,0) and charge
        e of (1,1) -> (0,1): they share shift and weights, and the closed
        form is prefix-stable, so one block at the larger size of each side
        is both, bit for bit.  It is kept until both have read it."""
        if e not in self._iv_blocks:
            pairs = [(q, chi) for q, chi in ((0, e + 1), (1, e))
                     if all(chi in self.blocks[p, q].chunks for p in (0, 1))]
            src, tgt = ([self.blocks[p, q].chunks[chi] for q, chi in pairs]
                        for p in (1, 0))
            (s, _), = self.iv_chunks[1, pairs[0][0]][pairs[0][1]]
            block = _iv_block(s, src[0].table, tgt[0].table,
                              max(c.n for c in src), max(c.n for c in tgt))
            block.flags.writeable = False
            self._iv_blocks[e] = (block, len(pairs))
        block, readers = self._iv_blocks.pop(e)
        if readers > 1:
            self._iv_blocks[e] = (block, readers - 1)
        return block

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
            diagonals: dict[int, list[int]] = {}
            for left, right in paths:
                _compose(left[chi], right[chi], diagonals)
            if any(map(any, diagonals.values())):
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
            apply = partial(_apply, self.k, *block.exponents)
            e = {(pq, block.den, 0, 0): 1}     # each basis section
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
        and determinant, so floats enter only in the two correctly rounded
        quotients tr and tr^2 - 4 det and the two square roots."""
        out: dict[PQ, float] = {}
        for q in (0, 1):
            # the pencils of chi and k - chi are equal, so one per pair
            pencils = (_leakage_pencil(self.k, self.cutoff, q, chi)
                       for chi in self.blocks[(0, q)].chunks
                       if 2 * chi <= self.k)
            out[(0, q)] = max(math.sqrt((tn / td + math.sqrt(
                (tn * tn * dd - 4 * dn * td * td) / (td * td * dd))) / 2)
                for (tn, td), (dn, dd) in pencils)
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


def _iv_block(s: int, source: RomanovskiTable, target: RomanovskiTable,
              n_s: int, n_t: int) -> np.ndarray:
    """The orthonormal float block of a contraction of shift s from the
    n_s monomials of source's weight to the n_t of target's, in closed
    form: each entry of `_iv_core` divided into a float once and scaled as
    `_dbar_block` scales, so the block equals the dense transform's bit
    for bit."""
    out = np.zeros((n_t, n_s))
    for i, (nums, den) in enumerate(_iv_core(s, source.alpha, target.big_p,
                                             n_s, n_t)):
        out[:len(nums), i] = [x / den for x in nums]
    out *= target.sqrt_pivots(n_t)[:, None]
    out /= source.sqrt_pivots(n_s)[None, :]
    return out


def _iv_core(s: int, alpha: int, big_p: int, n_s: int, n_t: int
             ) -> Iterator[tuple[list[int], int]]:
    """The columns of the exact core of a contraction chunk (its block
    before the pivot scaling), each as integers over one positive
    denominator that their gcd reduces; column i has its rows up to
    i + s, the rest being 0.

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
    i - 1 and b_i times column i - 2: O(n^2) integer work per block, and a
    column does not depend on n_s or n_t past its rows."""
    c1, e1, c2, e2 = [], 1, [], 1       # columns i - 1 and i - 2 over e1, e2
    for i in range(n_s):
        r = big_p - alpha - 2 * i
        # a_i and b_i over the denominators of columns i - 1 and i - 2
        den, ad, bd = r * (r - 1), r * (r - 2) * e1, (r * r - 1) * r * r * e2
        total = math.lcm(den, ad, bd)
        f1 = 2 * i * (alpha + i) * (total // ad)
        f2 = i * (i - 1) * (alpha + i) * (alpha + i - 1) * (total // bd)
        nums = [-f1 * y - f2 * z for y, z in zip(c1, c2)]
        nums += [-f1 * y for y in c1[len(c2):]]
        # the right side, h_i at row i + s - 1 and 1 at row i + s
        top, g = i + s, total // den
        nums += [0] * (min(top + 1, n_t) - len(nums))
        if 0 < top <= n_t:
            nums[top - 1] += g * (i * (big_p - i) if s == 0
                                  else (alpha + i) * (big_p - alpha - i))
        if top < n_t:
            nums[top] += g * den
        g = math.gcd(total, *nums)
        c2, e2, c1, e1 = c1, e1, [x // g for x in nums], total // g
        yield c1, e1


def _leakage_pencil(k: int, cutoff: int, q: int, chi: int
                    ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact trace and determinant of H^{-1} K for the charge chunk chi of
    the (0,q) block, whose larger eigenvalue is the chunk's squared
    leakage, in closed form for cutoff N >= 1, each as (numerator,
    positive denominator).  With P = 2N + k + 2 the weight exponent of the
    (0,0) and (0,1) blocks, m = P - k - 2q and v = (2 chi - k)^2, both are
    rational in (P, k, q, v).  The determinant
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
    return ((tr, 8 * base * (big_p + 1)),
            (det, 256 * base * big_p * (big_p - 2) * (big_p - 1)
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
        ops = {}
        for src, tgt in (((0, 0), (0, 1)), ((1, 0), (1, 1)),    # dbar
                         ((1, 0), (0, 0)), ((1, 1), (0, 1))):   # iv
            if src in dims and tgt in dims:
                ops[src, tgt] = np.empty((len(chis), dims[tgt], dims[src]))
                for i, chi in enumerate(chis):
                    ops[src, tgt][i] = exact.ortho_chunk(src, tgt, chi)
        names = [f"chi{chi}" for chi in chis]
        cells.append(CellStack(
            name="+".join(names), names=names, dims=dims,
            dbar={src: x for (src, tgt), x in ops.items() if tgt[1] > src[1]},
            iv={src: x for (src, tgt), x in ops.items() if tgt[1] == src[1]}))
    return AssembledModel(spec=spec, cells=cells, exact=exact)


def cp1_model(k: int, cutoff: int) -> AssembledModel:
    """Assembled projective-line model with twist k and the linear field."""
    spec = ModelSpec(kind="cp1", k=k, cutoff=cutoff, field=FieldSpec("linear"))
    return assemble_cp1(spec)
