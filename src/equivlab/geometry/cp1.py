"""Projective line with the Fubini-Study metric and a twist-k line bundle.

Sections are represented in the affine chart as

    F(z, zbar) / (1 + |z|^2)^den  *  dz^p dzbar^q  *  e_k,

with polynomial numerators and rational coefficients; e_k is the holomorphic
chart frame of the twist bundle.  The metric normalization is
|d/dz|^2 = (1 + |z|^2)^{-2}, which gives total volume 2 pi, so the global
1/(2 pi)^n prefactor of the inner product makes <1, 1> = 1 for the trivial
twist.  Every L2 pairing of such sections reduces to Beta-function moments,

    integral t^u (1+t)^{-P} dt = u! (P-u-2)! / (P-1)!,

hence all Gram matrices and operator blocks are exact rationals, held as
integers: operator chunks have integer entries, and a chunk Gram matrix is
integer moment numerators u! (P-u-2)! over (P-1)!, divided by their gcd.

Truncation: the degree-(p,q) block at cutoff N uses denominator exponent
den = N + q and numerator degrees a <= den + k - 2p, b <= den - 2q, which is
precisely the span of the rotation-isotypic components shared by all blocks.
With these bounds the Dolbeault operator and the field contraction map each
truncated block exactly into the next (the assembly errors out otherwise),
so the deformed complex closes at finite cutoff and its kernel counts are
honest finite-complex cohomology dimensions.  The metric dual operators leak
outside the truncation; the wedge-by-dual-field leakage is computed exactly
and reported.  Within one charge chunk every pairing it needs is a single
moment: the images of basis monomials are monomials again, so their Gram
matrix is a Hankel matrix of moments, and their pairings with the target
block are moments of the weight with (1+t)^2 absorbed, at P - 2.  The
leakage therefore runs on integer moment numerators and the exact steps of
`linalg.Orthonormalizer`, with no per-section arithmetic.

All operators conserve the rotation charge chi = a - b + p - q, so every
block is assembled, factored, and orthonormalized charge chunk by charge
chunk, and the assembled model is a list of per-charge cell stacks of one
member each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from ..linalg import IMatrix, Orthonormalizer, float_ratios
# unused here, but perfbench/tracing.py wraps it under this name
from ..linalg import fmatmul  # noqa: F401
from .base import AssembledModel, CellStack, FieldSpec, ModelError, ModelSpec, PQ

Terms = dict[tuple[int, int], int | Fraction]

_PQS = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class CPSection:
    """Exact chart representation of one section of the (p,q) block."""

    k: int
    p: int
    q: int
    den: int
    terms: tuple  # sorted tuple of ((a, b), int or Fraction)

    @classmethod
    def make(cls, k: int, p: int, q: int, den: int, terms: Terms) -> "CPSection":
        pruned = tuple(sorted((ab, co) for ab, co in terms.items() if co))
        return cls(k, p, q, den, pruned)

    def term_dict(self) -> Terms:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def _shift(terms: Terms, da: int, db: int) -> Terms:
    out: Terms = {}
    for (a, b), co in terms.items():
        if a + da < 0 or b + db < 0:
            raise ModelError("negative monomial degree in operator image")
        out[(a + da, b + db)] = co
    return out


def _acc(dst: Terms, src: Terms) -> None:
    for ab, co in src.items():
        new = dst.get(ab, 0) + co
        if new:
            dst[ab] = new
        elif ab in dst:
            del dst[ab]


def section_add(x: CPSection, y: CPSection) -> CPSection:
    if (x.k, x.p, x.q) != (y.k, y.p, y.q):
        raise ModelError("cannot add sections of different blocks")
    den = max(x.den, y.den)
    out = embed(x, den).term_dict()
    _acc(out, embed(y, den).term_dict())
    return CPSection.make(x.k, x.p, x.q, den, out)


def section_scale(x: CPSection, factor: int | Fraction) -> CPSection:
    return CPSection.make(x.k, x.p, x.q, x.den,
                          {ab: co * factor for ab, co in x.terms})


def embed(s: CPSection, new_den: int) -> CPSection:
    """Rewrite with a larger denominator exponent (same section)."""
    delta = new_den - s.den
    if delta < 0:
        raise ModelError("cannot lower the denominator exponent by embedding")
    if delta == 0:
        return s
    out: Terms = {}
    for (a, b), co in s.terms:
        for i in range(delta + 1):
            _acc(out, {(a + i, b + i): co * math.comb(delta, i)})
    return CPSection.make(s.k, s.p, s.q, new_den, out)


def _dzbar_deriv(terms: Terms, den: int) -> Terms:
    out: Terms = {}
    for (a, b), co in terms.items():
        if b:
            _acc(out, {(a, b - 1): co * b})
        if b != den:
            _acc(out, {(a + 1, b): co * (b - den)})
    return out


def dbar(s: CPSection) -> CPSection:
    """Dolbeault operator; zero on q = 1 blocks.  The sign on the (1,0)
    block comes from moving dzbar past dz into canonical order."""
    if s.q == 1:
        return CPSection.make(s.k, s.p, 1, s.den, {})
    sign = 1 if s.p == 0 else -1
    out = {ab: co * sign for ab, co in _dzbar_deriv(dict(s.terms), s.den).items()}
    return CPSection.make(s.k, s.p, 1, s.den + 1, out)


def field_contract(s: CPSection) -> CPSection:
    """Contraction by the linear field z d/dz; zero on p = 0 blocks."""
    if s.p == 0:
        return CPSection.make(s.k, 0, s.q, s.den, {})
    return CPSection.make(s.k, 0, s.q, s.den, _shift(dict(s.terms), 1, 0))


def dual_field_wedge(s: CPSection) -> CPSection:
    """Wedge by the metric dual (1,0)-form of the conjugated field,
    zbar (1+|z|^2)^{-2} dz; zero on p = 1 blocks."""
    if s.p == 1:
        return CPSection.make(s.k, 1, s.q, s.den, {})
    return CPSection.make(s.k, 1, s.q, s.den + 2, _shift(dict(s.terms), 0, 1))


def dbar_star(s: CPSection) -> CPSection:
    """Formal adjoint of the Dolbeault operator; zero on q = 0 blocks."""
    if s.q == 0:
        return CPSection.make(s.k, s.p, 0, s.den, {})
    den = s.den
    out: Terms = {}
    if s.p == 0:
        for (a, b), co in s.terms:
            if a:
                _acc(out, {(a - 1, b): -co * a})
            _acc(out, {(a, b + 1): co * (den + s.k - a)})
    else:
        for (a, b), co in s.terms:
            if a:
                _acc(out, {(a - 1, b): co * a})
            _acc(out, {(a, b + 1): co * (a - den + 2 - s.k)})
    return CPSection.make(s.k, s.p, 0, den - 1, out)


def field_norm_mul(s: CPSection) -> CPSection:
    """Multiplication by |v|^2 = |z|^2 (1+|z|^2)^{-2}."""
    return CPSection.make(s.k, s.p, s.q, s.den + 2, _shift(dict(s.terms), 1, 1))


def curvature_wedge(s: CPSection) -> CPSection:
    """Wedge by the (1,1)-form dbar(dual field): (s-1)(1+s)^{-3} dz wedge
    dzbar in canonical order; zero except on the (0,0) block."""
    if (s.p, s.q) != (0, 0):
        return CPSection.make(s.k, 1, 1, s.den, {})
    out: Terms = {}
    for (a, b), co in s.terms:
        _acc(out, {(a + 1, b + 1): co, (a, b): -co})
    return CPSection.make(s.k, 1, 1, s.den + 3, out)


def curvature_contract(s: CPSection) -> CPSection:
    """Adjoint of curvature_wedge: multiplication by (|z|^4 - 1) from the
    (1,1) block to the (0,0) block."""
    if (s.p, s.q) != (1, 1):
        return CPSection.make(s.k, 0, 0, s.den, {})
    out: Terms = {}
    for (a, b), co in s.terms:
        _acc(out, {(a + 2, b + 2): co, (a, b): -co})
    return CPSection.make(s.k, 0, 0, s.den, out)


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


@dataclass
class Block:
    pq: PQ
    den: int
    monomials: list[tuple[int, int]]
    charges: list[int]                      # chunk charge keys, ascending
    chunk_slices: dict[int, slice]
    grams: dict[int, tuple[IMatrix, int]]   # integer numerators, denominator
    orthos: dict[int, Orthonormalizer]
    labels: list[str]

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def gram_condition(self) -> float:
        worst = 1.0
        for chi in self.charges:
            nums, den = self.grams[chi]
            ev = np.linalg.eigvalsh(
                float_ratios(nums, [den] * len(nums), [1] * len(nums)))
            worst = max(worst, float(ev[-1] / ev[0]))
        return worst


def _build_block(k: int, cutoff: int, p: int, q: int) -> Block:
    den, amax, bmax = block_params(k, cutoff, p, q)
    monos = [(a, b) for a in range(amax + 1) for b in range(bmax + 1)]
    monos.sort(key=lambda ab: (ab[0] - ab[1] + p - q, ab[0]))
    charges: list[int] = []
    chunk_slices: dict[int, slice] = {}
    start = 0
    for i, (a, b) in enumerate(monos):
        chi = a - b + p - q
        if not charges or chi != charges[-1]:
            if charges:
                chunk_slices[charges[-1]] = slice(start, i)
            charges.append(chi)
            start = i
    if charges:
        chunk_slices[charges[-1]] = slice(start, len(monos))
    big_p = weight_exponent(p, q, den, k)
    grams = {chi: _chunk_gram(monos[chunk_slices[chi]], big_p)
             for chi in charges}
    orthos = {chi: Orthonormalizer(*gram) for chi, gram in grams.items()}
    labels = [f"z^{a}zbar^{b}/(1+s)^{den}:p{p}q{q}" for a, b in monos]
    return Block((p, q), den, monos, charges, chunk_slices, grams, orthos,
                 labels)


def _chunk_gram(chunk: list[tuple[int, int]], big_p: int) -> tuple[IMatrix, int]:
    """Gram matrix of one charge chunk, entry (i, j) the moment
    m(a_i + b_j, P), as integer numerators over one denominator: the moment
    numerators u! (P-u-2)! and (P-1)! divided by their gcd.  Along a chunk
    a and b both rise by one, so the entries form a Hankel matrix, and the
    entries of one antidiagonal share one integer."""
    (a0, b0), (a1, b1) = chunk[0], chunk[-1]
    moments = _moment_numerators(range(a0 + b0, a1 + b1 + 1), big_p)
    top = math.factorial(big_p - 1)
    g = reduce(math.gcd, moments.values(), top)
    moments = {u: x // g for u, x in moments.items()}
    return [[moments[a + d] for _, d in chunk] for a, _ in chunk], top // g


def _exact_op_chunks(k: int, src: Block, tgt: Block,
                     fn: Callable[[CPSection], CPSection],
                     opname: str) -> dict[int, IMatrix]:
    """Chunk-diagonal integer matrices of fn between two blocks; errors if
    an image leaves the target truncation (this is the closure proof)."""
    out: dict[int, IMatrix] = {}
    for chi in src.charges:
        sl = src.chunk_slices[chi]
        src_monos = src.monomials[sl]
        tgt_sl = tgt.chunk_slices.get(chi)
        tgt_monos = tgt.monomials[tgt_sl] if tgt_sl is not None else []
        tgt_pos = {ab: i for i, ab in enumerate(tgt_monos)}
        mat = [[0] * len(src_monos) for _ in tgt_monos]
        for col, (a, b) in enumerate(src_monos):
            img = fn(CPSection.make(k, src.pq[0], src.pq[1], src.den,
                                    {(a, b): 1}))
            if img.is_zero():
                continue
            if img.den != tgt.den:
                raise ModelError(
                    f"{opname}: image denominator {img.den} != block {tgt.den}")
            for ab, co in img.terms:
                if ab not in tgt_pos:
                    raise ModelError(
                        f"{opname}: image monomial {ab} escapes the truncation")
                mat[tgt_pos[ab]][col] = co
        out[chi] = mat
    return out


class Cp1Exact:
    """Exact-arithmetic payload: blocks, chunked operator matrices, and the
    identity checks that only make sense at infinite precision."""

    def __init__(self, k: int, cutoff: int):
        self.k = k
        self.cutoff = cutoff
        self.blocks: dict[PQ, Block] = {pq: _build_block(k, cutoff, *pq)
                                        for pq in _PQS}
        self.dbar_chunks: dict[PQ, dict[int, IMatrix]] = {}
        self.iv_chunks: dict[PQ, dict[int, IMatrix]] = {}
        for (p, q) in ((0, 0), (1, 0)):
            self.dbar_chunks[(p, q)] = _exact_op_chunks(
                k, self.blocks[(p, q)], self.blocks[(p, 1)], dbar, "dbar")
        for (p, q) in ((1, 0), (1, 1)):
            self.iv_chunks[(p, q)] = _exact_op_chunks(
                k, self.blocks[(p, q)], self.blocks[(0, q)], field_contract,
                "field_contract")

    # -- orthonormal float views -------------------------------------------

    def ortho_chunk(self, op_chunks, src_pq: PQ, tgt_pq: PQ,
                    chi: int) -> np.ndarray:
        return self.blocks[tgt_pq].orthos[chi].transform_op(
            op_chunks[chi], self.blocks[src_pq].orthos[chi])

    def charges(self) -> list[int]:
        out = set()
        for block in self.blocks.values():
            out.update(block.charges)
        return sorted(out)

    # -- exact identity checks ---------------------------------------------

    def deformed_square_is_zero(self, T: Fraction) -> bool:
        """(dbar + T iv)^2 = 0 as exact chunk matrices, every degree.

        dbar^2 and iv^2 vanish by degree, so the square is T times the
        degree -1 -> +1 composite dbar iv + iv dbar: zero at T = 0, and for
        T != 0 zero exactly when that T-free composite is."""
        return not T or self._anticommutator_is_zero

    @cached_property
    def _anticommutator_is_zero(self) -> bool:
        # (1,0) -> (0,0) -> (0,1) plus (1,0) -> (1,1) -> (0,1), as the one
        # integer product [dbar_00 | iv_11] [iv_10 ; dbar_10] per charge; a
        # charge of the (1,0) block is a charge of every block
        for chi in self.blocks[(1, 0)].charges:
            left = [r0 + r1 for r0, r1 in zip(self.dbar_chunks[(0, 0)][chi],
                                              self.iv_chunks[(1, 1)][chi])]
            right = self.iv_chunks[(1, 0)][chi] + self.dbar_chunks[(1, 0)][chi]
            if any(sum(map(operator.mul, row, col))
                   for col in zip(*right) for row in left):
                return False
        return True

    def dual_wedge_leakage(self) -> dict[PQ, float]:
        """Operator-norm distance of the wedge-by-dual-field image from the
        truncated target block, per source block; exact moments, float only
        in the final eigenvalue extraction."""
        out: dict[PQ, float] = {}
        for q in (0, 1):
            src, tgt = self.blocks[(0, q)], self.blocks[(1, q)]
            worst = 0.0
            for chi in src.charges:
                ortho = src.orthos[chi]
                w = float_ratios(*_dual_wedge_core(self.k, src, tgt, chi))
                w /= ortho.sqrt_d[:, None]
                w /= ortho.sqrt_d[None, :]
                lam = float(np.linalg.eigvalsh(0.5 * (w + w.T))[-1])
                worst = max(worst, math.sqrt(max(lam, 0.0)))
            out[(0, q)] = worst
        return out


def _moment_numerators(us: range, big_p: int) -> dict[int, int]:
    """u! (P-u-2)! for each u in us: the Beta moments m(u, P) times (P-1)!."""
    if us and (us[0] < 0 or us[-1] > big_p - 2):
        bad = us[0] if us[0] < 0 else us[-1]
        raise ModelError(f"divergent moment: u={bad}, P={big_p}")
    fact = math.factorial
    return {u: fact(u) * fact(big_p - u - 2) for u in us}


def _dual_wedge_core(k: int, src: Block, tgt: Block, chi: int
                     ) -> tuple[list[list[int]], list[int], list[int]]:
    """Exact L_s^{-1} R L_s^{-T} for one charge chunk of the (0,q) block:
    R is the Gram matrix of the chunk's images under the dual-field wedge
    minus its part in the span of the (1,q) target chunk.  Entry (i, j) is
    nums[i][j] / (rden[i] cden[j]).

    Source monomial z^a zbar^b / (1+s)^den has the image z^a zbar^(b+1) /
    (1+s)^(den+2), and the target block has the same den.  With P the
    weight exponent of the images, the image Gram matrix is the Hankel
    matrix m(a_i + b_j + 1, P), and a target monomial z^c zbar^d pairs with
    image i in m(c + b_i + 1, P - 2): its extra (1+s)^2 is absorbed into
    the weight.  With G_t = L_t D_t L_t^T and Y = L_t^{-1} B,
    R = G_y - Y^T D_t^{-1} Y.
    """
    q = src.pq[1]
    big_p = weight_exponent(1, q, src.den + 2, k)
    sl = src.chunk_slices[chi]
    bs = [b for _, b in src.monomials[sl]]
    shift = chi + q + 1             # a_i = b_i + chi + q, so a_i + b_j + 1
    hankel = _moment_numerators(range(2 * bs[0] + shift, 2 * bs[-1] + shift + 1),
                                big_p)
    rnums = [[hankel[bi + bj + shift] for bj in bs] for bi in bs]
    rden = math.factorial(big_p - 1)
    tgt_sl = tgt.chunk_slices.get(chi)
    if tgt_sl is not None:
        cs = [c for c, _ in tgt.monomials[tgt_sl]]
        pair = _moment_numerators(range(cs[0] + bs[0] + 1, cs[-1] + bs[-1] + 2),
                                  big_p - 2)
        bden = math.factorial(big_p - 3)
        # B over bden, so B^T G_t^{-1} B is over sden
        snums, sden = tgt.orthos[chi].inverse_form(
            [[pair[c + b + 1] for c in cs] for b in bs])
        sden *= bden * bden
        common = math.lcm(rden, sden)
        gscale, sscale = common // rden, common // sden
        rnums = [[gscale * g - sscale * s for g, s in zip(grow, srow)]
                 for grow, srow in zip(rnums, snums)]
        rden = common
    return src.orthos[chi].congruence(rnums, rden)


def _chunk_dim(block: Block, chi: int) -> int:
    sl = block.chunk_slices.get(chi)
    return 0 if sl is None else sl.stop - sl.start


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

def assemble_cp1(spec: ModelSpec) -> AssembledModel:
    spec.validate()
    exact = Cp1Exact(spec.k, spec.cutoff)
    cells = []
    for chi in exact.charges():
        dims = {pq: _chunk_dim(exact.blocks[pq], chi) for pq in _PQS}
        dims = {pq: d for pq, d in dims.items() if d > 0}
        if not dims:
            continue
        labels = {}
        for pq in dims:
            blk = exact.blocks[pq]
            sl = blk.chunk_slices[chi]
            labels[pq] = blk.labels[sl]
        # each charge is a stack of one member
        dbar_blocks = {}
        for pq in ((0, 0), (1, 0)):
            if pq in dims and (pq[0], 1) in dims:
                dbar_blocks[pq] = exact.ortho_chunk(
                    exact.dbar_chunks[pq], pq, (pq[0], 1), chi)[None]
        iv_blocks = {}
        for pq in ((1, 0), (1, 1)):
            if pq in dims and (0, pq[1]) in dims:
                iv_blocks[pq] = exact.ortho_chunk(
                    exact.iv_chunks[pq], pq, (0, pq[1]), chi)[None]
        cells.append(CellStack(name=f"chi{chi}", names=[f"chi{chi}"],
                               dims=dims, labels=labels,
                               dbar=dbar_blocks, iv=iv_blocks))
    leakage = {f"dbar:p{p}q{q}": 0.0 for p, q in ((0, 0), (1, 0))}
    leakage.update({f"iv:p{p}q{q}": 0.0 for p, q in ((1, 0), (1, 1))})
    for pq, val in exact.dual_wedge_leakage().items():
        leakage[f"dual_wedge:p{pq[0]}q{pq[1]}"] = val
    conds = {f"p{p}q{q}": exact.blocks[(p, q)].gram_condition()
             for p, q in _PQS}
    return AssembledModel(spec=spec, n=1, cells=cells, leakage=leakage,
                          gram_conditions=conds, exact=exact)


def cp1_model(k: int, cutoff: int) -> AssembledModel:
    """Assembled projective-line model with twist k and the linear field."""
    spec = ModelSpec(kind="cp1", k=k, cutoff=cutoff, field=FieldSpec("linear"))
    return assemble_cp1(spec)
