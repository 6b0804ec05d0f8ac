"""Projective-line model: exact Grams against numerical quadrature, exact
closure of the truncated complex, kernel counts, and leakage reporting."""

import math
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import equivlab.geometry.cp1 as cp1mod
from equivlab import linalg
from equivlab.deformed import assemble_deformed, complex_property_defect
from equivlab.geometry.base import ModelError
from equivlab.geometry.cp1 import (Cp1Exact, Weights, _build_block, _compose,
                                   _iv_core, _leakage_pencil, beta_moment,
                                   block_params, cp1_model, curvature_contract,
                                   curvature_wedge, dbar, dbar_star,
                                   dual_field_wedge, field_contract,
                                   field_norm_mul, weight_exponent)
from equivlab.linalg import (RomanovskiTable, fmatmul, invert_unit_lower, ldlt,
                             to_ints)
import transform_oracle
from leakage_oracle import chunk_monomials, moment_numerators, moment_pencil
from transform_oracle import FactorTable, exact_core, transform_op
from test_deformed import doubled
from test_linalg import dense, factors


# --- exact reference constructions ------------------------------------------
# Per-section pairings and exact ranks that the assembly no longer needs;
# they are the independent side of the checks below.

def transpose(m):
    return [list(row) for row in zip(*m)]


class Section(NamedTuple):
    """A section of the (p,q) block with twist k: the sum of coefficient
    times z^a zbar^b / (1+|z|^2)^den over terms, a sorted tuple of
    ((a, b), coefficient) with no zero coefficient."""

    k: int
    p: int
    q: int
    den: int
    terms: tuple


def section(k, p, q, den, terms: dict) -> Section:
    return Section(k, p, q, den,
                   tuple(sorted((ab, co) for ab, co in terms.items() if co)))


def embed(s: Section, new_den: int) -> Section:
    """The same section over a larger denominator exponent: multiply the
    numerator by (1 + z zbar)^(new_den - den)."""
    delta = new_den - s.den
    assert delta >= 0
    out: dict = {}
    for (a, b), co in s.terms:
        for i in range(delta + 1):
            out[(a + i, b + i)] = (out.get((a + i, b + i), 0)
                                   + co * math.comb(delta, i))
    return section(s.k, s.p, s.q, new_den, out)


def apply_rule(rule, s: Section) -> Section:
    """The image of a section under a monomial rule of `geometry.cp1`, which
    must not vanish by degree on its block."""
    out: dict = {}
    target = None
    for (a, b), co in s.terms:
        image = rule(s.k, s.p, s.q, s.den, a, b)
        assert image is not None
        target = image[:2]
        for (da, db), x in image[2]:
            out[(a + da, b + db)] = out.get((a + da, b + db), 0) + co * x
    (p, q), den = target
    return section(s.k, p, q, den, out)


def monomials(block):
    """The block's basis monomials, chunk by chunk in ascending charge."""
    return [ab for chunk in block.chunks.values()
            for ab in chunk_monomials(chunk)]


def basis_section(block, k, i):
    """Section of block basis monomial i, coefficient 1."""
    return monomial_section(block, k, monomials(block)[i])


def monomial_section(block, k, ab):
    return section(k, block.pq[0], block.pq[1], block.den, {ab: Fraction(1)})


def gram_fractions(block, k, chi):
    """The Gram matrix of one charge chunk as Fractions, entry (i, j) the
    Beta moment m(a_i + b_j, P) of the chunk's monomials."""
    big_p = weight_exponent(*block.pq, block.den, k)
    chunk = chunk_monomials(block.chunks[chi])
    return [[beta_moment(a + d, big_p) for _, d in chunk] for a, _ in chunk]


def l2_pair(x: Section, y: Section) -> Fraction:
    """Exact L2 pairing of two real-coefficient sections of one block.

    Embedding x and y at the common denominator exponent and pairing term
    by term gives, for terms (a, b) of x and (c, d) of y of equal charge,
    the Beta moments of u = a + d + t weighted by binom(dx + dy, t)
    (Vandermonde), dx and dy the embedding shifts.  The sum runs over the
    integer moment numerators u! (P-u-2)! and integer coefficients, with one
    division by (P-1)! and the coefficient denominators at the end."""
    if (x.k, x.p, x.q) != (y.k, y.p, y.q):
        raise ModelError("pairing of sections from different blocks")
    if not x.terms or not y.terms:
        return Fraction(0)
    den = max(x.den, y.den)
    shift = 2 * den - x.den - y.den
    big_p = weight_exponent(x.p, x.q, den, x.k)
    xnums, xden = to_ints([co for _, co in x.terms])
    ynums, yden = to_ints([co for _, co in y.terms])
    by_charge: dict[int, list[tuple[int, int]]] = {}
    for ((c, d), _), ny in zip(y.terms, ynums):
        by_charge.setdefault(c - d, []).append((d, ny))
    coeffs: dict[int, int] = {}         # a + d -> integer coefficient
    for ((a, b), _), nx in zip(x.terms, xnums):
        for d, ny in by_charge.get(a - b, ()):
            coeffs[a + d] = coeffs.get(a + d, 0) + nx * ny
    if not coeffs:
        return Fraction(0)
    top = max(coeffs) + shift
    if top > big_p - 2:
        raise ModelError(f"divergent moment: u={top}, P={big_p}")
    fact = math.factorial
    total = sum(co * math.comb(shift, t) * fact(u + t) * fact(big_p - u - t - 2)
                for u, co in coeffs.items() for t in range(shift + 1))
    return Fraction(total, xden * yden * fact(big_p - 1))


def exact_rank(m) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    if not m or not m[0]:
        return 0
    work = [row[:] for row in m]
    rows, cols = len(work), len(work[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, rows):
            if work[r][col]:
                f = work[r][col] / pv
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def t0_kernel_counts(exact: Cp1Exact) -> dict:
    """Harmonic-space dimensions of the undeformed complex per (p,q), from
    exact ranks of the dbar chunks: the cross-check of the closed-form
    cohomology tables."""
    out = {}
    for p in (0, 1):
        tgt = exact.blocks[(p, 1)]
        rank = sum(exact_rank(dense(m, tgt.chunks[chi].n if chi in tgt.chunks
                                    else 0))
                   for chi, m in exact.dbar_chunks[(p, 0)].items())
        out[(p, 0)] = exact.blocks[(p, 0)].dim - rank
        out[(p, 1)] = exact.blocks[(p, 1)].dim - rank
    return out


def quad_gram_entry(a, b, c, d, big_p):
    """(1/pi) int z^{a+d} zbar^{b+c} (1+|z|^2)^{-P} dx dy by 2d quadrature,
    fully independent of the Beta-moment formula."""

    def real_part(r, th):
        phase = math.cos(th * (a + d - b - c))
        return (r ** (a + b + c + d) * phase * (1 + r * r) ** (-big_p)) * r

    val, err = integrate.dblquad(real_part, 0.0, 2 * math.pi,
                                 0.0, 60.0, epsabs=1e-12, epsrel=1e-11)
    return val / math.pi


@pytest.mark.parametrize("entry", [
    (0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0), (1, 0, 1, 0), (2, 0, 0, 0)])
def test_gram_moments_match_quadrature(entry):
    a, b, c, d = entry
    big_p = 8
    numeric = quad_gram_entry(a, b, c, d, big_p)
    if a - b == c - d:
        exact = float(beta_moment(a + d, big_p))
    else:
        exact = 0.0
    assert abs(numeric - exact) < 1e-8


@pytest.mark.parametrize("k,cutoff", [(0, 8), (3, 11), (2, 14)])
def test_chunk_grams_are_reduced_integer_moments(k, cutoff):
    # each chunk Gram is the Beta-moment Hankel matrix m(a_i + b_j, P), so
    # its first row and last column, checked here against the L2 pairings
    # of basis sections, fix it; its factors are integers over their least
    # common denominators; the operator chunks have integer diagonals
    ex = Cp1Exact(k, cutoff)
    for block in ex.blocks.values():
        for chi, chunk in block.chunks.items():
            gram = gram_fractions(block, k, chi)
            lcols, inv_rows, _ = factors(chunk.table, chunk.n)
            sections = [monomial_section(block, k, ab)
                        for ab in chunk_monomials(chunk)]
            assert gram[0] == [l2_pair(sections[0], s) for s in sections]
            assert [row[-1] for row in gram] == [
                l2_pair(s, sections[-1]) for s in sections]
            for nums, den in (*lcols, *inv_rows):
                assert all(type(x) is int for x in (den, *nums))
                assert den > 0 and math.gcd(den, *nums) == 1
    for chunks in (*ex.dbar_chunks.values(), *ex.iv_chunks.values()):
        assert all(type(x) is int for m in chunks.values()
                   for _, row in m for x in row)


@pytest.mark.parametrize("k,cutoff", [(0, 8), (3, 11), (2, 14), (1, 20)])
def test_chunk_factors_match_elimination(k, cutoff):
    # the closed-form L, L^-1 and D of every chunk are what Fraction
    # elimination and substitution give on the chunk's Beta-moment Gram
    ex = Cp1Exact(k, cutoff)
    for block in ex.blocks.values():
        for chi, chunk in block.chunks.items():
            lcols, inv_rows, pivots = factors(chunk.table, chunk.n)
            L, D = ldlt(gram_fractions(block, k, chi))
            n = chunk.n
            assert pivots == D
            assert [[Fraction(x, den) for x in nums]
                    for nums, den in lcols] == [
                [L[r][c] for r in range(c, n)] for c in range(n)]
            assert [[Fraction(x, den) for x in nums]
                    for nums, den in inv_rows] == [
                row[:r + 1] for r, row in enumerate(invert_unit_lower(L))]


def sorted_chunks(k, cutoff, p, q):
    """The charge chunks as the assembly once cut them: every monomial of
    the block sorted by (charge, a), then grouped by charge."""
    _, amax, bmax = block_params(k, cutoff, p, q)

    def charge(ab):
        return ab[0] - ab[1] + p - q

    monos = sorted(((a, b) for a in range(amax + 1) for b in range(bmax + 1)),
                   key=lambda ab: (charge(ab), ab[0]))
    return {chi: list(chunk) for chi, chunk in groupby(monos, key=charge)}


@pytest.mark.parametrize("k,cutoff", [(0, 4), (3, 7), (0, 8), (3, 11),
                                      (2, 14), (1, 20)])
def test_closed_form_chunks_match_sorted_monomials(k, cutoff):
    # (a0, b0, n) gives the same charges in the same order, the same
    # monomials in the same order, and the factors of the same (alpha, P, n)
    # as sorting and slicing the block's monomials
    ex = Cp1Exact(k, cutoff)
    for (p, q), block in ex.blocks.items():
        want = sorted_chunks(k, cutoff, p, q)
        assert list(block.chunks) == list(want)
        big_p = weight_exponent(p, q, block.den, k)
        for chi, monos in want.items():
            chunk = block.chunks[chi]
            assert chunk_monomials(chunk) == monos
            alpha = sum(monos[0])
            assert factors(chunk.table, chunk.n) == factors(
                FactorTable(alpha, big_p), len(monos))


def test_normalized_volume():
    # <1, 1> = 1 for the trivial twist at cutoff 0 denominators
    assert beta_moment(0, weight_exponent(0, 0, 0, 0)) == 1


def test_block_bounds():
    # degree bounds follow the smooth-extension counting across the chart
    assert block_params(0, 8, 0, 0) == (8, 8, 8)
    assert block_params(2, 8, 1, 0) == (8, 8, 8)
    assert block_params(0, 8, 0, 1) == (9, 9, 7)
    assert block_params(1, 8, 1, 1) == (9, 8, 7)


def test_block_dimensions():
    model = cp1_model(0, 8)
    dims = {pq: sum(c.size * c.dims.get(pq, 0) for c in model.cells)
            for pq in ((0, 0), (1, 0), (0, 1), (1, 1))}
    assert dims == {(0, 0): 81, (1, 0): 63, (0, 1): 80, (1, 1): 64}


def test_cutoff_precondition():
    with pytest.raises(ModelError):
        cp1_model(0, 3)
    with pytest.raises(ModelError):
        cp1_model(4, 5)


def test_holomorphic_section_count_borel_weil():
    # twist 2: the undeformed scalar kernel is spanned by 1, z, z^2 at any
    # admissible cutoff
    for cutoff in (4, 6, 8):
        ex = cp1_model(2, cutoff).exact
        assert t0_kernel_counts(ex)[(0, 0)] == 3


def test_field_contraction_exact_and_degree():
    # contraction by z d/dz raises the monomial degree by one and stays in
    # the truncation
    assert field_contract(0, 1, 0, 6, 2, 1) == ((0, 0), 6, [((1, 0), 1)])
    assert (apply_rule(field_contract, section(0, 1, 0, 6, {(2, 1): 1}))
            == section(0, 0, 0, 6, {(3, 1): 1}))
    assert field_contract(0, 0, 1, 6, 2, 1) is None


@pytest.mark.parametrize("da,db,dden,msg", [
    # against the true image (a + 1, b): each moves one of b' - b0 and the
    # row a' - a0, or both by one
    (1, 1, 0, "escapes"),               # off the target chunk's diagonal
    (2, 1, 0, "escapes"),               # past the target chunk's top
    (0, -1, 0, "escapes"),              # below the target chunk's bottom
    (1, 0, 1, "image denominator"),
])
def test_escaping_image_is_a_model_error(monkeypatch, da, db, dden, msg):
    # the closure proof: an image outside the target truncation is an error,
    # never an entry written at a wrapped or clipped index
    def moved(k, p, q, den, a, b):
        return None if p == 0 else ((0, q), den + dden, [((da, db), 1)])

    monkeypatch.setattr(cp1mod, "field_contract", moved)
    with pytest.raises(ModelError, match=msg):
        Cp1Exact(1, 6)


@pytest.mark.parametrize("col,offset,image", [
    (0, (0, -1), "(2, -1)"),            # one row below the target chunk
    (3, (3, 2), "(8, 5)"),              # one row past its last
], ids=["first-column", "last-column"])
def test_closure_proof_tests_first_and_last_columns(monkeypatch, col,
                                                    offset, image):
    # the rows outside a target chunk are a prefix and a suffix of the
    # source chunk's columns, so only those columns are tested for a
    # nonzero coefficient: one extra term, nonzero only at the first or
    # only at the last monomial of a chunk and landing on the target
    # chunk's diagonal just outside it, is caught.  At k = 1, N = 6 the
    # (1,0) chunk of charge 3 is (2 + i, i), i < 4, and its (0,0) target
    # (3 + i, i), i < 5
    k, cutoff = 1, 6
    chunk = Cp1Exact(k, cutoff).blocks[(1, 0)].chunks[3]
    assert (chunk.a0, chunk.b0, chunk.n) == (2, 0, 4)
    mono = (chunk.a0 + col, chunk.b0 + col)

    def escaping(k, p, q, den, a, b):
        image = field_contract(k, p, q, den, a, b)
        if (p, q) != (1, 0):
            return image
        at = np.array([int((x, y) == mono) for x, y in zip(a, b)],
                      dtype=object)
        return (*image[:2], image[2] + [(offset, at)])

    monkeypatch.setattr(cp1mod, "field_contract", escaping)
    with pytest.raises(ModelError, match=re.escape(f"{image} escapes")):
        Cp1Exact(k, cutoff)


def test_field_vanishes_at_origin():
    # the image of any section under the contraction has no constant term
    s = section(0, 1, 0, 6, {(0, 0): Fraction(1), (1, 1): Fraction(2)})
    out = apply_rule(field_contract, s)
    assert all(a >= 1 for (a, _), _ in out.terms)


def test_deformed_square_exact_zero():
    for k, cutoff in ((0, 6), (1, 6), (2, 8)):
        ex = cp1_model(k, cutoff).exact
        for T in (Fraction(0), Fraction(1), Fraction(4), Fraction(7, 3)):
            assert ex.deformed_square_is_zero(T)


def test_deformed_square_detects_perturbed_contraction():
    # one changed coefficient of an iv chunk diagonal that dbar then sees
    # breaks d_T^2 = 0 for every T != 0; T = 0 is dbar^2 = 0 and stays true
    ex = cp1_model(1, 6).exact
    for chi, ((s, c),) in ex.iv_chunks[(1, 0)].items():
        seen = [j for j in range(len(c))
                if any(0 <= j + s < len(c2) and c2[j + s]
                       for _, c2 in ex.dbar_chunks[(0, 0)][chi])]
        if seen:
            c[seen[0]] += 1
            break
    else:
        pytest.fail("no iv chunk coefficient reaches dbar")
    for T in (Fraction(1), Fraction(4), Fraction(7, 3), Fraction(-1, 5)):
        assert not ex.deformed_square_is_zero(T)
    assert ex.deformed_square_is_zero(Fraction(0))


def rule_chunk(k, src, tgt, rule, chi):
    """A chunk's matrix from one scalar rule call per source monomial, each
    image placed by looking its monomial up among the target chunk's."""
    rows = ({ab: i for i, ab in enumerate(chunk_monomials(tgt.chunks[chi]))}
            if chi in tgt.chunks else {})
    m = [[0] * src.chunks[chi].n for _ in rows]
    for j, (a, b) in enumerate(chunk_monomials(src.chunks[chi])):
        for (da, db), x in rule(k, *src.pq, src.den, a, b)[2]:
            if x:
                m[rows[(a + da, b + db)]][j] += x
    return m


def int_product(a, b):
    """The dense integer product of two matrices given by their rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("k,cutoff", [(0, 6), (1, 6), (2, 8), (3, 11),
                                      (1, 20)])
def test_chunk_diagonals_and_banded_composition(k, cutoff):
    # each dbar chunk is at most 2 diagonals and each iv chunk 1, with the
    # matrix that placing scalar rule images by monomial gives; composed
    # diagonal by diagonal, each path of the d_T^2 certificate is the dense
    # integer product of those matrices on every charge, and the two paths
    # cancel
    ex = Cp1Exact(k, cutoff)
    blocks = ex.blocks
    ops = [(chunks, pq, (pq[0], 1), dbar, 2)
           for pq, chunks in ex.dbar_chunks.items()]
    ops += [(chunks, pq, (0, pq[1]), field_contract, 1)
            for pq, chunks in ex.iv_chunks.items()]
    for chunks, pq, tpq, rule, width in ops:
        src, tgt = blocks[pq], blocks[tpq]
        for chi, diags in chunks.items():
            assert len(diags) <= width
            n_t = tgt.chunks[chi].n if chi in tgt.chunks else 0
            assert dense(diags, n_t) == rule_chunk(k, src, tgt, rule, chi)
    paths = (((0, 0), ex.dbar_chunks[(0, 0)], ex.iv_chunks[(1, 0)]),
             ((1, 1), ex.iv_chunks[(1, 1)], ex.dbar_chunks[(1, 0)]))
    nonzero = False
    for chi in blocks[(1, 0)].chunks:
        n_t = blocks[(0, 1)].chunks[chi].n
        banded, dense_sum = Counter(), Counter()
        for mid, left, right in paths:
            prod = int_product(dense(left[chi], n_t),
                               dense(right[chi], blocks[mid].chunks[chi].n))
            want = {(i, j): x for i, row in enumerate(prod)
                    for j, x in enumerate(row) if x}
            got = {(j + shift, j): x for shift, c in
                   _compose(left[chi], right[chi], {}).items()
                   for j, x in enumerate(c) if x}
            assert got == want
            nonzero = nonzero or bool(want)
            banded.update(got)
            dense_sum.update(want)
        assert not any(banded.values()) and not any(dense_sum.values())
    assert nonzero
    assert ex._anticommutator_is_zero


def test_assembled_complex_property_float():
    model = cp1_model(1, 8)
    for T in (0.0, 1.0, 4.0):
        blocks = assemble_deformed(model, T)
        assert complex_property_defect(blocks) <= 1.0
        for (si, r), a in blocks.items():
            b = blocks.get((si, r + 1))
            if b is not None and a.size and b.size:
                assert np.linalg.norm(b @ a, 2, axis=(-2, -1)).max() < 1e-12


def test_dbar_star_is_l2_adjoint():
    # <dbar u, w> = <u, dbar* w> for random pairs, checked with exact
    # pairings on both sides
    k, cutoff = 1, 5
    ex = Cp1Exact(k, cutoff)
    src = ex.blocks[(0, 0)]
    tgt = ex.blocks[(0, 1)]
    for i in (0, 3, 7):
        for j in (0, 4, 11):
            u = basis_section(src, k, i % src.dim)
            w = basis_section(tgt, k, j % tgt.dim)
            lhs = l2_pair(apply_rule(dbar, u), w)
            rhs = l2_pair(u, apply_rule(dbar_star, w))
            assert lhs == rhs
    src = ex.blocks[(1, 0)]
    tgt = ex.blocks[(1, 1)]
    for i in (0, 2, 5):
        for j in (1, 3, 8):
            u = basis_section(src, k, i % src.dim)
            w = basis_section(tgt, k, j % tgt.dim)
            assert (l2_pair(apply_rule(dbar, u), w)
                    == l2_pair(u, apply_rule(dbar_star, w)))


def test_dual_wedge_is_l2_adjoint_of_contraction():
    k, cutoff = 0, 5
    ex = Cp1Exact(k, cutoff)
    for q in (0, 1):
        src = ex.blocks[(1, q)]
        tgt = ex.blocks[(0, q)]
        for i in (0, 3, 6):
            for j in (0, 5, 9):
                u = basis_section(src, k, i % src.dim)
                w = basis_section(tgt, k, j % tgt.dim)
                lhs = l2_pair(apply_rule(field_contract, u), w)
                rhs = l2_pair(u, apply_rule(dual_field_wedge, w))
                assert lhs == rhs


def test_curvature_and_field_norm_rules_are_l2_adjoint():
    # the curvature contraction, written over (1+s)^(den-1), is the L2
    # adjoint of the curvature wedge, and |v|^2 is self-adjoint
    k, cutoff = 1, 5
    ex = Cp1Exact(k, cutoff)
    src, tgt = ex.blocks[(0, 0)], ex.blocks[(1, 1)]
    for i in (0, 4, 9, 17):
        for j in (0, 3, 8, 13):
            u = basis_section(src, k, i % src.dim)
            w = basis_section(tgt, k, j % tgt.dim)
            assert (l2_pair(apply_rule(curvature_wedge, u), w)
                    == l2_pair(u, apply_rule(curvature_contract, w)))
    for block in ex.blocks.values():
        for i, j in ((0, 0), (2, 7), (5, 11)):
            u = basis_section(block, k, i % block.dim)
            w = basis_section(block, k, j % block.dim)
            assert (l2_pair(apply_rule(field_norm_mul, u), w)
                    == l2_pair(u, apply_rule(field_norm_mul, w)))


def test_adjoint_consistency_of_assembled_blocks():
    # the assembled contraction chunk m (coefficients, (1,q) -> (0,q)) is
    # the Gram-adjoint of the dual-field wedge: m^T G_tgt = <u_i, W y_j>
    for k in (0, 2):
        ex = cp1_model(k, 6).exact
        for q in (0, 1):
            src, tgt = ex.blocks[(1, q)], ex.blocks[(0, q)]
            for chi, diags in ex.iv_chunks[(1, q)].items():
                if chi not in tgt.chunks:
                    continue
                m = dense(diags, tgt.chunks[chi].n)
                if not m or not m[0]:
                    continue
                pairs = [[l2_pair(monomial_section(src, k, u),
                                  apply_rule(dual_field_wedge,
                                             monomial_section(tgt, k, w)))
                          for w in chunk_monomials(tgt.chunks[chi])]
                         for u in chunk_monomials(src.chunks[chi])]
                assert fmatmul(transpose(m), gram_fractions(tgt, k, chi)) == pairs


# --- the curvature-identity certificate -------------------------------------

RULES = (dbar, dbar_star, field_contract, dual_field_wedge, field_norm_mul,
         curvature_wedge, curvature_contract)


def scalar_brackets(ex: Cp1Exact) -> tuple[int, int, int]:
    """Per-monomial reference for `Cp1Exact.bochner_brackets`: each basis
    monomial e on its own, the images summed per (p,q), den and absolute
    monomial, one scalar rule call per monomial and rule."""
    def apply(rules, family, out=None, scale=1):
        out = {} if out is None else out
        for (pq, den), terms in family.items():
            for (a, b), co in terms.items():
                for rule in rules:
                    image = rule(ex.k, *pq, den, a, b)
                    if image is not None:
                        acc = out.setdefault(image[:2], {})
                        for (da, db), x in image[2]:
                            ab = (a + da, b + db)
                            acc[ab] = acc.get(ab, 0) + scale * co * x
        return out

    def largest(family):
        return max((abs(co) for terms in family.values()
                    for co in terms.values()), default=0)

    # read at call time, so a monkeypatched rule is seen
    d_ops = (cp1mod.dbar, cp1mod.dbar_star)
    v_ops = (cp1mod.field_contract, cp1mod.dual_field_wedge)
    theta_ops = (cp1mod.curvature_wedge, cp1mod.curvature_contract)
    curvature = clifford = theta = 0
    for pq, block in ex.blocks.items():
        for ab in monomials(block):
            e = {(pq, block.den): {ab: 1}}
            ve = apply(v_ops, e)
            bracket = apply(theta_ops, e, scale=-1)
            theta = max(theta, largest(bracket))
            apply(d_ops, ve, bracket)
            apply(v_ops, apply(d_ops, e), bracket)
            curvature = max(curvature, largest(bracket))
            bracket = apply((cp1mod.field_norm_mul,), e, scale=-1)
            apply(v_ops, ve, bracket)
            clifford = max(clifford, largest(bracket))
    return curvature, clifford, theta


@pytest.mark.parametrize("fault", [None, "curvature_contract",
                                   "field_norm_mul"])
@pytest.mark.parametrize("k,cutoff", [(0, 4), (1, 6), (3, 7), (2, 12)])
def test_bochner_brackets_match_per_monomial_oracle(monkeypatch, k, cutoff,
                                                    fault):
    # the per-block evaluation gives the per-monomial integers, also when a
    # rule is wrong and the brackets are not the correct (0, 0, 1)
    if fault:
        monkeypatch.setattr(cp1mod, fault, doubled(getattr(cp1mod, fault)))
    ex = Cp1Exact(k, cutoff)
    assert ex.bochner_brackets == scalar_brackets(ex)
    assert (ex.bochner_brackets == (0, 0, 1)) == (fault is None)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_on_exponent_arrays_matches_scalar_calls(rule):
    # one call on a block's exponent arrays gives, at entry i, the scalar
    # call on monomial i: same target, den and offsets, Python int
    # coefficients
    k = 2
    for pq, block in Cp1Exact(k, 7).blocks.items():
        a, b = block.exponents
        image = rule(k, *pq, block.den, a, b)
        scalars = [rule(k, *pq, block.den, *ab) for ab in monomials(block)]
        assert [(int(x), int(y)) for x, y in zip(a, b)] == monomials(block)
        if image is None:
            assert scalars == [None] * len(scalars)
            continue
        tpq, den, terms = image
        for i, scalar in enumerate(scalars):
            got = [(off, np.full(len(a), co, dtype=object)[i])
                   for off, co in terms]
            assert scalar == (tpq, den, got)
            assert all(type(co) is int for _, co in got)


@pytest.mark.parametrize("k,cutoff", [(0, 4), (1, 6), (3, 7), (2, 14),
                                      (1, 20)])
def test_stacked_blocks_equal_per_chunk_path(k, cutoff):
    # every float block of the assembled model, found by its member's name,
    # is bit for bit (sign bits included) the block of the per-chunk path:
    # a fresh table of its own on each side of each chunk.  Each charge is one member, the members of a stack share its
    # layout, and no two stacks share one
    model = cp1_model(k, cutoff)
    ex = model.exact
    where = {name: (stack, i) for stack in model.cells
             for i, name in enumerate(stack.names)}
    charges = sorted({chi for b in ex.blocks.values() for chi in b.chunks})
    assert sorted(where) == sorted(f"chi{chi}" for chi in charges)
    layouts = [stack.dims for stack in model.cells]
    assert all(a != b for i, a in enumerate(layouts) for b in layouts[:i])
    assert len(layouts) < len(charges)

    def fresh(pq, chi):
        block = ex.blocks[pq]
        chunk = block.chunks[chi]
        alpha = abs(chunk.a0 - chunk.b0)
        big_p = weight_exponent(*pq, block.den, k)
        return FactorTable(alpha, big_p), chunk.n

    paths = [(ex.dbar_chunks, "dbar", lambda p, q: (p, 1)),
             (ex.iv_chunks, "iv", lambda p, q: (0, q))]
    for op_chunks, kind, target in paths:
        for src, chunks in op_chunks.items():
            tgt = target(*src)
            for chi, diagonals in chunks.items():
                stack, i = where[f"chi{chi}"]
                assert stack.dims == {pq: b.chunks[chi].n
                                      for pq, b in ex.blocks.items()
                                      if chi in b.chunks}
                if chi not in ex.blocks[tgt].chunks:
                    assert src not in getattr(stack, kind)
                    continue
                got = getattr(stack, kind)[src][i]
                want = transform_op(diagonals, *fresh(tgt, chi),
                                    *fresh(src, chi))
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("k", range(6))
def test_stacked_blocks_equal_own_size_closed_forms(monkeypatch, k):
    # one contraction block per source charge e = a - b, shared by the
    # (1,0) -> (0,0) chunk of charge e + 1 and the (1,1) -> (0,1) chunk of
    # charge e and built once at the larger size of each side: every
    # stacked block, dbar's too, is the closed form built at its own
    # chunk's size, bit for bit and in sign bits (N <= 24), and a chunk's
    # float view is read-only
    built = Counter()
    iv_block = cp1mod._iv_block

    def counting(s, source, target, n_s, n_t):
        built[source.alpha, source.big_p, target.alpha, target.big_p] += 1
        return iv_block(s, source, target, n_s, n_t)

    monkeypatch.setattr(cp1mod, "_iv_block", counting)
    for cutoff in range(max(k + 2, 4), 25):
        built.clear()
        model = cp1_model(k, cutoff)
        ex = model.exact
        shared = {chi - 1 + q for q in (0, 1) for chi in ex.iv_chunks[(1, q)]
                  if chi in ex.blocks[(0, q)].chunks}
        assert sorted(built.values()) == [1] * len(shared)
        for stack in model.cells:
            for i, chi in enumerate(int(name[3:]) for name in stack.names):
                for kind, ops in (("dbar", stack.dbar), ("iv", stack.iv)):
                    for src_pq, got in ops.items():
                        tgt_pq = (src_pq[0], 1) if kind == "dbar" else (
                            0, src_pq[1])
                        s = ex.blocks[src_pq].chunks[chi]
                        t = ex.blocks[tgt_pq].chunks[chi]
                        if kind == "dbar":
                            want = cp1mod._dbar_block(
                                ex.dbar_chunks[src_pq][chi], t, s)
                        else:
                            (shift, _), = ex.iv_chunks[src_pq][chi]
                            want = iv_block(shift, s.table, t.table, s.n, t.n)
                            view = ex.ortho_chunk(src_pq, tgt_pq, chi)
                            assert not view.flags.writeable
                        assert same_bits(got[i], want)


@pytest.mark.parametrize("k,cutoff", [(0, 4), (3, 7), (2, 14), (1, 20)])
def test_each_romanovski_row_is_computed_once(monkeypatch, k, cutoff):
    # one pivot table per weight: assembling a model (its chunks, float
    # blocks, Gram conditions and leakage pencils) computes each pivot of
    # each weight once, and no row of L^-1 (the float blocks are closed
    # forms that read only pivots).  Only D_0 is a ratio of factorials,
    # one call per weight; the table grows the rest by the ratio
    # recurrence
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def counting(*args):
            calls[name, args] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counting)

    counted(linalg, "romanovski_pivot")
    counted(transform_oracle, "romanovski_row")
    model = cp1_model(k, cutoff)
    assert calls and set(calls.values()) == {1}
    assert {name for name, _ in calls} == {"romanovski_pivot"}
    tables = {id(chunk.table): chunk.table
              for block in model.exact.blocks.values()
              for chunk in block.chunks.values()}
    weights = {(table.alpha, table.big_p) for table in tables.values()}
    assert len(weights) == len(tables)
    assert {args for _, args in calls} == {(*w, 0) for w in weights}
    assert not any(hasattr(table, "rows") for table in tables.values())
    if (k, cutoff) == (2, 14):
        assert len(calls) <= 299


def test_embed_preserves_pairings():
    s = section(0, 0, 0, 4, {(1, 1): Fraction(2), (0, 0): Fraction(-1)})
    t = section(0, 0, 0, 4, {(1, 1): Fraction(1)})
    assert l2_pair(embed(s, 6), t) == l2_pair(s, t)


def ref_l2_pair(x, y):
    """Per-term Fraction pairing: embed both sections at the common
    denominator exponent and sum coefficient products times Beta moments."""
    den = max(x.den, y.den)
    x, y = embed(x, den), embed(y, den)
    big_p = weight_exponent(x.p, x.q, den, x.k)
    return sum((cx * cy * beta_moment(a + d, big_p)
                for (a, b), cx in x.terms for (c, d), cy in y.terms
                if a - b == c - d), Fraction(0))


@st.composite
def section_pairs(draw):
    """Two sections of one block, each inside the truncation of its own
    (possibly different) denominator exponent, mixed-sign coefficients."""
    k = draw(st.integers(0, 3))
    p, q = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    out = []
    for _ in range(2):
        den = draw(st.integers(2, 9))
        _, amax, bmax = block_params(k, den - q, p, q)
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, amax), st.integers(0, bmax)),
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
            max_size=5))
        out.append(section(k, p, q, den, terms))
    return out


@settings(max_examples=150, deadline=None)
@given(section_pairs())
def test_l2_pair_matches_fraction_oracle(pair):
    x, y = pair
    assert l2_pair(x, y) == ref_l2_pair(x, y)
    assert l2_pair(y, x) == ref_l2_pair(y, x)


def test_l2_pair_rejects_divergent_moment():
    # z^9 against itself at den 4: u = 18 > P - 2 = 8
    s = section(0, 0, 0, 4, {(9, 0): Fraction(1)})
    with pytest.raises(ModelError):
        l2_pair(s, s)


def moment_outcome(fn):
    try:
        return fn()
    except ModelError:
        return "divergent"


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 40), st.integers(0, 44))
def test_moment_identity_absorbs_square_weight(u, big_p):
    # int t^u (1+t)^2 (1+t)^-P dt = int t^u (1+t)^-(P-2) dt, and both sides
    # diverge together; the leakage oracle's integer moments are the same
    # numbers
    lhs = moment_outcome(lambda: beta_moment(u, big_p)
                         + 2 * beta_moment(u + 1, big_p)
                         + beta_moment(u + 2, big_p))
    rhs = moment_outcome(lambda: beta_moment(u, big_p - 2))
    assert lhs == rhs
    nums = moment_outcome(lambda: moment_numerators(range(u, u + 1), big_p))
    want = moment_outcome(lambda: beta_moment(u, big_p))
    if want == "divergent":
        assert nums == "divergent"
    else:
        assert Fraction(nums[u], math.factorial(big_p - 1)) == want


def per_section_dual_wedge_core(ex, q, chi):
    """L_s^-1 R L_s^-T from pairings of the wedge images themselves: R is
    gram_y - B^T G_t^-1 B, with G_t^-1 B solved as L^-T D^-1 L^-1 B."""
    k, src, tgt = ex.k, ex.blocks[(0, q)], ex.blocks[(1, q)]
    images = [apply_rule(dual_field_wedge, monomial_section(src, k, ab))
              for ab in chunk_monomials(src.chunks[chi])]
    resid = [[l2_pair(a, b) for b in images] for a in images]
    if chi in tgt.chunks:
        bmat = [[l2_pair(monomial_section(tgt, k, v), y) for y in images]
                for v in chunk_monomials(tgt.chunks[chi])]
        L, D = ldlt(gram_fractions(tgt, k, chi))
        linv = invert_unit_lower(L)
        y = [[x / d for x in row] for row, d in zip(fmatmul(linv, bmat), D)]
        corr = fmatmul(transpose(bmat), fmatmul(transpose(linv), y))
        resid = [[g - c for g, c in zip(rg, rc)]
                 for rg, rc in zip(resid, corr)]
    linv = invert_unit_lower(ldlt(gram_fractions(src, k, chi))[0])
    return fmatmul(fmatmul(linv, resid), transpose(linv))


CHUNK_CASES = [(k, n) for k in range(4) for n in sorted({k + 4, 8})]


def pencil(k, cutoff, q, chi):
    """The closed-form trace and determinant as Fractions."""
    return tuple(Fraction(*x) for x in _leakage_pencil(k, cutoff, q, chi))


@pytest.mark.parametrize("k,cutoff", CHUNK_CASES)
def test_dual_wedge_core_matches_section_pairings(k, cutoff):
    # the Fraction core L^-1 R L^-T has rank <= 2, and scaled by D^-1 (so
    # similar to G_s^-1 R) its trace and second elementary symmetric function
    # are the exact trace and determinant of the 2 x 2 pencil: the closed
    # form's and the moment oracle's
    ex = Cp1Exact(k, cutoff)
    for q in (0, 1):
        src, tgt = ex.blocks[(0, q)], ex.blocks[(1, q)]
        for chi in src.chunks:
            core = per_section_dual_wedge_core(ex, q, chi)
            assert exact_rank(core) <= 2
            _, D = ldlt(gram_fractions(src, k, chi))
            m = [[x / d for x in row] for row, d in zip(core, D)]
            trace = sum(m[i][i] for i in range(len(m)))
            e2 = (trace * trace
                  - sum(x * y for row, col in zip(m, zip(*m))
                        for x, y in zip(row, col))) / 2
            assert pencil(k, cutoff, q, chi) == (trace, e2)
            assert moment_pencil(k, src, tgt, chi) == (trace, e2)


@pytest.mark.parametrize("k,cutoff", CHUNK_CASES + [(0, 24)])
def test_dual_wedge_leakage_within_2_ulp_of_decimal_reference(k, cutoff):
    ex = Cp1Exact(k, cutoff)
    got = ex.dual_wedge_leakage()
    with localcontext() as ctx:
        ctx.prec = 50
        for q in (0, 1):
            ref = Decimal(0)
            for chi in ex.blocks[(0, q)].chunks:
                tr, det = (Decimal(num) / den for num, den in
                           _leakage_pencil(k, cutoff, q, chi))
                ref = max(ref, ((tr + (tr * tr - 4 * det).sqrt()) / 2).sqrt())
            assert abs(Decimal(got[(0, q)]) - ref) <= 2 * Decimal(
                math.ulp(got[(0, q)]))


def test_dual_wedge_leakage_builds_no_factorization(monkeypatch):
    # the pencils are closed forms in (k, N, q, chi): the leakage grows no
    # Romanovski table and reads no pivot
    ex = Cp1Exact(1, 8)
    calls = []
    for name in ("grow", "sqrt_pivots", "pivot_ratio"):
        method = getattr(RomanovskiTable, name)

        def counting(table, n, method=method, name=name):
            calls.append((name, table.alpha, table.big_p, n))
            return method(table, n)

        monkeypatch.setattr(RomanovskiTable, name, counting)
    assert ex.dual_wedge_leakage()
    assert calls == []


LEAKAGE_CASES = [(k, n) for k in range(6) for n in range(1, 17)]


def test_leakage_pencil_matches_moment_oracle():
    # the closed form equals the Hankel-moment pencil as exact Fractions on
    # every chunk of both (0, q) blocks, cutoffs below the model minimum
    # included; the blocks are built alone, since Cp1Exact refuses (0, 1),
    # whose (1, 0) block is empty
    for k, cutoff in LEAKAGE_CASES:
        weights = Weights()
        for q in (0, 1):
            src, tgt = (_build_block(k, cutoff, p, q, weights) for p in (0, 1))
            for chi in src.chunks:
                assert (pencil(k, cutoff, q, chi)
                        == moment_pencil(k, src, tgt, chi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.integers(1, 64), st.integers(0, 1),
       st.floats(0, 1))
def test_leakage_pencil_matches_moment_oracle_sampled(k, cutoff, q, where):
    # one chunk of a (0, q) block anywhere in k <= 20, N <= 64, chi in
    # -N .. N + k, against the moment oracle on that block alone
    weights = Weights()
    src, tgt = (_build_block(k, cutoff, p, q, weights) for p in (0, 1))
    chi = -cutoff + round(where * (2 * cutoff + k))
    assert chi in src.chunks
    assert pencil(k, cutoff, q, chi) == moment_pencil(k, src, tgt, chi)


def test_dual_wedge_leakage_needs_a_positive_cutoff():
    # at N = 0 the closed form's denominator can vanish (P = 3 at k = 1);
    # the model refuses that cutoff
    with pytest.raises(ModelError):
        Cp1Exact(1, 0).dual_wedge_leakage()


@pytest.mark.parametrize("k,cutoff", [(0, -1), (0, 0), (0, 1), (1, 0),
                                      (4, -1)])
def test_cutoff_leaving_a_block_empty_is_a_model_error(k, cutoff):
    # every block needs a monomial: cutoff >= max(1, 2 - k)
    assert min(min(block_params(k, cutoff, *pq)[1:])
               for pq in ((0, 0), (1, 0), (0, 1), (1, 1))) < 0
    with pytest.raises(ModelError, match="empty"):
        Cp1Exact(k, cutoff)


@pytest.mark.parametrize("k,cutoff", [(0, 2), (1, 1)])
def test_smallest_cutoffs_build_and_certify(k, cutoff):
    # at the least cutoff with no empty block every certificate and float
    # block works: the d_T^2 and Bochner certificates hold, the leakage is
    # finite, and every float chunk equals the dense transform
    ex = Cp1Exact(k, cutoff)
    assert ex.deformed_square_is_zero(Fraction(3))
    curvature, clifford, theta = ex.bochner_brackets
    assert (curvature, clifford) == (0, 0) and theta
    leakage = ex.dual_wedge_leakage()
    assert sorted(leakage) == [(0, 0), (0, 1)]
    assert all(0 < x < 1 for x in leakage.values())
    assert all(math.isfinite(b.gram_condition()) for b in ex.blocks.values())
    paths = [(ex.dbar_chunks, lambda p, q: (p, 1)),
             (ex.iv_chunks, lambda p, q: (0, q))]
    for op_chunks, target in paths:
        for src_pq, chunks in op_chunks.items():
            tgt_pq = target(*src_pq)
            for chi, diagonals in chunks.items():
                if chi in ex.blocks[tgt_pq].chunks:
                    tgt = ex.blocks[tgt_pq].chunks[chi]
                    src = ex.blocks[src_pq].chunks[chi]
                    assert np.array_equal(
                        ex.ortho_chunk(src_pq, tgt_pq, chi),
                        transform_op(diagonals, tgt.table, tgt.n,
                                     src.table, src.n))


# --- identities the run path uses -------------------------------------------

@pytest.mark.parametrize("k", range(5))
def test_dbar_chunk_blocks_are_closed_form_bidiagonal(k):
    # every dbar chunk block of the run path, written in closed form, has at
    # most two nonzero diagonals and is transform_op's bit for bit, sign
    # bits included
    for cutoff in sorted({max(k + 2, 4), 7, 12, 23, 40}):
        ex = Cp1Exact(k, cutoff)
        for (p, q), chunks in ex.dbar_chunks.items():
            for chi, diagonals in chunks.items():
                if chi not in ex.blocks[(p, 1)].chunks:
                    continue
                tgt = ex.blocks[(p, 1)].chunks[chi]
                src = ex.blocks[(p, q)].chunks[chi]
                want = transform_op(diagonals, tgt.table, tgt.n,
                                    src.table, src.n)
                got = ex.ortho_chunk((p, q), (p, 1), chi)
                rows, cols = np.nonzero(got)
                assert len(set(rows - cols)) <= 2
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def iv_chunk_pairs(ex):
    """(source, target, chi, source chunk, target chunk, diagonals) of every
    contraction chunk with a nonempty target."""
    for (p, q), chunks in ex.iv_chunks.items():
        for chi, diagonals in chunks.items():
            if chi in ex.blocks[(0, q)].chunks:
                yield ((p, q), (0, q), chi, ex.blocks[(p, q)].chunks[chi],
                       ex.blocks[(0, q)].chunks[chi], diagonals)


@pytest.mark.parametrize("k", range(6))
def test_iv_chunk_blocks_are_closed_form(k):
    # every contraction chunk block of the run path, written as a banded
    # recurrence, is the dense transform's bit for bit, sign bits included
    for cutoff in sorted({max(k + 2, 4), 7, 12, 23, 40}):
        ex = Cp1Exact(k, cutoff)
        for src_pq, tgt_pq, chi, src, tgt, diagonals in iv_chunk_pairs(ex):
            want = transform_op(diagonals, tgt.table, tgt.n, src.table, src.n)
            got = ex.ortho_chunk(src_pq, tgt_pq, chi)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("k,cutoff", [(0, 2), (1, 1), (0, 4), (1, 5), (2, 6),
                                      (3, 7), (0, 12), (2, 14), (5, 20)])
def test_iv_core_is_exact_core(k, cutoff):
    # the recurrence's columns, as Fractions, are the exact core
    # L_t^T M L_s^-T of the dense transform, column by column; a column is
    # over a positive denominator coprime to its numerators
    ex = Cp1Exact(k, cutoff)
    for _, _, _, src, tgt, diagonals in iv_chunk_pairs(ex):
        (s, _), = diagonals
        nums, rden, cden = exact_core(diagonals, tgt.table, tgt.n,
                                      src.table, src.n)
        want = [[Fraction(nums[r][c], rden[r] * cden[c]) for r in range(tgt.n)]
                for c in range(src.n)]
        got = []
        for col, den in _iv_core(s, src.table.alpha, tgt.table.big_p,
                                 src.n, tgt.n):
            assert den > 0 and math.gcd(den, *col) == 1
            got.append([Fraction(x, den) for x in col]
                       + [Fraction(0)] * (tgt.n - len(col)))
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.integers(1, 64), st.integers(0, 1),
       st.floats(0, 1))
def test_iv_block_matches_transform_sampled(k, cutoff, q, where):
    # one contraction chunk anywhere in k <= 20, N <= 64, against the
    # dense transform on that chunk alone
    cutoff = max(cutoff, 2 - k)
    weights = Weights()
    src, tgt = (_build_block(k, cutoff, p, q, weights) for p in (1, 0))
    diagonals = cp1mod._exact_op_chunks(k, src, tgt, field_contract)
    chis = [chi for chi in src.chunks if chi in tgt.chunks]
    chi = chis[round(where * (len(chis) - 1))]
    s, t = src.chunks[chi], tgt.chunks[chi]
    (shift, _), = diagonals[chi]
    got = cp1mod._iv_block(shift, s.table, t.table, s.n, t.n)
    want = transform_op(diagonals[chi], t.table, t.n, s.table, s.n)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("k", range(6))
def test_dual_wedge_pencil_symmetric_under_charge_reflection(k):
    # the charges of each (0, q) block are closed under chi -> k - chi, and
    # the moment pencils of chi and k - chi are equal, as the closed form's
    # dependence on chi through (2 chi - k)^2 alone says
    for cutoff in (2, 3, 4, 5, 8, 13, 28):
        ex = Cp1Exact(k, cutoff)
        for q in (0, 1):
            src, tgt = ex.blocks[(0, q)], ex.blocks[(1, q)]
            for chi in src.chunks:
                assert k - chi in src.chunks
                if chi < k - chi:
                    assert (moment_pencil(k, src, tgt, chi)
                            == moment_pencil(k, src, tgt, k - chi))


@pytest.mark.parametrize("k,cutoff", [(0, 6), (1, 8), (3, 7), (4, 12)])
def test_dual_wedge_leakage_reads_one_pencil_per_charge_pair(monkeypatch, k,
                                                            cutoff):
    # the leakage evaluates the closed form once for each pair
    # {chi, k - chi}, at its chi <= k - chi, and is the maximum over every
    # charge's moment pencil
    ex = Cp1Exact(k, cutoff)
    want = {}
    for q in (0, 1):
        src, tgt = ex.blocks[(0, q)], ex.blocks[(1, q)]
        want[(0, q)] = max(
            math.sqrt((float(tr) + math.sqrt(float(tr * tr - 4 * det))) / 2)
            for tr, det in (moment_pencil(k, src, tgt, chi)
                            for chi in src.chunks))
    calls, pencil = [], cp1mod._leakage_pencil

    def counting(k, cutoff, q, chi):
        calls.append(((0, q), chi))
        return pencil(k, cutoff, q, chi)

    monkeypatch.setattr(cp1mod, "_leakage_pencil", counting)
    assert ex.dual_wedge_leakage() == want
    assert sorted(calls) == [((0, q), chi) for q in (0, 1)
                             for chi in sorted(ex.blocks[(0, q)].chunks)
                             if chi <= k - chi]


def test_operator_leakage_zero_and_dual_wedge_reported():
    # dbar and i(v) leak nothing: the assembly refuses an image outside the
    # truncation (test_escaping_image_is_a_model_error).  The metric-dual
    # wedge of each (0, q) block is the one leakage the exact layer reports.
    duals = cp1_model(0, 8).exact.dual_wedge_leakage()
    assert set(duals) == {(0, 0), (0, 1)}
    assert all(v > 0 for v in duals.values())


def test_leakage_vs_cutoff():
    """The assembled operators are exactly closed at every cutoff, so they
    leak nothing at any cutoff.  The metric-dual wedge is the one operator
    that genuinely leaves the truncation; its operator-norm leakage
    saturates toward a constant below one half plus a small tail (the
    top-isotype fraction of a bounded multiplication operator), recorded
    here as a regression band."""
    dual = [max(cp1_model(0, cutoff).exact.dual_wedge_leakage().values())
            for cutoff in (6, 10)]
    assert 0.4 < dual[0] < 0.51 and 0.4 < dual[1] < 0.51
    assert abs(dual[1] - dual[0]) < 0.02


def test_gram_conditions_reported():
    # the reported ratio is max D / min D of the exact LDL^T pivots, worst
    # over the charge chunks, and it bounds each chunk's condition number
    # from below (checked where the float eigenvalues are accurate)
    model = cp1_model(0, 8)
    for (p, q), block in model.exact.blocks.items():
        worst = Fraction(1)
        for chi in block.chunks:
            gram = gram_fractions(block, 0, chi)
            _, D = ldlt(gram)
            worst = max(worst, max(D) / min(D))
            ev = np.linalg.eigvalsh(np.array(gram, dtype=float))
            assert max(D) / min(D) <= ev[-1] / ev[0] * (1 + 1e-6)
        assert block.gram_condition() == float(worst)
