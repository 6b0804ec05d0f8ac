"""Projective-line model: exact Grams against numerical quadrature, exact
closure of the truncated complex, kernel counts, and leakage reporting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from equivlab.deformed import assemble_deformed, complex_property_defect
from equivlab.geometry.base import ModelError
from equivlab.geometry.cp1 import (CPSection, Cp1Exact, _dual_wedge_core,
                                   _moment_numerators, beta_moment,
                                   block_params, cp1_model, dbar, dbar_star,
                                   dual_field_wedge, embed, field_contract,
                                   weight_exponent)
from equivlab.linalg import fmatmul, invert_unit_lower, ldlt, to_ints


# --- exact reference constructions ------------------------------------------
# Per-section pairings and exact ranks that the assembly no longer needs;
# they are the independent side of the checks below.

def transpose(m):
    return [list(row) for row in zip(*m)]


def basis_section(block, k, i):
    """Section of block basis monomial i, coefficient 1."""
    a, b = block.monomials[i]
    return CPSection.make(k, block.pq[0], block.pq[1], block.den,
                          {(a, b): Fraction(1)})


def gram_fractions(block, chi):
    """The Gram matrix of one charge chunk as Fractions."""
    nums, den = block.grams[chi]
    return [[Fraction(x, den) for x in row] for row in nums]


def l2_pair(x: CPSection, y: CPSection) -> Fraction:
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
        rank = sum(exact_rank(m) for m in exact.dbar_chunks[(p, 0)].values())
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
    # each chunk Gram is the Beta-moment matrix m(a_i + b_j, P) held as
    # integers over one denominator, with no common factor left over; the
    # operator chunks are integer matrices
    ex = Cp1Exact(k, cutoff)
    for (p, q), block in ex.blocks.items():
        big_p = weight_exponent(p, q, block.den, k)
        for chi in block.charges:
            nums, den = block.grams[chi]
            assert all(type(x) is int for row in nums for x in row)
            assert math.gcd(den, *(x for row in nums for x in row)) == 1
            chunk = block.monomials[block.chunk_slices[chi]]
            assert gram_fractions(block, chi) == [
                [beta_moment(a + d, big_p) for _, d in chunk] for a, _ in chunk]
    for chunks in (*ex.dbar_chunks.values(), *ex.iv_chunks.values()):
        assert all(type(x) is int for m in chunks.values()
                   for row in m for x in row)


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
    dims = {pq: sum(c.dims.get(pq, 0) for c in model.cells)
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
    s = CPSection.make(0, 1, 0, 6, {(2, 1): Fraction(1)})
    out = field_contract(s)
    assert out.terms == (((3, 1), Fraction(1)),)
    assert (out.p, out.q, out.den) == (0, 0, 6)


def test_field_vanishes_at_origin():
    # the image of any section under the contraction has no constant term
    s = CPSection.make(0, 1, 0, 6, {(0, 0): Fraction(1), (1, 1): Fraction(2)})
    out = field_contract(s)
    assert all(a >= 1 for (a, _), _ in out.terms)


def test_deformed_square_exact_zero():
    for k, cutoff in ((0, 6), (1, 6), (2, 8)):
        ex = cp1_model(k, cutoff).exact
        for T in (Fraction(0), Fraction(1), Fraction(4), Fraction(7, 3)):
            assert ex.deformed_square_is_zero(T)


def test_deformed_square_detects_perturbed_contraction():
    # one changed entry of an iv chunk that dbar then sees breaks d_T^2 = 0
    # for every T != 0; T = 0 is dbar^2 = 0 and stays true
    ex = cp1_model(1, 6).exact
    for chi, m in ex.iv_chunks[(1, 0)].items():
        dbar00 = ex.dbar_chunks[(0, 0)].get(chi)
        rows = [i for i in range(len(m))
                if dbar00 and any(row[i] for row in dbar00)]
        if rows and m[0]:
            m[rows[0]][0] += 1
            break
    else:
        pytest.fail("no iv chunk entry reaches dbar")
    for T in (Fraction(1), Fraction(4), Fraction(7, 3), Fraction(-1, 5)):
        assert not ex.deformed_square_is_zero(T)
    assert ex.deformed_square_is_zero(Fraction(0))


def test_assembled_complex_property_float():
    model = cp1_model(1, 8)
    for T in (0.0, 1.0, 4.0):
        op = assemble_deformed(model, T)
        assert complex_property_defect(op) <= 1.0
        for (si, r), a in op.blocks.items():
            b = op.blocks.get((si, r + 1))
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
            lhs = l2_pair(dbar(u), w)
            rhs = l2_pair(u, dbar_star(w))
            assert lhs == rhs
    src = ex.blocks[(1, 0)]
    tgt = ex.blocks[(1, 1)]
    for i in (0, 2, 5):
        for j in (1, 3, 8):
            u = basis_section(src, k, i % src.dim)
            w = basis_section(tgt, k, j % tgt.dim)
            assert l2_pair(dbar(u), w) == l2_pair(u, dbar_star(w))


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
                lhs = l2_pair(field_contract(u), w)
                rhs = l2_pair(u, dual_field_wedge(w))
                assert lhs == rhs


def test_adjoint_consistency_of_assembled_blocks():
    # the assembled contraction chunk m (coefficients, (1,q) -> (0,q)) is
    # the Gram-adjoint of the dual-field wedge: m^T G_tgt = <u_i, W y_j>
    for k in (0, 2):
        ex = cp1_model(k, 6).exact
        for q in (0, 1):
            src, tgt = ex.blocks[(1, q)], ex.blocks[(0, q)]
            for chi, m in ex.iv_chunks[(1, q)].items():
                tgt_sl = tgt.chunk_slices.get(chi)
                if tgt_sl is None or not m or not m[0]:
                    continue
                src_sl = src.chunk_slices[chi]
                pairs = [[l2_pair(basis_section(src, k, i),
                                  dual_field_wedge(basis_section(tgt, k, j)))
                          for j in range(tgt_sl.start, tgt_sl.stop)]
                         for i in range(src_sl.start, src_sl.stop)]
                assert fmatmul(transpose(m), gram_fractions(tgt, chi)) == pairs


def test_embed_preserves_pairings():
    s = CPSection.make(0, 0, 0, 4, {(1, 1): Fraction(2), (0, 0): Fraction(-1)})
    t = CPSection.make(0, 0, 0, 4, {(1, 1): Fraction(1)})
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
        out.append(CPSection.make(k, p, q, den, terms))
    return out


@settings(max_examples=150, deadline=None)
@given(section_pairs())
def test_l2_pair_matches_fraction_oracle(pair):
    x, y = pair
    assert l2_pair(x, y) == ref_l2_pair(x, y)
    assert l2_pair(y, x) == ref_l2_pair(y, x)


def test_l2_pair_rejects_divergent_moment():
    # z^9 against itself at den 4: u = 18 > P - 2 = 8
    s = CPSection.make(0, 0, 0, 4, {(9, 0): Fraction(1)})
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
    # diverge together; the leakage's integer moments are the same numbers
    lhs = moment_outcome(lambda: beta_moment(u, big_p)
                         + 2 * beta_moment(u + 1, big_p)
                         + beta_moment(u + 2, big_p))
    rhs = moment_outcome(lambda: beta_moment(u, big_p - 2))
    assert lhs == rhs
    nums = moment_outcome(lambda: _moment_numerators(range(u, u + 1), big_p))
    want = moment_outcome(lambda: beta_moment(u, big_p))
    if want == "divergent":
        assert nums == "divergent"
    else:
        assert Fraction(nums[u], math.factorial(big_p - 1)) == want


def per_section_dual_wedge_core(ex, q, chi):
    """L_s^-1 R L_s^-T from pairings of the wedge images themselves: R is
    gram_y - B^T G_t^-1 B, with G_t^-1 B solved as L^-T D^-1 L^-1 B."""
    k, src, tgt = ex.k, ex.blocks[(0, q)], ex.blocks[(1, q)]
    sl = src.chunk_slices[chi]
    images = [dual_field_wedge(basis_section(src, k, i))
              for i in range(sl.start, sl.stop)]
    resid = [[l2_pair(a, b) for b in images] for a in images]
    tgt_sl = tgt.chunk_slices.get(chi)
    if tgt_sl is not None:
        bmat = [[l2_pair(basis_section(tgt, k, v), y) for y in images]
                for v in range(tgt_sl.start, tgt_sl.stop)]
        L, D = ldlt(gram_fractions(tgt, chi))
        linv = invert_unit_lower(L)
        y = [[x / d for x in row] for row, d in zip(fmatmul(linv, bmat), D)]
        corr = fmatmul(transpose(bmat), fmatmul(transpose(linv), y))
        resid = [[g - c for g, c in zip(rg, rc)]
                 for rg, rc in zip(resid, corr)]
    linv = invert_unit_lower(ldlt(gram_fractions(src, chi))[0])
    return fmatmul(fmatmul(linv, resid), transpose(linv))


@pytest.mark.parametrize("k,cutoff", [(k, n) for k in range(4)
                                      for n in sorted({k + 4, 8})])
def test_dual_wedge_core_matches_section_pairings(k, cutoff):
    ex = Cp1Exact(k, cutoff)
    for q in (0, 1):
        src, tgt = ex.blocks[(0, q)], ex.blocks[(1, q)]
        for chi in src.charges:
            nums, rden, cden = _dual_wedge_core(k, src, tgt, chi)
            got = [[Fraction(n, rd * cd) for n, cd in zip(row, cden)]
                   for row, rd in zip(nums, rden)]
            assert got == per_section_dual_wedge_core(ex, q, chi)


def test_operator_leakage_zero_and_dual_wedge_reported():
    model = cp1_model(0, 8)
    for key, val in model.leakage.items():
        if key.startswith(("dbar", "iv")):
            assert val == 0.0
    duals = [v for key, v in model.leakage.items()
             if key.startswith("dual_wedge")]
    assert duals and all(v > 0 for v in duals)


def test_leakage_vs_cutoff():
    """The assembled operators are exactly closed at every cutoff, so their
    leakage sequence is identically zero (trivially nonincreasing).  The
    metric-dual wedge is the one operator that genuinely leaves the
    truncation; its operator-norm leakage saturates toward a constant below
    one half plus a small tail (the top-isotype fraction of a bounded
    multiplication operator), recorded here as a regression band."""
    dual = []
    for cutoff in (6, 10):
        model = cp1_model(0, cutoff)
        for key, val in model.leakage.items():
            if key.startswith(("dbar", "iv")):
                assert val == 0.0
        dual.append(max(v for key, v in model.leakage.items()
                        if key.startswith("dual_wedge")))
    assert 0.4 < dual[0] < 0.51 and 0.4 < dual[1] < 0.51
    assert abs(dual[1] - dual[0]) < 0.02


def test_gram_conditions_reported():
    model = cp1_model(0, 8)
    assert all(v >= 1.0 for v in model.gram_conditions.values())
