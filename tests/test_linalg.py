import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivlab.linalg import (EigensolverError, GramError, Orthonormalizer,
                             float_ratios, fmatmul, hermitian_eigenvalues,
                             invert_unit_lower, ldlt, to_float)


# --- per-entry Fraction reference kernels ------------------------------------
# The straightforward one-Fraction-per-multiply-add versions of the integer
# kernels in linalg; every result must agree exactly.

def transpose(m):
    return [list(row) for row in zip(*m)]


def ref_fmatmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def ref_ldlt(g):
    n = len(g)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        d = g[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if d <= 0:
            raise GramError(j, d)
        D[j] = d
        for i in range(j + 1, n):
            s = g[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / d
    return L, D


def ref_invert_unit_lower(L):
    n = len(L)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            inv[i][j] = -sum((L[i][k] * inv[k][j] for k in range(j, i)),
                             Fraction(0))
    return inv


rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-40, max_value=40,
                                   max_denominator=12))


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrix_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(rows, inner)), draw(matrices(inner, cols))


@st.composite
def symmetric_matrices(draw):
    """m m^T plus a drawn diagonal shift: positive definite, singular or
    indefinite."""
    n = draw(st.integers(0, 6))
    m = draw(matrices(n, n))
    g = ref_fmatmul(m, transpose(m))
    shift = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    for i in range(n):
        g[i][i] += shift
    return g


@st.composite
def unit_lower(draw):
    n = draw(st.integers(0, 7))
    return [[Fraction(1) if i == j else draw(rationals) if i > j
             else Fraction(0) for j in range(n)] for i in range(n)]


def int_gram(g):
    """A Fraction matrix as integer numerators over one denominator, the
    form `Orthonormalizer` takes."""
    den = math.lcm(*(x.denominator for row in g for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in g], den


def outcome(fn, g):
    try:
        return fn(g)
    except GramError as err:
        return ("GramError", err.pivot_index, err.pivot_value)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_fmatmul_matches_fraction_oracle(pair):
    a, b = pair
    want = ref_fmatmul(a, b)
    assert fmatmul(a, b) == want


@st.composite
def integer_ratios(draw):
    """Numerators and denominators up to 10^400, quotients up to 10^300."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    dens = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 400))
    rden = draw(st.lists(dens, min_size=rows, max_size=rows))
    cden = draw(st.lists(dens, min_size=cols, max_size=cols))
    nums = [[draw(st.integers(-1, 1) | st.integers(
                -min(rd * cd * 10 ** 300, 10 ** 400),
                min(rd * cd * 10 ** 300, 10 ** 400))) for cd in cden]
            for rd in rden]
    return nums, rden, cden


@settings(max_examples=100, deadline=None)
@given(integer_ratios())
def test_float_ratios_round_like_fractions(case):
    # correctly rounded, as float(Fraction) is, also past the float range
    # of numerator and denominator
    nums, rden, cden = case
    got = float_ratios(nums, rden, cden)
    assert got.shape == (len(rden), len(cden))
    want = [[float(Fraction(n, rd * cd)) for n, cd in zip(row, cden)]
            for row, rd in zip(nums, rden)]
    assert np.array_equal(got.ravel(), np.array(want, dtype=float).ravel())


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_ldlt_matches_fraction_oracle(g):
    got = outcome(ldlt, g)
    assert got == outcome(ref_ldlt, g)
    if got[0] != "GramError":
        assert invert_unit_lower(got[0]) == ref_invert_unit_lower(got[0])


@settings(max_examples=100, deadline=None)
@given(unit_lower())
def test_invert_unit_lower_matches_fraction_oracle(L):
    assert invert_unit_lower(L) == ref_invert_unit_lower(L)


@st.composite
def gram_and_operator(draw):
    n = draw(st.integers(1, 6))
    m = draw(matrices(n, n))
    g = ref_fmatmul(m, transpose(m))
    for i in range(n):
        g[i][i] += draw(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                     max_denominator=5))
    return g, draw(matrices(n, n))


@settings(max_examples=50, deadline=None)
@given(gram_and_operator())
def test_transform_op_is_rounded_exact_core(case):
    # the float view is the exact core L^T M L^-T rounded entrywise, then
    # scaled by D^(1/2) on each side
    g, m = case
    ortho = Orthonormalizer(*int_gram(g))
    L, _ = ldlt(g)
    core = ref_fmatmul(ref_fmatmul(transpose(L), m),
                       transpose(invert_unit_lower(L)))
    want = to_float(core) * ortho.sqrt_d[:, None] / ortho.sqrt_d[None, :]
    assert np.array_equal(ortho.transform_op(m, ortho), want)


@st.composite
def two_grams_and_operator(draw):
    gt, _ = draw(gram_and_operator())
    gs, _ = draw(gram_and_operator())
    m = draw(st.lists(st.lists(st.integers(-50, 50), min_size=len(gs),
                               max_size=len(gs)),
                      min_size=len(gt), max_size=len(gt)))
    return gt, gs, m


@settings(max_examples=50, deadline=None)
@given(two_grams_and_operator())
def test_transform_op_between_two_blocks(case):
    # an integer operator between two Gram blocks, as the cp1 chunks are:
    # L_t^T M L_s^-T rounded entrywise, each factor from its own side
    gt, gs, m = case
    tgt, src = Orthonormalizer(*int_gram(gt)), Orthonormalizer(*int_gram(gs))
    Lt, Ls = ldlt(gt)[0], ldlt(gs)[0]
    core = ref_fmatmul(ref_fmatmul(transpose(Lt), m),
                       transpose(invert_unit_lower(Ls)))
    want = to_float(core) * tgt.sqrt_d[:, None] / src.sqrt_d[None, :]
    assert np.array_equal(tgt.transform_op(m, src), want)


def test_errors_survive_pickling():
    err = pickle.loads(pickle.dumps(EigensolverError("x", {"cell": 3})))
    assert isinstance(err, EigensolverError)
    assert err.diagnostics == {"cell": 3}
    assert str(err) == str(EigensolverError("x", {"cell": 3}))
    gram = pickle.loads(pickle.dumps(GramError(2, Fraction(-1, 3))))
    assert (gram.pivot_index, gram.pivot_value) == (2, Fraction(-1, 3))


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_spd(rng, n):
    a = rng.integers(-3, 4, size=(n, n))
    g = a @ a.T + (n + 1) * np.eye(n, dtype=int)
    return frac_matrix(g.tolist())


def test_ldlt_reconstructs():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        g = random_spd(rng, n)
        L, D = ldlt(g)
        ldl = fmatmul(fmatmul(L, [[D[i] if i == j else Fraction(0)
                                   for j in range(n)] for i in range(n)]),
                      transpose(L))
        assert ldl == g


def test_ldlt_rejects_indefinite():
    g = frac_matrix([[1, 2], [2, 1]])
    with pytest.raises(GramError) as err:
        ldlt(g)
    assert err.value.pivot_value < 0


def test_invert_unit_lower():
    L = frac_matrix([[1, 0, 0], [Fraction(1, 2), 1, 0], [3, -2, 1]])
    inv = invert_unit_lower(L)
    prod = fmatmul(L, inv)
    assert prod == frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_orthonormalizer_identity_transform():
    rng = np.random.default_rng(1)
    g = random_spd(rng, 6)
    ortho = Orthonormalizer(*int_gram(g))
    # transforming the identity operator gives a congruence of G to I
    eye = frac_matrix(np.eye(6, dtype=int).tolist())
    t = ortho.transform_op(eye, ortho)
    # t = D^{1/2} L^T L^{-T} D^{-1/2} = I
    assert np.allclose(t, np.eye(6), atol=1e-12)


def test_orthonormalizer_matches_float_congruence():
    rng = np.random.default_rng(2)
    g = random_spd(rng, 5)
    m = frac_matrix(rng.integers(-4, 5, size=(5, 5)).tolist())
    ortho = Orthonormalizer(*int_gram(g))
    got = ortho.transform_op(m, ortho)
    gf, mf = to_float(g), to_float(m)
    # eigenvalues of the pencil (G M, G) equal eigenvalues of got when M is
    # G-self-adjoint; here just check the similarity invariant: trace
    assert abs(np.trace(got) - np.trace(mf)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(gram_and_operator())
def test_orthonormalizer_integer_factors_rebuild_ldlt(case):
    # the integer columns of L and rows of L^-1 are the Fractions of ldlt
    # and invert_unit_lower, and G = L D L^T
    g, _ = case
    n = len(g)
    ortho = Orthonormalizer(*int_gram(g))
    L = [[Fraction(ortho.lcols[j][i - j], ortho.pivots[j]) if i >= j
          else Fraction(0) for j in range(n)] for i in range(n)]
    linv = [[Fraction(nums[j], den) if j <= i else Fraction(0)
             for j in range(n)] for i, (nums, den) in enumerate(ortho.inv_rows)]
    assert (L, ortho.D) == ldlt(g)
    assert linv == invert_unit_lower(L) == ref_invert_unit_lower(L)
    diag = [[ortho.D[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    assert ref_fmatmul(ref_fmatmul(L, diag), transpose(L)) == g


def test_hermitian_eigenvalues_diagnostics():
    bad = np.full((3, 3), np.nan)
    with pytest.raises((EigensolverError, np.linalg.LinAlgError)):
        hermitian_eigenvalues(bad, {"ctx": "test"})


def test_empty_matrix():
    assert hermitian_eigenvalues(np.zeros((0, 0))).size == 0
