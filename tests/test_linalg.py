import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivlab.linalg import (EigensolverError, GramError, RomanovskiTable,
                             fmatmul, hermitian_eigenvalues, invert_unit_lower,
                             ldlt, romanovski_pivot)
from transform_oracle import (FactorTable, factor_table, float_ratios,
                              romanovski_row, transform_op)


# --- per-entry Fraction reference kernels ------------------------------------
# The straightforward one-Fraction-per-multiply-add versions of fmatmul and
# of the Fraction oracles ldlt and invert_unit_lower, written another way
# round (Crout columns, column-wise inverse); every result must agree
# exactly.

def transpose(m):
    return [list(row) for row in zip(*m)]


def to_float(a):
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def diagonals(m):
    """Every diagonal of the matrix m as `transform_op` reads an operator: (shift, coeffs), coeffs[j] at row j + shift of
    column j, and 0 where that row is outside m."""
    rows, cols = len(m), len(m[0]) if m else 0
    return [(s, [m[j + s][j] if 0 <= j + s < rows else 0
                 for j in range(cols)]) for s in range(1 - cols, rows)]


def dense(diags, rows):
    """The matrix with the given number of rows of an operator held as its
    diagonals; a nonzero coefficient must fall on one of those rows."""
    out = [[0] * len(diags[0][1]) for _ in range(rows)]
    for s, c in diags:
        for j, x in enumerate(c):
            if x:
                assert 0 <= j + s < rows
                out[j + s][j] += x
    return out


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


def moment_gram(alpha, big_p, n):
    """The Hankel Gram m(alpha + i + j, P) = u! (P-u-2)! / (P-1)! of the
    weight t^alpha (1+t)^-P, the form `FactorTable` factors."""
    f = math.factorial
    return [[Fraction(f(alpha + i + j) * f(big_p - alpha - i - j - 2),
                      f(big_p - 1)) for j in range(n)] for i in range(n)]


def factors(table, n):
    """(columns of L, rows of L^-1, pivots D) of the n x n Gram of table's
    weight, each column and row as integers over its least common
    denominator: the pivots are table's own, the rows and columns those of
    its weight's factor table."""
    table.grow(n)
    full = factor_table(table)
    full.grow(n)
    return (full.lcols(n), full.rows[:n],
            [Fraction(*d) for d in zip(table.nums[:n], table.dens[:n])])


@st.composite
def moment_params(draw, min_n=0, max_n=8):
    """(alpha, P, n) with every moment finite: alpha + 2(n-1) <= P - 2."""
    n = draw(st.integers(min_n, max_n))
    alpha = draw(st.integers(0, 12))
    return alpha, alpha + 2 * max(n - 1, 0) + 2 + draw(st.integers(0, 12)), n


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
    params = draw(moment_params(min_n=1, max_n=6))
    return params, draw(matrices(params[2], params[2]))


@settings(max_examples=50, deadline=None)
@given(gram_and_operator())
def test_transform_op_is_rounded_exact_core(case):
    # the float view is the exact core L^T M L^-T rounded entrywise, then
    # scaled by D^(1/2) on each side
    params, m = case
    table, n = FactorTable(*params[:2]), params[2]
    L, _ = ldlt(moment_gram(*params))
    core = ref_fmatmul(ref_fmatmul(transpose(L), m),
                       transpose(invert_unit_lower(L)))
    sqrt_d = table.sqrt_pivots(n)
    want = to_float(core) * sqrt_d[:, None] / sqrt_d[None, :]
    assert np.array_equal(transform_op(diagonals(m), table, n, table, n),
                          want)


@st.composite
def two_grams_and_operator(draw):
    gt, _ = draw(gram_and_operator())
    gs, _ = draw(gram_and_operator())
    m = draw(st.lists(st.lists(st.integers(-50, 50), min_size=gs[2],
                               max_size=gs[2]),
                      min_size=gt[2], max_size=gt[2]))
    return gt, gs, m


@settings(max_examples=50, deadline=None)
@given(two_grams_and_operator())
def test_transform_op_between_two_blocks(case):
    # an integer operator between two Gram blocks, as the cp1 chunks are:
    # L_t^T M L_s^-T rounded entrywise, each factor from its own side
    gt, gs, m = case
    tgt, src = FactorTable(*gt[:2]), FactorTable(*gs[:2])
    Lt, Ls = ldlt(moment_gram(*gt))[0], ldlt(moment_gram(*gs))[0]
    core = ref_fmatmul(ref_fmatmul(transpose(Lt), m),
                       transpose(invert_unit_lower(Ls)))
    want = (to_float(core) * tgt.sqrt_pivots(gt[2])[:, None]
            / src.sqrt_pivots(gs[2])[None, :])
    assert dense(diagonals(m), len(m)) == m
    assert np.array_equal(
        transform_op(diagonals(m), tgt, gt[2], src, gs[2]), want)


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
    table = FactorTable(1, 16)
    # transforming the identity operator gives a congruence of G to I
    eye = frac_matrix(np.eye(6, dtype=int).tolist())
    t = transform_op(diagonals(eye), table, 6, table, 6)
    # t = D^{1/2} L^T L^{-T} D^{-1/2} = I
    assert np.allclose(t, np.eye(6), atol=1e-12)


def test_orthonormalizer_matches_float_congruence():
    rng = np.random.default_rng(2)
    m = frac_matrix(rng.integers(-4, 5, size=(5, 5)).tolist())
    table = FactorTable(2, 14)
    got = transform_op(diagonals(m), table, 5, table, 5)
    mf = to_float(m)
    # eigenvalues of the pencil (G M, G) equal eigenvalues of got when M is
    # G-self-adjoint; here just check the similarity invariant: trace
    assert abs(np.trace(got) - np.trace(mf)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(moment_params())
def test_orthonormalizer_integer_factors_rebuild_ldlt(params):
    # the integer columns of L and rows of L^-1, each over its least common
    # denominator, are the Fractions of ldlt and invert_unit_lower, and
    # G = L D L^T; the rows and pivots are those `romanovski_row` and
    # `romanovski_pivot` give one m at a time
    (alpha, big_p, n), g = params, moment_gram(*params)
    lcols, inv_rows, D = factors(FactorTable(alpha, big_p), n)
    rows = [romanovski_row(alpha, big_p, m) for m in range(n)]
    pivots = [romanovski_pivot(alpha, big_p, m) for m in range(n)]
    assert (inv_rows, D) == (rows, pivots)
    for nums, den in (*lcols, *rows):
        assert den > 0 and math.gcd(den, *nums) == 1
    L = [[Fraction(lcols[j][0][i - j], lcols[j][1]) if i >= j
          else Fraction(0) for j in range(n)] for i in range(n)]
    linv = [[Fraction(nums[j], den) if j <= i else Fraction(0)
             for j in range(n)] for i, (nums, den) in enumerate(rows)]
    assert (L, pivots) == ldlt(g)
    assert linv == invert_unit_lower(L) == ref_invert_unit_lower(L)
    diag = [[D[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    assert ref_fmatmul(ref_fmatmul(L, diag), transpose(L)) == g


def rising(x, j):
    return math.prod(range(x, x + j))


@settings(max_examples=100, deadline=None)
@given(moment_params(max_n=10))
def test_factors_are_romanovski_closed_forms(params):
    # row m of L^-1 is the monic 2F1(-m, m + alpha - P + 1; alpha + 1; -t),
    # with t^j coefficient binom(m, j) (beta)_j / (alpha+1)_j; D_m is its
    # squared norm, (-1)^m m! (alpha+m)! (P-2m-alpha-2)! over
    # (P-m-1)! (beta)_m; and L = G L^-T D^-1 column by column
    alpha, big_p, n = params
    g, f = moment_gram(alpha, big_p, n), math.factorial
    lcols, inv_rows, D = factors(FactorTable(alpha, big_p), n)
    for m in range(n):
        beta = m + alpha - big_p + 1
        coeffs = [Fraction(math.comb(m, j) * rising(beta, j),
                           rising(alpha + 1, j)) for j in range(m + 1)]
        row = [c / coeffs[m] for c in coeffs]
        nums, den = inv_rows[m]
        assert [Fraction(x, den) for x in nums] == row
        norm = sum(x * y * g[i][j] for i, x in enumerate(row)
                   for j, y in enumerate(row))
        assert D[m] == norm == Fraction(
            (-1) ** m * f(m) * f(alpha + m) * f(big_p - 2 * m - alpha - 2),
            f(big_p - m - 1) * rising(beta, m))
        cnums, cden = lcols[m]
        assert [Fraction(x, cden) for x in cnums] == [
            sum(g[i][j] * x for j, x in enumerate(row)) / norm
            for i in range(m, n)]


@settings(max_examples=50, deadline=None)
@given(moment_params(min_n=1, max_n=10), st.data())
def test_shared_table_reads_each_size_as_its_own(params, data):
    # a weight's table grown to n, in any order of sizes, gives every
    # smaller Gram the factors of a table of its own: rows, pivots, the
    # square roots, the reduced columns of L and max D / min D
    alpha, big_p, n = params
    sizes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    table = FactorTable(alpha, big_p)
    for m in sizes + [n] + sizes:
        own_table = FactorTable(alpha, big_p)
        shared_cols, shared_rows, shared_d = factors(table, m)
        own_cols, own_rows, own_d = factors(own_table, m)
        assert (shared_rows, shared_d) == (own_rows, own_d)
        assert np.array_equal(table.sqrt_pivots(m), own_table.sqrt_pivots(m))
        assert shared_cols == own_cols
        assert table.pivot_ratio(m) == float(max(own_d) / min(own_d))


def test_pivot_recurrence_equals_factorial_pivots():
    # every pivot of every weight with alpha <= 12 and P <= 64, grown by the
    # ratio recurrence from D_0, is `romanovski_pivot` in lowest terms; its
    # float and square root are those of the Fraction, and max D / min D
    # over each prefix is exact and then rounded
    for alpha in range(13):
        for big_p in range(alpha + 2, 65):
            n = (big_p - 2 - alpha) // 2 + 1
            table = RomanovskiTable(alpha, big_p)
            table.grow(n)
            want = [romanovski_pivot(alpha, big_p, m) for m in range(n)]
            assert list(zip(table.nums, table.dens)) == [
                (d.numerator, d.denominator) for d in want]
            assert np.array_equal(table.sqrt_pivots(n),
                                  np.sqrt([float(d) for d in want]))
            for m in range(1, n + 1):
                assert table.pivot_ratio(m) == float(max(want[:m])
                                                     / min(want[:m]))


def test_orthonormalizer_rejects_divergent_moments():
    # the last moment u = alpha + 2(n-1) must stay <= P - 2
    RomanovskiTable(3, 11).grow(4)
    with pytest.raises(ValueError):
        RomanovskiTable(3, 10).grow(4)


def test_hermitian_eigenvalues_diagnostics():
    bad = np.full((3, 3), np.nan)
    with pytest.raises((EigensolverError, np.linalg.LinAlgError)):
        hermitian_eigenvalues(bad, {"ctx": "test"})


def test_non_finite_eigenvalue_is_a_solver_failure():
    # an overflowed entry gave NaN eigenvalues, which the kernel count read
    # as numbers; the stack's eigensolve now fails with its diagnostics
    h = np.array([[[1.0, 0.0], [0.0, 2.0]], [[np.inf, 0.0], [0.0, 1.0]]])
    # the Hermiticity diagnostic reads inf - inf
    with pytest.raises(EigensolverError) as err, pytest.warns(RuntimeWarning):
        hermitian_eigenvalues(h, {"r": 0})
    assert err.value.message == "eigenvalue not finite"
    assert err.value.diagnostics["r"] == 0
    assert err.value.diagnostics["members"] == 2
    assert np.array_equal(hermitian_eigenvalues(h[:1]), [[1.0, 2.0]])


def test_empty_matrix():
    assert hermitian_eigenvalues(np.zeros((0, 0))).size == 0
