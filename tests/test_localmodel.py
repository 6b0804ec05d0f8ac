"""Fiber oscillator model: closed form vs Galerkin, the kernel state, the
spectral-gap constant, bump/normalization quantities, isometry defects.

The assembled Galerkin matrix is the oracle for the factor route: the
sparse Kronecker sum is built term by term and solved densely at small
cutoffs, or applied to the kernel vector at m = 2.  The closed-form
spectrum is the oracle for its multiplicities, and the exact exterior
algebra (`exterior`) is the oracle for the fiber that `localmodel` builds
as a tensor power of its m = 1 case."""

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.sparse import csr_matrix, identity, kron

from equivlab import cli, localmodel
from equivlab.localmodel import (GALERKIN_MAX_DIM, GAP_CONSTANT,
                                 OscillatorModel, _EXP_THETA1, _W1,
                                 _ladder_blocks, alpha_T, exp_theta,
                                 fiber_endomorphism, isometry_defect,
                                 kernel_overlap, oscillator_galerkin,
                                 smooth_bump)
from exterior import (GOLDEN_TABLES_PATH, AlgebraElement, BasisLabel,
                      clifford_c, clifford_hat_c, enumerate_basis,
                      frame_vector, metric_dual_wedge, norm_sq, wedge)
from scalars import ExactScalar, I_UNIT


# --- oracles -----------------------------------------------------------------

def fiber_endomorphism_exact(m: int) -> np.ndarray:
    """The zero-order fiber term at T = 1 in the exact exterior algebra,
    -i * sum_a ( c(wbar_a) hatc(w_a) + c(w_a) hatc(wbar_a) ), read entry by
    entry as floats in enumerate_basis order."""
    labels = enumerate_basis(m)
    total = None
    for a in range(1, m + 1):
        w = frame_vector(m, a, conjugated=False)
        wbar = frame_vector(m, a, conjugated=True)
        term = (clifford_c(wbar, m).compose(clifford_hat_c(w, m))
                + clifford_c(w, m).compose(clifford_hat_c(wbar, m)))
        total = term if total is None else total + term
    out = np.array([[c.to_complex() for c in row]
                    for row in total.scaled(-I_UNIT).matrix(labels, labels)])
    assert not out.imag.any()
    return out.real


def theta_exponential(m: int) -> AlgebraElement:
    """The exact exp(theta) by the terminating exterior exponential; theta
    is the degree-zero sum over the frame of dual-pair products."""
    one = AlgebraElement.scalar_one(m)
    theta = None
    for a in range(1, m + 1):
        w = frame_vector(m, a, conjugated=False)
        wbar = frame_vector(m, a, conjugated=True)
        term = metric_dual_wedge(w, metric_dual_wedge(wbar, one))
        theta = term if theta is None else theta + term
    assert all(lab.r == 0 for lab in theta.terms)
    power = one
    total = one
    fact = 1
    for j in range(1, m + 1):
        power = wedge(power, theta)
        fact *= j
        total = total + power.scale(ExactScalar(Fraction(1, fact)))
    return total


def fixture_m1_fiber() -> tuple[np.ndarray, np.ndarray]:
    """(W_1, exp(theta_1)) from the committed m = 1 Clifford tables, exactly:
    W_1 = -i (c(wbar) hatc(w) + c(w) hatc(wbar)) and, since
    theta_1 = dzbar dz = (i/2) c(w) hatc(wbar) on 1,
    exp(theta_1) = (1 + (i/2) c(w) hatc(wbar)) 1."""
    tables = json.loads(GOLDEN_TABLES_PATH.read_text())
    ops = {name: [[ExactScalar(*map(Fraction, entry)) for entry in row]
                  for row in mat]
           for name, mat in tables["operators"].items()}

    def mul(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(4)), ExactScalar())
                 for j in range(4)] for i in range(4)]

    def to_float(entries):
        out = np.array([[c.to_complex() for c in row] for row in entries])
        assert not out.imag.any()
        return out.real

    cw_hwbar = mul(ops["c_w"], ops["hatc_wbar"])
    w1 = [[-I_UNIT * (x + y) for x, y in zip(r1, r2)]
          for r1, r2 in zip(mul(ops["c_wbar"], ops["hatc_w"]), cw_hwbar)]
    half_i = ExactScalar(0, Fraction(1, 2))
    exp_theta1 = [ExactScalar(int(i == 0)) + half_i * row[0]
                  for i, row in enumerate(cw_hwbar)]
    return to_float(w1), to_float([exp_theta1])[0]


def oscillator_spectrum_analytic(model: OscillatorModel, max_level: int = 12
                                 ) -> list[tuple[float, int]]:
    """Spectrum 2T (K + m + j): the scalar oscillator ladder shifted by the
    integer eigenvalues 2j of the fiber endomorphism, with multiplicities
    C(K + 2m - 1, 2m - 1) * C(2m, m + j).  The sorted (eigenvalue,
    multiplicity) levels up to 2T*max_level: the kernel is the first, of
    multiplicity 1, and the second is the gap 2T."""
    m, T = model.m, model.T
    mult: dict[int, int] = {}
    for level in range(max_level + 1):
        total = 0
        for j in range(-m, m + 1):
            K = level - m - j
            if K < 0:
                continue
            total += math.comb(K + 2 * m - 1, 2 * m - 1) * math.comb(2 * m, m + j)
        if total:
            mult[level] = total
    if mult.get(0, 0) != 1:
        raise AssertionError("closed form lost the one-dimensional kernel")
    return [(2.0 * T * lv, mu) for lv, mu in sorted(mult.items())]


def convolve_spectra(a: list[tuple[float, int]], b: list[tuple[float, int]],
                     cap: float) -> list[tuple[float, int]]:
    """Multiset sum of two spectra, truncated at `cap`; the m-fold
    convolution of the m=1 spectrum is the independent oracle for the
    tensor structure."""
    acc: dict[float, int] = {}
    for x, mx in a:
        for y, my in b:
            s = round(x + y, 9)
            if s <= cap + 1e-9:
                acc[s] = acc.get(s, 0) + mx * my
    return sorted(acc.items())


def galerkin_matrix(model):
    """Sparse Galerkin matrix: scalar oscillator (Kronecker sum over 2m real
    coordinates) plus T times the constant fiber endomorphism."""
    m, T, c = model.m, model.T, model.cutoff
    p2, x2 = _ladder_blocks(c, T)
    h1 = csr_matrix(p2 + (T * T) * x2)
    n_coords = 2 * m
    hsc = None
    for i in range(n_coords):
        term = None
        for jj in range(n_coords):
            blk = h1 if jj == i else identity(c, format="csr")
            term = blk if term is None else kron(term, blk, format="csr")
        hsc = term if hsc is None else hsc + term
    fiber = csr_matrix(T * fiber_endomorphism(m))
    return (kron(hsc, identity(fiber.shape[0], format="csr"), format="csr")
            + kron(identity(c ** n_coords, format="csr"), fiber, format="csr"))


def beta_vector(model):
    """Coefficients of exp(theta - T |Z|^2 / 2) in the Galerkin basis: the
    scalar ground state tensor the fiber exponential, unit normalized, as a
    dense vector of the Galerkin dimension."""
    fiber = exp_theta(model.m)
    vec = np.zeros(model.cutoff ** (2 * model.m) * fiber.size, dtype=complex)
    vec[:fiber.size] = fiber                      # scalar multi-index 0...0
    return vec / np.linalg.norm(vec)


def kernel_vector(res):
    """The dense Galerkin kernel vector from the result's ground vectors,
    scalar_ground^(x 2m) (x) fiber_ground."""
    kvec = res.fiber_ground
    for _ in range(2 * res.model.m):
        kvec = np.kron(res.scalar_ground, kvec)
    return kvec


def dense_overlap(res):
    """|<kernel vector, beta>| of the dense vectors, both unit normalized."""
    v = kernel_vector(res)
    return float(abs(np.vdot(v / np.linalg.norm(v), beta_vector(res.model))))


def beta_residual(model):
    """||H beta|| for the Galerkin matrix H: zero up to round-off because
    beta lies exactly in the span."""
    return float(np.linalg.norm(galerkin_matrix(model) @ beta_vector(model)))


# --- fiber endomorphism ------------------------------------------------------

def test_fiber_endomorphism_m1_entries():
    # the literal W_1, the committed fixture and the exact oracle agree
    w = fiber_endomorphism(1)
    w1, _ = fixture_m1_fiber()
    assert np.array_equal(_W1, w1)
    assert np.array_equal(w, w1)
    assert np.array_equal(w, fiber_endomorphism_exact(1))
    # acts only between the scalar label and the degree-zero two-form label
    labels = enumerate_basis(1)
    idx = {lab: i for i, lab in enumerate(labels)}
    lab0 = [l for l in labels if l.p == l.q == 0][0]
    lab2 = [l for l in labels if l.p == l.q == 1][0]
    expect = np.zeros((4, 4))
    expect[idx[lab2], idx[lab0]] = 2.0
    expect[idx[lab0], idx[lab2]] = 2.0
    assert np.allclose(w, expect)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fiber_endomorphism_symmetric_with_integer_spectrum(m):
    # the tensor power through P is the exact construction entry for entry,
    # with no negative zeros
    w = fiber_endomorphism(m)
    assert np.array_equal(w, fiber_endomorphism_exact(m))
    assert w.dtype == float and not np.signbit(w[w == 0]).any()
    assert np.allclose(w, w.T)
    evals = np.linalg.eigvalsh(w)
    assert np.allclose(evals, np.round(evals), atol=1e-12)
    assert evals[0] == pytest.approx(-2.0 * m)
    assert evals[-1] == pytest.approx(2.0 * m)


# --- closed form -------------------------------------------------------------

def test_analytic_kernel_and_gap():
    for T in (1.0, 10.0, 100.0):
        levels = oscillator_spectrum_analytic(OscillatorModel(m=1, T=T))
        assert levels[0][1] == 1
        assert levels[0] == (0.0, 1)
        assert levels[1][0] / T == GAP_CONSTANT


def test_analytic_m1_multiplicities():
    levels = oscillator_spectrum_analytic(OscillatorModel(m=1, T=1.0))
    assert levels[:4] == [(0.0, 1), (2.0, 4), (4.0, 8), (6.0, 12)]


def test_m2_spectrum_is_convolution_of_m1():
    T = 5.0
    one = oscillator_spectrum_analytic(OscillatorModel(m=1, T=T),
                                       max_level=10)
    two = oscillator_spectrum_analytic(OscillatorModel(m=2, T=T),
                                       max_level=8)
    conv = convolve_spectra(one, one, cap=2 * T * 8)
    assert conv == [(float(v), m) for v, m in two]


# --- Galerkin route ----------------------------------------------------------

def test_galerkin_matches_analytic_m1():
    model = OscillatorModel(m=1, T=1.0, cutoff=12)
    res = oscillator_galerkin(model)
    assert abs(res.eigenvalues[0]) <= 1e-10
    assert res.eigenvalues[1] == pytest.approx(2.0, abs=1e-8)
    # multiplicity of the first excited level within the safe window
    assert int(np.sum(np.abs(res.eigenvalues - 2.0) < 1e-8)) == 4


def test_galerkin_kernel_dimension_and_overlap():
    for m, cutoff in ((1, 12), (2, 4)):
        for T in (1.0, 1.161, 10.0):
            res = oscillator_galerkin(OscillatorModel(m=m, T=T, cutoff=cutoff))
            assert res.kernel_count() == 1
            assert kernel_overlap(res) >= 1.0 - 1e-8


def test_galerkin_scaling_in_T():
    r1 = oscillator_galerkin(OscillatorModel(m=1, T=1.0, cutoff=10))
    r10 = oscillator_galerkin(OscillatorModel(m=1, T=10.0, cutoff=10))
    nz1 = r1.eigenvalues[np.abs(r1.eigenvalues) > 1e-8][0]
    nz10 = r10.eigenvalues[np.abs(r10.eigenvalues) > 1e-7][0]
    assert nz10 / nz1 == pytest.approx(10.0, rel=1e-10)


def test_beta_in_galerkin_kernel():
    for m, cutoff in ((1, 8), (2, 4)):
        assert beta_residual(OscillatorModel(m=m, T=1.0, cutoff=cutoff)) <= 1e-10


@pytest.mark.parametrize("m,cutoff,T", [(1, 40, 2.7), (2, 4, 1.161)])
def test_galerkin_multiplicities_match_analytic(m, cutoff, T):
    # the truncation keeps every Hermite state of total degree < cutoff, so
    # the first `cutoff` levels are complete
    model = OscillatorModel(m=m, T=T, cutoff=cutoff)
    res = oscillator_galerkin(model)
    levels = oscillator_spectrum_analytic(model, max_level=cutoff - 1)
    got = [int(np.sum(np.abs(res.eigenvalues - lam) <= 1e-9 * lam + 1e-9))
           for lam, _ in levels]
    assert got == [mult for _, mult in levels]
    assert res.dim == len(res.eigenvalues) == cutoff ** (2 * m) * 4 ** m


@pytest.mark.parametrize("cutoff", [8, 12])
@pytest.mark.parametrize("T", [1.161, 2.0])
def test_galerkin_spectrum_matches_assembled_matrix(cutoff, T):
    model = OscillatorModel(m=1, T=T, cutoff=cutoff)
    want = np.linalg.eigvalsh(galerkin_matrix(model).toarray())
    got = oscillator_galerkin(model).eigenvalues
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("T", [1.0, 1.161, 10.0])
def test_galerkin_kernel_vector_in_assembled_kernel(T):
    model = OscillatorModel(m=2, T=T, cutoff=4)
    res = oscillator_galerkin(model)
    v = kernel_vector(res)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.linalg.norm(galerkin_matrix(model) @ v) <= 1e-10 * T


def test_galerkin_requires_cutoff():
    with pytest.raises(ValueError):
        oscillator_galerkin(OscillatorModel(m=1, T=1.0, cutoff=3))


def test_galerkin_dimension_is_bounded():
    # the largest admitted models reach the bound exactly; they are built,
    # never solved
    assert OscillatorModel(m=3, T=1.0, cutoff=8)
    assert OscillatorModel(m=4, T=1.0, cutoff=4)
    assert 8 ** 6 * 4 ** 3 == 4 ** 8 * 4 ** 4 == GALERKIN_MAX_DIM
    for m, cutoff in ((5, 4), (3, 9), (1, 2049), (10 ** 12, 4)):
        with pytest.raises(ValueError, match="Galerkin dimension"):
            OscillatorModel(m=m, T=1.0, cutoff=cutoff)


@pytest.mark.parametrize("m,cutoff", [(1, 12), (2, 4), (3, 4)])
@pytest.mark.parametrize("T", [1.0, 1.161, 10.0])
def test_factored_overlap_matches_dense_oracle(m, cutoff, T):
    # the overlap from the Kronecker factors against the dense kernel
    # vector and dense beta; the result holds only the factors
    res = oscillator_galerkin(OscillatorModel(m=m, T=T, cutoff=cutoff))
    assert res.scalar_ground.shape == (cutoff,)
    assert res.fiber_ground.shape == (4 ** m,)
    assert abs(kernel_overlap(res) - dense_overlap(res)) <= 1e-14


# --- the kernel state --------------------------------------------------------

def test_exp_theta_m1_two_terms():
    # the literal exp(theta_1), the committed fixture and the exact oracle
    # agree
    exp_theta = theta_exponential(1)
    _, exp_theta1 = fixture_m1_fiber()
    assert np.array_equal(_EXP_THETA1, exp_theta1)
    assert np.array_equal(exp_theta1, [exp_theta.terms[lab].to_complex().real
                                       if lab in exp_theta.terms else 0.0
                                       for lab in enumerate_basis(1)])
    assert len(exp_theta.terms) == 2
    assert norm_sq(exp_theta).to_complex() == pytest.approx(2.0)


@pytest.mark.parametrize("m,expect_terms", [(1, 2), (2, 4), (3, 8)])
def test_exp_theta_norm(m, expect_terms):
    exp_theta = theta_exponential(m)
    assert len(exp_theta.terms) == expect_terms
    assert norm_sq(exp_theta).to_complex() == pytest.approx(2.0 ** m)
    assert math.sqrt(norm_sq(exp_theta).to_complex().real) == pytest.approx(
        math.sqrt(2.0 ** m))
    assert all(lab.r == 0 for lab in exp_theta.terms)


def test_beta_state_cached_by_m():
    # exp(theta) depends on m only: beta's fiber entries agree across T and
    # cutoff
    a = beta_vector(OscillatorModel(m=2, T=1.0, cutoff=4))
    b = beta_vector(OscillatorModel(m=2, T=7.5, cutoff=5))
    assert np.array_equal(a[:16], b[:16])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fiber_coefficients_read_exp_theta_in_basis_order(m):
    # beta_vector's fiber factor, at scalar multi-index 0...0, is the
    # exact exp(theta)'s terms as complex floats, entry by entry in
    # enumerate_basis order, and zero on every label exp(theta) lacks,
    # unit normalized; every other entry of beta is zero
    terms = theta_exponential(m).terms
    labels = enumerate_basis(m)
    want = np.array([terms[lab].to_complex() if lab in terms else 0j
                     for lab in labels])
    beta = beta_vector(OscillatorModel(m=m, T=1.0, cutoff=4))
    vec = beta[:len(labels)]
    assert vec.dtype == complex and vec.shape == (len(labels),) == (4 ** m,)
    assert np.array_equal(vec, want / np.linalg.norm(want))
    assert not beta[len(labels):].any()
    assert np.count_nonzero(vec) == len(terms) == 2 ** m
    assert want[labels.index(BasisLabel((), ()))] == 1.0


def test_beta_vector_normalized():
    vec = beta_vector(OscillatorModel(m=2, T=1.0, cutoff=4))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


# --- bump, normalization, isometries ----------------------------------------

def test_bump_plateau_and_support():
    assert smooth_bump(0.0) == smooth_bump(0.5) == smooth_bump(-0.3) == 1.0
    assert smooth_bump(1.0) == smooth_bump(-2.0) == 0.0
    assert 0.0 < smooth_bump(0.75) < 1.0


def test_bump_c2_joins():
    # second difference stays bounded across the joins: C^2 smoothness
    h = 1e-4
    for a in (0.5, 1.0):
        d2 = (smooth_bump(a + h) - 2 * smooth_bump(a) + smooth_bump(a - h)) / h ** 2
        d2_in = (smooth_bump(a + 3 * h) - 2 * smooth_bump(a + 2 * h)
                 + smooth_bump(a + h)) / h ** 2
        assert abs(d2 - d2_in) < 1.0


@given(st.floats(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_bump_range_and_evenness(a):
    v = smooth_bump(a)
    assert 0.0 <= v <= 1.0
    assert v == smooth_bump(-a)


def test_alpha_scaling_limit():
    for m in (1, 2):
        _, atm = alpha_T(1.0, m, 100.0)
        assert abs(atm * 2.0 ** m - 1.0) <= 0.002


def test_alpha_gaussian_oracle_wide_bump():
    # with eps far beyond the Gaussian width the bump is irrelevant and the
    # value equals the closed-form Gaussian integral (2T)^{-m}
    for m, T in ((1, 4.0), (2, 3.0)):
        a, _ = alpha_T(8.0, m, T)
        assert a == pytest.approx((2.0 * T) ** -m, rel=1e-9)


def test_alpha_monotone_in_eps():
    vals = [alpha_T(e, 1, 10.0)[0]
            for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def quad_alpha(eps, m, T):
    """alpha_T by adaptive quadrature of the radial integrand, split at the
    plateau edge eps/2 and at its tightest tolerance."""
    def integrand(rho):
        g = smooth_bump(rho / eps)
        return g * g * math.exp(-T * rho * rho) * rho ** (2 * m - 1)

    val = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1.2e-14,
                             limit=500)[0]
              for lo, hi in ((0.0, eps / 2.0), (eps / 2.0, eps)))
    return val * 2.0 / (2.0 ** m * math.factorial(m - 1))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_alpha_matches_quadrature_oracle():
    # T eps^2 / 4 runs from 6e-6 (the closed form's tail series, where the
    # flat piece is tiny) through the series/complement switch at m + 1 to
    # 1.6e5 (the ramp underflows)
    for eps in (0.05, 0.2, 0.5, 1.0, 2.0, 8.0):
        for m in (1, 2, 3):
            for T in np.geomspace(0.01, 1.0e4, 19):
                a, atm = alpha_T(eps, m, float(T))
                assert a == pytest.approx(quad_alpha(eps, m, float(T)),
                                          rel=1e-12)
                assert atm == a * float(T) ** m


def test_committed_rules_are_leggauss():
    # the fixture holds numpy's rules bit for bit, sign bits included
    for (nodes, weights), n in ((localmodel._RAMP_RULE, 40),
                                (localmodel._FIBER_RULE, 64)):
        for got, want in zip((nodes, weights), leggauss(n)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_alpha_probe_equals_leggauss_rules(monkeypatch):
    # alpha_T and isometry_defect at the alpha check's probe points, as a
    # run reports them, are the values that leggauss's own rules give
    osc = cli.OscillatorConfig(m_grid=(1, 2, 3), T_grid=(1.0,),
                               cutoffs=(4, 4, 4))
    probes = []
    defect = cli.isometry_defect
    monkeypatch.setattr(cli, "isometry_defect", lambda eps, m, T, u: (
        probes.append(T), defect(eps, m, T, u))[1])
    committed = cli.oscillator_results(osc)["alpha"]
    monkeypatch.setattr(localmodel, "_RAMP_RULE", leggauss(40))
    monkeypatch.setattr(localmodel, "_FIBER_RULE", leggauss(64))
    assert [(e["eps"], e["T"]) for e in committed] == [
        (cli.CUTOFF_EPS, cli.ALPHA_T_PROBE)] * 3
    # the isometry defect is taken at its own probe, not at the entry's T
    assert probes == [cli.ISOMETRY_T_PROBE] * 3 == [50.0] * 3
    assert committed == cli.oscillator_results(osc)["alpha"]


def test_alpha_rejects_nonpositive_T():
    for T in (0.0, -1.0):
        with pytest.raises(ValueError):
            alpha_T(1.0, 1, T)


def test_oscillator_checks_run_without_scipy(tmp_path):
    # the run path must not import scipy: block it and run both checks
    config = {"schema_version": 1, "name": "no-scipy",
              "models": [{"kind": "torus", "tau": [0.0, 1.0], "cutoff": 2,
                          "field": {"kind": "constant", "c": [1.0, 0.0]}}],
              "T_grid": [1.0], "checks": ["oscillator", "alpha"],
              "oscillator": {"m": [1, 2], "cutoff": [12, 4],
                             "T": [1.0, 10.0]}}
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from equivlab import cli\n"
        "report = cli.run(cli.parse_config(json.loads(sys.argv[1])),"
        " sys.argv[2])\n"
        "assert not [k for k in sys.modules if k.startswith('scipy.')]\n"
        "print(json.dumps(report.verdicts))\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(config), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(proc.stdout)
    assert verdicts == {"oscillator": "pass", "alpha": "pass"}


def test_isometry_defect_zero_vector():
    assert isometry_defect(1.0, 1, 50.0, np.zeros(3)) == 0.0


def test_isometry_defect_small():
    u = np.array([1.0 + 0.5j, -0.25j])
    assert isometry_defect(1.0, 1, 50.0, u) <= 1e-9
    u2 = np.array([0.3, 1.0 - 0.2j])
    assert isometry_defect(1.0, 1, 50.0, u, u2) <= 1e-9


def test_isometry_defect_m2():
    u = np.array([0.5, -1.0j])
    assert isometry_defect(1.0, 2, 50.0, u) <= 1e-9


def test_model_validation():
    with pytest.raises(ValueError):
        OscillatorModel(m=0, T=1.0)
    with pytest.raises(ValueError):
        OscillatorModel(m=1, T=0.0)
    with pytest.raises(ValueError):
        OscillatorModel(m=1, T=1.0, cutoff=1)
