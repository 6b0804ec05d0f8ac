"""Fiber oscillator model: closed form vs Galerkin, the kernel state, the
spectral-gap fixture, bump/normalization quantities, isometry defects.

The assembled Galerkin matrix is the oracle for the factor route: the
sparse Kronecker sum is built term by term and solved densely at small
cutoffs, or applied to the kernel vector at m = 2."""

import json
import math
import os
import pathlib
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.sparse import csr_matrix, identity, kron

from equivlab.exterior import enumerate_basis
from equivlab.localmodel import (GAP_CONSTANT, CutoffProfile, OscillatorModel,
                                 _ladder_blocks, _theta_state, alpha_T,
                                 beta_state,
                                 beta_vector, convolve_spectra,
                                 fiber_endomorphism,
                                 isometry_defect, kernel_overlap,
                                 oscillator_galerkin,
                                 oscillator_spectrum_analytic, smooth_bump)


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


def beta_residual(model):
    """||H beta|| for the Galerkin matrix H: zero up to round-off because
    beta lies exactly in the span."""
    return float(np.linalg.norm(galerkin_matrix(model) @ beta_vector(model)))


# --- fiber endomorphism ------------------------------------------------------

def test_fiber_endomorphism_m1_entries():
    w = fiber_endomorphism(1)
    # acts only between the scalar label and the degree-zero two-form label
    basis = enumerate_basis(1, 1)
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    lab0 = [l for l in basis.labels if l.p == l.q == 0][0]
    lab2 = [l for l in basis.labels if l.p == l.q == 1][0]
    expect = np.zeros((4, 4))
    expect[idx[lab2], idx[lab0]] = 2.0
    expect[idx[lab0], idx[lab2]] = 2.0
    assert np.allclose(w, expect)


@pytest.mark.parametrize("m", [1, 2])
def test_fiber_endomorphism_symmetric_with_integer_spectrum(m):
    w = fiber_endomorphism(m)
    assert np.allclose(w, w.T)
    evals = np.linalg.eigvalsh(w)
    assert np.allclose(evals, np.round(evals), atol=1e-12)
    assert evals[0] == pytest.approx(-2.0 * m)
    assert evals[-1] == pytest.approx(2.0 * m)


# --- closed form -------------------------------------------------------------

def test_analytic_kernel_and_gap():
    for T in (1.0, 10.0, 100.0):
        spec = oscillator_spectrum_analytic(OscillatorModel(m=1, T=T))
        assert spec.kernel_multiplicity == 1
        assert spec.levels[0] == (0.0, 1)
        assert spec.gap_over_T == GAP_CONSTANT


def test_analytic_m1_multiplicities():
    spec = oscillator_spectrum_analytic(OscillatorModel(m=1, T=1.0))
    assert spec.levels[:4] == [(0.0, 1), (2.0, 4), (4.0, 8), (6.0, 12)]


def test_m2_spectrum_is_convolution_of_m1():
    T = 5.0
    one = oscillator_spectrum_analytic(OscillatorModel(m=1, T=T),
                                       max_level=10).levels
    two = oscillator_spectrum_analytic(OscillatorModel(m=2, T=T),
                                       max_level=8).levels
    conv = convolve_spectra(one, one, cap=2 * T * 8)
    assert conv == [(float(v), m) for v, m in two]


def test_gap_fixture_committed():
    fixture = json.loads(resources.files("equivlab.fixtures")
                         .joinpath("oscillator_gap.json").read_text())
    assert fixture["A"] == GAP_CONSTANT == 2.0


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
    levels = oscillator_spectrum_analytic(model, max_level=cutoff - 1).levels
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
    v = res.kernel_vector
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.linalg.norm(galerkin_matrix(model) @ v) <= 1e-10 * T


def test_galerkin_requires_cutoff():
    with pytest.raises(ValueError):
        oscillator_galerkin(OscillatorModel(m=1, T=1.0, cutoff=3))


# --- the kernel state --------------------------------------------------------

def test_exp_theta_m1_two_terms():
    state = beta_state(OscillatorModel(m=1, T=1.0, cutoff=4))
    assert len(state.exp_theta.terms) == 2
    assert state.norm_sq_exact.to_complex() == pytest.approx(2.0)


@pytest.mark.parametrize("m,expect_terms", [(1, 2), (2, 4), (3, 8)])
def test_exp_theta_norm(m, expect_terms):
    state = beta_state(OscillatorModel(m=m, T=1.0, cutoff=4))
    assert len(state.exp_theta.terms) == expect_terms
    assert state.norm_sq_exact.to_complex() == pytest.approx(2.0 ** m)
    assert state.pointwise_norm == pytest.approx(math.sqrt(2.0 ** m))
    assert all(lab.r == 0 for lab in state.exp_theta.terms)


def test_beta_state_cached_by_m():
    # exp(theta) depends on m only: one exact computation per m, equal to a
    # fresh one
    state = beta_state(OscillatorModel(m=2, T=1.0, cutoff=4))
    assert beta_state(OscillatorModel(m=2, T=7.5, cutoff=6)) is state
    fresh = _theta_state.__wrapped__(2)
    assert fresh.exp_theta == state.exp_theta
    assert fresh.norm_sq_exact == state.norm_sq_exact


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
    profile = CutoffProfile(eps=1.0)
    for m in (1, 2):
        _, atm = alpha_T(profile, m, 100.0)
        assert abs(atm * 2.0 ** m - 1.0) <= 0.002


def test_alpha_gaussian_oracle_wide_bump():
    # with eps far beyond the Gaussian width the bump is irrelevant and the
    # value equals the closed-form Gaussian integral (2T)^{-m}
    profile = CutoffProfile(eps=8.0)
    for m, T in ((1, 4.0), (2, 3.0)):
        a, _ = alpha_T(profile, m, T)
        assert a == pytest.approx((2.0 * T) ** -m, rel=1e-9)


def test_alpha_monotone_in_eps():
    vals = [alpha_T(CutoffProfile(eps=e), 1, 10.0)[0]
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
                a, atm = alpha_T(CutoffProfile(eps=eps), m, float(T))
                assert a == pytest.approx(quad_alpha(eps, m, float(T)),
                                          rel=1e-12)
                assert atm == a * float(T) ** m


def test_alpha_rejects_nonpositive_T():
    for T in (0.0, -1.0):
        with pytest.raises(ValueError):
            alpha_T(CutoffProfile(eps=1.0), 1, T)


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
    model = OscillatorModel(m=1, T=50.0, cutoff=4)
    assert isometry_defect(model, CutoffProfile(1.0), np.zeros(3)) == 0.0


def test_isometry_defect_small():
    model = OscillatorModel(m=1, T=50.0, cutoff=4)
    profile = CutoffProfile(eps=1.0)
    u = np.array([1.0 + 0.5j, -0.25j])
    assert isometry_defect(model, profile, u) <= 1e-9
    u2 = np.array([0.3, 1.0 - 0.2j])
    assert isometry_defect(model, profile, u, u2) <= 1e-9


def test_isometry_defect_m2():
    model = OscillatorModel(m=2, T=50.0, cutoff=4)
    u = np.array([0.5, -1.0j])
    assert isometry_defect(model, CutoffProfile(1.0), u) <= 1e-9


def test_model_validation():
    with pytest.raises(ValueError):
        OscillatorModel(m=0, T=1.0)
    with pytest.raises(ValueError):
        OscillatorModel(m=1, T=0.0)
    with pytest.raises(ValueError):
        OscillatorModel(m=1, T=1.0, cutoff=1)
