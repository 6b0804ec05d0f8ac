"""Fiberwise model operator on C^m: closed-form spectrum, Hermite-Galerkin
cross-check, the degree-zero kernel state, and the cutoff/normalization
quantities used by the localization isometries.

The model operator on sections of the 2^{2m}-dimensional fiber algebra over
C^m is

    -4 sum_a d^2/dz^a dzbar^a  +  T^2 |Z|^2  +  T * W,

where W is the constant fiber endomorphism assembled from the Clifford
actions of the normal frame, scaled here at T = 1.  The scalar part is a
2m-dimensional harmonic oscillator with levels 2T (K + m); W has integer
eigenvalues 2j, j in [-m, m], with binomial multiplicities, so the full
spectrum is 2T (K + m + j).  The kernel is one-dimensional, spanned by
exp(theta - T |Z|^2 / 2) with theta the degree-zero pairing form of the
frame, and the first nonzero eigenvalue is 2T: the spectral-gap constant
A = 2 is frozen as a fixture.  The closed form is its sorted (eigenvalue,
multiplicity) levels and nothing more.  W and exp(theta) are computed
exactly in `exterior` (coefficients in Q(i)[sqrt2]), once per m
(`fiber_endomorphism_exact`, `theta_exponential`), and read as complex
floats entry by entry through `ExactScalar.to_complex`.

The localization isometries cut the Gaussian off with
gamma_eps(rho) = smooth_bump(rho / eps), so the cutoff radius eps is all
that `alpha_T` and `isometry_defect` take of it.

The Galerkin route expands each real coordinate in Hermite functions of
frequency T, so the kernel state is exactly representable and the kinetic
and potential pieces are assembled separately from ladder matrix elements
(their off-diagonals cancel only in exact arithmetic, which keeps the
numerical route independent of the closed form).  The Galerkin matrix is
the Kronecker sum  sum_i h1^(i) (x) 1 + 1 (x) T W  over the 2m real
coordinates, so it is diagonalized by its factors: one eigensolve of the
c x c one-dimensional matrix h1 and one of T W.  Every eigenvalue is a sum
of 2m eigenvalues of h1 and one of T W, and the kernel vector is the
Kronecker product of the factors' ground vectors.  Only this tensor algebra
is exact; the factor spectra are numerical solves of the truncated Hermite
and Clifford matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exterior import (AlgebraElement, clifford_c, clifford_hat_c,
                       enumerate_basis, frame_vector, metric_dual_wedge,
                       norm_sq, wedge)
from .scalars import ExactScalar, I_UNIT

GAP_CONSTANT = 2.0   # first nonzero eigenvalue over T; fixture value
GALERKIN_MIN_CUTOFF = 4   # smallest Hermite cutoff oscillator_galerkin takes


@dataclass(frozen=True)
class OscillatorModel:
    m: int
    T: float
    cutoff: int = 8

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need fiber dimension m >= 1")
        if self.T <= 0:
            raise ValueError("need T > 0")
        if self.cutoff < 2:
            raise ValueError("need cutoff >= 2")


# ---------------------------------------------------------------------------
# Fiber endomorphism via the exact Clifford actions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fiber_endomorphism_exact(m: int) -> tuple:
    """Exact matrix (tuple of tuples of ExactScalar) of the zero-order fiber
    term at T = 1:  -i * sum_a ( c(wbar_a) hatc(w_a) + c(w_a) hatc(wbar_a) )."""
    labels = enumerate_basis(m)
    total = None
    for a in range(1, m + 1):
        w = frame_vector(m, a, conjugated=False)
        wbar = frame_vector(m, a, conjugated=True)
        term = (clifford_c(wbar, m).compose(clifford_hat_c(w, m))
                + clifford_c(w, m).compose(clifford_hat_c(wbar, m)))
        total = term if total is None else total + term
    scaled = total.scaled(-I_UNIT)
    return tuple(tuple(row) for row in scaled.matrix(labels, labels))


def fiber_endomorphism(m: int) -> np.ndarray:
    mat = fiber_endomorphism_exact(m)
    out = np.array([[c.to_complex() for c in row] for row in mat])
    if np.abs(out.imag).max() > 0:
        raise AssertionError("fiber endomorphism should be real")
    return out.real


# ---------------------------------------------------------------------------
# Closed-form spectrum
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Hermite-Galerkin route
# ---------------------------------------------------------------------------

def _ladder_blocks(cutoff: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(kinetic, position-squared) matrices in the frequency-omega Hermite
    basis; their sum is diagonal only in exact arithmetic."""
    n = cutoff
    diag = 2.0 * np.arange(n) + 1.0
    off = np.sqrt(np.arange(1, n - 1) * (np.arange(1, n - 1) + 1.0))
    x2 = np.diag(diag / (2.0 * omega))
    p2 = np.diag(omega * diag / 2.0)
    for i, v in enumerate(off):
        x2[i, i + 2] = x2[i + 2, i] = v / (2.0 * omega)
        p2[i, i + 2] = p2[i + 2, i] = -omega * v / 2.0
    return p2, x2


@dataclass
class GalerkinResult:
    model: OscillatorModel
    eigenvalues: np.ndarray            # the full spectrum, ascending
    kernel_vector: np.ndarray          # eigenvector of the smallest eigenvalue
    dim: int

    def kernel_count(self) -> int:
        """Resolved near-zero cluster size, -1 if the clustering is ambiguous."""
        from .deformed import cluster_kernel
        count, _, resolved, _ = cluster_kernel(np.asarray(self.eigenvalues))
        return count if resolved else -1


def oscillator_galerkin(model: OscillatorModel) -> GalerkinResult:
    """Full spectrum and kernel vector of the Galerkin matrix from the
    eigensolves of its Kronecker factors.  Coordinates are ordered as in
    h1 (x) ... (x) h1 (x) W: scalar coordinates first, the fiber last."""
    if model.cutoff < GALERKIN_MIN_CUTOFF:
        raise ValueError(f"Galerkin route needs cutoff >= {GALERKIN_MIN_CUTOFF}")
    m, T = model.m, model.T
    p2, x2 = _ladder_blocks(model.cutoff, T)
    e1, v1 = np.linalg.eigh(p2 + (T * T) * x2)
    evals, evecs = np.linalg.eigh(T * fiber_endomorphism(m))
    kvec = evecs[:, 0]
    for _ in range(2 * m):
        evals = np.add.outer(e1, evals)
        kvec = np.kron(v1[:, 0], kvec)
    evals = np.sort(evals, axis=None)
    return GalerkinResult(model=model, eigenvalues=evals, kernel_vector=kvec,
                          dim=evals.size)


# ---------------------------------------------------------------------------
# The kernel state
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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


def beta_vector(model: OscillatorModel) -> np.ndarray:
    """Coefficients of exp(theta - T |Z|^2 / 2) in the Galerkin basis: the
    scalar ground state tensor the fiber exponential, unit normalized.  The
    fiber factor is exp(theta)'s exact terms as complex floats, in
    `enumerate_basis` order."""
    terms = theta_exponential(model.m).terms
    fiber = np.array([terms[lab].to_complex() if lab in terms else 0j
                      for lab in enumerate_basis(model.m)])
    dim_sc = model.cutoff ** (2 * model.m)
    vec = np.zeros(dim_sc * len(fiber), dtype=complex)
    vec[:len(fiber)] = fiber                      # scalar multi-index 0...0
    return vec / np.linalg.norm(vec)


def kernel_overlap(result: GalerkinResult) -> float:
    """|<galerkin kernel vector, beta>| with both unit normalized."""
    beta = beta_vector(result.model)
    v = result.kernel_vector
    return float(abs(np.vdot(v / np.linalg.norm(v), beta)))


# ---------------------------------------------------------------------------
# Cutoff profile, normalization integral, isometry defect
# ---------------------------------------------------------------------------

def smooth_bump(a: float | np.ndarray) -> float | np.ndarray:
    """Even C^2 bump: 1 on |a| <= 1/2, 0 on |a| >= 1, quintic in between.
    Elementwise on arrays."""
    t = np.clip(2.0 * (np.abs(a) - 0.5), 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


# Gauss-Legendre rules on [-1, 1]: the ramp of alpha_T, and both pieces of
# the fiber integral in isometry_defect.  Distinct rules keep the defect a
# comparison of two integration routes.
_RAMP_RULE = leggauss(40)
_FIBER_RULE = leggauss(64)


def _lower_gamma_regularized(m: int, x: float) -> float:
    """P(m, x) = gamma_lower(m, x) / (m-1)! for integer m >= 1, x >= 0.
    Below x = m + 1 the tail series e^{-x} sum_{k>=m} x^k/k! (terms fall
    by x/(k+1) < 1); above it the complement 1 - e^{-x} sum_{k<m} x^k/k!,
    which no longer cancels."""
    if x < m + 1:
        term = x ** m / math.factorial(m)
        total, k = 0.0, m
        while total + term != total:
            total += term
            k += 1
            term *= x / k
        return math.exp(-x) * total
    term, head = 1.0, 0.0
    for k in range(m):
        head += term
        term *= x / (k + 1)
    return 1.0 - math.exp(-x) * head


def _radial_rule(rule: tuple[np.ndarray, np.ndarray], eps: float,
                 m: int, T: float, lo: float, hi: float) -> float:
    """int_lo^hi gamma_eps(rho)^2 exp(-T rho^2) rho^{2m-1}, with the cutoff
    gamma_eps(rho) = smooth_bump(rho / eps), by the given Gauss-Legendre
    rule."""
    nodes, weights = rule
    rho = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    g = smooth_bump(rho / eps)
    f = g * g * np.exp(-T * rho * rho) * rho ** (2 * m - 1)
    return 0.5 * (hi - lo) * float(weights @ f)


def alpha_T(eps: float, m: int, T: float) -> tuple[float, float]:
    """Normalization integral of the cut-off Gaussian over the fiber,
    (2 pi)^{-m} int gamma_eps^2 exp(-T |Z|^2).  In polar coordinates the
    flat piece rho <= eps/2, where gamma = 1, is P(m, T eps^2/4) (2T)^{-m}
    in closed form; the quintic ramp eps/2 <= rho <= eps has an entire
    integrand and takes a fixed 40-node Gauss-Legendre rule (its share of
    alpha falls like exp(-T eps^2/4)).  Expanding gamma^2 in powers of rho
    instead and recursing on int rho^n exp(-T rho^2) loses every digit for
    T eps^2 of order 1 or below.  Returns (alpha, alpha * T^m); the second
    converges to 2^{-m}."""
    if T <= 0:
        raise ValueError("need T > 0")
    flat = _lower_gamma_regularized(m, T * eps * eps / 4.0) / (2.0 * T) ** m
    ramp = _radial_rule(_RAMP_RULE, eps, m, T, eps / 2.0, eps)
    # (2 pi)^{-m} * Vol(S^{2m-1}) = 2 / (2^m (m-1)!)
    alpha = flat + ramp * 2.0 / (2.0 ** m * math.factorial(m - 1))
    return alpha, alpha * T ** m


def isometry_defect(model: OscillatorModel, eps: float,
                    u1: np.ndarray, u2: np.ndarray | None = None) -> float:
    """| <<I u1, I u2>> - <u1, u2> | for the localization map
    I u = (2^m alpha_T)^{-1/2} gamma_eps (pi^* u) exp(theta - T|Z|^2/2).

    The normalization alpha is the closed-form flat piece plus a 40-node
    ramp rule; the fiber integral of |I u|^2 is a 64-node Gauss-Legendre
    rule on each piece with the fiber-algebra norm of exp(theta) taken from
    the exact exterior computation, so the defect measures agreement of two
    independent integration routes."""
    if u2 is None:
        u2 = u1
    m, T = model.m, model.T
    # |exp theta|^2 = 2^m
    nsq = norm_sq(theta_exponential(m)).to_complex().real
    alpha, _ = alpha_T(eps, m, T)
    val = 0.0
    for lo, hi in ((0.0, eps / 2.0), (eps / 2.0, eps)):
        val += _radial_rule(_FIBER_RULE, eps, m, T, lo, hi)
    fiber_integral = val * 2.0 / (2.0 ** m * math.factorial(m - 1)) * nsq
    base = complex(np.vdot(u1, u2))
    lhs = fiber_integral / (2.0 ** m * alpha) * base
    return float(abs(lhs - base))
