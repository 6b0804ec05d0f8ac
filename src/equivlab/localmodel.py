"""Fiberwise model operator on C^m: Hermite-Galerkin spectrum, the
degree-zero kernel state, and the cutoff/normalization quantities used by
the localization isometries.

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
is A = 2 (GAP_CONSTANT).

The fiber algebra on C^m is the graded tensor product of m copies of the
m = 1 algebra, basis (1, dz, dzbar, dz dzbar), and W and exp(theta) are
even, so both are tensor powers of their m = 1 cases:

    W_m = P (sum_a 1 (x) ... (x) W_1 (x) ... (x) 1) P^T,
    exp(theta_m) = P (exp(theta_1) (x) ... (x) exp(theta_1)),

with W_1 = -i (c(wbar) hatc(w) + c(w) hatc(wbar)) and exp(theta_1) =
1 - dz dzbar written out as integer literals, which the tests compare with
the m = 1 Clifford tables committed under tests/fixtures.  P is the signed
permutation from the per-coordinate product basis to the label order
(lexicographic on the (anti, holo) index tuples of dz^holo dzbar^anti);
its sign is the Koszul sign of sorting the generators, listed coordinate
by coordinate with dz before dzbar, into all dz's and then all dzbar's.
The entries are integers, so the products are exact and equal the exact
exterior-algebra construction that the tests keep as the oracle.

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
Kronecker product of the factors' ground vectors.  The result keeps those
two vectors, and the kernel state's coefficients are a Kronecker product
too, so `kernel_overlap` is a product of factor overlaps and no vector of
the Galerkin dimension is formed.  Only this tensor algebra is exact; the
factor spectra are numerical solves of the truncated Hermite and Clifford
matrices.  Every eigenvalue is kept, so an `OscillatorModel` refuses a
Galerkin dimension cutoff^(2m) 4^m above GALERKIN_MAX_DIM.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce
from importlib import resources

import numpy as np

GAP_CONSTANT = 2.0   # first nonzero eigenvalue over T
GALERKIN_MIN_CUTOFF = 4   # smallest Hermite cutoff of an OscillatorModel
# largest Galerkin dimension cutoff^(2m) 4^m of an OscillatorModel: 2^24
# eigenvalues are 128 MiB; m = 3 at cutoff 8 and m = 4 at cutoff 4 reach it
GALERKIN_MAX_DIM = 2 ** 24


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
        if self.cutoff < GALERKIN_MIN_CUTOFF:
            raise ValueError(f"need cutoff >= {GALERKIN_MIN_CUTOFF}")
        # each coordinate multiplies the dimension by 4 cutoff^2 > 2, so an
        # m past the bound's bit length is refused before the power is formed
        if (self.m > GALERKIN_MAX_DIM.bit_length()
                or self.cutoff ** (2 * self.m) * 4 ** self.m
                > GALERKIN_MAX_DIM):
            raise ValueError(
                f"Galerkin dimension cutoff^(2m) 4^m at m = {self.m}, "
                f"cutoff = {self.cutoff} is above {GALERKIN_MAX_DIM}")


# ---------------------------------------------------------------------------
# The fiber as a tensor power of the m = 1 fiber
# ---------------------------------------------------------------------------

# W_1 and exp(theta_1) on the m = 1 basis (1, dz, dzbar, dz dzbar).  Their
# tensor powers are taken in integers and read as floats once, so they
# are exact and no zero entry carries a sign.
_W1 = np.array([[0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]])
_EXP_THETA1 = np.array([1, 0, 0, -1])


def _label_order(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation P as (order, sign): fiber label i is sign[i]
    times product state order[i].  A product state holds one m = 1 index
    per coordinate (bit 1: dz^a, bit 2: dzbar^a), coordinate 1 outermost
    as in np.kron; the sign counts each dz^b moved left past a dzbar^a,
    a < b."""
    states = list(itertools.product(range(4), repeat=m))

    def label(s):
        return (tuple(a for a, x in enumerate(s) if x & 2),
                tuple(a for a, x in enumerate(s) if x & 1))

    def sign(s):
        moves = sum(1 for b, x in enumerate(s) if x & 1
                    for y in s[:b] if y & 2)
        return -1 if moves % 2 else 1

    order = sorted(range(len(states)), key=lambda i: label(states[i]))
    return np.array(order), np.array([sign(states[i]) for i in order])


def fiber_endomorphism(m: int) -> np.ndarray:
    """The zero-order fiber term at T = 1,
    -i sum_a ( c(wbar_a) hatc(w_a) + c(w_a) hatc(wbar_a) ):  W_1 on each
    coordinate in turn, summed and taken to label order by P."""
    order, sign = _label_order(m)
    eye = np.eye(4, dtype=int)
    total = sum(reduce(np.kron, [_W1 if b == a else eye for b in range(m)])
                for a in range(m))
    return (np.outer(sign, sign) * total[np.ix_(order, order)]).astype(float)


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
    # the kernel vector is scalar_ground^(x 2m) (x) fiber_ground
    scalar_ground: np.ndarray          # ground vector of h1
    fiber_ground: np.ndarray           # ground vector of T W
    dim: int

    def kernel_count(self) -> int:
        """Resolved near-zero cluster size, -1 if the clustering is ambiguous."""
        from .deformed import cluster_kernel
        count, _, resolved, _ = cluster_kernel(np.asarray(self.eigenvalues))
        return count if resolved else -1


def oscillator_galerkin(model: OscillatorModel) -> GalerkinResult:
    """Full spectrum and the kernel vector's Kronecker factors, from the
    eigensolves of the Galerkin matrix's factors.  Coordinates are ordered
    as in h1 (x) ... (x) h1 (x) W: scalar coordinates first, the fiber
    last."""
    m, T = model.m, model.T
    p2, x2 = _ladder_blocks(model.cutoff, T)
    e1, v1 = np.linalg.eigh(p2 + (T * T) * x2)
    evals, evecs = np.linalg.eigh(T * fiber_endomorphism(m))
    for _ in range(2 * m):
        evals = np.add.outer(e1, evals)
    evals = np.sort(evals, axis=None)
    return GalerkinResult(model=model, eigenvalues=evals,
                          scalar_ground=v1[:, 0], fiber_ground=evecs[:, 0],
                          dim=evals.size)


# ---------------------------------------------------------------------------
# The kernel state
# ---------------------------------------------------------------------------

def exp_theta(m: int) -> np.ndarray:
    """exp(theta) on the fiber basis in label order, P (exp(theta_1) (x)
    ... (x) exp(theta_1)), in integers."""
    order, sign = _label_order(m)
    return sign * reduce(np.kron, [_EXP_THETA1] * m)[order]


def kernel_overlap(result: GalerkinResult) -> float:
    """|<galerkin kernel vector, beta>| with both unit normalized, beta the
    coefficients of exp(theta - T |Z|^2 / 2): e_0^(x 2m) (x) exp(theta),
    the scalar ground state tensor the fiber exponential.  The kernel
    vector is s^(x 2m) (x) f, so the overlap factors into
    (|s_0| / ||s||)^(2m) |<f, exp(theta)>| / (||f|| ||exp(theta)||)."""
    s, f = result.scalar_ground, result.fiber_ground
    fiber = exp_theta(result.model.m)
    return float((abs(s[0]) / np.linalg.norm(s)) ** (2 * result.model.m)
                 * abs(np.vdot(f, fiber))
                 / (np.linalg.norm(f) * np.linalg.norm(fiber)))


# ---------------------------------------------------------------------------
# Cutoff profile, normalization integral, isometry defect
# ---------------------------------------------------------------------------

def smooth_bump(a: float | np.ndarray) -> float | np.ndarray:
    """Even C^2 bump: 1 on |a| <= 1/2, 0 on |a| >= 1, quintic in between.
    Elementwise on arrays."""
    t = np.clip(2.0 * (np.abs(a) - 0.5), 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def _gauss_legendre(*sizes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The committed n-node Gauss-Legendre rules on [-1, 1], as (nodes,
    weights), for each n in sizes.  scripts/make_fixtures.py writes them
    from numpy.polynomial.legendre.leggauss(n), and JSON floats round-trip
    exactly, so each is leggauss(n) bit for bit."""
    rules = json.loads(resources.files("equivlab.fixtures").joinpath(
        "gauss_legendre.json").read_text())["rules"]
    return [(np.array(rules[str(n)]["nodes"]),
             np.array(rules[str(n)]["weights"])) for n in sizes]


# Gauss-Legendre rules on [-1, 1]: the ramp of alpha_T, and both pieces of
# the fiber integral in isometry_defect.  Distinct rules keep the defect a
# comparison of two integration routes.  They are read from the committed
# fixture when the module is imported, so a run computes no rule and never
# imports numpy.polynomial.
_RAMP_RULE, _FIBER_RULE = _gauss_legendre(40, 64)


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
    integrand and takes the committed 40-node Gauss-Legendre rule (its
    share of alpha falls like exp(-T eps^2/4)).  Expanding gamma^2 in
    powers of rho instead and recursing on int rho^n exp(-T rho^2) loses
    every digit for T eps^2 of order 1 or below.  Returns (alpha,
    alpha * T^m); the second converges to 2^{-m}."""
    if T <= 0:
        raise ValueError("need T > 0")
    flat = _lower_gamma_regularized(m, T * eps * eps / 4.0) / (2.0 * T) ** m
    ramp = _radial_rule(_RAMP_RULE, eps, m, T, eps / 2.0, eps)
    # (2 pi)^{-m} * Vol(S^{2m-1}) = 2 / (2^m (m-1)!)
    alpha = flat + ramp * 2.0 / (2.0 ** m * math.factorial(m - 1))
    return alpha, alpha * T ** m


def isometry_defect(eps: float, m: int, T: float,
                    u1: np.ndarray, u2: np.ndarray | None = None) -> float:
    """| <<I u1, I u2>> - <u1, u2> | for the localization map
    I u = (2^m alpha_T)^{-1/2} gamma_eps (pi^* u) exp(theta - T|Z|^2/2).

    The normalization alpha is the closed-form flat piece plus the 40-node
    ramp rule; the fiber integral of |I u|^2 is the committed 64-node
    Gauss-Legendre rule on each piece times the fiber-algebra norm
    |exp theta|^2 = 2^m (the m-th power of |1 - dz dzbar|^2 = 2), so the
    defect measures agreement of two independent integration routes."""
    if u2 is None:
        u2 = u1
    nsq = 2.0 ** m   # |exp theta|^2
    alpha, _ = alpha_T(eps, m, T)
    val = 0.0
    for lo, hi in ((0.0, eps / 2.0), (eps / 2.0, eps)):
        val += _radial_rule(_FIBER_RULE, eps, m, T, lo, hi)
    fiber_integral = val * 2.0 / (2.0 ** m * math.factorial(m - 1)) * nsq
    base = complex(np.vdot(u1, u2))
    lhs = fiber_integral / (2.0 ** m * alpha) * base
    return float(abs(lhs - base))
