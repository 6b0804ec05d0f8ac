"""Flat torus model: Fourier blocks for the twisted exterior complex.

The torus is C modulo the lattice Z + tau Z with the flat metric scaled to
unit volume, so the modes exp(2 pi i (j x + k y)) in lattice coordinates are
an orthonormal basis and every Gram matrix is the identity.  Sections are
expanded in the unit frame covectors dz / sqrt(2 Im tau) and
dzbar / sqrt(2 Im tau); in that frame the Dolbeault coefficient on the mode
(j, k) is

    mu_{jk} = pi (j tau - k) sqrt(2 / Im(tau)),

and the constant field c times the unit (1,0) frame vector contracts the
holomorphic frame covector to the constant c.  All four operators preserve
each mode, so truncation by max frequency is exactly invariant and the
reported leakage is zero.  The modes share one layout, so the model is a
single stack with one member per mode.
"""

from __future__ import annotations

import math

import numpy as np

from .base import AssembledModel, CellStack, FieldSpec, ModelSpec

_PQS = ((0, 0), (1, 0), (0, 1), (1, 1))


def dolbeault_coefficient(tau: complex, j: int, k: int) -> complex:
    """Unit-frame coefficient of the Dolbeault operator on mode (j, k)."""
    return math.pi * (j * tau - k) * math.sqrt(2.0 / tau.imag)


def modes(cutoff: int) -> list[tuple[int, int]]:
    """Fourier modes (j, k) with |j|, |k| <= cutoff, in member order."""
    return [(j, k) for j in range(-cutoff, cutoff + 1)
            for k in range(-cutoff, cutoff + 1)]


def mode_coefficients(tau: complex, cutoff: int) -> np.ndarray:
    """Dolbeault coefficients of the modes, one entry per mode."""
    return np.array([dolbeault_coefficient(tau, j, k)
                     for j, k in modes(cutoff)])


def assemble_torus(spec: ModelSpec) -> AssembledModel:
    """One stack whose members are the Fourier modes; every block is 1x1."""
    spec.validate()
    mu = mode_coefficients(spec.tau, spec.cutoff)[:, None, None]
    c = np.full_like(mu, spec.field.c)
    stack = CellStack(
        name="modes",
        names=[f"jk({j},{k})" for j, k in modes(spec.cutoff)],
        dims={pq: 1 for pq in _PQS},
        labels={pq: [f"p{pq[0]}q{pq[1]}"] for pq in _PQS},
        dbar={(0, 0): mu, (1, 0): -mu},
        iv={(1, 0): c, (1, 1): c},
    )
    leakage = {f"{op}:p{p}q{q}": 0.0
               for op in ("dbar", "iv", "dual_wedge") for p, q in _PQS}
    conds = {f"p{p}q{q}": 1.0 for p, q in _PQS}
    return AssembledModel(spec=spec, n=1, cells=[stack],
                          leakage=leakage, gram_conditions=conds)


def torus_model(tau: complex, cutoff: int, c: complex) -> AssembledModel:
    """Assembled flat-torus model with the constant field c (c != 0)."""
    spec = ModelSpec(kind="torus", tau=tau, cutoff=cutoff,
                     field=FieldSpec("constant", c=c))
    return assemble_torus(spec)


def laplace_eigenvalue(tau: complex, j: int, k: int) -> float:
    """Exact eigenvalue of the undeformed degree-zero Dirac square on mode
    (j, k): twice the Dolbeault Laplacian coefficient."""
    return 2.0 * abs(dolbeault_coefficient(tau, j, k)) ** 2
