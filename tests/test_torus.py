"""Flat torus blocks against a finite-difference oracle.

The oracle never reuses the lattice chain rule baked into the model: a mode
is evaluated as a function of the chart coordinate z, the antiholomorphic
derivative is taken by central differences in (Re z, Im z), and the
unit-frame coefficient is read off with the frame normalization alone."""

import cmath
import math

import numpy as np
import pytest

from equivlab.deformed import assemble_deformed, complex_property_defect
from equivlab.geometry.base import ModelError, ModelSpec, FieldSpec
from equivlab.geometry.torus import (dolbeault_coefficient, levels,
                                     torus_model)
from spectra import degree_eigenvalues


def finite_difference_mu(tau: complex, j: int, k: int, z0=0.37 + 0.41j,
                         h=1e-6) -> complex:
    """sqrt(2 Im tau) d(mode)/dzbar / mode at z0, by central differences."""

    def mode(z: complex) -> complex:
        y = z.imag / tau.imag
        x = z.real - tau.real * y
        return cmath.exp(2j * math.pi * (j * x + k * y))

    dre = (mode(z0 + h) - mode(z0 - h)) / (2 * h)
    dim = (mode(z0 + 1j * h) - mode(z0 - 1j * h)) / (2 * h)
    dzbar = 0.5 * (dre + 1j * dim)
    return math.sqrt(2.0 * tau.imag) * dzbar / mode(z0)


@pytest.mark.parametrize("tau", [1j, 0.5 + 1.25j])
@pytest.mark.parametrize("jk", [(1, 0), (0, 1), (2, -3), (-1, 2)])
def test_dolbeault_coefficient_matches_finite_differences(tau, jk):
    j, k = jk
    oracle = finite_difference_mu(tau, j, k)
    got = dolbeault_coefficient(tau, j, k)
    assert abs(got - oracle) <= 1e-5 * (1 + abs(oracle))


def test_frozen_mode_value_square_torus():
    # mode (1, 0) at tau = i: unit-frame coefficient pi sqrt(2)
    assert abs(abs(dolbeault_coefficient(1j, 1, 0))
               - math.pi * math.sqrt(2.0)) < 1e-13


def test_constant_mode_is_holomorphic():
    assert dolbeault_coefficient(1j, 0, 0) == 0


def test_contraction_kills_antiholomorphic_labels():
    model = torus_model(1j, 2, 0.7 + 0.2j)
    for cell in model.cells:
        # iv acts only on p = 1 blocks
        assert set(cell.iv) <= {(1, 0), (1, 1)}


def test_truncation_exactly_invariant():
    # every operator maps each mode into itself, one 1 x 1 block per member,
    # so nothing leaks and there is no exact layer to read diagnostics from
    model = torus_model(1j, 3, 1.0)
    (stack,) = model.cells
    for block in (*stack.dbar.values(), *stack.iv.values()):
        assert block.shape == (stack.size, 1, 1)
    assert model.exact is None
    blocks = assemble_deformed(model, 4.0)
    assert complex_property_defect(blocks) == 0.0


def test_degenerate_modulus_rejected():
    with pytest.raises(ModelError):
        torus_model(1.0 + 0j, 3, 1.0)
    with pytest.raises(ModelError):
        ModelSpec(kind="torus", tau=1j, cutoff=3,
                  field=FieldSpec("constant", c=0))


def test_undeformed_spectrum_is_fourier_ladder():
    tau, cutoff = 1j, 2
    model = torus_model(tau, cutoff, 1.0)
    spectra = degree_eigenvalues(model, 0.0)
    expect = sorted(levels(tau, cutoff))
    for r, mult in ((-1, 1), (0, 2), (1, 1)):
        got = spectra[r]
        want = np.sort(np.repeat(expect, mult))
        assert np.allclose(got, want, atol=1e-10)


def test_undeformed_kernel_is_constants():
    model = torus_model(1j, 2, 1.0)
    spectra = degree_eigenvalues(model, 0.0)
    for r, dim in ((-1, 1), (0, 2), (1, 1)):
        evals = spectra[r]
        assert int((evals < 1e-10).sum()) == dim


def test_deformed_spectrum_shifts_by_2T2():
    tau, cutoff, T, c = 0.5 + 1.5j, 2, 3.0, 0.8 - 0.4j
    model = torus_model(tau, cutoff, c)
    spectra = degree_eigenvalues(model, T)
    shift = 2.0 * T * T * abs(c) ** 2
    base = degree_eigenvalues(torus_model(tau, cutoff, c), 0.0)
    for r in (-1, 0, 1):
        got = spectra[r]
        want = base[r] + shift
        assert np.allclose(got, want, atol=1e-9)
