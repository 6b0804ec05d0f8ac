"""Product model: Kunneth counting, the graded tensor sign, and the Kunneth
splitting of the Dirac square against independently assembled factors."""

import numpy as np
import pytest

from equivlab.deformed import (assemble_deformed, complex_property_defect,
                               dirac, spectral_table)
from equivlab.geometry.base import ModelError, ModelSpec, FieldSpec
from equivlab.geometry import cp1_model, torus_model
from equivlab.geometry.product import product_model


def test_degree_range_and_kunneth_dims():
    model = product_model(0, 4, 1j, 1)
    assert model.n == 2
    modes = (2 * 1 + 1) ** 2
    left = {(0, 0): 25, (1, 0): 15, (0, 1): 24, (1, 1): 16}
    # r = -2 block dim = (left r=-1 dim) x (right r=-1 dim per mode) x modes
    assert model.degree_dim(-2) == left[(1, 0)] * modes
    # Kunneth counting for r = 0
    expect_r0 = (left[(0, 0)] + left[(1, 1)]) * 2 + left[(1, 0)] + left[(0, 1)]
    assert model.degree_dim(0) == expect_r0 * modes


def test_unsupported_factor_combination():
    bad = ModelSpec(
        kind="product", field=FieldSpec("product_lift", factor="left"),
        left=ModelSpec(kind="torus", tau=1j, cutoff=2,
                       field=FieldSpec("constant", c=1.0)),
        right=ModelSpec(kind="torus", tau=1j, cutoff=2,
                        field=FieldSpec("constant", c=1.0)))
    with pytest.raises(ModelError):
        bad.validate()


def test_complex_property_on_product():
    model = product_model(0, 4, 1j, 1)
    for T in (0.0, 1.0, 4.0):
        op = assemble_deformed(model, T)
        assert complex_property_defect(op) <= 1.0
        for (si, r), a in op.blocks.items():
            b = op.blocks.get((si, r + 1))
            if b is not None and a.size and b.size:
                assert np.linalg.norm(b @ a, 2, axis=(-2, -1)).max() < 1e-12


def test_kunneth_spectra_match_factor_sums():
    # d = d_L (x) 1 + sign (x) dbar_R squares to a Laplacian that splits as
    # L (x) 1 + 1 (x) R, so in degree r the product spectrum is the union over
    # r_L of (cp1 spectrum at T in r_L) + (undeformed torus spectrum in r - r_L)
    k, n_left, tau, n_right, T = 1, 5, 0.3 + 1.1j, 1, 2.0
    product = dirac(assemble_deformed(
        product_model(k, n_left, tau, n_right), T))
    left = dirac(assemble_deformed(cp1_model(k, n_left), T))
    right = dirac(assemble_deformed(torus_model(tau, n_right, 1.0), 0.0))
    for r in range(-2, 3):
        sums = [np.add.outer(left.merged_eigenvalues(r_left),
                             right.merged_eigenvalues(r - r_left)).ravel()
                for r_left in (-1, 0, 1) if abs(r - r_left) <= 1]
        want = np.sort(np.concatenate(sums))
        got = product.merged_eigenvalues(r)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * float(want[-1])


def test_localized_table_positive_dimensional_zero_set():
    model = product_model(0, 6, 1j, 2)
    table, results = spectral_table(model, 4.0)
    assert table.dims == {-2: 0, -1: 2, 0: 4, 1: 2, 2: 0}
    assert all(res.resolved for res in results.values())


def test_kernel_concentrates_on_zero_mode():
    # all kernel vectors live in the torus zero-mode cells: every other cell
    # has a positive lower bound
    model = product_model(0, 5, 1j, 1)
    dsq = dirac(assemble_deformed(model, 4.0))
    checked = 0
    for (si, r), hs in dsq.cells.items():
        for name, evals in zip(model.cells[si].names, np.linalg.eigvalsh(hs)):
            if "jk(0, 0)" in name:
                continue
            if len(evals):
                assert evals[0] > 1e-6
                checked += 1
    assert checked > 0
