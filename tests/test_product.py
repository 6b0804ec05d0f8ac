"""Product model: Kunneth counting, the graded tensor sign, and the Kunneth
route to the spectra against the tensored assembly of `product_oracle`."""

from fractions import Fraction

import numpy as np
import pytest

from equivlab.deformed import (assemble_deformed, bochner_check,
                               cluster_kernel, complex_property_defect, dirac,
                               t_sweep)
from equivlab.geometry.base import ModelError, ModelSpec, FieldSpec
from equivlab.geometry import cp1_model, torus, torus_model
from equivlab.geometry.product import assemble_product, product_model
from product_oracle import tensored_product
from spectra import (degree_dim, degree_eigenvalues, degree_results,
                     degrees_at, member_dim)


def test_degree_range_and_kunneth_dims():
    model = product_model(0, 4, 1j, 1)
    assert model.n == 2
    modes = (2 * 1 + 1) ** 2
    left = {(0, 0): 25, (1, 0): 15, (0, 1): 24, (1, 1): 16}
    dims = {r: res.dim for r, res in degree_results(model, 0.0).items()}
    # r = -2 block dim = (left r=-1 dim) x (right r=-1 dim per mode) x modes
    assert dims[-2] == left[(1, 0)] * modes
    # Kunneth counting for r = 0
    expect_r0 = (left[(0, 0)] + left[(1, 1)]) * 2 + left[(1, 0)] + left[(0, 1)]
    assert dims[0] == expect_r0 * modes
    oracle = tensored_product(0, 4, 1j, 1)
    assert dims == {r: degree_dim(oracle, r) for r in range(-2, 3)}


def test_unsupported_factor_combination():
    torus = ModelSpec(kind="torus", tau=1j, cutoff=2,
                      field=FieldSpec("constant", c=1.0))
    with pytest.raises(ModelError):
        ModelSpec(kind="product",
                  field=FieldSpec("product_lift", factor="left"),
                  left=torus, right=torus)


def test_complex_property_on_product():
    model = tensored_product(0, 4, 1j, 1)
    for T in (0.0, 1.0, 4.0):
        blocks = assemble_deformed(model, T)
        assert complex_property_defect(blocks) <= 1.0
        for (si, r), a in blocks.items():
            b = blocks.get((si, r + 1))
            if b is not None and a.size and b.size:
                assert np.linalg.norm(b @ a, 2, axis=(-2, -1)).max() < 1e-12


def test_kunneth_spectra_match_factor_sums():
    # d = d_L (x) 1 + sign (x) dbar_R squares to a Laplacian that splits as
    # L (x) 1 + 1 (x) R, so in degree r the product spectrum is the union over
    # r_L of (cp1 spectrum at T in r_L) + (undeformed torus spectrum in r - r_L)
    k, n_left, tau, n_right, T = 1, 5, 0.3 + 1.1j, 1, 2.0
    product = degree_eigenvalues(
        tensored_product(k, n_left, tau, n_right), T)
    left = degree_eigenvalues(cp1_model(k, n_left), T)
    right = degree_eigenvalues(torus_model(tau, n_right, 1.0), 0.0)
    for r in range(-2, 3):
        sums = [np.add.outer(left[r_left], right[r - r_left]).ravel()
                for r_left in (-1, 0, 1) if abs(r - r_left) <= 1]
        want = np.sort(np.concatenate(sums))
        got = product[r]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * float(want[-1])


def test_localized_table_positive_dimensional_zero_set():
    model = product_model(0, 6, 1j, 2)
    sweep = t_sweep(model, [4.0])
    assert sweep.tables == {4.0: {-2: 0, -1: 2, 0: 4, 1: 2, 2: 0}}
    assert all(res.resolved for res in sweep.rows)


def test_kernel_concentrates_on_zero_mode():
    # all kernel vectors live in the torus zero-mode cells: every other cell
    # has a positive lower bound
    model = tensored_product(0, 5, 1j, 1)
    checked = 0
    for (si, r), hs in dirac(assemble_deformed(model, 4.0)).items():
        for name, evals in zip(model.cells[si].names, np.linalg.eigvalsh(hs)):
            if "jk(0, 0)" in name:
                continue
            if len(evals):
                assert evals[0] > 1e-6
                checked += 1
    assert checked > 0


KUNNETH_TAU = 0.3 + 1.1j      # a non-square modulus


@pytest.mark.parametrize("T", [0.0, 1.0 / 3.0, 2.0, 8.0])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_kunneth_route_matches_tensored_oracle(k, T):
    # the package's spectra from the factors against eigensolves of the
    # tensored product blocks: full spectra, counts, flags and gap ratios
    cutoff = max(k + 2, 4)
    model = product_model(k, cutoff, KUNNETH_TAU, 1)
    oracle = tensored_product(k, cutoff, KUNNETH_TAU, 1)
    kunneth = degrees_at(model, T)
    assert complex_property_defect(assemble_deformed(oracle, T)) <= 1.0
    tensored = degree_eigenvalues(oracle, T)
    degrees = []
    for r, _, got, n in kunneth:
        degrees.append(r)
        want = tensored[r]
        assert got.shape == want.shape == (degree_dim(oracle, r),)
        assert np.max(np.abs(got - want)) <= 1e-12 * float(want[-1])
        # the PSD guard's dimension, against a walk of the left stacks
        assert n == max(member_dim(stack, r - b) for stack in model.left.cells
                        for b in (-1, 0, 1))
        count, gap, resolved, _ = cluster_kernel(got)
        want_count, want_gap, want_resolved, _ = cluster_kernel(want)
        assert (count, resolved) == (want_count, want_resolved)
        assert gap == pytest.approx(want_gap, rel=1e-9)
    assert degrees == list(range(-2, 3))


def test_product_complex_property_is_the_left_factors():
    # d_T^2 = d_{T,L}^2 (x) 1: the sweep's defect ratio is the cp1 factor's
    # float ratio, and the exact certificate is the factor's
    model = product_model(1, 5, KUNNETH_TAU, 1)
    sweep = t_sweep(model, [2.0, 1.0 / 3.0])
    for T, ratio in sweep.complex_defect_ratio.items():
        assert ratio == complex_property_defect(
            assemble_deformed(model.left, T))
        assert model.exact.deformed_square_is_zero(Fraction(T))
    assert model.exact is model.left.exact


def test_product_and_bochner_read_one_level_array():
    # at tau = 0.3 + 1.1i, Python's abs and np.abs round the level of mode
    # (-1, -2) apart (147.146829252605 against 147.14682925260493), so two
    # roundings of the levels would show here
    tau, c, T = 0.3 + 1.1j, 0.8 + 0.6j, 3.0
    spec = product_model(0, 4, tau, 2).spec
    assert np.array_equal(assemble_product(spec).levels,
                          torus.levels(tau, 2))
    top = float(np.max(torus.levels(tau, 2) + 2.0 * T * T * abs(c) ** 2))
    assert bochner_check(torus_model(tau, 2, c), T)["bound"] == (
        4.0 * np.finfo(float).eps * top)
