"""Deformed-complex machinery: clustering rule, adjoint relation, spectra
against the Fourier oracle, deformation invariance, curvature identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivlab.deformed import (FLOOR_REL, RESOLVE_RATIO, WINDOW_FRACTION,
                               assemble_deformed, bochner_check,
                               cluster_kernel, dirac, graded_euler, t_sweep)
from equivlab.cli import parse_config, run
from equivlab.geometry import cp1 as cp1mod
from equivlab.geometry import cp1_model, product_model, torus_model
from equivlab.geometry import torus
from product_oracle import tensored_product
from spectra import (degree_dim, degree_eigenvalues, degree_results,
                     kernel_table)


# --- clustering rule -------------------------------------------------------

def test_cluster_clean_kernel():
    evals = np.array([1e-15, 2e-15, 1.0, 2.0, 3.0] + [10.0] * 20)
    count, gap, resolved, threshold = cluster_kernel(evals)
    assert count == 2 and resolved and gap > 1e10
    assert 1e-12 < threshold < 1.0


def test_cluster_empty_kernel():
    evals = np.array([2.0, 2.5, 3.0, 4.0] + [10.0] * 20)
    count, gap, resolved, _ = cluster_kernel(evals)
    assert count == 0 and resolved


def test_cluster_all_zero():
    evals = np.zeros(5)
    count, gap, resolved, _ = cluster_kernel(evals)
    assert count == 5 and resolved


def test_cluster_far_from_zero_resolves_empty_kernel():
    evals = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    count, gap, resolved, _ = cluster_kernel(evals)
    assert count == 0 and resolved


def test_cluster_ambiguous_not_resolved():
    # a spectrum climbing smoothly out of the numerical-zero floor has no
    # dominant relative gap: the count must be flagged, not silently chosen
    evals = np.array([1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 10.0])
    count, gap, resolved, _ = cluster_kernel(evals)
    assert not resolved


def test_cluster_respects_window():
    # a huge gap outside the lowest quarter must not be picked up
    evals = np.array([1.0] * 30 + [1e9] * 10)
    count, gap, resolved, _ = cluster_kernel(evals)
    assert count == 0


def test_cluster_kernel_with_floor_straddle():
    evals = np.array([1e-16, 3e-10, 5.0, 6.0] + [9.0] * 12)
    count, _, resolved, _ = cluster_kernel(evals)
    assert count == 2 and resolved


def loop_cluster_kernel(evals):
    """The window scan as a Python loop: the reference for the vectorized
    ratio and argmax of cluster_kernel."""
    n = len(evals)
    if n == 0:
        return 0, float("inf"), True, 0.0
    scale = max(float(evals[-1]), 1.0)
    floor = FLOOR_REL * scale
    lam = np.maximum(np.asarray(evals, dtype=float), floor)
    if float(lam[-1]) <= floor:
        return n, float("inf"), True, floor
    window = max(1, int(np.ceil(WINDOW_FRACTION * n)))
    best_i, best_ratio = 0, lam[0] / floor
    for i in range(1, min(window, n - 1) + 1):
        ratio = lam[i] / lam[i - 1]
        if ratio > best_ratio:
            best_i, best_ratio = i, ratio
    lo = floor if best_i == 0 else lam[best_i - 1]
    hi = lam[best_i] if best_i < n else lam[-1]
    threshold = float(np.sqrt(lo * hi))
    resolved = best_ratio >= RESOLVE_RATIO
    return best_i, float(best_ratio), bool(resolved), threshold


# values drawn from a few levels so that equal neighbours, tied ratios and
# constant spectra are common
_LEVELS = st.sampled_from([0.0, 1e-16, 3e-10, 1e-3, 0.5, 1.0, 2.0, 4.0,
                           8.0, 1e3])


@given(st.lists(_LEVELS, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_cluster_kernel_matches_loop(values):
    evals = np.sort(np.array(values))
    assert cluster_kernel(evals) == loop_cluster_kernel(evals)


@pytest.mark.parametrize("evals", [
    np.full(12, 3.0),                       # constant spectrum
    np.ldexp(1e-12, np.arange(8)),          # every ratio exactly 2
    np.array([1e-12] * 4 + [1.0] * 4),      # every ratio in the window 1
    np.array([5.0]),
])
def test_cluster_kernel_ties_keep_first(evals):
    assert cluster_kernel(evals) == loop_cluster_kernel(evals)


# --- assembled operator ----------------------------------------------------

def test_deformed_blocks_at_T0_equal_plain():
    # at T = 0 the only nonzero blocks of d_T are the Dolbeault blocks,
    # placed from (p, q) to (p, q + 1) within the degree-r block of d_T
    for model in (torus_model(1j, 2, 1.0), cp1_model(1, 6)):
        for (si, r), blk in assemble_deformed(model, 0.0).items():
            stack = model.cells[si]
            want = np.zeros_like(blk)
            tgt = stack.pqs_of_degree(r + 1, model.n)
            col = 0
            for pq in stack.pqs_of_degree(r, model.n):
                dmat = stack.dbar.get(pq)
                if dmat is not None and (pq[0], pq[1] + 1) in tgt:
                    row = sum(stack.dim(t) for t in tgt[:tgt.index(
                        (pq[0], pq[1] + 1))])
                    want[:, row:row + dmat.shape[1],
                         col:col + dmat.shape[2]] = dmat
                col += stack.dim(pq)
            assert np.array_equal(blk, want)


def test_adjoint_pairing_identity():
    # <u, D_T^2 u> = 2 (|d_r u|^2 + |d_{r-1}^* u|^2) with d^* the conjugate
    # transpose in the orthonormal bases, for every member of every stack
    rng = np.random.default_rng(5)
    for model in (cp1_model(1, 6), tensored_product(1, 5, 0.3 + 1.1j, 1)):
        blocks = assemble_deformed(model, 2.0)
        for (si, r), hs in dirac(blocks).items():
            for i, h in enumerate(hs):
                u = (rng.standard_normal(h.shape[0])
                     + 1j * rng.standard_normal(h.shape[0]))
                here = blocks[(si, r)][i]
                below = (blocks[(si, r - 1)][i] if (si, r - 1) in blocks
                         else np.zeros((h.shape[0], 0)))
                lhs = np.vdot(u, h @ u)
                rhs = 2.0 * (np.linalg.norm(here @ u) ** 2
                             + np.linalg.norm(below.conj().T @ u) ** 2)
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_dirac_hermiticity_defect():
    # eigvalsh reads one triangle, so every Dirac stack must be exactly
    # Hermitian
    for model in (torus_model(1j, 2, 1.0), cp1_model(0, 6),
                  tensored_product(1, 5, 0.3 + 1.1j, 1)):
        for T in (0.0, 2.0, 1.0 / 3.0):
            cells = dirac(assemble_deformed(model, T))
            assert cells
            for h in cells.values():
                assert np.array_equal(h, h.conj().swapaxes(-1, -2))


def test_spectra_nonnegative():
    model = cp1_model(2, 8)
    results = degree_results(model, 4.0)
    for r in (-1, 0, 1):
        res = results[r]
        assert res.eigenvalues[0] >= -1e-10
        assert res.dim == degree_dim(model, r)


def test_torus_deformed_spectrum_matches_fourier_oracle():
    tau, cutoff, T, c = 1j, 2, 2.0, 1.0
    model = torus_model(tau, cutoff, c)
    oracle = sorted(torus.levels(tau, cutoff) + 2 * T * T * abs(c) ** 2)
    got = degree_eigenvalues(model, T)[-1]
    assert np.allclose(got, oracle, atol=1e-9)


def test_cp1_t0_degree_table_matches_hodge():
    for k, expect in ((0, {-1: 0, 0: 2, 1: 0}),
                      (2, {-1: 1, 0: 3, 1: 0}),
                      (3, {-1: 2, 0: 4, 1: 0})):
        results = degree_results(cp1_model(k, 8), 0.0)
        assert {r: res.kernel_count for r, res in results.items()} == expect
        assert all(res.resolved for res in results.values())


def test_cp1_localized_kernel_counts():
    model = cp1_model(0, 8)
    results = degree_results(model, 4.0)
    assert {r: res.kernel_count for r, res in results.items()} == {
        -1: 0, 0: 2, 1: 0}
    assert results[0].gap > 1e3


def test_deformation_invariance_over_T():
    model = cp1_model(2, 8)
    sweep = t_sweep(model, [0.5, 1.0, 2.0, 4.0, 8.0])
    tables = list(sweep.tables.values())
    assert all(t == tables[0] for t in tables)
    assert not sweep.unresolved


def test_deformed_table_differs_from_hodge_for_twist_two():
    # at twist 2 the undeformed table (1, 3, 0) collapses to (0, 2, 0)
    model = cp1_model(2, 8)
    t0 = kernel_table(model, 0.0)
    t4 = kernel_table(model, 4.0)
    assert t0 != t4
    assert graded_euler(t0) == graded_euler(t4) == 2


def test_twist_zero_tables_coincide():
    # for the trivial twist both tables equal (0, 2, 0): the undeformed and
    # localized dimensions agree by coincidence of the Hodge numbers
    model = cp1_model(0, 8)
    t0 = kernel_table(model, 0.0)
    t4 = kernel_table(model, 4.0)
    assert t0 == t4 == {-1: 0, 0: 2, 1: 0}


def test_torus_sweep_vanishing_and_growth():
    model = torus_model(1j, 3, 1.0)
    sweep = t_sweep(model, [1.0, 2.0, 4.0])
    for table in sweep.tables.values():
        assert all(v == 0 for v in table.values())
    assert sweep.min_eig_over_T2 == {1.0: 2.0, 2.0: 2.0, 4.0: 2.0}


def test_sweep_validates_grid():
    model = torus_model(1j, 2, 1.0)
    with pytest.raises(ValueError):
        t_sweep(model, [])
    with pytest.raises(ValueError):
        t_sweep(model, [1.0, -2.0])


def test_graded_euler():
    assert graded_euler({-1: 0, 0: 2, 1: 0}) == 2
    assert graded_euler({-1: 1, 0: 3, 1: 0}) == 2
    assert graded_euler({-1: 1, 0: 2, 1: 1}) == 0


def test_euler_invariance_all_models():
    for model in (torus_model(1j, 2, 1.0), cp1_model(1, 6),
                  product_model(0, 4, 1j, 1)):
        t0 = kernel_table(model, 0.0)
        t2 = kernel_table(model, 2.0)
        assert graded_euler(t0) == graded_euler(t2)


# --- curvature identity ----------------------------------------------------

def test_bochner_torus_exact_to_roundoff():
    out = bochner_check(torus_model(1j, 2, 0.6 + 0.3j), 1.5)
    assert out["residual"] <= 1e-11
    assert out["zero_order_term"] == 0.0


def test_bochner_cp1_exact_zero():
    model = cp1_model(0, 6)
    for T in (0, 1, Fraction(7, 2)):
        out = bochner_check(model, T)
        assert out["exact"] and out["residual"] == 0.0
    # the zero-order term is genuinely present off the flat model
    assert bochner_check(model, 1)["zero_order_term"] > 0


def doubled(rule):
    """The monomial rule with every image coefficient doubled."""
    def twice(*args):
        image = rule(*args)
        if image is None:
            return None
        pq, den, terms = image
        return pq, den, [(ab, 2 * co) for ab, co in terms]
    return twice


def test_bochner_cp1_detects_wrong_curvature(tmp_path, monkeypatch):
    # a curvature term twice too large on the (1,1) block leaves a residual
    # 2 T |Theta e| = 4 at T = 2, and the exact check must fail on it
    monkeypatch.setattr(cp1mod, "curvature_contract",
                        doubled(cp1mod.curvature_contract))
    assert bochner_check(cp1_model(1, 6), 2)["residual"] == 4
    config = parse_config({
        "schema_version": 1, "name": "bad-curvature",
        "models": [{"kind": "cp1", "k": 1, "cutoff": 6,
                    "field": {"kind": "linear"}}],
        "T_grid": [2.0], "checks": ["bochner"], "outputs": ["json"]})
    report = run(config, str(tmp_path / "out"))
    assert report.verdicts == {"bochner:cp1(k=1,cut=6)": "fail"}


def test_bochner_cp1_detects_wrong_field_norm(monkeypatch):
    # |v|^2 twice too large breaks the Clifford identity V^2 = |v|^2 and
    # nothing else: the bracket is |v|^2 e, coefficient 1, so the residual
    # at T = 3 is 2 T^2 = 18
    monkeypatch.setattr(cp1mod, "field_norm_mul",
                        doubled(cp1mod.field_norm_mul))
    model = cp1_model(0, 4)
    assert model.exact.bochner_brackets == (0, 1, 1)
    assert bochner_check(model, 3)["residual"] == 18


def test_bochner_cp1_scales_the_brackets_by_exact_T():
    # the residual and zero-order term are 2 |T| and 2 T^2 times T-free
    # integers, with T read exactly: 1e-7 is not rounded to 0
    model = cp1_model(0, 4)
    assert model.exact.bochner_brackets == (0, 0, 1)
    for T in (1e-7, -0.3, 2.5):
        out = bochner_check(model, T)
        assert out == {"residual": 0.0, "bound": 0.0, "exact": True,
                       "zero_order_term": float(2 * abs(Fraction(T)))}


def test_bochner_rejects_product():
    with pytest.raises(ValueError):
        bochner_check(product_model(0, 4, 1j, 1), 1.0)
