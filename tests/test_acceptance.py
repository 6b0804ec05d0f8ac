"""Acceptance suite: the laboratory's exit criteria.

Each test implements one criterion at its stated tolerance and prints one
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see the
lines stream).  Criteria:

  A1  exact algebra identity suite (n <= 2), float view to 1e-12
  A2  deformed complex property d_T^2 = 0 on all models, T in {0, 1, 4}:
      ||d_{r+1} d_r||_F <= (k + 8) eps ||d_{r+1}||_F ||d_r||_F, exact on cp1
  A3  curvature identity residual: torus to 1e-11, curved model exact
  A4  empty zero set: no kernel, smallest eigenvalue 2 |c|^2 T^2 to 1%
  A5  fiber model: kernel dim 1, state overlap, gap constant A = 2
  A6  normalization integral alpha T^m -> 2^{-m} to 0.2%, isometry to 1e-9
  A7  point zero set: counts (0, 2, 0) for twists 0..3, T in {2, 4, 8}
  A8  positive-dimensional zero set: counts (2, 4, 2) match the product oracle
  A9  graded Euler characteristic invariant under deformation
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from equivlab.deformed import (assemble_deformed, bochner_check,
                               complex_property_defect, graded_euler, t_sweep)
from equivlab.geometry import cp1_model, product_model, torus_model
from equivlab.localmodel import (GAP_CONSTANT, OscillatorModel, alpha_T,
                                 isometry_defect, kernel_overlap,
                                 oscillator_galerkin)
from equivlab.oracle import localization_prediction
from exterior import (AlgebraElement, TangentVector, clifford_c,
                      clifford_hat_c, contract, enumerate_basis, frame_vector,
                      golden_tables, hermitian_inner, metric_dual_wedge, wedge)
from scalars import ExactScalar
from product_oracle import tensored_product
from spectra import kernel_table, member_dim


def _report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{tag} failed: {detail}"


def _unit(n, lab):
    return AlgebraElement.from_label(n, lab)


def test_a1_algebra_identities():
    start = time.time()
    ok = True
    for n in (1, 2):
        labels = enumerate_basis(n)
        vectors = [frame_vector(n, j) for j in range(1, n + 1)]
        vectors.append(TangentVector(
            tuple(ExactScalar(Fraction(1, 2), 1) for _ in range(n)), False))
        # antiderivation identity on every basis pair
        for u in vectors:
            for la in labels:
                for lb in labels:
                    a, b = _unit(n, la), _unit(n, lb)
                    lhs = contract(u, wedge(a, b))
                    sign = ExactScalar(-1 if (la.p + la.q) % 2 else 1)
                    rhs = (wedge(contract(u, a), b)
                           + wedge(a, contract(u, b)).scale(sign))
                    ok = ok and lhs == rhs
            # nilpotency of contraction and of the dual wedge
            for la in labels:
                a = _unit(n, la)
                ok = ok and contract(u, contract(u, a)).is_zero()
                ubar = TangentVector(
                    tuple(c.conjugate() for c in u.components), True)
                ok = ok and metric_dual_wedge(
                    ubar, metric_dual_wedge(ubar, a)).is_zero()
            # adjoint relation c(u)^dagger = -c(ubar)
            ubar = TangentVector(tuple(c.conjugate() for c in u.components),
                                 True)
            for la in labels:
                for lb in labels:
                    a, b = _unit(n, la), _unit(n, lb)
                    lhs = hermitian_inner(clifford_c(u, n)(a), b)
                    rhs = hermitian_inner(a, clifford_c(ubar, n)(b))
                    ok = ok and (lhs + rhs) == ExactScalar(0)
    # golden anticommutator tables hold exactly
    tables = golden_tables()
    minus_two = ExactScalar(-2).serialize()
    zero = ExactScalar(0).serialize()
    for key, mat in tables["anticommutators"].items():
        a, b = key.split(",")
        conj_pair = (a.startswith("hatc") == b.startswith("hatc")
                     and a.endswith("bar") != b.endswith("bar"))
        for i in range(4):
            for j in range(4):
                want = minus_two if (i == j and conj_pair) else zero
                ok = ok and mat[i][j] == want
    # the float view keeps the same relations at n = 2:
    # {c(w_i), c(wbar_j)} = {hatc(w_i), hatc(wbar_j)} = -2 delta_ij, all
    # other anticommutators zero
    labels = enumerate_basis(2)
    gens = {}
    for j in (1, 2):
        for conj in (False, True):
            u = frame_vector(2, j, conjugated=conj)
            for name, make in (("c", clifford_c), ("hatc", clifford_hat_c)):
                gens[name, j, conj] = np.array(
                    [[c.to_complex() for c in row]
                     for row in make(u).matrix(labels, labels)])
    eye = np.eye(len(labels))
    for (ka, a), (kb, b) in itertools.combinations_with_replacement(
            gens.items(), 2):
        pair = ka[:2] == kb[:2] and ka[2] != kb[2]
        want = -2.0 * eye if pair else 0.0 * eye
        ok = ok and np.abs(a @ b + b @ a - want).max() <= 1e-12
    elapsed = time.time() - start
    _report("A1 algebra-identities", ok and elapsed < 5.0,
            f"runtime {elapsed:.2f}s")


def test_a2_complex_property():
    start = time.time()
    ok = True
    # the product as tensored blocks, since the package never forms them
    models = [torus_model(1j, 6, 1.0), cp1_model(0, 12), cp1_model(1, 12),
              tensored_product(0, 6, 1j, 2)]
    for model in models:
        for T in (0.0, 1.0, 4.0):
            # the worst ratio of ||d_{r+1} d_r|| to its round-off bound
            ratio = complex_property_defect(assemble_deformed(model, T))
            ok = ok and ratio <= 1.0
    # exact certification on the curved models
    for model in (cp1_model(0, 12), cp1_model(1, 12)):
        for T in (Fraction(0), Fraction(1), Fraction(4)):
            ok = ok and model.exact.deformed_square_is_zero(T)
    elapsed = time.time() - start
    _report("A2 complex-property", ok and elapsed < 30.0,
            f"runtime {elapsed:.1f}s")


def test_a3_curvature_identity():
    start = time.time()
    torus_res = bochner_check(torus_model(1j, 4, 1.0), 2.0)
    ok = torus_res["residual"] <= 1e-11
    ok = ok and torus_res["zero_order_term"] == 0.0
    model = cp1_model(0, 12)
    for T in (0, 1, 4):
        res = bochner_check(model, T)
        ok = ok and res["exact"] and res["residual"] == 0
    elapsed = time.time() - start
    _report("A3 curvature-identity", ok and elapsed < 60.0,
            f"torus {torus_res['residual']:.2e}, curved exact 0, "
            f"runtime {elapsed:.1f}s")


def test_a4_vanishing_empty_zero_set():
    start = time.time()
    model = torus_model(1j, 6, 1.0)
    sweep = t_sweep(model, [1.0, 2.0, 4.0])
    ok = not sweep.unresolved
    for table in sweep.tables.values():
        ok = ok and all(v == 0 for v in table.values())
    for T, ratio in sweep.min_eig_over_T2.items():
        ok = ok and abs(ratio / 2.0 - 1.0) <= 0.01
    elapsed = time.time() - start
    _report("A4 vanishing", ok and elapsed < 30.0,
            f"min-eig ratios {sorted(sweep.min_eig_over_T2.values())}, "
            f"runtime {elapsed:.1f}s")


def test_a5_fiber_model():
    start = time.time()
    ok = True
    gaps: dict[int, list[float]] = {}
    for m, cutoff in ((1, 12), (2, 4)):
        for T in (1.0, 10.0):
            res = oscillator_galerkin(OscillatorModel(m=m, T=T, cutoff=cutoff))
            ok = ok and res.kernel_count() == 1
            ok = ok and kernel_overlap(res) >= 1.0 - 1e-8
            scale = max(float(res.eigenvalues[-1]), 1.0)
            nonzero = [x for x in res.eigenvalues if x > 1e-8 * scale]
            ok = ok and nonzero[0] >= GAP_CONSTANT * T * (1.0 - 1e-8)
            ok = ok and abs(nonzero[0] / T / GAP_CONSTANT - 1.0) <= 1e-8
            gaps.setdefault(m, []).append(nonzero[0] / T)
    for gs in gaps.values():
        ok = ok and (max(gs) - min(gs)) <= 1e-8 * GAP_CONSTANT
    elapsed = time.time() - start
    _report("A5 fiber-model", ok and elapsed < 120.0,
            f"gap/T per m: { {m: gs[0] for m, gs in gaps.items()} }, "
            f"runtime {elapsed:.1f}s")


def test_a6_normalizations():
    start = time.time()
    eps = 1.0
    ok = True
    for m in (1, 2):
        _, atm = alpha_T(eps, m, 100.0)
        ok = ok and abs(atm * 2.0 ** m - 1.0) <= 0.002
        u = np.array([1.0 + 0.5j, -0.25j, 0.4])
        ok = ok and isometry_defect(eps, m, 50.0, u) <= 1e-9
        u2 = np.array([0.1j, 0.7, -0.3])
        ok = ok and isometry_defect(eps, m, 50.0, u, u2) <= 1e-9
    elapsed = time.time() - start
    _report("A6 normalizations", ok and elapsed < 30.0,
            f"runtime {elapsed:.1f}s")


def test_a7_point_zero_set():
    start = time.time()
    ok = True
    worst_gap_at_8 = float("inf")
    for k in (0, 1, 2, 3):
        model = cp1_model(k, 12)
        predicted = localization_prediction(model.spec)
        sweep = t_sweep(model, [2.0, 4.0, 8.0])
        ok = ok and all(res.resolved for res in sweep.rows)
        for table in sweep.tables.values():
            ok = ok and table == predicted == {-1: 0, 0: 2, 1: 0}
        worst_gap_at_8 = min(worst_gap_at_8, min(
            res.gap for res in sweep.rows if res.T == 8.0))
    ok = ok and worst_gap_at_8 >= 1e3
    elapsed = time.time() - start
    _report("A7 point-zero-set", ok and elapsed < 300.0,
            f"worst gap ratio at T=8: {worst_gap_at_8:.2e}, "
            f"runtime {elapsed:.1f}s")


def test_a8_positive_dimensional_zero_set():
    start = time.time()
    model = product_model(0, 8, 1j, 4)
    predicted = localization_prediction(model.spec)
    # the eigensolves run on the cp1 factor's blocks only
    per_cell_max = max(member_dim(cell, r)
                       for cell in model.left.cells for r in range(-1, 2))
    ok = per_cell_max <= 4000
    sweep = t_sweep(model, [4.0, 8.0])
    ok = ok and all(res.resolved for res in sweep.rows)
    for table in sweep.tables.values():
        ok = ok and table == predicted
        ok = ok and table == {-2: 0, -1: 2, 0: 4, 1: 2, 2: 0}
    elapsed = time.time() - start
    _report("A8 positive-dimensional-zero-set", ok and elapsed < 900.0,
            f"largest solved block {per_cell_max}, runtime {elapsed:.1f}s")


def test_a9_euler_invariance():
    start = time.time()
    ok = True
    cases = [torus_model(1j, 4, 1.0), cp1_model(0, 10), cp1_model(2, 10),
             cp1_model(3, 10), product_model(0, 6, 1j, 2)]
    for model in cases:
        e0 = graded_euler(kernel_table(model, 0.0))
        for T in (2.0, 4.0):
            ok = ok and graded_euler(kernel_table(model, T)) == e0
    elapsed = time.time() - start
    _report("A9 euler-invariance", ok, f"runtime {elapsed:.1f}s")
