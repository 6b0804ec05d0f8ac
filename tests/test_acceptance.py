"""Acceptance suite: the laboratory's exit criteria.

Each test implements one criterion at its stated tolerance and prints one
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see the
lines stream).  Criteria:

  A1  exact algebra identity suite (n <= 2), float mirror to 1e-12
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

import time
from fractions import Fraction

import numpy as np

from equivlab.deformed import (assemble_deformed, bochner_check,
                               complex_property_defect, graded_euler,
                               spectral_table, t_sweep)
from equivlab.exterior import (AlgebraElement, TangentVector, clifford_c,
                               clifford_hat_c, contract, enumerate_basis,
                               frame_vector, golden_tables, hermitian_inner,
                               metric_dual_wedge, wedge)
from equivlab.geometry import cp1_model, product_model, torus_model
from equivlab.localmodel import (GAP_CONSTANT, CutoffProfile, OscillatorModel,
                                 alpha_T, isometry_defect, kernel_overlap,
                                 oscillator_galerkin)
from equivlab.oracle import localization_prediction
from equivlab.scalars import ExactScalar


def _report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{tag} failed: {detail}"


def _unit(n, lab):
    return AlgebraElement.from_label(n, 1, lab)


def test_a1_algebra_identities():
    start = time.time()
    ok = True
    for n in (1, 2):
        basis = enumerate_basis(n, 1)
        labels = list(basis.labels)
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
    # float mirror agreement
    labels = list(enumerate_basis(2, 1).labels)
    ue = TangentVector((ExactScalar(Fraction(2, 3)), ExactScalar(0, -1)), False)
    uf = TangentVector((complex(2 / 3), -1j), False)
    for make in (clifford_c, clifford_hat_c):
        me = make(ue, 2, exact=True).matrix(labels, labels, exact=True)
        mf = make(uf, 2, exact=False).matrix(labels, labels, exact=False)
        worst = max(abs(me[i][j].to_complex() - mf[i][j])
                    for i in range(16) for j in range(16))
        ok = ok and worst <= 1e-12
    elapsed = time.time() - start
    _report("A1 algebra-identities", ok and elapsed < 5.0,
            f"runtime {elapsed:.2f}s")


def test_a2_complex_property():
    start = time.time()
    ok = True
    models = [torus_model(1j, 6, 1.0), cp1_model(0, 12), cp1_model(1, 12),
              product_model(0, 6, 1j, 2)]
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
    leak = max(v for key, v in model.leakage.items()
               if key.startswith("dual_wedge"))
    for T in (0, 1, 4):
        res = bochner_check(model, T)
        ok = ok and res["exact"] and res["residual"] <= 10.0 * leak
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
        ok = ok and all(v == 0 for v in table.dims.values())
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
    profile = CutoffProfile(eps=1.0)
    ok = True
    for m in (1, 2):
        _, atm = alpha_T(profile, m, 100.0)
        ok = ok and abs(atm * 2.0 ** m - 1.0) <= 0.002
        u = np.array([1.0 + 0.5j, -0.25j, 0.4])
        defect = isometry_defect(OscillatorModel(m=m, T=50.0, cutoff=4),
                                 profile, u)
        ok = ok and defect <= 1e-9
        u2 = np.array([0.1j, 0.7, -0.3])
        ok = ok and isometry_defect(OscillatorModel(m=m, T=50.0, cutoff=4),
                                    profile, u, u2) <= 1e-9
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
        for T in (2.0, 4.0, 8.0):
            table, results = spectral_table(model, T)
            ok = ok and all(res.resolved for res in results.values())
            ok = ok and table.dims == predicted.dims == {-1: 0, 0: 2, 1: 0}
            if T == 8.0:
                worst_gap_at_8 = min(worst_gap_at_8,
                                     min(res.gap for res in results.values()))
    ok = ok and worst_gap_at_8 >= 1e3
    elapsed = time.time() - start
    _report("A7 point-zero-set", ok and elapsed < 300.0,
            f"worst gap ratio at T=8: {worst_gap_at_8:.2e}, "
            f"runtime {elapsed:.1f}s")


def test_a8_positive_dimensional_zero_set():
    start = time.time()
    model = product_model(0, 8, 1j, 4)
    predicted = localization_prediction(model.spec)
    per_cell_max = max(cell.degree_dim(r, 2)
                       for cell in model.cells for r in range(-2, 3))
    ok = per_cell_max <= 4000
    for T in (4.0, 8.0):
        table, results = spectral_table(model, T)
        ok = ok and all(res.resolved for res in results.values())
        ok = ok and table.dims == predicted.dims
        ok = ok and table.dims == {-2: 0, -1: 2, 0: 4, 1: 2, 2: 0}
    elapsed = time.time() - start
    _report("A8 positive-dimensional-zero-set", ok and elapsed < 900.0,
            f"largest solved block {per_cell_max}, runtime {elapsed:.1f}s")


def test_a9_euler_invariance():
    start = time.time()
    ok = True
    cases = [torus_model(1j, 4, 1.0), cp1_model(0, 10), cp1_model(2, 10),
             cp1_model(3, 10), product_model(0, 6, 1j, 2)]
    for model in cases:
        t0, _ = spectral_table(model, 0.0)
        e0 = graded_euler(t0)
        for T in (2.0, 4.0):
            tt, _ = spectral_table(model, T)
            ok = ok and graded_euler(tt) == e0
    elapsed = time.time() - start
    _report("A9 euler-invariance", ok, f"runtime {elapsed:.1f}s")
