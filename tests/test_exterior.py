import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exterior import (GOLDEN_TABLES_PATH, AlgebraElement, BasisLabel,
                      TangentVector, clifford_c, clifford_hat_c, contract,
                      enumerate_basis, frame_vector, golden_tables,
                      hermitian_inner, metric_dual_wedge, wedge)
from scalars import ExactScalar


def label(anti=(), holo=()):
    return BasisLabel(tuple(anti), tuple(holo))


def unit(n, lab):
    return AlgebraElement.from_label(n, lab)


# --- enumeration -----------------------------------------------------------

def test_enumerate_n1_counts_and_degrees():
    labels = enumerate_basis(1)
    assert labels == (label(), label(holo=(1,)), label(anti=(1,)),
                      label(anti=(1,), holo=(1,)))
    assert [l.r for l in labels] == [0, -1, 1, 0]


def test_enumerate_n2_r0_block():
    labels = enumerate_basis(2)
    assert len(labels) == 16
    # brute force count: sum over q - p = 0 of C(2,p) C(2,q)
    brute = sum(1 for p_sub in _subsets(2) for q_sub in _subsets(2)
                if len(q_sub) == len(p_sub))
    assert sum(1 for l in labels if l.r == 0) == brute == 6


def _subsets(n):
    out = []
    for size in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


# --- wedge -----------------------------------------------------------------

def test_wedge_square_vanishes():
    dz = unit(1, label(holo=(1,)))
    assert wedge(dz, dz).is_zero()


def test_wedge_basis_product():
    dz = unit(1, label(holo=(1,)))
    dzbar = unit(1, label(anti=(1,)))
    out = wedge(dz, dzbar)
    assert out.terms == {label(anti=(1,), holo=(1,)): ExactScalar(1)}


def test_wedge_expansion_cross_terms():
    # (dz + dzbar) ^ (dz - dzbar) = -2 dz^dzbar, by expanding all four
    # products with the antisymmetry rule
    dz = unit(1, label(holo=(1,)))
    dzbar = unit(1, label(anti=(1,)))
    out = wedge(dz + dzbar, dz - dzbar.scale(ExactScalar(2)) + dzbar)
    expect = wedge(dz, dzbar).scale(ExactScalar(-2))
    assert out == expect


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(unit(1, label(holo=(1,))), unit(2, label(holo=(1,))))


# --- contraction -----------------------------------------------------------

def test_contract_dual_pairing():
    u = frame_vector(1, 1)
    out = contract(u, unit(1, label(holo=(1,))))
    assert out.terms == {label(): ExactScalar(1)}


def test_contract_type_mismatch_gives_zero():
    u = frame_vector(1, 1)
    assert contract(u, unit(1, label(anti=(1,)))).is_zero()


def test_contract_antiderivation_on_top_form():
    u = frame_vector(1, 1)
    top = wedge(unit(1, label(holo=(1,))), unit(1, label(anti=(1,))))
    out = contract(u, top)
    assert out.terms == {label(anti=(1,)): ExactScalar(1)}


def test_contract_dimension_mismatch():
    with pytest.raises(ValueError):
        contract(frame_vector(2, 1), unit(1, label(holo=(1,))))


coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def vectors(n, conjugated):
    return st.tuples(*([st.builds(ExactScalar, coeffs, coeffs)] * n)
                     ).map(lambda cs: TangentVector(cs, conjugated))


def elements(n):
    lab = st.sampled_from(enumerate_basis(n))
    pair = st.tuples(lab, st.builds(ExactScalar, coeffs, coeffs))
    return st.lists(pair, min_size=0, max_size=4).map(
        lambda ps: _sum_terms(n, ps))


def _sum_terms(n, pairs):
    out = AlgebraElement(n)
    for lab, c in pairs:
        out = out + AlgebraElement.from_label(n, lab, coeff=c)
    return out


@settings(max_examples=60, deadline=None)
@given(vectors(2, False), st.sampled_from(enumerate_basis(2)),
       st.sampled_from(enumerate_basis(2)))
def test_contraction_is_antiderivation(u, la, lb):
    a, b = unit(2, la), unit(2, lb)
    ab = wedge(a, b)
    lhs = contract(u, ab)
    sign = ExactScalar(-1 if (la.p + la.q) % 2 else 1)
    rhs = wedge(contract(u, a), b) + wedge(a, contract(u, b)).scale(sign)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(vectors(2, False), elements(2))
def test_contraction_squares_to_zero(u, a):
    assert contract(u, contract(u, a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(vectors(2, True), elements(2))
def test_dual_wedge_squares_to_zero(u, a):
    assert metric_dual_wedge(u, metric_dual_wedge(u, a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(enumerate_basis(2)),
       st.sampled_from(enumerate_basis(2)))
def test_wedge_graded_commutativity(la, lb):
    a, b = unit(2, la), unit(2, lb)
    sign = ExactScalar(-1 if ((la.p + la.q) * (lb.p + lb.q)) % 2 else 1)
    assert wedge(a, b) == wedge(b, a).scale(sign)


# --- Clifford actions ------------------------------------------------------

def _conj_vector(u):
    return TangentVector(tuple(c.conjugate() for c in u.components),
                         not u.conjugated)


def test_hat_c_on_scalar_vanishes():
    out = clifford_hat_c(frame_vector(1, 1))(AlgebraElement.scalar_one(1))
    assert out.is_zero()


def test_hat_c_contracts_holomorphic_generator():
    from scalars import SQRT_M2
    out = clifford_hat_c(frame_vector(1, 1))(unit(1, label(holo=(1,))))
    assert out.terms == {label(): -SQRT_M2}


@settings(max_examples=30, deadline=None)
@given(vectors(2, False), vectors(2, False))
def test_clifford_same_type_anticommute(u, v):
    op = clifford_c(u, 2).anticommutator(clifford_c(v, 2))
    for lab in enumerate_basis(2):
        assert op(unit(2, lab)).is_zero()


@settings(max_examples=30, deadline=None)
@given(vectors(2, False))
def test_clifford_mixed_anticommutator_is_minus_two_norm(u):
    ubar = _conj_vector(u)
    norm = sum((c * c.conjugate() for c in u.components), ExactScalar(0))
    op = clifford_c(u, 2).anticommutator(clifford_c(ubar, 2))
    for lab in enumerate_basis(2):
        out = op(unit(2, lab))
        expect = unit(2, lab).scale(ExactScalar(-2) * norm)
        assert out == expect


def test_real_frame_clifford_relations():
    # orthonormal real frame vectors e satisfy {c(e_i), c(e_j)} = -2 delta_ij
    half = ExactScalar(Fraction(1, 2))
    ops = []
    for j in (1, 2):
        w = frame_vector(2, j)
        wbar = frame_vector(2, j, conjugated=True)
        # e = (w + wbar)/sqrt2 and e' = i(w - wbar)/sqrt2: build via scaled sums
        from scalars import SQRT2, I_UNIT
        inv_s2 = SQRT2 * half
        ce = (clifford_c(w, 2) + clifford_c(wbar, 2)).scaled(inv_s2)
        cee = (clifford_c(w, 2).scaled(I_UNIT)
               + clifford_c(wbar, 2).scaled(-I_UNIT)).scaled(inv_s2)
        ops.extend([ce, cee])
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            anti = a.anticommutator(b)
            expect = ExactScalar(-2 if i == j else 0)
            for lab in enumerate_basis(2):
                assert anti(unit(2, lab)) == unit(2, lab).scale(expect)


@settings(max_examples=25, deadline=None)
@given(vectors(2, False), elements(2), elements(2))
def test_clifford_adjoint_relation(u, a, b):
    # <c(u) a, b> = -<a, c(ubar) b> in the unit-frame pairing
    ubar = _conj_vector(u)
    lhs = hermitian_inner(clifford_c(u, 2)(a), b)
    rhs = hermitian_inner(a, clifford_c(ubar, 2)(b))
    assert lhs + rhs == ExactScalar(0)


@settings(max_examples=25, deadline=None)
@given(vectors(2, False), elements(2), elements(2))
def test_hat_clifford_adjoint_relation(u, a, b):
    ubar = _conj_vector(u)
    lhs = hermitian_inner(clifford_hat_c(u, 2)(a), b)
    rhs = hermitian_inner(a, clifford_hat_c(ubar, 2)(b))
    assert lhs + rhs == ExactScalar(0)


def test_mixed_c_hatc_anticommutators_vanish():
    for cj, hj in itertools.product((False, True), repeat=2):
        a = clifford_c(frame_vector(1, 1, conjugated=cj))
        b = clifford_hat_c(frame_vector(1, 1, conjugated=hj))
        anti = a.anticommutator(b)
        for lab in enumerate_basis(1):
            assert anti(unit(1, lab)).is_zero()


# --- float view ------------------------------------------------------------

def test_float_view_keeps_golden_relations():
    # the oracle pins read the exact matrices as complex floats; that view
    # must keep {c(w_i), c(wbar_j)} = {hatc(w_i), hatc(wbar_j)} = -2 delta_ij
    # and every other anticommutator zero, to round-off
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
        assert np.abs(a @ b + b @ a - want).max() <= 1e-12


# --- golden tables ---------------------------------------------------------

def test_golden_tables_match_committed_fixture():
    regenerated = golden_tables()
    committed = json.loads(GOLDEN_TABLES_PATH.read_text())
    assert committed["basis"] == regenerated["basis"]
    assert committed["operators"] == regenerated["operators"]
    assert committed["anticommutators"] == regenerated["anticommutators"]


def test_golden_anticommutator_values():
    tables = golden_tables()
    minus_two = ExactScalar(-2).serialize()
    zero = ExactScalar(0).serialize()
    anti = tables["anticommutators"]
    for key, mat in anti.items():
        a, b = key.split(",")
        same_family = a.startswith("hatc") == b.startswith("hatc")
        conj_pair = same_family and (a.endswith("bar") != b.endswith("bar"))
        for i in range(4):
            for j in range(4):
                if i == j and conj_pair:
                    assert mat[i][j] == minus_two
                else:
                    assert mat[i][j] == zero
