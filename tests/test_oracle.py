"""Closed-form cohomology tables, Kunneth combination, and the localization
prediction, cross-validated against exact kernel counts of the truncated
complexes."""

import pytest

from equivlab.deformed import graded_euler, t_sweep
from equivlab.geometry import cp1_model, torus_model
from equivlab.geometry.base import ModelSpec, FieldSpec
from equivlab.oracle import (POINT_TABLE, cp1_table, kunneth,
                             localization_prediction, model_hodge_table,
                             per_degree, torus_table, zero_set)
from spectra import kernel_table
from test_cp1 import t0_kernel_counts


def product_spec(k=0, nl=6, nr=2):
    return ModelSpec(
        kind="product", field=FieldSpec("product_lift", factor="left"),
        left=ModelSpec(kind="cp1", k=k, cutoff=nl, field=FieldSpec("linear")),
        right=ModelSpec(kind="torus", tau=1j, cutoff=nr,
                        field=FieldSpec("constant", c=1.0)))


# --- closed forms vs exact kernel counts ------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cp1_tables_cross_validated_spectrally(k):
    counts = t0_kernel_counts(cp1_model(k, 8).exact)
    table = cp1_table(k)
    for p in (0, 1):
        for q in (0, 1):
            assert counts[(p, q)] == table.get((p, q), 0)


def test_torus_table_cross_validated_spectrally():
    model = torus_model(1j, 2, 1.0)
    assert kernel_table(model, 0.0) == per_degree(torus_table(), 1)


# --- kunneth ----------------------------------------------------------------

def test_kunneth_point_identity():
    t = cp1_table(2)
    assert kunneth(t, POINT_TABLE) == t


def test_kunneth_torus_square():
    sq = kunneth(torus_table(), torus_table())
    assert sq[(1, 1)] == 4
    assert max(max(pq) for pq in sq) == 2     # the bidegree square of n = 2
    # per-degree profile is the convolution of (1, 2, 1) with itself
    assert per_degree(sq, 2) == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}


def test_kunneth_cp1_times_torus():
    prod = kunneth(cp1_table(0), torus_table())
    assert per_degree(prod, 2) == {-2: 0, -1: 2, 0: 4, 1: 2, 2: 0}


def test_model_hodge_table_product():
    spec = product_spec()
    assert model_hodge_table(spec) == kunneth(cp1_table(0), torus_table())


# --- localization prediction -------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_prediction_independent_of_twist(k):
    spec = ModelSpec(kind="cp1", k=k, cutoff=8, field=FieldSpec("linear"))
    assert localization_prediction(spec) == {-1: 0, 0: 2, 1: 0}


def test_prediction_empty_zero_set():
    spec = ModelSpec(kind="torus", tau=1j, cutoff=3,
                     field=FieldSpec("constant", c=2.0))
    assert all(v == 0 for v in localization_prediction(spec).values())


def test_prediction_positive_dimensional():
    assert localization_prediction(product_spec()) == {
        -2: 0, -1: 2, 0: 4, 1: 2, 2: 0}


def test_zero_set_descriptors():
    assert len(zero_set(product_spec()).components) == 2
    assert all(dim == 1 for dim, _, _ in zero_set(product_spec()).components)
    assert zero_set(ModelSpec(kind="torus", tau=1j, cutoff=2,
                              field=FieldSpec("constant", c=1.0))
                    ).components == ()


def test_prediction_matches_spectral_counts_end_to_end():
    for k in (0, 1):
        model = cp1_model(k, 8)
        (table,) = t_sweep(model, [4.0]).tables.values()
        assert table == localization_prediction(model.spec)


def test_index_theorem_consistency():
    # the graded Euler characteristic of the undeformed table equals that of
    # the prediction: the pairing is deformation invariant
    for k in (0, 1, 2, 3):
        spec = ModelSpec(kind="cp1", k=k, cutoff=8, field=FieldSpec("linear"))
        assert (graded_euler(per_degree(cp1_table(k), 1))
                == graded_euler(localization_prediction(spec)) == 2)


def test_out_of_square_entries_rejected():
    # an entry whose degree lies outside [-n, n] is never dropped silently
    with pytest.raises(KeyError):
        per_degree({(2, 0): 1}, 1)
