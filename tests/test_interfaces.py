"""External interface surfaces: descriptor serialization, spectrum
truncation, and the reported leakage."""

import json

from equivlab.cli import parse_config
from equivlab.deformed import CSV_FIELDS
from equivlab.geometry import assemble, cp1_model, torus_model
from equivlab.geometry.base import FieldSpec, ModelSpec
from spectra import degree_dim, degree_results


def test_model_spec_json_roundtrip():
    specs = [
        ModelSpec(kind="torus", tau=0.5 + 1.25j, cutoff=3,
                  field=FieldSpec("constant", c=0.7 - 0.2j)),
        ModelSpec(kind="cp1", k=2, cutoff=8, field=FieldSpec("linear")),
        ModelSpec(kind="product", field=FieldSpec("product_lift"),
                  left=ModelSpec(kind="cp1", k=1, cutoff=5,
                                 field=FieldSpec("linear")),
                  right=ModelSpec(kind="torus", tau=1j, cutoff=2,
                                  field=FieldSpec("constant", c=1.0))),
    ]
    # a payload's model, as JSON text, read back as a config's model entry
    for spec in specs:
        raw = {"schema_version": 1, "name": "roundtrip", "T_grid": [1.0],
               "models": [json.loads(json.dumps(spec.to_dict()))]}
        (back,) = parse_config(raw).models
        assert back == spec
        assert assemble(back).n == spec.n


def test_spectrum_keeps_eight_eigenvalues():
    # one kept eigenvalue per lam column of results.csv
    model = torus_model(1j, 2, 1.0)
    res = degree_results(model, 1.0)[0]
    assert res.dim == degree_dim(model, 0) > 8
    assert res.eigenvalues == sorted(res.eigenvalues)
    assert len(res.eigenvalues) == 8
    assert CSV_FIELDS[-8:] == [f"lam{i}" for i in range(1, 9)]


def test_leakage_report_shape():
    # the assembled operators are exactly invariant; only the metric-dual
    # wedge on the curved model leaks out of the truncation
    model = cp1_model(0, 6)
    assert model.leakage["dbar:p0q0"] == 0.0
    assert model.leakage["dual_wedge:p0q0"] > 0
    assert set(model.gram_pivot_ratio) == {"p0q0", "p1q0", "p0q1", "p1q1"}
    torus = torus_model(1j, 2, 1.0)
    assert all(v == 0.0 for v in torus.leakage.values())
