"""External interface surfaces: descriptor serialization, spectrum
truncation, and the reported leakage."""

import json
from collections import Counter

from equivlab.cli import model_payload, parse_config
from equivlab.deformed import CSV_FIELDS, t_sweep
from equivlab.geometry import assemble, torus_model
from equivlab.geometry.base import FieldSpec, ModelSpec
from equivlab.geometry.cp1 import Block, Cp1Exact
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


CP1 = ModelSpec(kind="cp1", k=0, cutoff=6, field=FieldSpec("linear"))
PRODUCT = ModelSpec(kind="product", field=FieldSpec("product_lift"), left=CP1,
                    right=ModelSpec(kind="torus", tau=1j, cutoff=2,
                                    field=FieldSpec("constant", c=1.0)))


def test_leakage_report_shape():
    # the assembled operators are exactly invariant; only the metric-dual
    # wedge on the curved model leaks out of the truncation.  The payload
    # reads both diagnostics off the exact layer (the product's is its cp1
    # factor's), which the torus does not have.
    for spec in (CP1, PRODUCT):
        payload = model_payload(spec, [2.0], ())
        exact = assemble(spec).exact
        leakage = exact.dual_wedge_leakage()
        assert payload["leakage"] == {"dual_wedge:p0q0": leakage[(0, 0)],
                                      "dual_wedge:p0q1": leakage[(0, 1)]}
        assert all(v > 0 for v in leakage.values())
        assert payload["gram_pivot_ratio"] == {
            f"p{p}q{q}": exact.blocks[(p, q)].gram_condition()
            for p, q in ((0, 0), (1, 0), (0, 1), (1, 1))}
    payload = model_payload(torus_model(1j, 2, 1.0).spec, [2.0], ())
    assert payload["leakage"] == {} and payload["gram_pivot_ratio"] == {}


def test_diagnostics_are_read_only_by_the_payload(monkeypatch):
    # assembly and the sweep never compute the leakage or the pivot ratios;
    # the payload reads each once per model
    def refuse(self):
        raise AssertionError("diagnostic computed outside model_payload")

    monkeypatch.setattr(Cp1Exact, "dual_wedge_leakage", refuse)
    monkeypatch.setattr(Block, "gram_condition", refuse)
    for spec in (CP1, PRODUCT):
        assert t_sweep(assemble(spec), [2.0]).tables
    monkeypatch.undo()
    calls = Counter()
    for cls, name in ((Cp1Exact, "dual_wedge_leakage"),
                      (Block, "gram_condition")):
        def counted(self, original=getattr(cls, name), name=name):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(cls, name, counted)
    for spec in (CP1, PRODUCT):
        calls.clear()
        model_payload(spec, [2.0], ())
        assert calls == {"dual_wedge_leakage": 1, "gram_condition": 4}
