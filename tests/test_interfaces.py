"""External interface surfaces: descriptor serialization, the matrix
container export, spectrum truncation, and the reported leakage."""

import numpy as np

from equivlab.deformed import dirac, assemble_deformed, spectrum
from equivlab.geometry import assemble, cp1_model, torus_model
from equivlab.geometry.base import (FieldSpec, ModelSpec, export_blocks,
                                    load_blocks_metadata)


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
    for spec in specs:
        back = ModelSpec.from_json(spec.to_json())
        assert back == spec
        assert assemble(back).n == spec.n


def test_export_blocks_container(tmp_path):
    model = torus_model(1j, 1, 1.0)
    path = str(tmp_path / "blocks.npz")
    export_blocks(model, path)
    meta = load_blocks_metadata(path)
    assert meta["model"]["kind"] == "torus"
    # one entry per mode: the torus is one stack of (2 * 1 + 1)^2 members
    assert len(meta["cells"]) == sum(stack.size for stack in model.cells) == 9
    assert [cell["name"] for cell in meta["cells"]] == model.cells[0].names
    with np.load(path) as data:
        key = "c0_p0q0_dbar"
        assert key in data
        assert data[key].dtype == np.complex128
        # row-major dense layout
        assert data[key].flags["C_CONTIGUOUS"]


def test_spectrum_how_many():
    model = torus_model(1j, 2, 1.0)
    dsq = dirac(assemble_deformed(model, 1.0))
    res = spectrum(dsq, 0, how_many=3)
    assert len(res.eigenvalues) == 3
    assert res.dim == model.degree_dim(0)


def test_leakage_report_shape():
    # the assembled operators are exactly invariant; only the metric-dual
    # wedge on the curved model leaks out of the truncation
    model = cp1_model(0, 6)
    assert model.leakage["dbar:p0q0"] == 0.0
    assert model.leakage["dual_wedge:p0q0"] > 0
    assert set(model.gram_conditions) == {"p0q0", "p1q0", "p0q1", "p1q1"}
    torus = torus_model(1j, 2, 1.0)
    assert all(v == 0.0 for v in torus.leakage.values())
