"""Config validation, run determinism, artifact schemas, exit codes."""

import csv
import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest

from equivlab import cli, deformed
from equivlab.cli import (ConfigError, load_config, main, parse_config, run)
from equivlab.deformed import CSV_FIELDS
from equivlab.linalg import EigensolverError


def small_config(tmp_name="smoke"):
    return {
        "schema_version": 1,
        "name": tmp_name,
        "models": [
            {"kind": "torus", "tau": [0.0, 1.0], "cutoff": 2,
             "field": {"kind": "constant", "c": [1.0, 0.0]}},
            {"kind": "cp1", "k": 0, "cutoff": 4, "field": {"kind": "linear"}},
        ],
        "T_grid": [1.0, 4.0],
        "checks": ["localization", "euler", "complex_property", "vanishing",
                   "bochner"],
        "outputs": ["csv", "json", "plotdata"],
    }


# --- validation --------------------------------------------------------------

def test_empty_t_grid_names_field():
    raw = small_config()
    raw["T_grid"] = []
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "T_grid"


def test_negative_t_names_entry():
    raw = small_config()
    raw["T_grid"] = [1.0, -2.0]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "T_grid[1]"


@pytest.mark.parametrize("probe", [0.0, -5.0])
def test_nonpositive_alpha_probe_rejected(probe):
    raw = small_config()
    raw["checks"] = ["alpha"]
    raw["oscillator"] = {"alpha_T_probe": probe}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "oscillator.alpha_T_probe"


@pytest.mark.parametrize("osc,path", [
    ({"T": [1.0, -1.0]}, "oscillator.T[1]"),
    ({"m": [0], "cutoff": [12]}, "oscillator.m[0]"),
    ({"m": [1], "cutoff": [3]}, "oscillator.cutoff[0]"),
    ({"eps": 0.0}, "oscillator.eps"),
    ({"m": [], "cutoff": []}, "oscillator.m"),
    ({"T": []}, "oscillator.T"),
], ids=["negative-T", "zero-m", "small-cutoff", "zero-eps", "empty-m",
        "empty-T"])
def test_bad_oscillator_block_names_field(osc, path):
    # the run would raise on each of these, return a NaN alpha or pass an
    # empty grid vacuously
    raw = small_config()
    raw["checks"] = ["oscillator", "alpha"]
    raw["oscillator"] = osc
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == path


def test_oscillator_defaults_are_the_config_defaults():
    raw = small_config()
    raw["checks"] = ["oscillator"]
    assert parse_config(raw).oscillator == cli.OscillatorConfig()


def test_bad_model_names_index():
    raw = small_config()
    raw["models"][1]["cutoff"] = 2
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "models[1]"


def test_unknown_check_rejected():
    raw = small_config()
    raw["checks"] = ["localization", "nonsense"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "checks[1]"


def test_schema_version_required():
    raw = small_config()
    raw["schema_version"] = 99
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "schema_version"


def test_config_hash_stable():
    a = parse_config(small_config())
    b = parse_config(small_config())
    assert a.config_hash() == b.config_hash()


# --- runs ---------------------------------------------------------------------

def test_run_produces_artifacts_and_passes(tmp_path):
    config = parse_config(small_config())
    report = run(config, str(tmp_path / "out"))
    assert report.worst() == "pass"
    assert report.exit_code() == 0
    for name in ("results.csv", "payloads.json", "report.json",
                 "eig_trajectories.tsv", "gap_ratio.tsv", "torus_growth.tsv"):
        assert (tmp_path / "out" / name).exists()
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["config_hash"] == config.config_hash()
    assert all(v == "pass" for v in rep["verdicts"].values())


def test_rerun_byte_identical(tmp_path):
    config = parse_config(small_config())
    run(config, str(tmp_path / "a"))
    run(config, str(tmp_path / "b"))
    for name in ("results.csv", "payloads.json", "eig_trajectories.tsv",
                 "gap_ratio.tsv", "torus_growth.tsv", "report.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_gap_trajectory_row_per_T_and_r(tmp_path):
    config = parse_config(small_config())
    run(config, str(tmp_path / "out"))
    lines = (tmp_path / "out" / "gap_ratio.tsv").read_text().splitlines()
    # header + (3 degrees x 2 T) per model x 2 models
    assert lines[0].split("\t") == ["model", "T", "r", "gap_ratio", "resolved"]
    assert len(lines) == 1 + 2 * (3 * 2)


def test_torus_growth_constant_ratio(tmp_path):
    config = parse_config(small_config())
    run(config, str(tmp_path / "out"))
    lines = (tmp_path / "out" / "torus_growth.tsv").read_text().splitlines()[1:]
    ratios = {float(line.split("\t")[2]) for line in lines}
    assert ratios == {2.0}


def test_committed_localization_config_passes(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_config(os.path.join(root, "configs",
                                      "localization_cp1.json"))
    # shrink for test runtime; the full run is exercised by the acceptance suite
    raw = config.canonical()
    raw["models"] = raw["models"][:2]
    for m in raw["models"]:
        m["cutoff"] = 8
    config = parse_config(raw)
    report = run(config, str(tmp_path / "out"))
    assert report.worst() == "pass"
    assert all(report.verdicts[k] == "pass" for k in report.verdicts
               if k.startswith("localization"))


def test_cli_validate_and_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["validate", str(cfg)]) == 0
    bad = dict(small_config())
    bad["T_grid"] = []
    cfg_bad = tmp_path / "bad.json"
    cfg_bad.write_text(json.dumps(bad))
    assert main(["validate", str(cfg_bad)]) == 2


def test_cli_run_and_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "worst verdict: pass" in text


def test_output_root_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EQUIVLAB_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "-o", "nested/run"]) == 0
    assert (tmp_path / "nested/run/report.json").exists()


def test_unresolved_oscillator_kernel_has_no_gap(monkeypatch):
    # the gap is read above the kernel split; a geometric spectrum from
    # 1e-10 has no resolved split, so there is no gap and the check fails
    galerkin = cli.oscillator_galerkin

    def unresolved(model):
        gal = galerkin(model)
        return dataclasses.replace(
            gal, eigenvalues=np.geomspace(1e-10, 1.0, gal.dim))
    monkeypatch.setattr(cli, "oscillator_galerkin", unresolved)
    osc = cli.OscillatorConfig(m_grid=(1,), T_grid=(1.0,), cutoffs=(4,))
    results = cli.oscillator_results(osc)
    entry = results["models"][0]
    assert entry["kernel_count"] == -1
    assert math.isnan(entry["min_nonzero"])
    assert cli.oscillator_verdicts(results)["oscillator"] == "fail"


def test_oscillator_subcommand(tmp_path):
    for name, m, cutoff in (("osc", "1", "8"), ("osc12", "1,2", "12,4")):
        out = tmp_path / name
        code = main(["oscillator", "--m", m, "--T", "1,10", "--cutoff", cutoff,
                     "-o", str(out)])
        assert code == 0
        lines = (out / "oscillator_gap.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["m", "T", "cutoff", "gap_over_T",
                                         "overlap"]
        rows = [line.split("\t") for line in lines[1:]]
        assert [row[0] for row in rows] == [x for x in m.split(",")
                                            for _ in range(2)]
        for row in rows:      # gap over T constant across rows
            assert float(row[3]) == pytest.approx(2.0, rel=1e-12)
        if name == "osc":
            assert len({row[3] for row in rows}) == 1
        alpha_lines = (out / "alpha_scaling.tsv").read_text().splitlines()
        assert alpha_lines[0].split("\t") == ["m", "T", "eps", "alpha",
                                               "alpha_Tm"]


def test_parallel_run_matches_serial(tmp_path):
    config = parse_config(small_config())
    serial = run(config, str(tmp_path / "serial"), jobs=1)
    run(config, str(tmp_path / "parallel"), jobs=2)
    names = [os.path.relpath(a, tmp_path / "serial") for a in serial.artifacts]
    assert len(names) == 6
    for name in names:
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes()), name


PRODUCT = {"kind": "product",
           "field": {"kind": "product_lift", "factor": "left"},
           "left": {"kind": "cp1", "k": 1, "cutoff": 5,
                    "field": {"kind": "linear"}},
           "right": {"kind": "torus", "tau": [0.3, 1.1], "cutoff": 1,
                     "field": {"kind": "constant", "c": [1, 0]}}}


def test_parallel_product_run_matches_serial(tmp_path):
    raw = small_config()
    raw["models"] = [raw["models"][1], PRODUCT]
    raw["checks"] = ["localization", "euler", "complex_property"]
    config = parse_config(raw)
    assert run(config, str(tmp_path / "serial"), jobs=1).worst() == "pass"
    run(config, str(tmp_path / "parallel"), jobs=2)
    serial = (tmp_path / "serial" / "payloads.json").read_bytes()
    assert serial == (tmp_path / "parallel" / "payloads.json").read_bytes()
    product = json.loads(serial)["payloads"][1]
    assert product["label"].startswith("product")
    assert product["complex_exact_zero"] is True


def test_results_csv_columns_parse(tmp_path):
    config = parse_config(small_config())
    run(config, str(tmp_path / "out"))
    payloads = json.loads((tmp_path / "out" / "payloads.json").read_text())
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = [{f: str(rec[f]) for f in CSV_FIELDS}
            for payload in payloads["payloads"] for rec in payload["rows"]]
    assert rows == want
    labels = {payload["model"]["kind"]: payload["label"]
              for payload in payloads["payloads"]}
    assert all(row["model"] == labels[row["kind"]] for row in rows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_eigensolver_failure_is_unresolved(tmp_path, monkeypatch, jobs):
    def failing(h, context=None):
        raise EigensolverError("no convergence", dict(context or {}))

    monkeypatch.setattr(deformed, "hermitian_eigenvalues", failing)
    config = parse_config(small_config())
    report = run(config, str(tmp_path / "out"), jobs=jobs)
    # every configured check of both models
    assert len(report.verdicts) == 2 * 5
    assert set(report.verdicts.values()) == {"unresolved"}
    assert report.exit_code() == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_eigensolver_failure_is_unresolved(tmp_path, monkeypatch,
                                                   jobs):
    # LAPACK fails on the torus's stack of 25 modes; the projective line,
    # whose stacks hold one member each, is unaffected
    eigvalsh = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if a.ndim == 3 and a.shape[0] == 25:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    config = parse_config(small_config())
    report = run(config, str(tmp_path / "out"), jobs=jobs)
    torus = {k: v for k, v in report.verdicts.items() if ":torus" in k}
    cp1 = {k: v for k, v in report.verdicts.items() if ":cp1" in k}
    assert len(torus) == 5 and set(torus.values()) == {"unresolved"}
    assert len(cp1) == 4 and set(cp1.values()) == {"pass"}
    assert report.exit_code() == 1
    payloads = json.loads((tmp_path / "out" / "payloads.json").read_text())
    (error,) = [p["error"] for p in payloads["payloads"] if "error" in p]
    # the diagnostics name the stack, degree, T and member shape
    for part in ("'stack': 'modes'", "'r': -1", "'T': 1.0",
                 "'shape': (1, 1)", "'members': 25"):
        assert part in error


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_psd_spectrum_fails(tmp_path, monkeypatch, jobs):
    def negative(h, context=None):
        evals = np.zeros(h.shape[0])
        evals[0] = -1.0e-6
        return evals

    monkeypatch.setattr(deformed, "hermitian_eigenvalues", negative)
    config = parse_config(small_config())
    report = run(config, str(tmp_path / "out"), jobs=jobs)
    assert len(report.verdicts) == 2 * 5
    assert set(report.verdicts.values()) == {"fail"}
    assert report.exit_code() == 2
    payloads = json.loads((tmp_path / "out" / "payloads.json").read_text())
    assert all(p["non_psd"] and "not PSD" in p["error"]
               for p in payloads["payloads"])


def test_non_psd_error_survives_pickling():
    err = pickle.loads(pickle.dumps(deformed.NotPSDError(1, -1.0e-6)))
    assert (err.degree, err.eigenvalue) == (1, -1.0e-6)
    assert str(err) == str(deformed.NotPSDError(1, -1.0e-6))


def test_complex_property_fails_on_perturbed_product(tmp_path, monkeypatch):
    # the product's d_T is its cp1 factor's (d_T^2 = d_{T,L}^2 (x) 1); one
    # dbar entry of that factor scaled by 1 + 1e-6 breaks d_T^2 = 0 far above
    # round-off, though the factor's exact certificate still holds
    raw = {"schema_version": 1, "name": "perturbed", "models": [PRODUCT],
           "T_grid": [2.0], "checks": ["complex_property"],
           "outputs": ["json"]}
    config = parse_config(raw)
    key = f"complex_property:{config.models[0].label()}"
    assert run(config, str(tmp_path / "clean")).verdicts == {key: "pass"}

    assemble = cli.assemble

    def perturbed(spec):
        model = assemble(spec)
        stack = next(st for st in model.left.cells if st.iv)
        stack.dbar[(0, 0)][0, 0, 0] *= 1.0 + 1.0e-6
        return model

    monkeypatch.setattr(cli, "assemble", perturbed)
    report = run(config, str(tmp_path / "perturbed"))
    assert report.verdicts == {key: "fail"}
    payloads = json.loads((tmp_path / "perturbed" / "payloads.json")
                          .read_text())
    (ratio,) = payloads["payloads"][0]["complex_defect_ratio"].values()
    assert ratio > 1.0
    assert payloads["payloads"][0]["complex_exact_zero"] is True
