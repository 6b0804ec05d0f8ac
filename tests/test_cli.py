"""Config validation, run determinism, artifact schemas, exit codes."""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import pickle
import stat
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from equivlab import cli, deformed, geometry
from equivlab.cli import (ConfigError, load_config, main, parse_config, run)
from equivlab.deformed import CSV_FIELDS
from equivlab.geometry.base import FieldSpec, ModelError, ModelSpec
from equivlab.geometry.cp1 import Cp1Exact
from equivlab.linalg import EigensolverError
from equivlab.localmodel import GALERKIN_MAX_DIM


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


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_python(args, env=None):
    """Run the interpreter on args with equivlab importable from SRC."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


PRODUCT = {"kind": "product",
           "field": {"kind": "product_lift", "factor": "left"},
           "left": {"kind": "cp1", "k": 1, "cutoff": 5,
                    "field": {"kind": "linear"}},
           "right": {"kind": "torus", "tau": [0.3, 1.1], "cutoff": 1,
                     "field": {"kind": "constant", "c": [1, 0]}}}


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


@pytest.mark.parametrize("probe", [0.0, -5.0, 100.0])
def test_nonpositive_alpha_probe_rejected(probe):
    # the probe is the constant ALPHA_T_PROBE: a config value, nonpositive
    # or the constant itself, is refused by name
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
    ({"m": [1, 5], "cutoff": [12, 4]}, "oscillator.cutoff[1]"),
], ids=["negative-T", "zero-m", "small-cutoff", "zero-eps", "empty-m",
        "empty-T", "galerkin-too-large"])
def test_bad_oscillator_block_names_field(osc, path):
    # the run would raise on each of these, return a NaN alpha or pass an
    # empty grid vacuously
    raw = small_config()
    raw["checks"] = ["oscillator", "alpha"]
    raw["oscillator"] = osc
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == path


def test_galerkin_bound_admits_the_largest_fibers():
    # cutoff^(2m) 4^m = 2^24 at m = 3, cutoff 8 and at m = 4, cutoff 4: both
    # parse (neither is run here); one cutoff more at m = 3 is refused
    raw = small_config()
    raw["checks"] = ["oscillator"]
    raw["oscillator"] = {"m": [3, 4], "cutoff": [8, 4]}
    assert parse_config(raw).oscillator.cutoffs == (8, 4)
    raw["oscillator"] = {"m": [3, 4], "cutoff": [9, 4]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "oscillator.cutoff[0]"
    assert "16777216" in str(err.value)


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


@pytest.mark.parametrize("right_field,why", [
    ({"kind": "bogus"}, "unsupported field kind"),
    ({"kind": "linear"}, "torus supports only the constant field"),
    ({"kind": "constant", "c": [0, 0]}, "constant field requires c != 0"),
], ids=["bogus", "linear", "zero-c"])
def test_product_right_factor_validated_as_torus(right_field, why, tmp_path,
                                                 capsys):
    # the right factor is validated as the torus it is, not by a hand copy
    # of some of its checks; nothing is written
    raw = small_config()
    raw["models"] = [{"kind": "product",
                      "field": {"kind": "product_lift", "factor": "left"},
                      "left": {"kind": "cp1", "k": 0, "cutoff": 4,
                               "field": {"kind": "linear"}},
                      "right": {"kind": "torus", "tau": [0, 1], "cutoff": 2,
                                "field": right_field}}]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "models[0]" and why in str(err.value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert why in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# an int that passes -inf < x < inf but that float() cannot convert
BIG_INT = 10 ** 400


def _with(path, value):
    """small_config with raw[path[0]][path[1]]... set to value."""
    raw = small_config()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("source,path", [
    (_with(["models", 1, "k"], 1.5), "models[1].k"),
    (_with(["models", 1, "cutoff"], 8.9), "models[1].cutoff"),
    (_with(["models", 1, "k"], True), "models[1].k"),
    (_with(["models", 1, "k"], "2"), "models[1].k"),
    (_with(["models", 0, "tau"], [1.0]), "models[0].tau"),
    (_with(["models", 0, "field", "c"], [1.0]), "models[0].field.c"),
    (_with(["models", 1], "cp1"), "models[1]"),
    (_with(["models", 0, "field", "c"], [math.nan, 0.0]),
     "models[0].field.c[0]"),
    (_with(["models", 0, "tau"], [0.0, math.inf]), "models[0].tau[1]"),
    (_with(["T_grid", 1], math.nan), "T_grid[1]"),
    (_with(["T_grid", 0], math.inf), "T_grid[0]"),
    (_with(["T_grid"], [True]), "T_grid[0]"),
    (_with(["T_grid"], [2, 2.0, 4]), "T_grid[1]"),
    (["sweep", "--model", "cp1", "--T", "2,x"], "T_grid[1]"),
    (_with(["T_grid", 1], 1e-200), "T_grid[1]"),
    (_with(["T_grid", 0], 1.4e154), "T_grid[0]"),
    (["sweep", "--model", "torus", "--T", "2,1e160"], "T_grid[1]"),
    (["oscillator", "--m", "1", "--T", "1e200", "--cutoff", "4"],
     "oscillator.T[0]"),
    (["sweep", "--model", "torus", "--tau", "1", "--T", "2"],
     "models[0].tau"),
    (["sweep", "--model", "product", "--tau", "1", "--T", "2"],
     "models[0].right.tau"),
    (["sweep", "--model", "cp1", "--tau", "0,0", "--T", "2"], "--tau"),
    (["sweep", "--model", "cp1", "--c", "0,0", "--T", "2"], "--c"),
    (["sweep", "--model", "cp1", "--torus-cutoff", "4", "--T", "2"],
     "--torus-cutoff"),
    (["sweep", "--model", "torus", "--k", "7", "--T", "2"], "--k"),
    (["sweep", "--model", "torus", "--torus-cutoff", "99", "--T", "2"],
     "--torus-cutoff"),
    (["sweep", "--model", "product", "--c", "1,0", "--T", "2"], "--c"),
    (["oscillator", "--m", "1,x"], "oscillator.m[1]"),
    (["oscillator", "--m", "1,1", "--T", "1,10", "--cutoff", "12,12"],
     "oscillator.m[1]"),
    (["oscillator", "--m", "1", "--T", "1,1.0", "--cutoff", "12"],
     "oscillator.T[1]"),
    (_with(["oscillator"], {"m": [2, 1, 2], "cutoff": [4, 12, 4]}),
     "oscillator.m[2]"),
    (_with(["oscillator"], {"T": [10, 1, 10.0]}), "oscillator.T[2]"),
    (["oscillator", "--m", "5", "--T", "1", "--cutoff", "4"],
     "oscillator.cutoff[0]"),
    (_with(["checks"], 5), "checks"),
    (_with(["outputs"], 7), "outputs"),
    (_with(["oscillator"], 3), "oscillator"),
    (["sweep", "--model", "torus", "--cutoff", "2", "--T", "2,,8"],
     "T_grid[1]"),
    (["oscillator", "--m", "1", "--T", "2", "--cutoff", "4,"],
     "oscillator.cutoff[1]"),
    (["oscillator", "--m", "1,", "--T", "2", "--cutoff", "4,,"],
     "oscillator.m[1]"),
    (["sweep", "--model", "torus", "--tau", "0,,1", "--T", "2"],
     "models[0].tau"),
    (_with(["T_grid", 0], BIG_INT), "T_grid[0]"),
    (_with(["models", 0, "tau"], [0, BIG_INT]), "models[0].tau[1]"),
    (["oscillator", "--m", "1", "--T", str(BIG_INT), "--cutoff", "4"],
     "oscillator.T[0]"),
    (["sweep", "--model", "torus", "--cutoff", "2", "--T", str(BIG_INT)],
     "T_grid[0]"),
    (_with(["models", 0, "cutoff"], BIG_INT), "models[0].cutoff"),
    (_with(["models", 1, "cutoff"], BIG_INT), "models[1].cutoff"),
    (["sweep", "--model", "cp1", "--cutoff", str(BIG_INT), "--T", "2"],
     "models[0].cutoff"),
    (["sweep", "--model", "product", "--torus-cutoff", str(BIG_INT), "--T",
      "2"], "models[0].right.cutoff"),
    (["sweep", "--model", "product", "--cutoff", "40", "--torus-cutoff", "40",
      "--T", "2"], "models[0]"),
], ids=["k-float", "cutoff-float", "k-bool", "k-string", "tau-one",
        "c-one", "model-not-object", "c-nan", "tau-inf", "T-nan", "T-inf",
        "T-bool", "T-repeated", "sweep-T", "T-square-underflows",
        "T-square-overflows", "sweep-T-square-overflows",
        "oscillator-T-square-overflows", "sweep-tau", "sweep-product-tau",
        "sweep-cp1-tau", "sweep-cp1-c", "sweep-cp1-torus-cutoff",
        "sweep-torus-k", "sweep-torus-torus-cutoff", "sweep-product-c",
        "oscillator-m", "oscillator-m-repeated", "oscillator-T-repeated",
        "config-m-repeated", "config-T-repeated", "oscillator-too-large",
        "checks-not-list", "outputs-not-list", "oscillator-not-object",
        "sweep-T-empty-entry", "oscillator-cutoff-empty-entry",
        "oscillator-m-empty-entry", "sweep-tau-empty-entry",
        "T-int-overflows", "tau-int-overflows", "oscillator-T-int-overflows",
        "sweep-T-int-overflows", "torus-cutoff-too-large",
        "cp1-cutoff-too-large", "sweep-cp1-cutoff-too-large",
        "sweep-product-torus-cutoff-too-large", "sweep-product-too-large"])
def test_malformed_input_exits_2_naming_field(source, path, tmp_path,
                                              capsys):
    # each was truncated, run on, or a traceback; now a ConfigError that
    # names the field, exit status 2 from the command line
    if isinstance(source, dict):
        with pytest.raises(ConfigError) as err:
            parse_config(source)
        assert err.value.path == path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(source))
        argv = ["run", str(cfg)]
    else:
        argv = source
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid ") and f": {path}: must be " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,largest", [
    ({"kind": "cp1", "k": 0, "field": {"kind": "linear"}}, 184),
    ({"kind": "cp1", "k": 3, "field": {"kind": "linear"}}, 182),
    ({"kind": "torus", "tau": [0, 1], "field": {"kind": "constant",
                                                "c": [1, 0]}}, 1023),
], ids=["cp1-k0", "cp1-k3", "torus"])
def test_model_size_is_bounded_at_parse_time(model, largest):
    # the largest cutoff whose stacks fit GALERKIN_MAX_DIM float entries
    # parses and the next is refused naming it, before anything is built;
    # every committed config, CI's cutoff-96 sweep and the oscillator's
    # unit torus stay well inside
    raw = dict(small_config(), models=[dict(model, cutoff=largest)],
               checks=["euler"])
    assert geometry.float_entries(parse_config(raw).models[0]) <= (
        GALERKIN_MAX_DIM)
    raw["models"][0]["cutoff"] = largest + 1
    with pytest.raises(ConfigError, match="float entries") as err:
        parse_config(raw)
    assert err.value.path == "models[0].cutoff"
    for config in sorted((pathlib.Path(__file__).parents[1]
                          / "configs").glob("*.json")):
        load_config(str(config))
    raw["models"][0] = {"kind": "cp1", "k": 1, "cutoff": 96,
                        "field": {"kind": "linear"}}
    parse_config(raw)


@pytest.mark.parametrize("key", ["k", "cutoff"])
def test_out_of_range_integer_is_quoted_by_its_digit_count(key, tmp_path,
                                                           capsys):
    # a cp1 k of 401 digits (so the cutoff is below k + 2) and a cp1 cutoff
    # of minus 401 digits are refused by a message that counts the digits
    value = BIG_INT if key == "k" else -BIG_INT
    raw = _with(["models", 1, key], value)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "models[1]"
    assert "401-digit integer" in str(err.value)
    assert "0" * 30 not in str(err.value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["validate", str(cfg)]) == 2
    assert "401-digit integer" in capsys.readouterr().err


def _models_checks(models, checks, **extra):
    """small_config holding only the given models of it (0 torus, 1 cp1, or
    "product"), listing checks unless checks is None."""
    raw = dict(small_config(), **extra)
    raw["models"] = [PRODUCT if m == "product" else raw["models"][m]
                     for m in models]
    if checks is None:
        del raw["checks"]
    else:
        raw["checks"] = checks
    return raw


@pytest.mark.parametrize("source,path", [
    (_models_checks([1], ["vanishing"]), "checks[0]"),
    (_models_checks([1], ["euler", "vanishing"]), "checks[1]"),
    (_models_checks(["product"], ["bochner"]), "checks[0]"),
    (_models_checks(["product", 1], ["localization", "vanishing"]),
     "checks[1]"),
    (_models_checks([0, 1], []), "checks"),
    (_models_checks([0, 1], ["euler"], oscillator={"m": [1], "cutoff": [4]}),
     "oscillator"),
    (_models_checks([0, 1], None, oscillator={}), "oscillator"),
], ids=["vanishing-cp1-only", "vanishing-second", "bochner-product-only",
        "vanishing-no-torus", "checks-empty", "oscillator-unread",
        "oscillator-unread-default-checks"])
def test_check_that_cannot_run_exits_2_naming_it(source, path, tmp_path,
                                                 capsys):
    # a listed check that no model of the config runs, an empty check list,
    # and an oscillator block that no listed check reads each passed with
    # no verdict for them (or echoed an unused block into the hash);
    # nothing is written
    with pytest.raises(ConfigError) as err:
        parse_config(source)
    assert err.value.path == path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(source))
    for command in (["validate", str(cfg)],
                    ["run", str(cfg), "-o", str(tmp_path / "out")]):
        assert main(command) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"invalid config: {path}: must be ")
        assert stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_checks_left_out_keep_the_default_list():
    # the default list is exempt: a cp1-only config without checks still
    # runs every check that applies to it, and its hash is unchanged
    config = parse_config(_models_checks([1], None))
    assert config.checks == tuple(sorted(
        check for check, (kinds, _) in cli.CHECKS.items() if kinds))
    assert config.config_hash() == (
        "6821eb89f13b8bbe40d591297f96928461c3b69f0357c77bf80f88c8b10d9e63")


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_one_exits_2_naming_it(jobs, tmp_path, capsys):
    # a worker count below 1 ran serially and exited 0; nothing is written
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / (
        "torus_vanishing.json")
    out = tmp_path / "out"
    assert main(["run", str(config), "--jobs", jobs, "-o", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("invalid option: --jobs: must be ")
    assert stderr.count("\n") == 1
    assert not out.exists()


def _osc_with(key, value):
    raw = _with(["oscillator"], {key: value})
    raw["checks"] = ["oscillator", "alpha"]
    return raw


def _product_with(factor, key, value):
    """small_config whose second model is a product, one of whose factors
    has key set to value."""
    product = {"kind": "product",
               "field": {"kind": "product_lift", "factor": "left"},
               "left": {"kind": "cp1", "k": 0, "cutoff": 4,
                        "field": {"kind": "linear"}},
               "right": {"kind": "torus", "tau": [0, 1], "cutoff": 2}}
    product[factor][key] = value
    return _with(["models", 1], product)


@pytest.mark.parametrize("source,path", [
    (_with(["threshold_rule"], {"resolve_ratio": 1.0001}), "threshold_rule"),
    (_with(["threshold_rule"], {}), "threshold_rule"),
    (_osc_with("eps", 1.0), "oscillator.eps"),
    (_osc_with("alpha_T_probe", 100.0), "oscillator.alpha_T_probe"),
    (_with(["Name"], "smoke"), "Name"),
    (_with(["models", 1, "K"], 3), "models[1].K"),
    (_with(["models", 0, "field", "scale"], 2.0), "models[0].field.scale"),
    (_with(["models", 1, "field", "c"], [1.0, 0.0]), "models[1].field.c"),
    (_product_with("left", "cut", 8), "models[1].left.cut"),
    (_product_with("right", "k", 1), "models[1].right.k"),
], ids=["threshold-rule", "threshold-rule-empty", "oscillator-eps",
        "oscillator-alpha-probe", "root-unknown", "model-K-typo",
        "field-unknown", "linear-field-c", "product-left-unknown",
        "product-right-unknown"])
def test_unknown_key_exits_2_naming_it(source, path, tmp_path, capsys):
    # a key the schema does not define, a retired knob among them, is
    # refused by name rather than ignored; nothing is written
    with pytest.raises(ConfigError) as err:
        parse_config(source)
    assert err.value.path == path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(source))
    for command in (["validate", str(cfg)],
                    ["run", str(cfg), "-o", str(tmp_path / "out")]):
        assert main(command) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"invalid config: {path}: unknown key; ")
        assert stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new,key", [
    ('"T_grid": [1.0, 4.0]', '"T_grid": [1.0], "T_grid": [4.0]', "T_grid"),
    ('"k": 0,', '"k": 0, "k": 3,', "k"),
], ids=["root", "model-entry"])
def test_repeated_key_exits_2_naming_it(old, new, key, tmp_path, capsys):
    # a JSON object with a key twice would keep the last copy; the file is
    # refused by that key instead, and nothing is written
    text = json.dumps(small_config())
    assert text.count(old) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_config(str(cfg))
    assert err.value.path == key
    for command in (["validate", str(cfg)],
                    ["run", str(cfg), "-o", str(tmp_path / "out")]):
        assert main(command) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"invalid config: {key}: repeated key")
        assert stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _without(raw, path):
    """raw with the key at path removed."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return raw


def _product():
    return _with(["models"], [{
        "kind": "product", "field": {"kind": "product_lift", "factor": "left"},
        "left": {"kind": "cp1", "k": 0, "cutoff": 4,
                 "field": {"kind": "linear"}},
        "right": {"kind": "torus", "tau": [0, 1], "cutoff": 2,
                  "field": {"kind": "constant", "c": [1, 0]}}}])


@pytest.mark.parametrize("source,path", [
    (_without(small_config(), ["models", 1, "k"]), "models[1].k"),
    (_without(small_config(), ["models", 1, "cutoff"]), "models[1].cutoff"),
    (_without(small_config(), ["models", 0, "tau"]), "models[0].tau"),
    (_without(small_config(), ["models", 0, "field"]), "models[0].field"),
    (_without(small_config(), ["models", 0, "field", "c"]),
     "models[0].field.c"),
    (_without(_product(), ["models", 0, "left"]), "models[0].left"),
    (_without(_product(), ["models", 0, "right"]), "models[0].right"),
    (_without(_product(), ["models", 0, "field", "factor"]),
     "models[0].field.factor"),
    (_without(_product(), ["models", 0, "right", "field", "c"]),
     "models[0].right.field.c"),
    (_with(["models", 0, "schema_version"], 99), "models[0].schema_version"),
    (_with(["schema_version"], True), "schema_version"),
    (_with(["schema_version"], 1.0), "schema_version"),
    (_with(["models", 0, "schema_version"], 1.0), "models[0].schema_version"),
    (_with(["models", 0, "schema_version"], True), "models[0].schema_version"),
    (_with(["checks"], ["euler", "euler"]), "checks[1]"),
    (_with(["outputs"], ["csv", "csv"]), "outputs[1]"),
], ids=["cp1-k", "cp1-cutoff", "torus-tau", "torus-field", "torus-field-c",
        "product-left", "product-right", "product-field-factor",
        "product-right-field-c", "model-schema-version",
        "root-schema-version-true", "root-schema-version-float",
        "model-schema-version-float", "model-schema-version-true",
        "checks-repeated", "outputs-repeated"])
def test_missing_or_repeated_entry_exits_2_naming_it(source, path, tmp_path,
                                                     capsys):
    # every key of a model entry and its field is required, the root's and
    # a model entry's schema_version must be the integer 1 (not true or
    # 1.0), and checks and outputs are distinct: none runs on a default or
    # is rewritten; nothing is written
    with pytest.raises(ConfigError) as err:
        parse_config(source)
    assert err.value.path == path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(source))
    for command in (["validate", str(cfg)],
                    ["run", str(cfg), "-o", str(tmp_path / "out")]):
        assert main(command) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"invalid config: {path}: ")
        assert stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [
    {"kind": "cp2", "cutoff": 4},
    {"kind": "cp2", "cutoff": 4, "field": {"kind": "linear"}},
], ids=["no-field", "field"])
def test_unknown_model_kind_is_named(entry, tmp_path, capsys):
    raw = _with(["models"], [entry])
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert str(err.value) == "models[0]: unsupported model kind: 'cp2'"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "invalid config: models[0]: unsupported model kind: 'cp2'\n")


@pytest.mark.parametrize("build", [
    lambda: ModelSpec(kind="cp1", k=0, cutoff=3, field=FieldSpec("linear")),
    lambda: ModelSpec(kind="cp1", k=-1, cutoff=8, field=FieldSpec("linear")),
    lambda: ModelSpec(kind="torus", tau=2.0 + 0j, cutoff=2,
                      field=FieldSpec("constant", c=1.0)),
    lambda: FieldSpec("constant", c=0),
    lambda: ModelSpec(
        kind="product", field=FieldSpec("product_lift", factor="left"),
        left=ModelSpec(kind="torus", tau=1j, cutoff=2,
                       field=FieldSpec("constant", c=1.0)),
        right=ModelSpec(kind="torus", tau=1j, cutoff=2,
                        field=FieldSpec("constant", c=1.0))),
], ids=["cp1-cutoff-3", "cp1-negative-k", "torus-real-tau", "field-c-0",
        "product-torus-left"])
def test_out_of_range_spec_cannot_be_built(build):
    # a spec is valid by construction, so assembly and the oracle take any
    # spec as given
    with pytest.raises(ModelError):
        build()


def test_eps_flag_is_gone(tmp_path, capsys):
    # the cutoff radius is the constant CUTOFF_EPS, not an option
    with pytest.raises(SystemExit) as exc:
        main(["oscillator", "--eps", "2", "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_config_in_use_parses_back_from_canonical():
    # every committed config, the benchmark's probe and each workload's
    # config for seeds 0-19 parse, and their canonical form parses back to
    # the same config and hash: canonical() writes only schema keys
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [load_config(str(path))
               for path in sorted((root / "configs").glob("*.json"))]
    configs.append(parse_config(workloads.PROBE))
    configs += [parse_config(workloads.make_config(w, seed))
                for w in workloads.WORKLOADS for seed in range(20)]
    assert len(configs) > 60
    for config in configs:
        back = parse_config(config.canonical())
        assert back == config
        assert back.config_hash() == config.config_hash()


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


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_take_the_umask_mode(umask, mode, tmp_path):
    # an artifact has the mode of a plainly created file, and the run
    # directory holds nothing but its artifacts
    old = os.umask(umask)
    try:
        report = run(parse_config(small_config()), str(tmp_path / "out"))
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        os.path.basename(a) for a in report.artifacts)
    for path in report.artifacts:
        assert stat.S_IMODE(os.stat(path).st_mode) == mode, path


def torus_bochner_config(T):
    return {"schema_version": 1, "name": "torus-bochner",
            "models": [{"kind": "torus", "tau": [0.3, 1.1], "cutoff": 4,
                        "field": {"kind": "constant", "c": [0.8, 0.6]}}],
            "T_grid": [T], "checks": ["bochner"]}


@pytest.mark.parametrize("T", [1.0e3, 1.0e5])
def test_correct_torus_passes_bochner_at_large_T(T, tmp_path):
    # the torus residual is round-off on Dirac-square entries as large as
    # 2 T^2 |c|^2, so its bound grows with them
    report = run(parse_config(torus_bochner_config(T)), str(tmp_path))
    assert list(report.verdicts.values()) == ["pass"]
    assert next(iter(report.verdicts)).startswith("bochner:")


@pytest.mark.parametrize("T", [1.0, 1.0e3])
def test_perturbed_torus_fails_bochner(T, tmp_path, monkeypatch):
    # one Dolbeault coefficient off by a relative 1e-6 breaks the identity
    # far beyond round-off, at small T and at large
    assemble = cli.assemble

    def perturbed(spec):
        model = assemble(spec)
        model.cells[0].dbar[(0, 0)][-1] *= 1 + 1e-6
        return model

    monkeypatch.setattr(cli, "assemble", perturbed)
    report = run(parse_config(torus_bochner_config(T)), str(tmp_path))
    assert list(report.verdicts.values()) == ["fail"]


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


def test_report_without_report_json_exits_2(tmp_path, capsys):
    # one line on stderr naming the missing file, not a traceback
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "report.json") in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name,why", [
    ("missing.json", "cannot read {path}: "),
    (".", "cannot read {path}: "),
    ("latin1.json", "not valid JSON: 'utf-8' codec can't decode"),
    ("long-int.json", "not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["missing", "directory", "not-utf8", "int-too-long"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, name, why):
    # a missing file, a directory, bytes that are not UTF-8 or an integer
    # of more digits than Python converts: one line on stderr naming the
    # problem, as invalid JSON gives, not a traceback
    path = tmp_path / name
    if name == "latin1.json":
        path.write_bytes(b'{"name": "caf\xe9"}')
    elif name == "long-int.json":
        path.write_text(json.dumps(small_config()).replace(
            '"T_grid": [1.0, 4.0]', '"T_grid": [1' + "0" * 4999 + "]"))
    out = tmp_path / "out"
    argv = [command, str(path)]
    if command == "run":
        argv += ["-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "invalid config: <file>: " + why.format(path=path))
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


def test_non_ascii_config_under_an_ascii_locale(tmp_path):
    # a config is UTF-8 whatever the locale: under the C locale, validate
    # escapes the name stdout cannot encode and run hashes the same config
    raw = small_config("\u00e9quivlab-\u00fc")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    c_locale = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                    LC_ALL="C", LANG="C")
    proc = run_python(["-m", "equivlab.cli", "validate", str(cfg)], c_locale)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("config ok: \\xe9quivlab-\\xfc (")
    hashes = []
    for name, env in (("c", c_locale), ("utf8", dict(os.environ,
                                                      PYTHONUTF8="1"))):
        out = tmp_path / name
        proc = run_python(["-m", "equivlab.cli", "run", str(cfg), "-o",
                           str(out)], env)
        assert (proc.returncode, proc.stderr) == (0, ""), name
        hashes.append(json.loads((out / "report.json").read_text())
                      ["config_hash"])
    assert hashes == [parse_config(raw).config_hash()] * 2


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # one line on stderr and exit 2 before any model is assembled, not a
    # FileExistsError traceback; the file is left as it was
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    blocker = tmp_path / "out"
    blocker.write_text("keep")
    assembled = []
    monkeypatch.setattr(cli, "assemble", assembled.append)
    for outdir in (blocker, blocker / "sub"):
        assert main(["run", str(cfg), "-o", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write output: {outdir}: ")
        assert err.count("\n") == 1
    assert assembled == [] and blocker.read_text() == "keep"


GOOD_REPORT = {"config_hash": "0" * 64, "package_version": "0",
               "verdicts": {"euler:x": "pass"}, "worst": "pass"}


@pytest.mark.parametrize("text,why", [
    ("{bad", "Expecting property name"),
    ("{}", "missing key 'config_hash'"),
    (json.dumps(dict(GOOD_REPORT, worst="maybe")),
     "unknown worst verdict 'maybe'"),
], ids=["invalid-json", "missing-key", "unknown-worst"])
def test_bad_report_json_exits_2(tmp_path, capsys, text, why):
    # invalid JSON, a missing key or an unknown worst verdict: one line on
    # stderr and nothing on stdout, not a traceback
    (tmp_path / "report.json").write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert str(tmp_path / "report.json") in err and why in err


@pytest.mark.parametrize("tables,unresolved,want", [
    # a resolved miss at a later T is not masked by an open cell before it
    ({"2.0": (0, 2, 0), "4.0": (0, 3, 0)}, [(2.0, 1)], "fail"),
    ({"2.0": (0, 2, 0), "4.0": (0, 2, 1)}, [(4.0, 0)], "fail"),
    # a miss in an open cell leaves the verdict open
    ({"2.0": (0, 3, 0), "4.0": (0, 2, 0)}, [(2.0, 0)], "unresolved"),
    ({"2.0": (0, 2, 0), "4.0": (0, 2, 0)}, [(4.0, 1)], "unresolved"),
    ({"2.0": (0, 2, 0), "4.0": (0, 2, 0)}, [], "pass"),
])
def test_localization_verdict_reads_every_t(tables, unresolved, want):
    raw = small_config()
    config = parse_config(dict(raw, models=raw["models"][1:],
                               checks=["localization"]))
    (spec,) = config.models
    payload = {"label": spec.label(), "model": spec.to_dict(),
               "tables": {t: dict(zip((-1, 0, 1), dims))
                          for t, dims in tables.items()},
               "unresolved": [list(u) for u in unresolved]}
    assert cli.run_checks(config, [payload]) == {
        f"localization:{spec.label()}": want}


def test_output_root_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EQUIVLAB_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "-o", "nested/run"]) == 0
    assert (tmp_path / "nested/run/report.json").exists()
    # report reads the relative run directory under the same root
    capsys.readouterr()
    assert main(["report", "nested/run"]) == 0
    assert capsys.readouterr().out.endswith("worst verdict: pass\n")


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
    assert cli.CHECKS["oscillator"][1](results) == "fail"


def test_oscillator_payload_entry_keys():
    # a model entry holds what the oscillator verdict and the gap table
    # read, and nothing else
    osc = cli.OscillatorConfig(m_grid=(1,), T_grid=(1.0,), cutoffs=(4,))
    entry, = cli.oscillator_results(osc)["models"]
    assert set(entry) == {"m", "T", "cutoff", "dim", "kernel_count",
                          "overlap", "min_nonzero", "gap_over_T"}


@pytest.mark.parametrize("check", ["alpha", "oscillator"])
def test_one_fiber_check_gets_the_one_verdict(check, tmp_path):
    # both fiber checks are judged from the same results, but a run gives
    # a verdict only to the one that its config lists
    raw = _models_checks([0], [check],
                         oscillator={"m": [1], "cutoff": [4], "T": [2.0]})
    raw["models"][0]["cutoff"] = 1
    report = run(parse_config(raw), str(tmp_path))
    verdicts = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert verdicts == {check: "pass"}
    assert report.exit_code() == 0


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


def test_serial_run_loads_no_cli_only_module(tmp_path):
    # argparse serves main(), concurrent.futures (and the logging it
    # loads) serves --jobs > 1, and numpy.polynomial builds the committed
    # Gauss-Legendre rules: a serial run of every model kind and both
    # oscillator checks imports none of them
    raw = small_config()
    raw["models"].append(PRODUCT)
    raw["checks"] += ["oscillator", "alpha"]
    raw["oscillator"] = {"m": [1, 2], "cutoff": [8, 4], "T": [1.0]}
    script = (
        "import json, sys\n"
        "from equivlab import cli\n"
        "report = cli.run(cli.parse_config(json.loads(sys.argv[1])),"
        " sys.argv[2], jobs=1)\n"
        "print(json.dumps([report.worst()] + [name for name in"
        " ('argparse', 'concurrent.futures', 'logging', 'numpy.polynomial')"
        " if name in sys.modules]))\n")
    proc = run_python(["-c", script, json.dumps(raw), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["pass"]


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


# the checks a model of each kind runs, failed or not: torus 5, cp1 4,
# product 3
KIND_CHECKS = {"torus": ("localization", "euler", "complex_property",
                         "vanishing", "bochner"),
               "cp1": ("localization", "euler", "complex_property", "bochner"),
               "product": ("localization", "euler", "complex_property")}


def failed_config(models):
    """small_config over the named models (torus, cp1, product), and the
    exact verdict keys its models get when every one of them fails."""
    entries = dict(zip(("torus", "cp1"), small_config()["models"]),
                   product=PRODUCT)
    raw = small_config()
    raw["models"] = [entries[kind] for kind in models]
    config = parse_config(raw)
    keys = {f"{check}:{spec.label()}" for spec in config.models
            for check in KIND_CHECKS[spec.kind]}
    return config, keys


# the failed models of one run, and their number of verdict keys
FAILED_MODELS = [(("torus", "cp1"), 9), (("torus", "product"), 8)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_eigensolver_failure_is_unresolved(tmp_path, monkeypatch, jobs):
    def failing(h, context=None):
        raise EigensolverError("no convergence", dict(context or {}))

    monkeypatch.setattr(deformed, "hermitian_eigenvalues", failing)
    for i, (models, n_keys) in enumerate(FAILED_MODELS):
        config, keys = failed_config(models)
        report = run(config, str(tmp_path / f"out{i}"), jobs=jobs)
        # every configured check that each model's kind runs, as in a
        # passing run of the same kinds
        assert len(keys) == n_keys
        assert report.verdicts.keys() == keys
        assert set(report.verdicts.values()) == {"unresolved"}
        assert report.exit_code() == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_eigensolver_failure_is_unresolved(tmp_path, monkeypatch,
                                                   jobs):
    # LAPACK fails on the torus's stack of 25 modes, solved at every T of
    # the grid and T = 0 at once; the projective line, whose stacks hold
    # one member each, is unaffected
    eigvalsh = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if a.ndim == 4 and a.shape[1] == 25:
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
    # the diagnostics name the stack, degree, T grid and member shape
    for part in ("'stack': 'modes'", "'r': -1", "'T': [1.0, 4.0, 0.0]",
                 "'shape': (1, 1)", "'members': 25"):
        assert part in error


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_psd_spectrum_fails(tmp_path, monkeypatch, jobs):
    def negative(h, context=None):
        evals = np.zeros(h.shape[0])
        evals[0] = -1.0e-6
        return evals

    monkeypatch.setattr(deformed, "hermitian_eigenvalues", negative)
    for i, (models, n_keys) in enumerate(FAILED_MODELS):
        config, keys = failed_config(models)
        report = run(config, str(tmp_path / f"out{i}"), jobs=jobs)
        assert len(keys) == n_keys
        assert report.verdicts.keys() == keys
        assert set(report.verdicts.values()) == {"fail"}
        assert report.exit_code() == 2
        payloads = json.loads(
            (tmp_path / f"out{i}" / "payloads.json").read_text())
        assert all(p["non_psd"] and "not PSD" in p["error"]
                   for p in payloads["payloads"])


def test_one_eigensolve_per_stack_and_degree(monkeypatch):
    # one spectral pass per model: cp1(k=0, cut=12) of the committed config
    # over its grid of three T and T = 0 makes one eigensolve per stack and
    # degree (38), where a pass per T made 152
    root = pathlib.Path(__file__).resolve().parents[1]
    config = load_config(str(root / "configs" / "localization_cp1.json"))
    (spec,) = [s for s in config.models if s.label() == "cp1(k=0,cut=12)"]
    calls = []
    solve = deformed.hermitian_eigenvalues

    def counting(h, context=None):
        calls.append(context)
        return solve(h, context)

    monkeypatch.setattr(deformed, "hermitian_eigenvalues", counting)
    payload = cli.model_payload(spec, list(config.T_grid))
    assert len(calls) == 38
    assert all(c["T"] == [2.0, 4.0, 8.0, 0.0] for c in calls)
    assert payload["table0"] == {-1: 0, 0: 2, 1: 0}


def test_large_T_sweep_passes(tmp_path):
    # at T = 4096 the lowest eigenvalue of this correct model is about
    # -9.3e-10 against lambda_max = 8.3e6: round-off, which the not-PSD
    # guard, scaled by the member dimension and lambda_max, lets through
    out = tmp_path / "out"
    assert main(["sweep", "--model", "cp1", "--k", "0", "--cutoff", "12",
                 "--T", "4096", "-o", str(out)]) == 0
    payloads = json.loads((out / "payloads.json").read_text())
    assert not any("error" in p for p in payloads["payloads"])


# T ** 2 is finite at this T, so the parse check lets it through, but the
# torus level 2 T^2 |c|^2 overflows and the bochner residual's 2-norm fails
OVERFLOWING_T = 1.3e154


def test_overflowing_torus_sweep_is_unresolved(tmp_path):
    # the Dirac square overflows to inf and nan, which numpy reports
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["sweep", "--model", "torus", "--cutoff", "2", "--T",
                     str(OVERFLOWING_T), "-o", str(out)]) == 1
    verdicts = json.loads((out / "report.json").read_text())["verdicts"]
    assert len(verdicts) == 3
    assert set(verdicts.values()) == {"unresolved"}
    (payload,) = json.loads((out / "payloads.json").read_text())["payloads"]
    assert payload["error"].startswith("2-norm of the bochner residual")
    assert "'check': 'bochner'" in payload["error"]


def test_overflowing_torus_run_matches_serial(tmp_path):
    raw = small_config()
    raw["models"] = [raw["models"][0],
                     {"kind": "torus", "tau": [0.3, 1.1], "cutoff": 2,
                      "field": {"kind": "constant", "c": [0.8, 0.6]}}]
    raw["T_grid"] = [OVERFLOWING_T]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    with pytest.warns(RuntimeWarning):      # the overflow, as above
        for jobs in ("1", "2"):
            assert main(["run", str(config), "--jobs", jobs,
                         "-o", str(tmp_path / jobs)]) == 1
    report = (tmp_path / "1" / "report.json").read_bytes()
    assert report == (tmp_path / "2" / "report.json").read_bytes()
    verdicts = json.loads(report)["verdicts"]
    assert len(verdicts) == 10
    assert set(verdicts.values()) == {"unresolved"}


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


def test_tiny_T_reads_both_exact_checks(monkeypatch):
    # T = 1e-7 is taken exactly, not rounded to 0: a broken d_T^2
    # certificate is read and reported, and the zero-order term is
    # 2 |T| |Theta| with |Theta| = 1
    monkeypatch.setattr(Cp1Exact, "_anticommutator_is_zero", False)
    spec = ModelSpec(kind="cp1", k=0, cutoff=4, field=FieldSpec("linear"))
    payload = cli.model_payload(spec, [1e-7])
    assert payload["complex_exact_zero"] is False
    assert payload["bochner"]["zero_order_term"] == float(2 * Fraction(1e-7))
    assert payload["bochner"]["residual"] == 0.0
