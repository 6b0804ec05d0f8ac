"""scripts/artifact_hashes.py resolves config files and benchmark
workloads named WORKLOAD:SEED."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "artifact_hashes", ROOT / "scripts" / "artifact_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_and_config_file_resolve():
    script = load_script()
    name, config = script.resolve_config("cp1-ladder:1")
    assert name == "cp1-ladder:1"
    assert config.name == "bench-cp1-ladder-seed1"
    assert [m.kind for m in config.models] == ["cp1"] * 3
    path = str(ROOT / "configs" / "torus_vanishing.json")
    name, config = script.resolve_config(path)
    assert name == "torus_vanishing.json"
    assert config.config_hash() == script.load_config(path).config_hash()


@pytest.mark.parametrize("arg", ["no-such-workload:1", "cp1-ladder:x",
                                 "missing.json"])
def test_unresolvable_argument_exits(arg):
    with pytest.raises(SystemExit):
        load_script().resolve_config(arg)
