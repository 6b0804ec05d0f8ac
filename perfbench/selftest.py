"""The benchmark's own tests.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the root of an equivlab checkout.  The file name keeps these tests
out of the repository's own suite: the end-to-end ones run the benchmark,
which takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_configs_are_seeded_and_deterministic():
    for name in workloads.WORKLOADS:
        first = [workloads.config_bytes(workloads.make_config(name, s))
                 for s in range(5)]
        again = [workloads.config_bytes(workloads.make_config(name, s))
                 for s in range(5)]
        assert first == again, name
        assert len(set(first)) == 5, name


def test_configs_parse():
    sys.path.insert(0, SRC)
    from equivlab import cli
    for name in workloads.WORKLOADS:
        for seed in range(10):
            raw = json.loads(workloads.config_bytes(
                workloads.make_config(name, seed)))
            cli.parse_config(raw)


def test_workload_reasons_match_benchmark_json():
    listed = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
    assert listed == workloads.WORKLOADS


def test_traced_artifacts_match_untraced():
    os.makedirs(WORKDIR, exist_ok=True)
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    try:
        for name in workloads.WORKLOADS:
            config = os.path.join(WORKDIR, f"{name}.json")
            with open(config, "wb") as fh:
                fh.write(workloads.config_bytes(workloads.make_config(name, 0)))
            results = []
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), SRC,
                     config, os.path.join(WORKDIR, f"{name}-{trace}"), "0",
                     trace], capture_output=True, text=True, check=True,
                    timeout=170)
                results.append(json.loads(proc.stdout.splitlines()[-1]))
            untraced, traced = results
            assert traced["artifacts"] == untraced["artifacts"], name
            assert "payloads.json" in traced["artifacts"], name
            assert set(traced["layers"]) == {
                m for m in per_layer if not m.startswith("trace.")}, name
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def test_printed_metrics_match_benchmark_json():
    bench = _benchmark_json()
    for trace, listed in (("0", bench["end_to_end"]),
                          ("1", bench["per_layer"])):
        proc = _bench("--workload", "product-fibers", "--seed", "0",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_program_sources():
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in _benchmark_json()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench("--workload", "cp1-ladder", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failures else 0)
