"""The equivlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an equivlab checkout.  The benchmark writes the seeded
config of workload NAME (see workloads.py), then repeats `equivlab.cli.run`
on it (serial path, jobs=1) for about S seconds, each repetition in a fresh
child process so that every one pays for the scipy import and starts with
cold caches, as a user's `equivlab run` does.  Repetitions run one at a
time with BLAS and OpenMP pinned to one thread.

Each repetition is checked: the child exits 0, every expected verdict is
present and passes, the payloads cover every model and T value, and the
artifacts hash equal to those of the other repetitions of the same seed.
Metrics are read from `payloads.json`, never from `results.csv`, whose
labels contain unquoted commas.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (medians over the repetitions); with
`--trace 1` untraced and traced repetitions alternate, the metrics are the
per-layer medians of the traced ones, and the tracing overhead is their
difference in run time.  The line before it carries the environment and the
sample counts; a fuller record goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
MIN_REPS = 3           # untraced repetitions per run (pairs with --trace 1)
TIME_LIMIT_S = 170.0   # a run must end within 180 s

_PER_MODEL_CHECKS = {"complex_property": ("torus", "cp1", "product"),
                     "localization": ("torus", "cp1", "product"),
                     "euler": ("torus", "cp1", "product"),
                     "bochner": ("torus", "cp1"),
                     "vanishing": ("torus",)}
_GLOBAL_CHECKS = ("oscillator", "alpha")


def environment() -> dict:
    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": dict(THREADS), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg_start": list(os.getloadavg())}


def run_child(config_path: str, outdir: str, trace: int,
              timeout: float) -> tuple[dict | None, str]:
    """(result, error) of one repetition; result is None on failure."""
    env = dict(os.environ, **THREADS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, SRC, config_path, outdir, repr(t0),
             str(trace)], env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def check_outputs(config: dict, outdir: str, result: dict
                  ) -> tuple[list[str], dict, dict]:
    """(problems, report, payloads) of one repetition; no problems when its
    artifacts are right."""
    problems = []
    if result["worst"] != "pass":
        problems.append(f"worst verdict {result['worst']}")
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(outdir, "payloads.json")) as fh:
        payloads = json.load(fh)
    models = payloads["payloads"]
    if len(models) != len(config["models"]):
        problems.append(f"{len(models)} payloads for "
                        f"{len(config['models'])} models")
    expected = {c for c in config["checks"] if c in _GLOBAL_CHECKS}
    for payload, model in zip(models, config["models"]):
        if payload.get("error"):
            problems.append(f"{payload['label']}: {payload['error']}")
            continue
        if payload["model"]["kind"] != model["kind"]:
            problems.append(f"{payload['label']}: kind mismatch")
        if len(payload["tables"]) != len(config["T_grid"]):
            problems.append(f"{payload['label']}: {len(payload['tables'])} "
                            f"tables for {len(config['T_grid'])} T values")
        expected.update(f"{check}:{payload['label']}"
                        for check in config["checks"]
                        if model["kind"] in _PER_MODEL_CHECKS.get(check, ()))
    verdicts = report["verdicts"]
    if set(verdicts) != expected:
        problems.append(f"verdicts {sorted(set(verdicts) ^ expected)} "
                        "missing or unexpected")
    problems.extend(f"{key}: {v}" for key, v in verdicts.items() if v != "pass")
    if "oscillator" in config and (payloads["oscillator"] is None or len(
            payloads["oscillator"]["models"]) != len(
            config["oscillator"]["m"]) * len(config["oscillator"]["T"])):
        problems.append("oscillator results missing")
    return problems, report, payloads


def min_log10_gap(payloads: dict) -> float:
    """Smallest log10 gap ratio over every (model, T, r) row."""
    gaps = [float(row["gap_ratio"]) for p in payloads["payloads"]
            for row in p["rows"]]
    return min((math.log10(g) for g in gaps if math.isfinite(g) and g > 0),
               default=float("nan"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "equivlab", "cli.py")):
        print(f"no equivlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    env = environment()
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    outcome["record"]["env"] = env
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(outcome["record"], fh, indent=1, sort_keys=True)
    info = {key: outcome["record"][key] for key in (
        "workload", "seed", "config_hash", "config_sha256", "samples",
        "errors")}
    info.update(env=env, record=os.path.relpath(record_path, ROOT))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


def measure(args, workdir: str, started: float) -> dict:
    config = workloads.make_config(args.workload, args.seed)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "wb") as fh:
        fh.write(workloads.config_bytes(config))
    # The equivalent of installing: compile once, and load the interpreter,
    # numpy and scipy into the page cache, before anything is timed.
    compileall.compile_dir(os.path.join(SRC, "equivlab"), quiet=1)
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import equivlab.cli"],
                   env=dict(os.environ, **THREADS), check=True)

    modes = [0] if args.trace == 0 else [0, 1]
    reps: list[dict] = []
    errors: list[str] = []
    reference: dict | None = None
    gap = config_hash = None
    deadline = time.monotonic() + args.seconds
    while True:
        trace = modes[len(reps) % len(modes)]
        outdir = os.path.join(workdir, f"rep{len(reps)}")
        begun = time.monotonic()
        timeout = max(5.0, TIME_LIMIT_S - (begun - started))
        result, error = run_child(config_path, outdir, trace, timeout)
        rep = {"trace": trace, "ok": False,
               "wall_s": time.monotonic() - begun}
        if result is not None:
            try:
                problems, report, payloads = check_outputs(
                    config, outdir, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
            if reference is None and not problems:
                reference = result["artifacts"]
                gap = min_log10_gap(payloads)
                config_hash = report["config_hash"]
            elif reference is not None and result["artifacts"] != reference:
                problems.append("artifacts differ from the first repetition")
            error = "; ".join(problems)
            rep.update(ok=not problems, **result)
        if error:
            errors.append(f"rep{len(reps)}: {error}")
        reps.append(rep)
        shutil.rmtree(outdir, ignore_errors=True)
        now = time.monotonic()
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) % len(modes) == 0 and (
                now - started + typical > TIME_LIMIT_S
                or (len(reps) >= MIN_REPS * len(modes)
                    and now + typical > deadline)):
            break

    attempted = len(reps)
    failed = sum(not r["ok"] for r in reps)
    good = [r for r in reps if r["ok"]]

    def median(key: str, trace: int) -> float:
        values = [r[key] for r in good if r["trace"] == trace]
        return statistics.median(values) if values else float("nan")

    if args.trace == 0:
        metrics = {
            "setup_s": (median("setup_s", 0), "s"),
            "run_s": (median("run_s", 0), "s"),
            "peak_rss_mb": (median("peak_rss_mb", 0), "MB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
            "min_log10_gap": (gap if gap is not None else float("nan"),
                              "decades"),
        }
    else:
        traced = [r["layers"] for r in good if r["trace"] == 1]
        metrics = {}
        for name in (traced[0] if traced else {}):
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = (statistics.median(t[name] for t in traced), unit)
        untraced_s, traced_s = median("run_s", 0), median("run_s", 1)
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.traced_run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    correct = failed == 0 and bool(good) and all(
        math.isfinite(value) for value, _ in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "why": workloads.WORKLOADS[args.workload],
              "config": config,
              "config_sha256": workloads.config_sha256(config),
              "config_hash": config_hash, "samples": len(good),
              "errors": errors, "reps": reps, "result": result}
    return {"record": record, "result": result}


if __name__ == "__main__":
    sys.exit(main())
