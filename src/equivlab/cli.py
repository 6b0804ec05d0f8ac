"""Batch experiment runner: config-driven sweeps, verdicts, and reports.

A run is driven by one JSON config (versioned schema, documented in the
README).  Everything downstream is deterministic in the config: fixed model
and degree orderings, no time-dependent seeds, floats printed with repr
precision, and artifacts written atomically.  The exit status encodes the
worst verdict: 0 all pass, 1 some check unresolved, 2 some check failed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .deformed import (CSV_FIELDS, DEFAULT_RULE, NotPSDError, ThresholdRule,
                       bochner_check, spectral_table, sweep_rows_for_csv,
                       t_sweep)
# not called here since the sweep measures the complex property on the d_T
# it builds, but perfbench/tracing.py still wraps them under these names
from .deformed import assemble_deformed, complex_property_defect  # noqa: F401
from .geometry import assemble
from .geometry.base import ModelError, ModelSpec
from .linalg import EigensolverError
from .localmodel import (GALERKIN_MIN_CUTOFF, GAP_CONSTANT, CutoffProfile,
                         OscillatorModel, alpha_T, isometry_defect,
                         kernel_overlap, oscillator_galerkin,
                         oscillator_spectrum_analytic)
from .oracle import localization_prediction

CONFIG_SCHEMA_VERSION = 1
_CHECKS = ("complex_property", "bochner", "localization", "vanishing", "euler")
_FLOAT_ZERO = 1.0e-11


class ConfigError(ValueError):
    """Invalid configuration; `path` names the failing field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class OscillatorConfig:
    m_grid: tuple[int, ...] = (1, 2)
    T_grid: tuple[float, ...] = (1.0, 10.0)
    cutoffs: tuple[int, ...] = (12, 4)
    eps: float = 1.0
    alpha_T_probe: float = 100.0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    models: tuple[ModelSpec, ...]
    T_grid: tuple[float, ...]
    checks: tuple[str, ...]
    rule: ThresholdRule = DEFAULT_RULE
    outputs: tuple[str, ...] = ("csv", "json", "plotdata")
    oscillator: OscillatorConfig | None = None

    def canonical(self) -> dict:
        out = {"schema_version": CONFIG_SCHEMA_VERSION, "name": self.name,
               "models": [m.to_dict() for m in self.models],
               "T_grid": list(self.T_grid),
               "threshold_rule": self.rule.to_dict(),
               "checks": sorted(self.checks),
               "outputs": sorted(self.outputs)}
        if self.oscillator is not None:
            osc = self.oscillator
            out["oscillator"] = {"m": list(osc.m_grid), "T": list(osc.T_grid),
                                 "cutoff": list(osc.cutoffs), "eps": osc.eps,
                                 "alpha_T_probe": osc.alpha_T_probe}
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = raw.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {CONFIG_SCHEMA_VERSION}, got {version!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "must be a nonempty string")
    models_raw = raw.get("models", [])
    if not isinstance(models_raw, list) or not models_raw:
        raise ConfigError("models", "must be a nonempty list")
    models = []
    for i, md in enumerate(models_raw):
        try:
            spec = ModelSpec.from_dict(md)
            spec.validate()
        except (ModelError, KeyError, TypeError) as exc:
            raise ConfigError(f"models[{i}]", str(exc)) from exc
        models.append(spec)
    t_grid = raw.get("T_grid", [])
    if not isinstance(t_grid, list) or not t_grid:
        raise ConfigError("T_grid", "must be a nonempty list")
    for i, t in enumerate(t_grid):
        if not isinstance(t, (int, float)) or t <= 0:
            raise ConfigError(f"T_grid[{i}]", "entries must be positive numbers")
    rule_raw = raw.get("threshold_rule", {})
    try:
        rule = ThresholdRule(
            window_fraction=float(rule_raw.get("window_fraction", 0.25)),
            resolve_ratio=float(rule_raw.get("resolve_ratio", 1.0e3)),
            floor_rel=float(rule_raw.get("floor_rel", 1.0e-12)))
    except (TypeError, ValueError) as exc:
        raise ConfigError("threshold_rule", str(exc)) from exc
    if not 0 < rule.window_fraction <= 1:
        raise ConfigError("threshold_rule.window_fraction", "must be in (0, 1]")
    checks = raw.get("checks", list(_CHECKS))
    for i, c in enumerate(checks):
        if c not in _CHECKS and c not in ("oscillator", "alpha"):
            raise ConfigError(f"checks[{i}]", f"unknown check {c!r}")
    outputs = raw.get("outputs", ["csv", "json", "plotdata"])
    for i, o in enumerate(outputs):
        if o not in ("csv", "json", "plotdata"):
            raise ConfigError(f"outputs[{i}]", f"unknown output {o!r}")
    osc = None
    if "oscillator" in raw or "oscillator" in checks or "alpha" in checks:
        osc = _parse_oscillator(raw.get("oscillator", {}))
    return ExperimentConfig(name=name, models=tuple(models),
                            T_grid=tuple(float(t) for t in t_grid),
                            checks=tuple(checks), rule=rule,
                            outputs=tuple(outputs), oscillator=osc)


def _oscillator_number(path: str, x, kind: type, low: int):
    """x converted by kind, which must be finite, above 0 and at least low;
    otherwise a ConfigError naming path."""
    try:
        x = kind(x)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (x > 0 and low <= x < math.inf):
        need = f"an integer >= {low}" if kind is int else "a positive number"
        raise ConfigError(path, f"must be {need}")
    return x


def _parse_oscillator(osc_raw: dict) -> OscillatorConfig:
    default = OscillatorConfig()
    grids = []
    for key, fallback, kind, low in (
            ("m", default.m_grid, int, 1), ("T", default.T_grid, float, 0),
            ("cutoff", default.cutoffs, int, GALERKIN_MIN_CUTOFF)):
        values = osc_raw.get(key, fallback)
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"oscillator.{key}", "must be a nonempty list")
        grids.append(tuple(_oscillator_number(f"oscillator.{key}[{i}]", x,
                                              kind, low)
                           for i, x in enumerate(values)))
    m_grid, t_grid, cuts = grids
    if len(cuts) != len(m_grid):
        raise ConfigError("oscillator.cutoff",
                          "needs one cutoff per fiber dimension")
    eps = _oscillator_number("oscillator.eps",
                             osc_raw.get("eps", default.eps), float, 0)
    probe = _oscillator_number("oscillator.alpha_T_probe", osc_raw.get(
        "alpha_T_probe", default.alpha_T_probe), float, 0)
    return OscillatorConfig(m_grid=m_grid, T_grid=t_grid, cutoffs=cuts,
                            eps=eps, alpha_T_probe=probe)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Per-model computation (worker-safe payloads)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def model_payload(spec_dict: dict, T_grid: list[float],
                  rule_dict: dict) -> dict:
    """Everything the checks and reports need for one model, as plain data."""
    spec = ModelSpec.from_dict(spec_dict)
    rule = ThresholdRule(**rule_dict)
    model = assemble(spec)
    sweep = t_sweep(model, list(T_grid), rule=rule)
    table0, _ = spectral_table(model, 0.0, rule=rule)
    payload = {
        "model": spec.to_dict(),
        "label": spec.label(),
        "rows": sweep_rows_for_csv(sweep),
        "tables": {_fmt(T): dict(sorted(t.dims.items()))
                   for T, t in sweep.tables.items()},
        "table0": dict(sorted(table0.dims.items())),
        "unresolved": sweep.unresolved,
        "growth": {_fmt(T): v for T, v in sweep.min_eig_over_T2.items()},
        "leakage": model.leakage,
        "gram_conditions": model.gram_conditions,
        "complex_defect_ratio": {_fmt(T): v for T, v
                                 in sweep.complex_defect_ratio.items()},
        "complex_exact_zero": None,
        "bochner": None,
    }
    if model.exact is not None:
        # d_T^2 is T times a T-free certificate, so the largest T decides
        # the whole grid: it is the one nonzero whenever any is
        payload["complex_exact_zero"] = bool(model.exact.deformed_square_is_zero(
            Fraction(max(T_grid)).limit_denominator()))
    if spec.kind in ("torus", "cp1"):
        t_prob = T_grid[0]
        if spec.kind == "cp1":
            t_prob = Fraction(t_prob).limit_denominator()
        payload["bochner"] = bochner_check(model, t_prob)
    return payload


def _payload_worker(args):
    """One model's payload; a solver failure or a non-PSD Dirac square
    becomes an error payload, which the checks turn into verdicts."""
    try:
        return model_payload(*args)
    except (EigensolverError, NotPSDError) as exc:
        return {"model": args[0], "label": ModelSpec.from_dict(args[0]).label(),
                "error": str(exc), "non_psd": isinstance(exc, NotPSDError)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _euler_of(dims: dict) -> int:
    return sum((-1 if int(r) % 2 else 1) * d for r, d in dims.items())


def run_checks(config: ExperimentConfig, payloads: list[dict]) -> dict[str, str]:
    verdicts: dict[str, str] = {}
    for payload in payloads:
        label = payload["label"]
        spec = ModelSpec.from_dict(payload["model"])
        if payload.get("error"):
            # a solver failure leaves the answer open; a negative eigenvalue
            # of a sum of Gram products means the operator is wrong
            state = "fail" if payload["non_psd"] else "unresolved"
            for check in config.checks:
                if check in _CHECKS:
                    verdicts[f"{check}:{label}"] = state
            continue
        if "complex_property" in config.checks:
            # each ratio is a defect over its own round-off bound
            ok = all(v <= 1.0 for v in payload["complex_defect_ratio"].values())
            if payload["complex_exact_zero"] is not None:
                ok = ok and payload["complex_exact_zero"]
            verdicts[f"complex_property:{label}"] = "pass" if ok else "fail"
        if "bochner" in config.checks and payload["bochner"] is not None:
            res = payload["bochner"]
            if res["exact"]:
                # rational arithmetic: the identity holds or it does not
                ok = res["residual"] == 0.0
            else:
                ok = res["residual"] <= _FLOAT_ZERO
            verdicts[f"bochner:{label}"] = "pass" if ok else "fail"
        if "localization" in config.checks:
            predicted = localization_prediction(spec)
            state = "pass"
            for tkey, dims in payload["tables"].items():
                got = {int(r): d for r, d in dims.items()}
                if any((float(tkey), r) in [tuple(u) for u in payload["unresolved"]]
                       for r in got):
                    state = "unresolved"
                    break
                if got != predicted.dims:
                    state = "fail"
                    break
            verdicts[f"localization:{label}"] = state
        if "vanishing" in config.checks and spec.kind == "torus":
            expect = 2.0 * abs(spec.field.c) ** 2
            ok = all(all(d == 0 for d in dims.values())
                     for dims in payload["tables"].values())
            ok = ok and all(abs(g / expect - 1.0) <= 0.01
                            for g in payload["growth"].values())
            ok = ok and not payload["unresolved"]
            verdicts[f"vanishing:{label}"] = "pass" if ok else "fail"
        if "euler" in config.checks:
            e0 = _euler_of(payload["table0"])
            ok = all(_euler_of(dims) == e0
                     for dims in payload["tables"].values())
            verdicts[f"euler:{label}"] = "pass" if ok else "fail"
    return verdicts


def oscillator_results(osc: OscillatorConfig) -> dict:
    out = {"models": [], "alpha": []}
    for m, cutoff in zip(osc.m_grid, osc.cutoffs):
        for T in osc.T_grid:
            model = OscillatorModel(m=m, T=T, cutoff=cutoff)
            gal = oscillator_galerkin(model)
            ana = oscillator_spectrum_analytic(model)
            evals = gal.eigenvalues
            # the first eigenvalue above the kernel split; NaN when the
            # split is unresolved (-1), which already fails the check
            count = gal.kernel_count()
            lam = float(evals[count]) if 0 <= count < evals.size else math.nan
            entry = {
                "m": m, "T": T, "cutoff": cutoff, "dim": gal.dim,
                "kernel_count": count,
                "overlap": kernel_overlap(gal),
                "min_nonzero": lam,
                "gap_over_T": lam / T,
                "analytic_gap_over_T": ana.gap_over_T,
            }
            out["models"].append(entry)
    profile = CutoffProfile(eps=osc.eps)
    for m in osc.m_grid:
        a, atm = alpha_T(profile, m, osc.alpha_T_probe)
        u = np.array([1.0 + 0.5j, -0.25j, 0.75])
        defect = isometry_defect(
            OscillatorModel(m=m, T=50.0, cutoff=4), profile, u)
        out["alpha"].append({"m": m, "T": osc.alpha_T_probe, "eps": osc.eps,
                             "alpha": a, "alpha_Tm": atm,
                             "isometry_defect": defect})
    return out


def oscillator_verdicts(results: dict) -> dict[str, str]:
    verdicts = {}
    ok = True
    gaps: dict[int, list[float]] = {}
    for entry in results["models"]:
        ok = ok and entry["kernel_count"] == 1
        ok = ok and entry["overlap"] >= 1.0 - 1.0e-8
        ok = ok and entry["min_nonzero"] >= GAP_CONSTANT * entry["T"] * (1 - 1e-8)
        ok = ok and abs(entry["gap_over_T"] / GAP_CONSTANT - 1.0) <= 1.0e-8
        gaps.setdefault(entry["m"], []).append(entry["gap_over_T"])
    for m, gs in gaps.items():
        ok = ok and max(gs) - min(gs) <= 1.0e-8 * GAP_CONSTANT
    verdicts["oscillator"] = "pass" if ok else "fail"
    ok = True
    for entry in results["alpha"]:
        ok = ok and abs(entry["alpha_Tm"] * 2.0 ** entry["m"] - 1.0) <= 0.002
        ok = ok and entry["isometry_defect"] <= 1.0e-9
    verdicts["alpha"] = "pass" if ok else "fail"
    return verdicts


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_results_csv(payloads: list[dict], path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for payload in payloads:
        for rec in payload.get("rows", []):
            writer.writerow(rec[f] for f in CSV_FIELDS)
    _atomic_write(path, buf.getvalue())


def emit_plotdata(outdir: str, payloads: list[dict],
                  osc_results: dict | None) -> list[str]:
    """Columnar text files for external plotting; documented headers."""
    written = []
    eig_lines = ["model\tT\tr\tidx\tlambda"]
    gap_lines = ["model\tT\tr\tgap_ratio\tresolved"]
    growth_lines = ["model\tT\tlam_min_over_T2"]
    for payload in payloads:
        label = payload["label"]
        for rec in payload.get("rows", []):
            for i in range(1, 9):
                val = rec.get(f"lam{i}", "")
                if val != "":
                    eig_lines.append(
                        f"{label}\t{rec['T']}\t{rec['r']}\t{i}\t{val}")
            gap_lines.append(f"{label}\t{rec['T']}\t{rec['r']}\t"
                             f"{rec['gap_ratio']}\t{rec['resolved']}")
        for tkey, g in sorted(payload.get("growth", {}).items(),
                              key=lambda kv: float(kv[0])):
            growth_lines.append(f"{label}\t{tkey}\t{g:.17g}")
    files = {"eig_trajectories.tsv": eig_lines, "gap_ratio.tsv": gap_lines,
             "torus_growth.tsv": growth_lines}
    if osc_results is not None:
        osc_lines = ["m\tT\tcutoff\tgap_over_T\toverlap"]
        for e in osc_results["models"]:
            osc_lines.append(f"{e['m']}\t{e['T']:.17g}\t{e['cutoff']}\t"
                             f"{e['gap_over_T']:.17g}\t{e['overlap']:.17g}")
        alpha_lines = ["m\tT\teps\talpha\talpha_Tm"]
        for e in osc_results["alpha"]:
            alpha_lines.append(f"{e['m']}\t{e['T']:.17g}\t{e['eps']:.17g}\t"
                               f"{e['alpha']:.17g}\t{e['alpha_Tm']:.17g}")
        files["oscillator_gap.tsv"] = osc_lines
        files["alpha_scaling.tsv"] = alpha_lines
    for name, lines in files.items():
        path = os.path.join(outdir, name)
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


@dataclass
class Report:
    config_hash: str
    verdicts: dict[str, str]
    artifacts: list[str] = field(default_factory=list)
    version: str = __version__

    def worst(self) -> str:
        order = {"pass": 0, "unresolved": 1, "fail": 2}
        worst = "pass"
        for v in self.verdicts.values():
            if order[v] > order[worst]:
                worst = v
        return worst

    def exit_code(self) -> int:
        return {"pass": 0, "unresolved": 1, "fail": 2}[self.worst()]

    def to_dict(self, relative_to: str | None = None) -> dict:
        artifacts = self.artifacts
        if relative_to is not None:
            artifacts = [os.path.relpath(a, relative_to) for a in artifacts]
        return {"schema_version": CONFIG_SCHEMA_VERSION,
                "package_version": self.version,
                "config_hash": self.config_hash,
                "verdicts": dict(sorted(self.verdicts.items())),
                "worst": self.worst(),
                "artifacts": sorted(artifacts)}


def run(config: ExperimentConfig, outdir: str, jobs: int = 1,
        verbose: bool = False) -> Report:
    os.makedirs(outdir, exist_ok=True)
    rule_dict = config.rule.to_dict()
    tasks = [(m.to_dict(), list(config.T_grid), rule_dict)
             for m in config.models]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(_payload_worker, tasks))
    else:
        payloads = list(map(_payload_worker, tasks))
    verdicts = run_checks(config, payloads)
    osc_results = None
    if config.oscillator is not None and (
            "oscillator" in config.checks or "alpha" in config.checks):
        osc_results = oscillator_results(config.oscillator)
        for key, v in oscillator_verdicts(osc_results).items():
            if key in config.checks:
                verdicts[key] = v
    report = Report(config_hash=config.config_hash(), verdicts=verdicts)
    if "csv" in config.outputs:
        path = os.path.join(outdir, "results.csv")
        write_results_csv(payloads, path)
        report.artifacts.append(path)
    if "json" in config.outputs:
        path = os.path.join(outdir, "payloads.json")
        _atomic_write(path, json.dumps(
            {"config": config.canonical(), "payloads": payloads,
             "oscillator": osc_results}, sort_keys=True, indent=1,
            default=str))
        report.artifacts.append(path)
    if "plotdata" in config.outputs:
        report.artifacts.extend(emit_plotdata(outdir, payloads, osc_results))
    report_path = os.path.join(outdir, "report.json")
    _atomic_write(report_path, json.dumps(report.to_dict(relative_to=outdir),
                                          sort_keys=True, indent=1))
    report.artifacts.append(report_path)
    if verbose:
        for key, v in sorted(verdicts.items()):
            print(f"  {v.upper():10s} {key}")
    return report


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _resolve_outdir(path: str) -> str:
    root = os.environ.get("EQUIVLAB_OUTPUT_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _run_command(load, error_prefix: str, args) -> int:
    """Run the config that load returns and print the worst verdict; exit
    status 2 with `error_prefix: <error>` on stderr when load rejects it."""
    try:
        config = load()
    except ConfigError as exc:
        print(f"{error_prefix}: {exc}", file=sys.stderr)
        return 2
    report = run(config, _resolve_outdir(args.outdir),
                 jobs=getattr(args, "jobs", 1), verbose=args.verbose)
    print(f"worst verdict: {report.worst()}")
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="equivlab",
        description="spectral laboratory for field-deformed Dolbeault complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="run a config end to end")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--outdir", default="runs/latest")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_sweep = sub.add_parser("sweep", help="deformation sweep for one model")
    p_sweep.add_argument("--model", choices=["torus", "cp1", "product"],
                         required=True)
    p_sweep.add_argument("--T", required=True, help="comma separated, positive")
    p_sweep.add_argument("--cutoff", type=int, default=12)
    p_sweep.add_argument("--k", type=int, default=0)
    p_sweep.add_argument("--tau", default="0,1", help="torus modulus re,im")
    p_sweep.add_argument("--c", default="1,0", help="constant field re,im")
    p_sweep.add_argument("--torus-cutoff", type=int, default=4)
    p_sweep.add_argument("-o", "--outdir", default="runs/sweep")
    p_sweep.add_argument("-v", "--verbose", action="store_true")

    p_osc = sub.add_parser("oscillator", help="fiber model spectra and gaps")
    p_osc.add_argument("--m", default="1,2")
    p_osc.add_argument("--T", default="1,10")
    p_osc.add_argument("--cutoff", default="12,4")
    p_osc.add_argument("--eps", type=float, default=1.0)
    p_osc.add_argument("-o", "--outdir", default="runs/oscillator")
    p_osc.add_argument("-v", "--verbose", action="store_true")

    p_rep = sub.add_parser("report", help="summarize an existing run directory")
    p_rep.add_argument("rundir")

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print(f"config ok: {config.name} ({config.config_hash()[:12]})")
        return 0

    if args.command == "run":
        return _run_command(lambda: load_config(args.config),
                            "invalid config", args)

    if args.command == "sweep":
        tau = _parse_floats(args.tau)
        cfield = _parse_floats(args.c)
        if args.model == "torus":
            model = {"kind": "torus", "tau": tau, "cutoff": args.cutoff,
                     "field": {"kind": "constant", "c": cfield}}
        elif args.model == "cp1":
            model = {"kind": "cp1", "k": args.k, "cutoff": args.cutoff,
                     "field": {"kind": "linear"}}
        else:
            model = {"kind": "product",
                     "field": {"kind": "product_lift", "factor": "left"},
                     "left": {"kind": "cp1", "k": args.k,
                              "cutoff": args.cutoff,
                              "field": {"kind": "linear"}},
                     "right": {"kind": "torus", "tau": tau,
                               "cutoff": args.torus_cutoff,
                               "field": {"kind": "constant", "c": [1, 0]}}}
        raw = {"schema_version": 1, "name": f"sweep-{args.model}",
               "models": [model], "T_grid": _parse_floats(args.T),
               "checks": ["localization", "euler", "complex_property"]}
        return _run_command(lambda: parse_config(raw),
                            "invalid sweep parameters", args)

    if args.command == "oscillator":
        m_grid = [int(x) for x in args.m.split(",") if x]
        cuts = [int(x) for x in args.cutoff.split(",") if x]
        raw = {"schema_version": 1, "name": "oscillator",
               "models": [{"kind": "torus", "tau": [0, 1], "cutoff": 1,
                           "field": {"kind": "constant", "c": [1, 0]}}],
               "T_grid": [1.0], "checks": ["oscillator", "alpha"],
               "oscillator": {"m": m_grid, "T": _parse_floats(args.T),
                              "cutoff": cuts, "eps": args.eps}}
        return _run_command(lambda: parse_config(raw),
                            "invalid oscillator parameters", args)

    if args.command == "report":
        path = os.path.join(args.rundir, "report.json")
        with open(path) as fh:
            data = json.load(fh)
        print(f"run {data['config_hash'][:12]} "
              f"(package {data['package_version']})")
        for key, v in sorted(data["verdicts"].items()):
            print(f"  {v.upper():10s} {key}")
        print(f"worst verdict: {data['worst']}")
        return {"pass": 0, "unresolved": 1, "fail": 2}[data["worst"]]

    return 2


if __name__ == "__main__":
    sys.exit(main())
