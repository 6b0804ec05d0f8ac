"""Batch experiment runner: config-driven sweeps, verdicts, and reports.

A run is driven by one JSON config (versioned schema, documented in the
README) and computes and writes only what its listed checks read.  It is
deterministic in the config: fixed model and degree orderings, no
time-dependent seeds, floats in repr precision, atomic writes.  The exit
status is the worst verdict's: 0 all pass, 1 unresolved, 2 failed.
"""

from __future__ import annotations

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
from functools import partial

import numpy as np

from . import __version__
from .deformed import (CSV_FIELDS, KEPT_EIGENVALUES, NotPSDError,
                       bochner_check, graded_euler, sweep_rows_for_csv,
                       t_sweep)
# not called here since the sweep measures the complex property on the d_T
# it builds, but perfbench/tracing.py still wraps them under these names
from .deformed import assemble_deformed, complex_property_defect  # noqa: F401
from .geometry import assemble, float_entries
from .geometry.base import SCHEMA_VERSION, FieldSpec, ModelError, ModelSpec
from .linalg import EigensolverError
from .localmodel import (GALERKIN_MAX_DIM, GALERKIN_MIN_CUTOFF, GAP_CONSTANT,
                         OscillatorModel, alpha_T, isometry_defect,
                         kernel_overlap, oscillator_galerkin)
from .oracle import localization_prediction

CONFIG_SCHEMA_VERSION = 1
# the alpha check's cutoff radius and T, the point its 0.002 bound was set
# at, and the T its isometry defect is taken at
CUTOFF_EPS = 1.0
ALPHA_T_PROBE = 100.0
ISOMETRY_T_PROBE = 50.0
# the keys each object of a config may hold, in the order they are read; a
# model entry and its field must hold each key of their kind (see `_spec`)
_ROOT_KEYS = ("schema_version", "name", "models", "T_grid", "checks",
              "outputs", "oscillator")
_OSCILLATOR_KEYS = ("m", "T", "cutoff")
_MODEL_KEYS = {"torus": ("schema_version", "kind", "tau", "cutoff", "field"),
               "cp1": ("schema_version", "kind", "k", "cutoff", "field"),
               "product": ("schema_version", "kind", "left", "right", "field")}
_FIELD_KEYS = {"constant": ("kind", "c"), "linear": ("kind",),
               "product_lift": ("kind", "factor")}
# the `sweep` flags that only some models read: the value each takes when
# left out, and the models that read it; any other model refuses it
_SWEEP_FLAGS = {"k": (0, ("cp1", "product")),
                "tau": ("0,1", ("torus", "product")),
                "c": ("1,0", ("torus",)), "torus_cutoff": (4, ("product",))}
# each verdict's exit status; the worst verdict is the one with the largest
SEVERITY = {"pass": 0, "unresolved": 1, "fail": 2}


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


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    models: tuple[ModelSpec, ...]
    T_grid: tuple[float, ...]
    checks: tuple[str, ...]
    outputs: tuple[str, ...] = ("csv", "json", "plotdata")
    oscillator: OscillatorConfig | None = None

    def canonical(self) -> dict:
        out = {"schema_version": CONFIG_SCHEMA_VERSION, "name": self.name,
               "models": [m.to_dict() for m in self.models],
               "T_grid": list(self.T_grid),
               "checks": list(self.checks), "outputs": list(self.outputs)}
        if self.oscillator is not None:
            osc = self.oscillator
            out["oscillator"] = {"m": list(osc.m_grid), "T": list(osc.T_grid),
                                 "cutoff": list(osc.cutoffs)}
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = raw.get("schema_version")
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {CONFIG_SCHEMA_VERSION}, got {version!r}")
    _known_keys("", raw, _ROOT_KEYS)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "must be a nonempty string")
    models_raw = raw.get("models", [])
    if not isinstance(models_raw, list):
        raise ConfigError("models", "must be a list")
    models = []
    for i, md in enumerate(models_raw):
        try:
            models.append(_spec(f"models[{i}]", md))
        except ModelError as exc:
            raise ConfigError(f"models[{i}]", str(exc)) from exc
    t_grid = raw.get("T_grid", [])
    if not isinstance(t_grid, list):
        raise ConfigError("T_grid", "must be a list")
    t_grid = _distinct("T_grid", [_deformation(f"T_grid[{i}]", t)
                                  for i, t in enumerate(t_grid)])
    # left out, checks is every model check, whether a model of the config
    # runs it or not; a listed check must be one that some model runs
    checks = _names("checks", raw.get("checks", [
        check for check, (kinds, _) in CHECKS.items() if kinds]), tuple(CHECKS))
    if not checks:
        raise ConfigError("checks", "must be a nonempty list")
    # only a config of fiber checks alone may hold no model and no T grid
    if not models and any(CHECKS[check][0] for check in checks):
        raise ConfigError("models", "must be nonempty to run a model check")
    if bool(t_grid) != bool(models):
        raise ConfigError("T_grid", "must be nonempty exactly when models is")
    if "checks" in raw:
        for i, check in enumerate(checks):
            kinds = CHECKS[check][0]
            if kinds and not any(spec.kind in kinds for spec in models):
                raise ConfigError(
                    f"checks[{i}]", "must be a check that a model of the "
                    f"config runs; {check} runs on {' and '.join(kinds)} "
                    "models only")
    outputs = _names("outputs", raw.get("outputs", ["csv", "json", "plotdata"]),
                     ("csv", "json", "plotdata"))
    osc = None
    fiber = any(not CHECKS[check][0] for check in checks)
    if "oscillator" in raw or fiber:
        osc = _parse_oscillator(_object("oscillator", raw.get("oscillator", {})))
        if not fiber:
            raise ConfigError("oscillator", "must be left out unless checks "
                              "lists oscillator or alpha, which read it")
    return ExperimentConfig(name=name, models=tuple(models),
                            T_grid=tuple(t_grid),
                            checks=tuple(sorted(checks)),
                            outputs=tuple(sorted(outputs)), oscillator=osc)


def _number(path: str, x, kind: type, low=None):
    """x as kind if it is a finite number of that kind (an int for int, not
    a bool; an int or a float for float) and, given low, at least low for an
    int and above it for a float; otherwise a ConfigError naming path."""
    if kind is int:
        ok = type(x) is int and (low is None or x >= low)
        need = "an integer" if low is None else f"an integer >= {low}"
    else:
        try:
            ok = (type(x) in (int, float) and math.isfinite(x)
                  and (low is None or x > low))
        except OverflowError:       # an int too large for a float
            ok = False
        need = "a finite number" if low is None else f"a number > {low}"
    if not ok:
        raise ConfigError(path, f"must be {need}")
    return kind(x)


def _deformation(path: str, x) -> float:
    """x as a deformation parameter T: a number > 0 whose square T ** 2,
    which the sweep divides by and the Dirac square grows with, is a
    nonzero finite float; otherwise a ConfigError naming path."""
    T = _number(path, x, float, 0)
    try:
        ok = T ** 2 > 0.0
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(path, "must be a number > 0 whose square is a "
                          "nonzero finite float")
    return T


def _distinct(path: str, xs):
    """xs if no entry repeats an earlier one; otherwise a ConfigError naming
    the first repeat and the entry it repeats."""
    for i, x in enumerate(xs):
        if x in xs[:i]:
            raise ConfigError(f"{path}[{i}]", "must be distinct; repeats "
                              f"{path}[{xs.index(x)}]")
    return xs


def _object(path: str, x) -> dict:
    if not isinstance(x, dict):
        raise ConfigError(path, "must be an object")
    return x


def _known_keys(prefix: str, obj: dict, keys: tuple[str, ...]) -> None:
    """A ConfigError naming prefix + the first key of obj outside keys: a
    key the schema does not define is refused, never ignored."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}", "unknown key; expected one "
                              f"of {', '.join(keys)}")


def _names(path: str, xs, known: tuple[str, ...]) -> list:
    """xs if it is a list of distinct names from known; otherwise a
    ConfigError naming path, or the first unknown or repeated entry."""
    if not isinstance(xs, list):
        raise ConfigError(path, "must be a list")
    for i, x in enumerate(xs):
        if x not in known:
            raise ConfigError(f"{path}[{i}]", f"unknown {path[:-1]} {x!r}")
    return _distinct(path, xs)


def _complex(path: str, x) -> complex:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise ConfigError(path, "must be a pair [re, im]")
    return complex(*(_number(f"{path}[{i}]", v, float)
                     for i, v in enumerate(x)))


def _spec(path: str, x, what: str = "model"):
    """The ModelSpec that the raw model entry x describes, its field and
    factors included; with what="field", the FieldSpec of a raw field.
    Every key of x's kind is required and no other is allowed; a model
    entry's schema_version, the one key it may leave out, must be the
    integer SCHEMA_VERSION.  A key or number that does not fit is a ConfigError
    naming it; an unknown kind or a value out of range is a ModelError.  A
    model whose assembly would hold more than GALERKIN_MAX_DIM float
    entries (`geometry.float_entries`) is a ConfigError naming its cutoff,
    or for a product the product."""
    x = _object(path, x)
    kinds = _MODEL_KEYS if what == "model" else _FIELD_KEYS
    kind = x.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ModelError(f"unsupported {what} kind: {kind!r}")
    _known_keys(f"{path}.", x, kinds[kind])
    parts = {}
    for key in kinds[kind]:
        where, value = f"{path}.{key}", x.get(key)
        if key == "schema_version":
            if key in x and (type(value) is not int
                             or value != SCHEMA_VERSION):
                raise ConfigError(where, f"must be {SCHEMA_VERSION}")
        elif key not in x:
            raise ConfigError(where, f"missing key; every key of a {kind} "
                              f"{what} is required")
        elif key == "field":
            parts[key] = _spec(where, value, "field")
        elif key in ("left", "right"):
            parts[key] = _spec(where, value)
        elif key in ("tau", "c"):
            parts[key] = _complex(where, value)
        elif key in ("k", "cutoff"):
            parts[key] = _number(where, value, int)
        else:                                   # kind, factor
            parts[key] = value
    if what == "field":
        return FieldSpec(**parts)
    spec = ModelSpec(**parts)
    if float_entries(spec) > GALERKIN_MAX_DIM:
        raise ConfigError(
            path if kind == "product" else f"{path}.cutoff",
            "must be small enough that the model's stacks"
            f"{' and spectrum at one T' * (kind == 'product')} hold at most "
            f"{GALERKIN_MAX_DIM} float entries")
    return spec


def _parse_oscillator(osc_raw: dict) -> OscillatorConfig:
    _known_keys("oscillator.", osc_raw, _OSCILLATOR_KEYS)
    default = OscillatorConfig()
    grids = []
    for key, fallback, parse in (
            ("m", default.m_grid, partial(_number, kind=int, low=1)),
            ("T", default.T_grid, _deformation),
            ("cutoff", default.cutoffs,
             partial(_number, kind=int, low=GALERKIN_MIN_CUTOFF))):
        values = osc_raw.get(key, fallback)
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"oscillator.{key}", "must be a nonempty list")
        grids.append(tuple(parse(f"oscillator.{key}[{i}]", x)
                           for i, x in enumerate(values)))
    m_grid, t_grid, cuts = grids
    _distinct("oscillator.m", m_grid)
    _distinct("oscillator.T", t_grid)
    if len(cuts) != len(m_grid):
        raise ConfigError("oscillator.cutoff",
                          "needs one cutoff per fiber dimension")
    for i, (m, cutoff) in enumerate(zip(m_grid, cuts)):
        # the grids passed the bounds above, so only the model's size fails
        try:
            OscillatorModel(m=m, T=t_grid[0], cutoff=cutoff)
        except ValueError as exc:
            raise ConfigError(
                f"oscillator.cutoff[{i}]", "must be small enough that "
                f"cutoff^(2m) 4^m <= {GALERKIN_MAX_DIM} at m = {m}") from exc
    return OscillatorConfig(m_grid=m_grid, T_grid=t_grid, cutoffs=cuts)


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; a key that repeats, which `json.load`
    would give its last value, is a ConfigError naming it."""
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigError(key, "repeated key; an object names a key once")
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:   # JSON's encoding
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror}"
                          ) from exc
    except ConfigError:
        raise                       # a repeated key, from `_unique_keys`
    except ValueError as exc:
        # a JSONDecodeError, a UnicodeDecodeError, or an integer of more
        # digits than Python converts
        raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Per-model computation (worker-safe payloads)
# ---------------------------------------------------------------------------

def model_payload(spec: ModelSpec, T_grid: list[float], checks: tuple) -> dict:
    """Everything the listed checks and the reports need for one model, as
    plain data; `growth`, `complex_exact_zero` and `bochner`, each read by
    one check, are {}, null and null unless that check runs on the model."""
    runs = {check for check in checks if spec.kind in CHECKS[check][0]}
    model = assemble(spec)
    sweep = t_sweep(model, list(T_grid))
    exact = model.exact
    payload = {
        "model": spec.to_dict(),
        "label": spec.label(),
        "rows": sweep_rows_for_csv(spec, sweep),
        "tables": {f"{T:.17g}": dict(sorted(t.items()))
                   for T, t in sweep.tables.items()},
        "table0": dict(sorted(sweep.table0.items())),
        "unresolved": sweep.unresolved,
        "growth": ({f"{T:.17g}": v for T, v in sweep.min_eig_over_T2.items()}
                   if "vanishing" in runs else {}),
        "leakage": {},
        "gram_pivot_ratio": {},
        "complex_defect_ratio": {f"{T:.17g}": v for T, v
                                 in sweep.complex_defect_ratio.items()},
        # d_T^2 is T times a T-free certificate, so the largest T decides
        # the whole grid: it is the one nonzero whenever any is
        "complex_exact_zero": (
            bool(exact.deformed_square_is_zero(Fraction(max(T_grid))))
            if exact is not None and "complex_property" in runs else None),
        "bochner": (bochner_check(model, T_grid[0]) if "bochner" in runs
                    else None),
    }
    if exact is not None:
        # dbar and i(v) close on the truncation; only this wedge can leak
        payload["leakage"] = {f"dual_wedge:p{p}q{q}": v for (p, q), v
                              in exact.dual_wedge_leakage().items()}
        payload["gram_pivot_ratio"] = {f"p{p}q{q}": b.gram_condition()
                                       for (p, q), b in exact.blocks.items()}
    return payload


def _payload_worker(args):
    """One model's payload; a solver failure or a non-PSD Dirac square
    becomes an error payload, which the checks turn into verdicts."""
    try:
        return model_payload(*args)
    except (EigensolverError, NotPSDError) as exc:
        spec = args[0]
        return {"model": spec.to_dict(), "label": spec.label(),
                "error": str(exc), "non_psd": isinstance(exc, NotPSDError)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _complex_property(spec, payload, T_grid) -> str:
    # each ratio is a defect over its own round-off bound; the exact
    # certificate, where the model has one, must hold too
    ok = all(v <= 1.0 for v in payload["complex_defect_ratio"].values())
    return "pass" if ok and payload["complex_exact_zero"] is not False else "fail"


def _bochner(spec, payload, T_grid) -> str:
    res = payload["bochner"]
    return "pass" if res["residual"] <= res["bound"] else "fail"


def _localization(spec, payload, T_grid) -> str:
    # a resolved count off the prediction fails at any T, even after an
    # unresolved cell at an earlier T
    predicted = localization_prediction(spec)
    unresolved = {tuple(u) for u in payload["unresolved"]}
    state = "pass"
    for tkey, dims in payload["tables"].items():
        got = {int(r): d for r, d in dims.items()}
        open_r = {r for r in got if (float(tkey), r) in unresolved}
        if got.keys() != predicted.keys() or any(
                d != predicted[r] for r, d in got.items() if r not in open_r):
            return "fail"
        if open_r:
            state = "unresolved"
    return state


def _vanishing(spec, payload, T_grid) -> str:
    expect = 2.0 * abs(spec.field.c) ** 2
    ok = all(all(d == 0 for d in dims.values())
             for dims in payload["tables"].values())
    ok = ok and all(abs(g / expect - 1.0) <= 0.01
                    for g in payload["growth"].values())
    return "pass" if ok and not payload["unresolved"] else "fail"


def _euler(spec, payload, T_grid) -> str:
    e0 = graded_euler(payload["table0"])
    ok = all(graded_euler(dims) == e0 for dims in payload["tables"].values())
    return "pass" if ok else "fail"


def _oscillator(results: dict) -> str:
    ok = True
    gaps: dict[int, list[float]] = {}
    for entry in results["models"]:
        ok = ok and entry["kernel_count"] == 1
        ok = ok and entry["overlap"] >= 1.0 - 1.0e-8
        ok = ok and entry["min_nonzero"] >= GAP_CONSTANT * entry["T"] * (1 - 1e-8)
        ok = ok and abs(entry["gap_over_T"] / GAP_CONSTANT - 1.0) <= 1.0e-8
        gaps.setdefault(entry["m"], []).append(entry["gap_over_T"])
    for gs in gaps.values():
        ok = ok and max(gs) - min(gs) <= 1.0e-8 * GAP_CONSTANT
    return "pass" if ok else "fail"


def _alpha(results: dict) -> str:
    ok = all(abs(entry["alpha_Tm"] * 2.0 ** entry["m"] - 1.0) <= 0.002
             and entry["isometry_defect"] <= 1.0e-9
             for entry in results["alpha"])
    return "pass" if ok else "fail"


# each check: the model kinds it runs on, and its judge.  A model check's
# judge reads (spec, payload, T_grid) of one model; a fiber check runs on no
# model kind, and its judge reads the oscillator results.
_ALL_KINDS = tuple(_MODEL_KEYS)
CHECKS = {"complex_property": (_ALL_KINDS, _complex_property),
          "bochner": (("torus", "cp1"), _bochner),
          "localization": (_ALL_KINDS, _localization),
          "vanishing": (("torus",), _vanishing),
          "euler": (_ALL_KINDS, _euler),
          "oscillator": ((), _oscillator),
          "alpha": ((), _alpha)}


def run_checks(config: ExperimentConfig, payloads: list[dict]) -> dict[str, str]:
    """The verdict of each listed check on each model whose kind it runs
    on.  A model whose payload is an error gets the same verdict in each:
    a solver failure leaves the answer open, and a negative eigenvalue of a
    sum of Gram products means the operator is wrong."""
    verdicts: dict[str, str] = {}
    for spec, payload in zip(config.models, payloads, strict=True):
        for check in config.checks:
            kinds, judge = CHECKS[check]
            if spec.kind not in kinds:
                continue
            if payload.get("error"):
                state = "fail" if payload["non_psd"] else "unresolved"
            else:
                state = judge(spec, payload, config.T_grid)
            verdicts[f"{check}:{payload['label']}"] = state
    return verdicts


def oscillator_results(osc: OscillatorConfig) -> dict:
    out = {"models": [], "alpha": []}
    for m, cutoff in zip(osc.m_grid, osc.cutoffs):
        for T in osc.T_grid:
            gal = oscillator_galerkin(OscillatorModel(m=m, T=T, cutoff=cutoff))
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
            }
            out["models"].append(entry)
    for m in osc.m_grid:
        a, atm = alpha_T(CUTOFF_EPS, m, ALPHA_T_PROBE)
        u = np.array([1.0 + 0.5j, -0.25j, 0.75])
        defect = isometry_defect(CUTOFF_EPS, m, ISOMETRY_T_PROBE, u)
        out["alpha"].append({"m": m, "T": ALPHA_T_PROBE, "eps": CUTOFF_EPS,
                             "alpha": a, "alpha_Tm": atm,
                             "isometry_defect": defect})
    return out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    """Write text to a temporary file next to path and rename it over path,
    with the mode 0o666 & ~umask of a plainly created file: mkstemp's own
    0o600 would survive the rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)     # the one way to read it; restored at once
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _tsv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _artifacts(config: ExperimentConfig, payloads: list[dict],
               osc_results: dict | None):
    """(file name, text) of each artifact that config.outputs lists, but
    report.json, one at a time; a table with no row is left out.  Plot data
    is columnar text for external plotting, one documented header per file."""
    rows = [rec for p in payloads for rec in p.get("rows", [])]
    if "csv" in config.outputs and rows:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows([rec[f] for f in CSV_FIELDS] for rec in rows)
        yield "results.csv", buf.getvalue()
    if "json" in config.outputs:
        yield "payloads.json", json.dumps(
            {"config": config.canonical(), "payloads": payloads,
             "oscillator": osc_results}, sort_keys=True, indent=1, default=str)
    if "plotdata" not in config.outputs:
        return
    osc = osc_results or {"models": [], "alpha": []}
    for name, header, lines in (
            ("eig_trajectories.tsv", "model\tT\tr\tidx\tlambda", [
                f"{rec['model']}\t{rec['T']}\t{rec['r']}\t"
                f"{i}\t{rec[f'lam{i}']}" for rec in rows
                for i in range(1, KEPT_EIGENVALUES + 1) if rec[f"lam{i}"]]),
            ("gap_ratio.tsv", "model\tT\tr\tgap_ratio\tresolved", [
                f"{rec['model']}\t{rec['T']}\t{rec['r']}\t{rec['gap_ratio']}\t"
                f"{rec['resolved']}" for rec in rows]),
            ("torus_growth.tsv", "model\tT\tlam_min_over_T2", [
                f"{p['label']}\t{tkey}\t{g:.17g}" for p in payloads
                for tkey, g in sorted(p.get("growth", {}).items(),
                                      key=lambda kv: float(kv[0]))]),
            ("oscillator_gap.tsv", "m\tT\tcutoff\tgap_over_T\toverlap", [
                f"{e['m']}\t{e['T']:.17g}\t{e['cutoff']}\t"
                f"{e['gap_over_T']:.17g}\t{e['overlap']:.17g}"
                for e in osc["models"]]),
            ("alpha_scaling.tsv", "m\tT\teps\talpha\talpha_Tm", [
                f"{e['m']}\t{e['T']:.17g}\t{e['eps']:.17g}\t"
                f"{e['alpha']:.17g}\t{e['alpha_Tm']:.17g}"
                for e in osc["alpha"]])):
        if lines:
            yield name, _tsv(header, lines)


@dataclass
class Report:
    config_hash: str
    verdicts: dict[str, str]
    artifacts: list[str] = field(default_factory=list)
    version: str = __version__

    def worst(self) -> str:
        return max(self.verdicts.values(), key=SEVERITY.__getitem__,
                   default="pass")

    def exit_code(self) -> int:
        return SEVERITY[self.worst()]

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
    tasks = [(m, list(config.T_grid), config.checks) for m in config.models]
    if jobs > 1 and len(tasks) > 1:
        # imported here: it loads logging, which a serial run does not use
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(_payload_worker, tasks))
    else:
        payloads = list(map(_payload_worker, tasks))
    verdicts = run_checks(config, payloads)
    osc_results = None
    if config.oscillator is not None:
        osc_results = oscillator_results(config.oscillator)
        # the fiber checks, the ones that run on no model kind
        verdicts.update((check, CHECKS[check][1](osc_results))
                        for check in config.checks if not CHECKS[check][0])
    report = Report(config_hash=config.config_hash(), verdicts=verdicts)
    for name, text in _artifacts(config, payloads, osc_results):
        path = os.path.join(outdir, name)
        _atomic_write(path, text)
        report.artifacts.append(path)
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
    """A run directory, written by a run or read by `report`, under
    EQUIVLAB_OUTPUT_ROOT when it is relative and that is set."""
    root = os.environ.get("EQUIVLAB_OUTPUT_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _parse_list(text: str) -> list:
    """Comma-separated numbers, each an int where it reads as one; an entry
    that is no number, the empty one too, stays text, for the config checks
    to reject by name."""
    out = []
    for x in text.split(","):
        for kind in (int, float):
            try:
                x = kind(x)
                break
            except ValueError:
                pass
        out.append(x)
    return out


def _sweep_config(args) -> ExperimentConfig:
    """The config that `equivlab sweep` runs.  A flag of _SWEEP_FLAGS left
    out takes its default, and one its model does not read is a
    ConfigError naming it."""
    flags = {}
    for key, (default, models) in _SWEEP_FLAGS.items():
        value = getattr(args, key)
        if value is not None and args.model not in models:
            raise ConfigError(f"--{key.replace('_', '-')}", "must be left out;"
                              f" a {args.model} sweep does not read it")
        flags[key] = default if value is None else value
    cp1 = {"kind": "cp1", "k": flags["k"], "cutoff": args.cutoff,
           "field": {"kind": "linear"}}
    torus = {"kind": "torus", "tau": _parse_list(flags["tau"]),
             "cutoff": args.cutoff,
             "field": {"kind": "constant", "c": _parse_list(flags["c"])}}
    product = {"kind": "product", "left": cp1,
               "right": dict(torus, cutoff=flags["torus_cutoff"]),
               "field": {"kind": "product_lift", "factor": "left"}}
    model = {"torus": torus, "cp1": cp1, "product": product}[args.model]
    return parse_config({
        "schema_version": 1, "name": f"sweep-{args.model}", "models": [model],
        "T_grid": _parse_list(args.T),
        "checks": ["localization", "euler", "complex_property"]})


def _run_command(load, error_prefix: str, args) -> int:
    """Run the config that load returns and print the worst verdict; exit
    status 2 with `error_prefix: <error>` on stderr when load rejects it,
    or with `cannot write output: <dir>: <error>` when the output directory
    cannot be made, before any model is assembled."""
    try:
        config = load()
    except ConfigError as exc:
        print(f"{error_prefix}: {exc}", file=sys.stderr)
        return 2
    outdir = _resolve_outdir(args.outdir)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {outdir}: {exc.strerror}",
              file=sys.stderr)
        return 2
    report = run(config, outdir,
                 jobs=getattr(args, "jobs", 1), verbose=args.verbose)
    print(f"worst verdict: {report.worst()}")
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    import argparse   # only the command line parses arguments

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
    for key, (default, models) in _SWEEP_FLAGS.items():
        p_sweep.add_argument(f"--{key.replace('_', '-')}", type=type(default),
                             help=f"read by {' and '.join(models)}; "
                             f"default {default}")
    p_sweep.add_argument("-o", "--outdir", default="runs/sweep")
    p_sweep.add_argument("-v", "--verbose", action="store_true")

    p_osc = sub.add_parser("oscillator", help="fiber model spectra and gaps")
    p_osc.add_argument("--m")
    p_osc.add_argument("--T")
    p_osc.add_argument("--cutoff")
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
        # a name stdout cannot encode (under an ASCII locale, say) is
        # printed with backslash escapes
        text = f"config ok: {config.name} ({config.config_hash()[:12]})"
        encoding = sys.stdout.encoding or "utf-8"
        print(text.encode(encoding, "backslashreplace").decode(encoding))
        return 0

    if args.command == "run":
        if args.jobs < 1:
            print(f"invalid option: --jobs: must be an integer >= 1, got "
                  f"{args.jobs}", file=sys.stderr)
            return 2
        return _run_command(lambda: load_config(args.config),
                            "invalid config", args)

    if args.command == "sweep":
        return _run_command(lambda: _sweep_config(args),
                            "invalid sweep parameters", args)

    if args.command == "oscillator":
        # a grid left out takes the config default
        grids = {key: _parse_list(text) for key, text in vars(args).items()
                 if key in _OSCILLATOR_KEYS and text is not None}
        raw = {"schema_version": 1, "name": "oscillator",
               "checks": ["oscillator", "alpha"], "oscillator": grids}
        return _run_command(lambda: parse_config(raw),
                            "invalid oscillator parameters", args)

    if args.command == "report":
        path = os.path.join(_resolve_outdir(args.rundir), "report.json")
        try:
            with open(path) as fh:
                data = json.load(fh)
            lines = [f"run {data['config_hash'][:12]} "
                     f"(package {data['package_version']})"]
            lines += [f"  {v.upper():10s} {key}"
                      for key, v in sorted(data["verdicts"].items())]
            worst = data["worst"]
            if worst not in SEVERITY:
                raise ValueError(f"unknown worst verdict {worst!r}")
            lines.append(f"worst verdict: {worst}")
        except OSError as exc:
            print(f"no report: {path}: {exc.strerror}", file=sys.stderr)
            return 2
        except KeyError as exc:
            print(f"bad report: {path}: missing key {exc}", file=sys.stderr)
            return 2
        except (ValueError, TypeError, AttributeError) as exc:
            # invalid JSON, or a value of the wrong type or range
            print(f"bad report: {path}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return SEVERITY[worst]

    return 2


if __name__ == "__main__":
    sys.exit(main())
