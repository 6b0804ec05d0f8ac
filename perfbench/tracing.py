"""Span tracing of equivlab's layers from outside the package.

A `Tracer` replaces functions in the namespace where their callers look
them up (for example `equivlab.geometry.cp1.fmatmul` as well as
`equivlab.linalg.fmatmul`, since cp1 imported the name) with a wrapper that
records one span per call: name, start, end and the index of the enclosing
span.  Spans stay in memory; `summary()` folds them into per-name call
counts, total time and self time (total minus the time of direct children).

Per-entry helpers such as `cp1.beta_moment` are deliberately not wrapped:
they run hundreds of thousands of times per run, so a wrapper would cost
more than the work it measures.  Their cache statistics are read instead.

Tracing only observes: wrapped functions receive the same arguments and
return the same objects, so traced runs write byte-identical artifacts.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str | Callable,
             observe: Callable | None = None) -> None:
        """Replace `owner.attr` by a recording wrapper.

        `name` is the span name, or a function of the call's positional
        arguments that returns it.  `observe(tracer, name, args, result)`
        runs after each successful call to update counters."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.errors[label] += 1
                raise
            finally:
                spans[index] = (label, start, time.perf_counter(), parent)
                stack.pop()
            if observe is not None:
                observe(self, label, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped function, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "total_s", "self_s"}} over finished spans."""
        finished = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        child_time = [0.0] * len(self.spans)
        for _, (_, start, end, parent) in finished:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (label, start, end, _) in finished:
            entry = out.setdefault(label, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


# ---------------------------------------------------------------------------
# What is traced in equivlab
# ---------------------------------------------------------------------------

def _count_cells(tracer: Tracer, label: str, args, model) -> None:
    tracer.counters[label.replace(".assemble", ".cells")] += len(model.cells)


def _count_unresolved(tracer: Tracer, label: str, args, sweep) -> None:
    tracer.counters["deformed.unresolved"] += len(sweep.unresolved)


def _eigh_size(tracer: Tracer, label: str, args, evals) -> None:
    n = args[0].shape[0]
    tracer.counters["linalg.eigh_n3_sum"] += float(n) ** 3
    tracer.maxima["linalg.eigh_dim_max"] = max(
        tracer.maxima["linalg.eigh_dim_max"], n)


def _galerkin_size(tracer: Tracer, label: str, args, result) -> None:
    tracer.maxima["localmodel.galerkin_dim_max"] = max(
        tracer.maxima["localmodel.galerkin_dim_max"], result.dim)


def install(tracer: Tracer) -> None:
    """Wrap equivlab's layer boundaries; equivlab must be importable."""
    cli = importlib.import_module("equivlab.cli")
    deformed = importlib.import_module("equivlab.deformed")
    linalg = importlib.import_module("equivlab.linalg")
    localmodel = importlib.import_module("equivlab.localmodel")
    cp1 = importlib.import_module("equivlab.geometry.cp1")
    w = tracer.wrap

    w(cli, "model_payload", "cli.payload")
    w(cli, "run_checks", "cli.checks")
    w(cli, "_atomic_write", "cli.io")
    # one dispatch point for all three geometries; the span is named by kind
    w(cli, "assemble", lambda args: f"{args[0].kind}.assemble", _count_cells)

    w(cli, "t_sweep", "deformed.sweep", _count_unresolved)
    w(cli, "assemble_deformed", "deformed.assemble")
    w(deformed, "assemble_deformed", "deformed.assemble")
    w(deformed, "dirac", "deformed.dirac")
    w(deformed, "spectrum", "deformed.spectrum")
    w(cli, "complex_property_defect", "deformed.complex_defect")
    w(cli, "bochner_check", "deformed.bochner")
    w(deformed, "hermitian_eigenvalues", "linalg.eigh", _eigh_size)
    w(deformed, "hermiticity_defect", "linalg.herm_defect")

    w(cp1.Cp1Exact, "__init__", "cp1.exact")
    w(cp1.Cp1Exact, "dual_wedge_leakage", "cp1.leakage")
    w(cp1.Cp1Exact, "ortho_chunk", "cp1.ortho")
    w(cp1.Cp1Exact, "deformed_square_is_zero", "cp1.exact_square")
    w(cp1.Block, "gram_condition", "cp1.gram_cond")
    w(linalg, "fmatmul", "linalg.fmatmul")
    w(cp1, "fmatmul", "linalg.fmatmul")
    # cp1's exact solver imports these from linalg at call time
    w(linalg, "ldlt", "linalg.ldlt")
    w(linalg, "invert_unit_lower", "linalg.invert")

    w(cli, "oscillator_galerkin", "localmodel.galerkin", _galerkin_size)
    w(cli, "alpha_T", "localmodel.quadrature")
    w(localmodel, "alpha_T", "localmodel.quadrature")


def beta_moment_hit_ratio() -> float:
    """Hits over lookups of cp1's moment cache in this process."""
    cp1 = importlib.import_module("equivlab.geometry.cp1")
    info = cp1.beta_moment.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    Every `_s` metric is the self time of its spans, so the layers add up
    without double counting: `cp1.exact_s`, for example, excludes the
    `linalg.ldlt` calls made while building the exact blocks."""
    spans = tracer.summary()

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    out = {f"{name}_s": self_s(name) for name in (
        "cp1.exact", "cp1.leakage", "cp1.ortho", "cp1.gram_cond",
        "cp1.exact_square", "linalg.fmatmul", "linalg.ldlt", "linalg.invert",
        "linalg.eigh", "linalg.herm_defect", "product.assemble",
        "torus.assemble", "deformed.assemble", "deformed.dirac",
        "deformed.spectrum", "deformed.complex_defect", "deformed.bochner",
        "localmodel.galerkin", "localmodel.quadrature", "cli.payload",
        "cli.checks", "cli.io")}
    out["cp1.beta_moment_hit_ratio"] = beta_moment_hit_ratio()
    for name in ("linalg.fmatmul", "linalg.ldlt", "linalg.eigh",
                 "linalg.herm_defect"):
        out[f"{name}_calls"] = calls(name)
    out["linalg.eigh_dim_max"] = tracer.maxima["linalg.eigh_dim_max"]
    out["linalg.eigh_n3_sum"] = tracer.counters["linalg.eigh_n3_sum"]
    out["product.cells"] = tracer.counters["product.cells"]
    out["torus.cells"] = tracer.counters["torus.cells"]
    out["deformed.unresolved"] = tracer.counters["deformed.unresolved"]
    out["deformed.eigensolver_errors"] = tracer.errors["linalg.eigh"]
    out["localmodel.galerkin_dim_max"] = (
        tracer.maxima["localmodel.galerkin_dim_max"])
    return out
