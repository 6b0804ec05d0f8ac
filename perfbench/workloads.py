"""Seeded workload configs for the equivlab benchmark.

Each workload is an `equivlab run` config (schema version 1) built from a
seed.  The seed draws only data, never size: twists k, torus moduli tau,
field constants c and deformation parameters T, from fixed ranges.  Cutoffs
and model counts are fixed, so every seed costs about the same and a run's
figures spread only as much as the machine does.  The twist sets the size
of the exact blocks (a cp1 run at cutoff 16 takes 3.8 s at k = 0 and 5.4 s
at k = 3), so the two models that set a workload's cost, the top ladder rung
and the product's cp1 factor, keep k = 2; the other cp1 models draw k from
0..3.

The same workload and seed always give byte-identical config bytes.

`PROBE` is a fixed, tiny config that reaches every traced layer.  Traced
runs execute it after the timed workload, so a layer that the workload
bypasses reads as near zero rather than as nothing; untraced runs never
execute it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# name -> why it was chosen (one line each; mirrored in BENCHMARK.json)
WORKLOADS = {
    "cp1-ladder": (
        "exact rational work: cp1 at cutoffs 8, 11 and 14; Fraction Gram "
        "LDL^T, fmatmul and the dual-wedge leakage dominate, eigensolves "
        "are tiny"),
    "product-fibers": (
        "per-cell float work: cp1(8) x torus(3) splits into ~930 small "
        "cells whose eigensolves, SVDs and tensoring dominate; exact work "
        "is small"),
    "flat-float": (
        "no exact arithmetic: two N=8 tori at 8 T values (many tiny cells) "
        "and the sparse shift-invert oscillator Galerkin, the only real "
        "localmodel load"),
}

LADDER_CUTOFFS = (8, 11, 14)
PRODUCT_CUTOFFS = (8, 3)          # cp1 factor, torus factor
TORUS_CUTOFF = 8
SIZE_TWIST = 2
# m = 1 at cutoff 40 has 6400 Galerkin states, past localmodel's dense
# limit, so it takes the sparse shift-invert path (about half of the
# workload's time).  The m = 2 fibre (4096 states at its smallest cutoff, 4)
# is left out: its ARPACK solve fails for some T (T = 1.161: "ARPACK error
# 3" in 3 of 5 fresh processes, and last-digit differences between the
# others), and no benchmark operation may fail.
OSCILLATOR = {"m": [1], "cutoff": [40]}

_CP1_CHECKS = ["localization", "euler", "complex_property", "bochner"]
_TORUS_CHECKS = ["vanishing", "euler", "complex_property", "bochner",
                 "localization", "oscillator", "alpha"]


def _t_values(rng: random.Random, count: int, lo: float, hi: float
              ) -> list[float]:
    """One T from each of `count` geometric strata of [lo, hi]: the grid
    always spans the range, and the smallest T, which sets the smallest
    spectral gap, stays within a factor (hi/lo)**(1/count) of lo."""
    ratio = (hi / lo) ** (1.0 / count)
    return [round(rng.uniform(lo * ratio ** i, lo * ratio ** (i + 1)), 3)
            for i in range(count)]


def _tau(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(0.8, 1.5), 3)]


def _field_c(rng: random.Random) -> list[float]:
    # |c| in [0.75, 1.25] at any phase, so the field never vanishes
    radius = rng.uniform(0.75, 1.25)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [round(radius * math.cos(phase), 3),
            round(radius * math.sin(phase), 3)]


def _cp1(k: int, cutoff: int) -> dict:
    return {"kind": "cp1", "k": k, "cutoff": cutoff, "field": {"kind": "linear"}}


def _torus(rng: random.Random, cutoff: int) -> dict:
    return {"kind": "torus", "tau": _tau(rng), "cutoff": cutoff,
            "field": {"kind": "constant", "c": _field_c(rng)}}


def make_config(workload: str, seed: int) -> dict:
    """The config of `workload` for `seed`; raises KeyError on unknown names."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"equivlab-bench/{workload}/{seed}")
    config = {"schema_version": 1, "name": f"bench-{workload}-seed{seed}",
              "outputs": ["csv", "json", "plotdata"]}
    if workload == "cp1-ladder":
        *low, top = LADDER_CUTOFFS
        models = [_cp1(rng.randint(0, 3), n) for n in low]
        models.append(_cp1(SIZE_TWIST, top))
        config.update(models=models, T_grid=_t_values(rng, 3, 2.0, 8.0),
                      checks=list(_CP1_CHECKS))
    elif workload == "product-fibers":
        left, right = PRODUCT_CUTOFFS
        product = {"kind": "product",
                   "field": {"kind": "product_lift", "factor": "left"},
                   "left": _cp1(SIZE_TWIST, left), "right": _torus(rng, right)}
        config.update(models=[product], T_grid=_t_values(rng, 2, 2.0, 8.0),
                      checks=["localization", "euler", "complex_property"])
    else:
        config.update(
            models=[_torus(rng, TORUS_CUTOFF), _torus(rng, TORUS_CUTOFF)],
            T_grid=_t_values(rng, 8, 0.5, 8.0), checks=list(_TORUS_CHECKS),
            oscillator=dict(OSCILLATOR, T=_t_values(rng, 3, 1.0, 8.0)))
    return config


_UNIT_TORUS = {"kind": "torus", "tau": [0.0, 1.0], "cutoff": 1,
               "field": {"kind": "constant", "c": [1.0, 0.0]}}
PROBE = {
    "schema_version": 1, "name": "bench-probe",
    "models": [_cp1(0, 4), _UNIT_TORUS,
               {"kind": "product",
                "field": {"kind": "product_lift", "factor": "left"},
                "left": _cp1(0, 4), "right": _UNIT_TORUS}],
    "T_grid": [2.0], "checks": _CP1_CHECKS + ["oscillator", "alpha"],
    "oscillator": {"m": [1], "cutoff": [4], "T": [2.0]},
    "outputs": ["json"],
}


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode()


def config_sha256(config: dict) -> str:
    return hashlib.sha256(config_bytes(config)).hexdigest()
