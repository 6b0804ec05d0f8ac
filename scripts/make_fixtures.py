#!/usr/bin/env python3
"""Regenerate the committed fixture files.

Run from the repository root after any intentional convention change; the
test suite compares committed fixtures against regenerated ones, so stale
fixtures fail loudly.

src/equivlab/fixtures/gauss_legendre.json holds the 40-node and 64-node
Gauss-Legendre rules that `equivlab.localmodel` integrates with, as
numpy.polynomial.legendre.leggauss builds them.  JSON floats round-trip
exactly, so the package reads back the same rules without importing
numpy.polynomial; this script and the tests are the only code that does.

tests/fixtures/clifford_tables_n1.json holds the exact m = 1 Clifford
tables that the tests' exterior algebra builds; only the tests read it."""

import json
import pathlib
import sys

from numpy.polynomial.legendre import leggauss

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))   # the exact exterior algebra

from exterior import GOLDEN_TABLES_PATH, golden_tables

FIXTURES = ROOT / "src/equivlab/fixtures"
GAUSS_LEGENDRE_NODES = (40, 64)   # localmodel's ramp and fiber rules


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    rules = {}
    for n in GAUSS_LEGENDRE_NODES:
        nodes, weights = leggauss(n)
        rules[str(n)] = {"nodes": nodes.tolist(), "weights": weights.tolist()}
    gauss = {"schema_version": 1, "rules": rules,
             "provenance": ("n-node Gauss-Legendre rules on [-1, 1], keyed "
                            "by n: numpy.polynomial.legendre.leggauss(n)")}
    (FIXTURES / "gauss_legendre.json").write_text(
        json.dumps(gauss, indent=1, sort_keys=True) + "\n")
    tables = golden_tables()
    tables["schema"] = ("matrices are rows of entries [a, b, c, d] meaning "
                        "(a + b i) + (c + d i) sqrt(2), fractions as strings; "
                        "basis rows are [anti, holo]")
    GOLDEN_TABLES_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_TABLES_PATH.write_text(
        json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"fixtures written under {FIXTURES} and {GOLDEN_TABLES_PATH.parent}")


if __name__ == "__main__":
    main()
