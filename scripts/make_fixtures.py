#!/usr/bin/env python3
"""Regenerate the committed fixture files under src/equivlab/fixtures/.

Run from the repository root after any intentional convention change; the
test suite compares committed fixtures against regenerated ones, so stale
fixtures fail loudly.

gauss_legendre.json holds the 40-node and 64-node Gauss-Legendre rules that
`equivlab.localmodel` integrates with, as numpy.polynomial.legendre.leggauss
builds them.  JSON floats round-trip exactly, so the package reads back the
same rules without importing numpy.polynomial; this script and the tests are
the only code that does."""

import json
import pathlib
import sys

from numpy.polynomial.legendre import leggauss

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))   # the exact exterior algebra

from equivlab.oracle import generate_fixture_tables
from exterior import golden_tables

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
    # localmodel reads the rules just written when it is imported
    from equivlab.localmodel import GAP_CONSTANT
    tables = golden_tables()
    tables["schema"] = ("matrices are rows of entries [a, b, c, d] meaning "
                        "(a + b i) + (c + d i) sqrt(2), fractions as strings; "
                        "basis rows are [anti, holo]")
    (FIXTURES / "clifford_tables_n1.json").write_text(
        json.dumps(tables, indent=1, sort_keys=True) + "\n")
    gap = {"schema_version": 1, "A": GAP_CONSTANT,
           "provenance": ("first nonzero eigenvalue over T of the fiber "
                          "model: scalar oscillator levels 2T(K+m) shifted "
                          "by the fiber endomorphism eigenvalues 2Tj, "
                          "j in [-m, m]; minimum positive value 2T")}
    (FIXTURES / "oscillator_gap.json").write_text(
        json.dumps(gap, indent=1, sort_keys=True) + "\n")
    (FIXTURES / "hodge_tables.json").write_text(
        json.dumps(generate_fixture_tables(), indent=1, sort_keys=True) + "\n")
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
