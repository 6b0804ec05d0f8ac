#!/usr/bin/env python3
"""Print the sha256 of every artifact `equivlab run` writes for each config.

    python3 scripts/artifact_hashes.py CONFIG [CONFIG ...]

A CONFIG is either a config file or a benchmark workload and seed written
`WORKLOAD:SEED` (for example `product-fibers:2`), which is built by
`perfbench/workloads.make_config`.  Each config runs serially in a fresh
temporary directory, which is removed afterwards.  One line
`<sha256>  <config name>/<artifact>` is printed per file, in sorted order,
where the config name is the file's base name or the `WORKLOAD:SEED`
argument, so two checkouts are compared for byte identity with

    ARGS="configs/*.json cp1-ladder:1 product-fibers:1 flat-float:1"
    diff <(python3 A/scripts/artifact_hashes.py $ARGS) \\
         <(python3 B/scripts/artifact_hashes.py $ARGS)

The script imports equivlab from the `src/` next to it, so each checkout
hashes its own code.
"""

import hashlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from equivlab.cli import ExperimentConfig, load_config, parse_config, run


def resolve_config(arg: str) -> tuple[str, ExperimentConfig]:
    """(name, config) for a config file path or a `WORKLOAD:SEED` argument."""
    if os.path.exists(arg):
        return os.path.basename(arg), load_config(arg)
    workload, sep, seed = arg.rpartition(":")
    if not sep or not seed.isdigit():
        raise SystemExit(f"{arg}: neither a config file nor WORKLOAD:SEED")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_config
    try:
        raw = make_config(workload, int(seed))
    except KeyError as exc:
        raise SystemExit(f"{arg}: {exc.args[0]}") from None
    return arg, parse_config(raw)


def artifact_hashes(arg: str) -> list[str]:
    name, config = resolve_config(arg)
    lines = []
    with tempfile.TemporaryDirectory() as outdir:
        run(config, outdir)
        for root, _, files in os.walk(outdir):
            for fname in files:
                path = os.path.join(root, fname)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                rel = os.path.relpath(path, outdir)
                lines.append(f"{digest}  {name}/{rel}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for arg in argv:
        for line in artifact_hashes(arg):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
