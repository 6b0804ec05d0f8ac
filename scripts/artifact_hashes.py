#!/usr/bin/env python3
"""Print the sha256 of every artifact `equivlab run` writes for each config.

    python3 scripts/artifact_hashes.py CONFIG [CONFIG ...]

Each config runs serially in a fresh temporary directory, which is removed
afterwards.  One line `<sha256>  <config file name>/<artifact>` is printed
per file, in sorted order, so two checkouts are compared for byte identity
with

    diff <(python3 A/scripts/artifact_hashes.py configs/*.json) \\
         <(python3 B/scripts/artifact_hashes.py configs/*.json)

The script imports equivlab from the `src/` next to it, so each checkout
hashes its own code.
"""

import hashlib
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from equivlab.cli import load_config, run


def artifact_hashes(config_path: str) -> list[str]:
    name = os.path.basename(config_path)
    config = load_config(config_path)
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
    for config_path in argv:
        for line in artifact_hashes(config_path):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
