"""One timed repetition of `equivlab run`, in a fresh process.

    python3 perfbench/child.py SRC CONFIG OUTDIR T0 TRACE

SRC is the checkout's `src` directory, CONFIG a config file, OUTDIR the run
directory and T0 the parent's `time.monotonic()` reading taken just before
it started this process (the clock is system-wide, so the difference spans
interpreter start-up).  With TRACE=1 the layer boundaries are wrapped after
set-up (see tracing.py), and the untimed probe config of workloads.py runs
after the workload, into OUTDIR/probe, so that every layer is reached.

Prints one JSON line: `setup_s` (process start until `equivlab.cli` is
imported and the config parsed), `run_s` (wall time of `cli.run` through
`report.json`), `peak_rss_mb`, the worst verdict, the sha256 of every
artifact, and with TRACE=1 the per-layer metrics and the span summary.
"""

import hashlib
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, config_path, outdir, t0, trace = argv
    sys.path.insert(0, src)
    from equivlab import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"equivlab imported from {cli.__file__}, not {src}")
    with open(config_path) as fh:
        config = cli.parse_config(json.load(fh))
    setup_s = time.monotonic() - float(t0)

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    report = cli.run(config, outdir, jobs=1)
    run_s = time.perf_counter() - start

    artifacts = {}
    for path in sorted(report.artifacts):
        with open(path, "rb") as fh:
            artifacts[os.path.relpath(path, outdir)] = (
                hashlib.sha256(fh.read()).hexdigest())
    out = {"setup_s": setup_s, "run_s": run_s,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "worst": report.worst(), "artifacts": artifacts}
    if tracer is not None:
        import workloads
        probe = cli.run(cli.parse_config(workloads.PROBE),
                        os.path.join(outdir, "probe"), jobs=1)
        tracer.remove()
        if probe.worst() != "pass":
            raise SystemExit(f"probe run: worst verdict {probe.worst()}")
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracer.summary()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
