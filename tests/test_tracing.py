"""The benchmark tracer's contract with the package: every layer boundary
that `perfbench/tracing.py` wraps exists under its name, and removing the
tracer puts each original back."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        # raises AttributeError if a wrapped name was renamed or deleted
        tracing.install(tracer)
        patched = list(tracer._patched)
        replaced = [getattr(owner, attr) is not original
                    for owner, attr, original in patched]
    finally:
        tracer.remove()
    assert patched and all(replaced)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
