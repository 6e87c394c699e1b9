"""The benchmark's tracer (perfbench/tracing.py) wraps firesat functions by
module attribute name, so renaming one breaks `perfbench/run.py --trace 1`.
Installing and removing the wrappers here makes such a rename fail tier-1."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_each_named_function_and_restores_it():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_firesat_spans(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
