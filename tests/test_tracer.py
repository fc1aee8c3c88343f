"""perfbench/tracer.py wraps package functions by name, so a renamed or
deleted function must fail here rather than crash a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = tracer.traced_names()
    for name in names:
        module, fn = name.split(".")
        target = getattr(importlib.import_module(f"stonedual.{module}"), fn, None)
        assert callable(target), name
    assert set(tracer.COUNTERS) <= set(names)
