"""The benchmark harness's hold on the package: every name that
``bench/tracer.py`` wraps resolves, and the layer metrics a trace reports
are exactly ``BENCHMARK.json``'s per-layer list and cover every workload's
``layers``. A removed or renamed public name fails here, not first in a
traced ``bench/run.py`` run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """``bench/<name>.py`` as a module, loaded by path without writing
    bytecode into ``bench/``; registered, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("target", tracer.SPANS + tracer.COUNTS)
def test_every_traced_target_resolves(target):
    owner, attr, original = tracer._resolve(target)
    assert callable(original) and getattr(owner, attr) is not None


def test_trace_layers_are_the_benchmarks_per_layer_metrics():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    reported = [*tracer.Tracer().layer_values(), "trace.overhead"]  # run.py adds the overhead
    assert sorted(reported) == sorted(declared) and len(set(declared)) == len(declared)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.layers) <= set(reported), workload.name
