"""The benchmark's per-layer metrics name public functions and methods of
the package; renaming or deleting one of them must fail here, not only when
the traced benchmark runs."""

import importlib.util
import json
from pathlib import Path

import jetwave  # noqa: F401  (loads every layer module the tracer rebinds)

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_produced():
    spans = _load_spans()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    with tracer.installed():
        produced = tracer.metrics(1.0, 1.0)
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in produced]
    assert not missing, f"per-layer metrics no longer produced: {missing}"
