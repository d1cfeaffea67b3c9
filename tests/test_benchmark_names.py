"""The benchmark's per-layer metrics name public functions and methods of
the package; renaming or deleting one of them must fail here, not only when
the traced benchmark runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np

# the layer modules the tracer rebinds (the package itself loads them lazily)
from jetwave import elliptic, evolution, geometry, paradiff, spectral, symbols  # noqa: F401

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


def test_traced_reports_repeat_counts(grid16):
    """The traced benchmark fails unless two passes give identical counts;
    evaluations shared inside one identity report must not carry over."""
    spans = _load_spans()
    th, zz = grid16.mesh()
    counts = []
    for _ in range(2):
        # a fresh field: a field caches its own coefficients once computed
        eta = spectral.TorusField(grid16, 1.0 + 0.1 * np.cos(th) * np.cos(zz))
        tracer = spans.Tracer()
        with tracer.installed():
            symbols.symbol_identity_report(eta, 1.0, 1.0)
        counts.append(tracer.counts())
    assert counts[0]["calls"]["symbols.symbol_identity_report"] == 1
    assert counts[0] == counts[1]


def test_traced_dtn_repeat_counts(grid16):
    """Two traced passes over requests at mean radii 1.0, 1.05, 1.0 on one
    shared solver give identical counts, and no solve builds a
    preconditioner: the solver keeps no state between requests."""
    spans = _load_spans()
    solver = elliptic.DtnSolver(grid16, 32)
    th, zz = grid16.mesh()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            for R in (1.0, 1.05, 1.0):
                # fresh fields: a field caches its own coefficients
                eta = spectral.TorusField(
                    grid16, R * (1.0 + 0.1 * np.cos(th) * np.cos(zz)))
                psi = spectral.TorusField(grid16, 0.3 * np.sin(2 * th + zz))
                solver.trace_bundle(eta, psi)
        counts.append(tracer.counts())
    assert counts[0]["calls"]["elliptic.trace_bundle"] == 3
    assert counts[0]["precond_builds"] == 0
    assert counts[0] == counts[1]
