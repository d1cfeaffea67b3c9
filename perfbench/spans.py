"""Span tracing of the jetwave layers from outside the package.

`Tracer.installed()` rebinds, for the duration of a ``with`` block, every
public function of the layer modules -- in every ``jetwave`` module that
looks it up -- and a few public methods, to wrappers that record a span
(name, start, end, parent).  It also wraps the FFT entry points the package
calls (``numpy.fft.fft2/ifft2``, ``scipy.fft.rfft2/irfft2``), crediting each
call to the innermost open span's layer, and ``numpy.linalg.inv``, which is
counted as a preconditioner build when it runs under a solve.  Spans stay in
memory until `write` is called.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.fft

LAYERS = ("spectral", "geometry", "elliptic", "evolution", "symbols", "paradiff")

# public methods traced as "<layer>.<method>"
METHODS = {
    "elliptic": ("DtnSolver", ("solve", "trace_bundle", "kinetic_energy")),
    "symbols": ("HomogeneousSymbol", ("total",)),
}

FFTS = ((np.fft, "fft2"), (np.fft, "ifft2"),
        (scipy.fft, "rfft2"), (scipy.fft, "irfft2"))

# Which end-to-end metric, on which workload, each group of per-layer
# metrics should move; printed after the traced figures.  BENCHMARK.json has
# no field for it.
MOVES = {
    "spectral.": "evolve-32 rate and dtn-cold-64 unit_s_p50 (trace_bundle "
                 "post-processing); no move in calculus-32 unit_s_p50",
    "elliptic.fft_": "merging the adjoint's FFT stacks: evolve-32 rate, "
                     "dtn-cold-64 unit_s_p50",
    "geometry.": "evolve-32 rate only, slightly; the share is the most it can save",
    "elliptic.precond": "dtn-cold-64 unit_s_tail and peak_rss_mb; on evolve-32 "
                        "the one build is in setup",
    "elliptic.": "warm start or no energy re-solve: evolve-32 rate; no change "
                 "on dtn-cold-64",
    "evolution.": "evolve-32 rate only; larger dt shows as fewer steps at a "
                  "higher step_rk4.s_p50",
    "symbols.": "calculus-32 unit_s_p50 only",
    "paradiff.": "calculus-32 unit_s_p50 only",
    "trace_overhead_frac": "none: the cost of tracing itself",
}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, layer, start_ns, end_ns, parent, child_ns]
        self.stack = []
        self.open_count = defaultdict(int)
        self.names = set()  # every span name that can occur
        self.fft = {layer: [0, 0, 0] for layer in LAYERS}  # calls, points, bytes
        self.precond_builds = 0
        self.precond_ns = 0
        self.cg_iters = []
        self.step_dts = []
        self.paradiff_samples = 0

    # -- spans ---------------------------------------------------------------
    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.open_count[name] += 1
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, 0])

    def _close(self):
        end = time.perf_counter_ns()
        span = self.spans[self.stack.pop()]
        span[3] = end
        self.open_count[span[0]] -= 1
        if span[4] >= 0:
            self.spans[span[4]][5] += end - span[2]

    def _span(self, fn, name, layer):
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, args, kwargs, result):
        if name == "elliptic.solve":
            self.cg_iters.append(result.iterations)
        elif name == "evolution.step_rk4":
            self.step_dts.append(float(args[1] if len(args) > 1 else kwargs["dt"]))
        elif name == "symbols.total" and self.open_count["paradiff.apply_paradiff"]:
            xi_t = args[1] if len(args) > 1 else kwargs["xi_t"]
            self.paradiff_samples += int(np.size(xi_t))

    # -- counted calls -------------------------------------------------------
    def _fft(self, fn):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            if self.stack:
                a = np.asarray(x)
                c = self.fft[self.spans[self.stack[-1]][1]]
                c[0] += 1
                c[1] += a.size
                c[2] += a.size * a.itemsize
            return fn(x, *args, **kwargs)

        return counted

    def _inv(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.open_count["elliptic.solve"]:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            self.precond_ns += time.perf_counter_ns() - start
            self.precond_builds += 1
            return result

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced callables; restore the originals on exit."""
        package = [m for n, m in sys.modules.items()
                   if n == "jetwave" or n.startswith("jetwave.")]
        saved = []

        def rebind(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for layer in LAYERS:
                mod = sys.modules["jetwave." + layer]
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    wrapper = self._span(fn, f"{layer}.{name}", layer)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                rebind(m, attr, wrapper)
                if layer in METHODS:
                    cls_name, methods = METHODS[layer]
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        rebind(cls, meth,
                               self._span(vars(cls)[meth], f"{layer}.{meth}", layer))
            for owner, attr in FFTS:
                rebind(owner, attr, self._fft(getattr(owner, attr)))
            rebind(np.linalg, "inv", self._inv(np.linalg.inv))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def counts(self):
        """The deterministic counts; two traced runs of one seed must agree."""
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        return {
            "calls": dict(sorted(calls.items())),
            "cg_iters_per_solve": list(self.cg_iters),
            "precond_builds": self.precond_builds,
            "fft_calls": {k: v[0] for k, v in self.fft.items()},
            "fft_points": {k: v[1] for k, v in self.fft.items()},
            "steps": len(self.step_dts),
            "symbol_samples": self.paradiff_samples,
        }

    def metrics(self, traced_wall, untraced_wall):
        """Every per-layer figure this trace gives, keyed by metric name.

        Span figures exist for every traced name (zero when never called):
        ``<name>.calls``, ``.self_s`` (span time minus child spans), ``.s``
        (inclusive) and ``.s_p50`` (median inclusive duration).
        """
        durs = defaultdict(list)
        self_ns = defaultdict(int)
        layer_self = defaultdict(int)
        for name, layer, start, end, _, child in self.spans:
            durs[name].append(end - start)
            self_ns[name] += end - start - child
            layer_self[layer] += end - start - child
        out = {}
        for name in self.names:
            d = durs.get(name, [])
            out[f"{name}.calls"] = len(d)
            out[f"{name}.self_s"] = self_ns[name] * 1e-9
            out[f"{name}.s"] = sum(d) * 1e-9
            out[f"{name}.s_p50"] = statistics.median(d) * 1e-9 if d else 0.0
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_self[layer] * 1e-9 / traced_wall
            calls, points, nbytes = self.fft[layer]
            out[f"{layer}.fft_calls"] = calls
            out[f"{layer}.fft_points"] = points
            out[f"{layer}.fft_bytes"] = nbytes
        solves = len(self.cg_iters)
        steps = len(self.step_dts)
        out.update({
            "elliptic.cg_iters_per_solve.mean":
                statistics.fmean(self.cg_iters) if solves else 0.0,
            "elliptic.cg_iters_per_solve.max": max(self.cg_iters, default=0),
            "elliptic.solves_per_step": solves / steps if steps else 0.0,
            "elliptic.precond_builds": self.precond_builds,
            "elliptic.precond_build_s": self.precond_ns * 1e-9,
            "evolution.steps": steps,
            "evolution.dt": max(self.step_dts, default=0.0),
            "symbols.total_samples": out["symbols.total.calls"],
            "paradiff.symbol_samples": self.paradiff_samples,
            "trace_overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        })
        return out

    def write(self, path):
        """Spans as [name, start_us, end_us, parent index], start-ordered."""
        t0 = self.spans[0][2] if self.spans else 0
        rows = [[s[0], round((s[2] - t0) / 1e3, 3), round((s[3] - t0) / 1e3, 3), s[4]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
