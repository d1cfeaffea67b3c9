"""jetwave benchmark: one command, three workloads, untraced or traced.

    python3 perfbench/run.py --workload evolve-32 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
Workloads: ``evolve-32``, ``dtn-cold-64``, ``calculus-32`` (see
``workloads.py`` and ``BENCHMARK.json``).

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in five
fresh processes (cold caches) and the median is reported as ``setup_s``.
The process then does its own set-up and runs units of the workload, one at
a time, until ``--seconds`` have passed; every unit's output goes through
the workload's gate.

``--trace 1`` gives the per-layer metrics from a fixed amount of work, done
three times in one process: untraced (for ``trace_overhead_frac``), traced,
and traced again.  The two traced passes must agree on every count.  The
spans of the first traced pass are written to
``perfbench/out/trace-<workload>-<seed>.json``.

The second-to-last line of standard output is a JSON record of the run
(environment, per-workload figures, failures); the last is the result,
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

# Cap the numeric thread pools before numpy loads.  The package's
# JETWAVE_THREADS is applied after numpy is imported by the console script,
# so the benchmark sets the cap itself.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import jetwave  # noqa: E402

if Path(jetwave.__file__).resolve().parent != SRC / "jetwave":
    sys.exit(f"jetwave was imported from {jetwave.__file__}, not from {SRC}")

from spans import LAYERS, MOVES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
SETUP_SEED = 0
# fixed work of a traced pass (units after set-up), per workload
TRACE_UNITS = {"evolve-32": 1, "dtn-cold-64": 8, "calculus-32": 1}
OUT = HERE / "out"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup_rng():
    """The set-up input is the same for every seed, so `setup_s` always times
    the same work; `--seed` picks the inputs of the measured units."""
    return np.random.default_rng(SETUP_SEED)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    applied = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        applied = get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "openblas_threads_applied": applied,
        "seed": seed,
    }


def run_unit(wl, inputs):
    """(seconds, work, failure reason or None); a raising unit is a failure."""
    start = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception as exc:  # any error is a failed unit; the loop goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, 0.0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    reason = wl.check(inputs, out)
    return elapsed, (wl.work(inputs, out) if reason is None else 0.0), reason


def setup_probe(workload):
    """Time one cold set-up in this (fresh) process."""
    wl = WORKLOADS[workload]()
    start = time.perf_counter()
    wl.setup(setup_rng())
    print(repr(time.perf_counter() - start))


def measure_setup(workload):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def tail(samples):
    """Highest order statistic with at least ten samples beyond it (the
    maximum when there are fewer than eleven), its percentile, and n."""
    s = sorted(samples)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def untraced(args, spec):
    setup_s, setup_all = measure_setup(args.workload)
    wl = WORKLOADS[args.workload]()
    wl.setup(setup_rng())
    rng = np.random.default_rng(args.seed)

    times, work, failures = [], 0.0, []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        inputs = wl.make(rng, i)
        elapsed, done, reason = run_unit(wl, inputs)
        if reason is None:
            times.append(elapsed)
            work += done
        else:
            failures.append(f"unit {i}: {reason}")
        i += 1

    attempted = i
    # with no passed unit the run is incorrect and its timings read 0
    t_tail, pct, n = tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate": work / sum(times) if times else 0.0,
        "unit_s_p50": statistics.median(times) if times else 0.0,
        "unit_s_tail": t_tail,
    }
    record = {
        "workload": args.workload,
        "mode": "untraced",
        "environment": environment(args.seed),
        "setup_probes_s": setup_all,
        "units_passed": len(times),
        "unit_s": times,
        "tail_percentile": pct,
        "fail_frac": len(failures) / attempted,
        "failures": failures,
    }
    print_table(args.workload, metrics, spec, pct, n, len(failures) / attempted)
    return record, attempted, len(failures), metrics


# names a user of each workload would give the generic metrics
NAMES = {
    "evolve-32": {"rate": "evolve.sim_rate", "unit_s_p50": "evolve.horizon_s_p50",
                  "unit_s_tail": "evolve.horizon_s_tail"},
    "dtn-cold-64": {"rate": "dtn.request_rate", "unit_s_p50": "dtn.request_s_p50",
                    "unit_s_tail": "dtn.request_s_tail"},
    "calculus-32": {"rate": "calculus.surface_rate",
                    "unit_s_p50": "calculus.surface_s_p50",
                    "unit_s_tail": "calculus.surface_s_tail"},
}


def print_table(workload, metrics, spec, pct, n, fail_frac):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"== {workload}: end-to-end (untraced), {n} units")
    for key, value in metrics.items():
        label = NAMES[workload].get(key, key)
        extra = f"  (p{pct:.0f}, n={n})" if key == "unit_s_tail" else ""
        extra = f"  (n={n})" if key == "unit_s_p50" else extra
        print(f"  {label:<26} {key:<13} {value:12.6g} {units[key]}{extra}")
    print(f"  {'fail_frac':<26} {'':<13} {fail_frac:12.6g} frac")


def traced_pass(wl_cls, inputs, tracer=None):
    """Set-up plus the fixed units; (wall seconds, failure reasons)."""
    wl = wl_cls()
    rng = setup_rng()
    failures = []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        wl.setup(rng)
        for i, inp in enumerate(inputs):
            reason = run_unit(wl, inp)[2]
            if reason is not None:
                failures.append(f"unit {i}: {reason}")
        wall = time.perf_counter() - start
    return wall, failures


def traced(args, spec):
    wl_cls = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    maker = wl_cls()
    inputs = [maker.make(rng, i) for i in range(TRACE_UNITS[args.workload])]

    wl_cls().setup(setup_rng())  # process-wide one-time costs out of pass A
    wall_a, fail_a = traced_pass(wl_cls, inputs)
    first, second = Tracer(), Tracer()
    wall_b, fail_b = traced_pass(wl_cls, inputs, first)
    wall_c, fail_c = traced_pass(wl_cls, inputs, second)
    repeat = first.counts() == second.counts()

    OUT.mkdir(exist_ok=True)
    first.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    every = first.metrics(wall_b, wall_a)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in every]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    metrics = {m["name"]: every[m["name"]] for m in spec["per_layer"]}

    print(f"== {args.workload}: layer self-time share of traced wall "
          f"({wall_b:.3f} s traced, {wall_a:.3f} s untraced)")
    for layer in LAYERS:
        print(f"  {layer:<10} {every[layer + '.share']:7.1%}")
    print(f"  {'(outside)':<10} {1.0 - sum(every[l + '.share'] for l in LAYERS):7.1%}")
    print(f"== {args.workload}: per-layer metrics")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6g} {units[name]}")
    print("== which end-to-end metric each group should move")
    for prefix, text in MOVES.items():
        print(f"  {prefix + '*':<22} {text}")
    print(f"  count repeatability across two traced passes: "
          f"{'identical' if repeat else 'DIFFERENT'}")

    failures = fail_a + fail_b + fail_c
    record = {
        "workload": args.workload,
        "mode": "traced",
        "environment": environment(args.seed),
        "units_per_pass": len(inputs),
        "wall_s": {"untraced": wall_a, "traced": wall_b, "traced_again": wall_c},
        "counts_repeat": repeat,
        "counts": first.counts(),
        "failures": failures,
    }
    return record, 3 * len(inputs), len(failures), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace:
        record, attempted, failed, metrics = traced(args, spec)
        correct = failed == 0 and record["counts_repeat"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        record, attempted, failed, metrics = untraced(args, spec)
        correct = failed == 0
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(metrics) != set(units):
            raise KeyError(f"end-to-end metrics {sorted(metrics)} != {sorted(units)}")
    for reason in record["failures"]:
        print(f"FAILED {reason}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
