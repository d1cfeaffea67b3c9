"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dtn-cold-64 --seeds 1-10 --out spread.json

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median beside the metric's bound from
``BENCHMARK.json``.  A spread above a third of the bound is marked.  With
``--out`` every run's figures are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": values})
        print(f"seed {seed:>3}  {wall:6.1f} s  correct={result['correct']}  "
              + "  ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)

    summary = {}
    print(f"== {args.workload}: {len(runs)} seeds, {seconds:g} s per run")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"]}
        mark = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"  {m['name']:<13} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
              f" spread {spread:7.2%}  bound {m['bound']:.0%}{mark}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "runs": runs, "summary": summary}, indent=1))


if __name__ == "__main__":
    main()
