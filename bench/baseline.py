"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 10 [--workload NAME ...] [--trace] [--write [PATH]]

Each run is a separate ``bench/run.py`` process, as the benchmark is meant to
be run. Per (workload, end-to-end metric) it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to the metric's bound. ``--trace`` adds
one traced run per workload. ``--write`` stores everything, with the traced
per-layer table, in ``bench/results/baseline.json`` or PATH; a second set of
seeds written elsewhere shows whether two sets of runs agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from metrics import END_TO_END
from workloads import WORKLOADS

RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
OUT = run.ROOT / "bench" / "results" / "baseline.json"


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((run.RUNS / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["wall_s"] = wall
    return record


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", nargs="?", const=OUT, type=Path)
    args = parser.parse_args(argv)

    baseline = {"run_seconds": RUN_SECONDS, "workloads": {}}
    if args.write and args.write.exists():  # a partial rerun replaces only its own workloads
        baseline["workloads"] = json.loads(args.write.read_text())["workloads"]
    for name in args.workload or list(WORKLOADS):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        records = [run_once(name, seed, 0) for seed in seeds]
        entry = {
            "seeds": seeds,
            "correct": all(r["result"]["correct"] for r in records),
            "error_rate": max(r["error_rate"] for r in records),
            "run_wall_s": [r["wall_s"] for r in records],
            "environment": records[0]["environment"],
            "end_to_end": {},
        }
        for metric, unit, _, bound in END_TO_END:
            values = [r["result"]["metrics"][metric]["value"] for r in records]
            entry["end_to_end"][metric] = {"unit": unit, **summarise(values, bound), "values": values}
            s = entry["end_to_end"][metric]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"{name:20s} {metric:24s} median {s['median']:.5g} {unit} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}")
        print(f"{name:20s} correct={entry['correct']} max error_rate={entry['error_rate']} "
              f"run wall {min(entry['run_wall_s']):.1f}-{max(entry['run_wall_s']):.1f} s")
        if args.trace:
            traced = run_once(name, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["trace"] = {k: traced["detail"][k] for k in ("traced_s", "untraced_median_s", "overhead_s", "spans")}
            entry["kernel_table"] = traced["detail"]["kernel_table"]
            entry["trace_correct"] = traced["result"]["correct"]
        baseline["workloads"][name] = entry
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
