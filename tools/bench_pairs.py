"""Run the benchmark in alternating parent/change pairs and summarise them.

For each seed, runs ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` once in a parent checkout and once in a change checkout, one
after the other, swapping which side runs first from seed to seed. Each run
leaves its record in ``<checkout>/bench/runs/results/``; the tool reads it,
and writes (or extends) a root-level ``BENCH_<slug>.json`` with one set per
call: per metric the parent's and the change's quartiles, the change of the
median, and the pairs the change won (ties count for neither side), plus the
failed operations of each side, and the environment both sides ran in
(BLAS build, BLAS threads, cores, numpy). Runs from different environments
are refused, since their timings do not compare::

    python3 tools/bench_pairs.py --parent ../parent --workload desk_mlp \\
        --seeds 8801-8810 --slug client_stack --claim pfl_fb_s=0.30

With ``--claim METRIC=R`` it prints whether the claim holds: the change won
at least 9 pairs in 10, its median is better by at least the fraction R,
and the gap between the medians exceeds the parent's interquartile range.
The tool only reads ``bench/`` and ``BENCHMARK.json``; it changes neither.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload W --seed N --seconds {seconds:g} --trace 0"
MIN_WIN_SHARE = 0.9
# The parts of a run's recorded environment that its timings depend on.
ENVIRONMENT_KEYS = ("blas", "blas_threads", "nproc", "numpy")


def quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3], interpolated linearly between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def environment(pairs: list[tuple[dict, dict]]) -> dict:
    """The environment every run of the pairs recorded; SystemExit if one differs."""
    first = None
    for i, pair in enumerate(pairs):
        for side, record in zip(("parent", "change"), pair):
            env = {key: record.get("environment", {}).get(key) for key in ENVIRONMENT_KEYS}
            first = env if first is None else first
            for key in ENVIRONMENT_KEYS:
                if env[key] != first[key]:
                    raise SystemExit(f"error: refusing to pair runs from different environments: the {side} run "
                                     f"of pair {i + 1} has {key} {env[key]!r}, the first run {first[key]!r}")
    return first


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> dict:
    """Per-metric summary of (parent record, change record) pairs."""
    metrics = {}
    for m in declared:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        parent = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
        change = [c["result"]["metrics"][name]["value"] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        metrics[name] = {
            "unit": m["unit"],
            "parent_q1_median_q3": [round(v, 6) for v in pq],
            "change_q1_median_q3": [round(v, 6) for v in cq],
            "median_change": round(cq[1] / pq[1] - 1.0, 4) if pq[1] else None,
            "change_won": f"{won}/{len(pairs)}",
        }
    return {
        "pairs": len(pairs),
        "environment": environment(pairs),
        "failed_operations": {
            "parent": sum(p["result"]["failed"] for p, _ in pairs),
            "change": sum(c["result"]["failed"] for _, c in pairs),
        },
        "metrics": metrics,
    }


def judge(entry: dict, better: str, min_gain: float) -> tuple[bool, list[str]]:
    """Whether a summarised metric meets a claimed gain, and why not."""
    won, pairs = (int(v) for v in entry["change_won"].split("/"))
    q1, parent, q3 = entry["parent_q1_median_q3"]
    change = entry["change_q1_median_q3"][1]
    gap = parent - change if better == "lower" else change - parent
    problems = []
    if won < MIN_WIN_SHARE * pairs:
        problems.append(f"won {won}/{pairs} pairs, needs {MIN_WIN_SHARE:.0%}")
    if gap < min_gain * parent:
        problems.append(f"median gain {gap / parent:.1%} is below the claimed {min_gain:.0%}")
    if not gap > q3 - q1:
        problems.append(f"median gap {gap:.4g} does not exceed the parent IQR {q3 - q1:.4g}")
    return not problems, problems


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; returns the record it wrote."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=dict(os.environ))
    record = checkout / "bench" / "runs" / "results" / f"{workload}-seed{seed}-trace0.json"
    if proc.returncode != 0 or not record.exists():
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(record.read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="seed range, e.g. 8801-8810")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--slug", required=True, help="writes BENCH_<slug>.json at the change's root")
    parser.add_argument("--claim", help="METRIC=FRACTION, a claimed gain to judge")
    parser.add_argument("--note", default="", help="what code the set measured")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        records = {side: run_one(sides[side], args.workload, seed, args.seconds) for side in order}
        pairs.append((records["parent"], records["change"]))
        environment(pairs)  # refuse at once, not after the last pair
        print(f"seed {seed}: ran {order[0]} first", file=sys.stderr)

    summary = {"workload": args.workload, "seeds": [args.seeds[0], args.seeds[-1]], "code": args.note,
               **summarize(pairs, declared)}
    path = args.change / f"BENCH_{args.slug}.json"
    blob = json.loads(path.read_text()) if path.exists() else {
        "command": COMMAND.format(seconds=args.seconds),
        "pairing": "one parent and one change run per seed, alternating which ran first; one BLAS thread",
        "sets": [],
    }
    if args.claim:
        metric, _, gain = args.claim.partition("=")
        blob["claim"] = {"workload": args.workload, "metric": metric, "min_reduction": float(gain),
                         "min_pairs_won": "9/10"}
    blob["sets"].append(summary)
    path.write_text(json.dumps(blob, indent=1) + "\n")

    for name, m in summary["metrics"].items():
        print(f"{name:24s} {m['parent_q1_median_q3']} -> {m['change_q1_median_q3']} "
              f"median change {m['median_change']}, change won {m['change_won']}")
    print(f"failed operations: {summary['failed_operations']}")
    if args.claim:
        better = {m["name"]: m["better"] for m in declared}[metric]
        ok, problems = judge(summary["metrics"][metric], better, float(gain))
        print(f"claim {metric} on {args.workload}: {'MET' if ok else 'NOT MET: ' + '; '.join(problems)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
