"""Record the accuracy bands the output check holds every run to.

    python3 bench/reference.py --seeds 100 [--workload NAME ...]

Runs each workload's pipeline once per seed 0..N-1 (untimed) and writes, per
banded accuracy, the median across seeds and a tolerance of twice the largest
distance of any seed from that median plus 0.02. That is wide enough for an
unseen seed and for float summation-order changes, but on a workload whose
accuracy moves a lot with the seed it can reach down to chance. So when every
recorded seed reached chance + 2 * LEARNED_MARGIN, the band also gets a floor
of chance + LEARNED_MARGIN, which a model that stopped learning stays under.
(A local-test accuracy weights classes by a client's own skewed mix, so an
untrained model can pass that floor there; the global accuracies cannot.)
Regenerate only when a change alters the workloads or the training numerics
on purpose, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import run
from workloads import WORKLOADS

MARGIN = 2.0
FLOOR = 0.02
LEARNED_MARGIN = 0.1


def bands_for(values: list[float], classes: int) -> dict:
    median = statistics.median(values)
    spread = max(abs(v - median) for v in values)
    band = {"median": median, "tolerance": MARGIN * spread + FLOOR, "min": min(values), "max": max(values)}
    chance = 1.0 / classes
    if min(values) >= chance + 2 * LEARNED_MARGIN:
        band["floor"] = chance + LEARNED_MARGIN
    return band


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks

    entries = {}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        per_quantity: dict[str, list[float]] = {}
        for seed in range(args.seeds):
            workdir = run.RUNS / "work" / f"reference-{name}-seed{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                pipe = run.Pipeline(workload, seed, workdir)
                pipe.setup_once()
                pipe.iteration()
                bad = [o for o in pipe.ops if not o["ok"]]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: {bad}")
                for quantity, value in checks.summary_values(workdir).items():
                    per_quantity.setdefault(quantity, []).append(value)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed} done", file=sys.stderr)
        entries[name] = {
            "seeds": list(range(args.seeds)),
            "bands": {q: bands_for(v, pipe.cfg.dataset.classes) for q, v in per_quantity.items()},
            "values": per_quantity,
        }
    # Read only now, so that runs for different workloads can go side by side.
    path = checks.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    reference["rule"] = (f"tolerance = {MARGIN} * max |value - median| over seeds + {FLOOR}; "
                         f"floor = chance + {LEARNED_MARGIN} where every seed reached chance + {2 * LEARNED_MARGIN}")
    reference["workloads"].update(entries)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
