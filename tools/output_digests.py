"""Print the sha256 of every file the fedmoe pipeline writes for one INI.

Runs ``partition``, ``fedavg``, ``personalize`` for each of the five
algorithms and ``report`` over the run's ``metrics_*.csv`` (writing
``report.csv`` and ``deltas.csv`` into the output directory), each command
in a fresh process with one BLAS thread, then prints one sorted
``<sha256>  <path relative to the output dir>`` line per file. Comparing
these lines between two checkouts shows whether a change kept every output
byte-identical::

    python3 tools/output_digests.py --workload lenet5 --seed 0 --out /tmp/digests --src ../parent/src > parent.txt
    rm -rf /tmp/digests
    python3 tools/output_digests.py --workload lenet5 --seed 0 --out /tmp/digests > change.txt
    diff parent.txt change.txt

The INI is either a file (``--config``) or a benchmark workload at a seed
(``--workload NAME --seed N``), built by ``bench/workloads.py``, which is
read and not changed. The run manifests embed the output directory, so both
sides must use the same ``--out``; it must be empty or missing.
``--src`` picks the fedmoe sources to run (default: this checkout's).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALGORITHMS = ("local", "pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workload_ini(name: str, seed: int, out: Path) -> str:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(workloads)
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; expected one of {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name].ini(seed, out)


def run_pipeline(config: Path, out: Path, src: Path) -> None:
    """Every pipeline command on one INI, then ``report`` over its metrics
    CSVs, one fresh single-BLAS-thread process each."""
    env = {**os.environ, "PYTHONPATH": str(src), **{v: "1" for v in THREAD_VARS}}

    def run(*args: str) -> None:
        code = f"import sys; from fedmoe.cli import main; sys.exit(main({list(args)!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: `fedmoe {' '.join(args)}` exited {proc.returncode}:\n{proc.stderr}")

    commands = [["partition"], ["fedavg"]] + [["personalize", "--algorithm", a] for a in ALGORITHMS]
    for command in commands:
        run(*command, "--config", str(config), "--out", str(out))
    run("report", *sorted(str(p) for p in out.glob("metrics_*.csv")), "--out", str(out))


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return lines


def main(argv=None) -> list[str]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="experiment INI file")
    source.add_argument("--workload", help="benchmark workload name (needs --seed)")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--out", type=Path, required=True, help="output directory, empty or missing")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="fedmoe sources to run")
    args = parser.parse_args(argv)
    if args.workload is not None and args.seed is None:
        parser.error("--workload needs --seed")
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty; remove it first")
    with tempfile.TemporaryDirectory() as tmp:
        config = args.config
        if config is None:
            config = Path(tmp) / "experiment.ini"
            config.write_text(_workload_ini(args.workload, args.seed, out))
        run_pipeline(config.resolve(), out, args.src.resolve())
    lines = digests(out)
    print("\n".join(lines))
    return lines


if __name__ == "__main__":
    main()
