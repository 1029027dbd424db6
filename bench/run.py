"""fedmoe pipeline benchmark.

    python3 bench/run.py --workload desk_mlp --seed 1 --seconds 55 --trace 0

Runs one workload (see ``workloads.py``) through the real CLI phases in this
process: ``cli.main`` with ``partition``, ``fedavg`` and ``personalize
--algorithm ...``, plus one ``evaluation.global_test`` of the fedavg
checkpoint. Set-up is repeated ``SETUP_REPEATS`` times and the import of the
CLI is timed in ``IMPORT_REPEATS`` fresh interpreters; the measured phases
are then repeated while ``--seconds`` allows, and each metric is the median
over its samples. Every run checks its outputs (``checks.py``) and that each
repetition wrote byte-identical metrics CSVs, rounds and checkpoints.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one extra
set-up and iteration with every layer wrapped by ``tracing.py`` and prints
the per-layer metrics, including the tracing overhead. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full details (samples, checks, the per-batch kernel table, the
thread budget) go to ``bench/runs/results/``, spans to ``bench/runs/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from workloads import ALGORITHMS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "bench" / "runs"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
ITERATION = ("fedavg", "eval_pass", *ALGORITHMS)
# One BLAS thread: workers x BLAS threads stays within nproc, and the small
# GEMMs here run no faster on several BLAS threads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Reference dataset sizes for the projection: the Fashion-MNIST layout of the
# IDX tier (60k train / 10k test). Every other reference size is read from
# fedmoe.config.DEFAULTS at run time.
REFERENCE_TRAIN = 60_000
REFERENCE_TEST = 10_000


def _median(values) -> float:
    return float(statistics.median(values))


class Pipeline:
    """One workload at one seed: runs phases, times them, counts operations."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from fedmoe import checkpoint, cli, config, evaluation, models

        self.fedmoe = {"checkpoint": checkpoint, "cli": cli, "config": config,
                       "evaluation": evaluation, "models": models}
        self.workload = workload
        self.seed = seed
        self.out = workdir
        self.ini = workload.write_ini(seed, workdir)
        self.cfg = config.load_config(self.ini)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ops: list[dict] = []
        self.digests: dict[str, str] = {}
        self._test = None

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def _cli(self, name: str, argv: list[str]) -> float:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.fedmoe["cli"].main(argv + ["--config", str(self.ini)])
            detail = f"exit {rc}"
        except Exception:  # noqa: BLE001 - a crashing phase is a failed operation
            rc, detail = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self.op(name, rc == 0, detail)
        return elapsed

    def _files(self, phase: str) -> list[Path]:
        if phase == "partition":
            return [self.out / "partition.json", self.out / "partition_histogram.csv"]
        if phase == "fedavg":
            return [self.out / n for n in ("rounds.csv", "metrics_fedavg.csv", "checkpoint.ckpt")]
        return [self.out / f"metrics_{phase}.csv"]

    def _same_as_first(self, phase: str) -> None:
        """Every repetition of a phase must rewrite its outputs byte for byte."""
        changed = []
        for path in self._files(phase):
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
            first = self.digests.setdefault(path.name, digest)
            if digest != first:
                changed.append(path.name)
        self.op(f"identical.{phase}", not changed, f"differs from first run: {changed}" if changed else "")

    def run_phase(self, phase: str) -> float:
        if phase == "eval_pass":
            return self.eval_pass()
        if phase in ("partition", "fedavg"):
            elapsed = self._cli(phase, [phase])
        else:
            elapsed = self._cli(phase, ["personalize", "--algorithm", phase])
        self._same_as_first(phase)
        return elapsed

    def eval_pass(self) -> float:
        """Median of ``eval_repeats`` global tests of the fedavg checkpoint.

        The accuracy must equal the one fedavg recorded for the same
        parameters: same code, same data, same arithmetic.
        """
        evaluation, models = self.fedmoe["evaluation"], self.fedmoe["models"]
        if self._test is None:
            self._test = self.fedmoe["cli"].build_datasets(self.cfg)[1]
        params, manifest = self.fedmoe["checkpoint"].load_model(self.out / "checkpoint.ckpt")
        times, accs = [], set()
        for _ in range(self.workload.eval_repeats):
            start = time.perf_counter()
            accs.add(evaluation.global_test(lambda x: models.forward(params, x), self._test))
            times.append(time.perf_counter() - start)
        self.op("eval_pass", accs == {manifest["accuracy"]}, f"accuracies {sorted(accs)}, recorded {manifest['accuracy']}")
        return _median(times)

    def setup_once(self) -> float:
        """INI generation, config load, dataset synthesis and partition."""
        start = time.perf_counter()
        self.ini = self.workload.write_ini(self.seed, self.out)
        self.samples["partition"].append(self.run_phase("partition"))
        return time.perf_counter() - start

    def iteration(self) -> None:
        for phase in ITERATION:
            self.samples[phase].append(self.run_phase(phase))

    def check_outputs(self) -> None:
        import checks

        for c in checks.check_outputs(self.cfg, self.out, self.workload.name):
            self.op(f"check.{c.name}", c.ok, c.detail)

    def check_rerun(self) -> None:
        """A rerun of the same seed on the same code, in an earlier process of
        this checkout, must have written the same metrics bytes."""
        src = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "bench" / "workloads.py"]:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        store = RUNS / "digests" / f"{self.workload.name}-seed{self.seed}-{src.hexdigest()[:16]}.json"
        metrics = {k: v for k, v in sorted(self.digests.items()) if k.startswith("metrics_") or k == "rounds.csv"}
        if store.exists():
            before = json.loads(store.read_text())
            changed = sorted(k for k in metrics if before.get(k) != metrics[k])
            self.op("identical.rerun", not changed, f"differs from an earlier run of this seed: {changed}")
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(metrics, indent=1) + "\n")

    # -- reference projection -------------------------------------------------

    def projection_h(self, med: dict[str, float]) -> tuple[float, dict]:
        """Linear projection of this workload's phases to the reference setup.

        Training scales with example-passes, evaluation with test examples
        evaluated; each is measured here as seconds per unit and multiplied by
        the reference count. fedavg's training share is its wall time minus
        its evaluations; local and pfl_ft lose their per-client test passes.
        The model stays the workload's own: on desk_mlp this projects the MLP
        at the reference sizes, not the reference LeNet-5 (``basis["model"]``).
        """
        cfg, defaults = self.cfg, self.fedmoe["config"].DEFAULTS
        train, test = self.fedmoe["cli"].build_datasets(cfg)
        n_train, n_test, clients = len(train), len(test), cfg.partition.clients
        sizes = [len(c) for c in json.loads((self.out / "partition.json").read_text())["clients"]]
        with open(self.out / "rounds.csv") as f:
            rows = f.read().splitlines()[1:]
        sampled = sum(sizes[int(c)] for row in rows for c in row.split(",")[1].split(";"))
        # Test-set passes: round 0, every evaluated round, and the per-class pass.
        evals = 2 + sum(1 for row in rows if row.split(",")[2])
        per_test = med["eval_pass"] / n_test

        ref_fed = defaults["federation"]
        ref_rounds = int(ref_fed["rounds"])
        ref_sampled = ref_rounds * float(ref_fed["participation"]) * REFERENCE_TRAIN * int(ref_fed["local_epochs"])
        ref_evals = 2 + ref_rounds // int(ref_fed["eval_interval"])
        ref_clients = int(defaults["partition"]["clients"])
        ref_local_epochs = int(defaults["local_baseline"]["epochs"])
        ref_adapt_epochs = int(defaults["personalization"]["epochs"])

        fed_train = max(med["fedavg"] - evals * med["eval_pass"], 0.0)
        parts = {
            "fedavg": fed_train / (sampled * cfg.federation.local_epochs) * ref_sampled
            + per_test * REFERENCE_TEST * ref_evals,
        }
        for alg in ALGORITHMS:
            epochs = cfg.local_baseline.epochs if alg == "local" else cfg.personalization[alg].epochs
            ref_epochs = ref_local_epochs if alg == "local" else ref_adapt_epochs
            total = med[alg]
            test_passes = 0.0
            if alg in ("local", "pfl_ft"):
                test_passes = min(clients * n_test * per_test, total)
                total -= test_passes
            parts[alg] = total / (n_train * epochs) * REFERENCE_TRAIN * ref_epochs
            parts[alg] += test_passes / (clients * n_test) * ref_clients * REFERENCE_TEST
        basis = {
            "model": cfg.model.architecture,
            "train_examples": REFERENCE_TRAIN, "test_examples": REFERENCE_TEST, "clients": ref_clients,
            "rounds": ref_rounds, "fedavg_example_passes": ref_sampled, "evals": ref_evals,
            "local_epochs": ref_local_epochs, "personalization_epochs": ref_adapt_epochs,
            "measured_fedavg_example_passes": sampled * cfg.federation.local_epochs,
            "projected_hours_by_phase": {k: v / 3600 for k, v in parts.items()},
        }
        return sum(parts.values()) / 3600, basis


def _environment(workload: Workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode; the record is informational
        blas = {"name": "unknown"}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers": 1,
        "workers_x_blas_within_nproc": BLAS_THREADS <= nproc,
    }


def _import_samples() -> list[float]:
    """Seconds to import the CLI, once per fresh interpreter. A single import
    in this process would be one cold sample of a short, noisy time."""
    code = "import time; t = time.perf_counter(); import fedmoe.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


def _measure(pipe: Pipeline, seconds: float) -> tuple[dict, dict]:
    imports = _import_samples()
    setup = [pipe.setup_once() for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pipe.iteration()
        last = time.perf_counter() - t0
        if len(pipe.samples["eval_pass"]) == 1:  # full check once; repeats must match its bytes
            pipe.check_outputs()
        if time.perf_counter() - start + last > seconds:
            break
    med = {phase: _median(v) for phase, v in pipe.samples.items()}
    projection, basis = pipe.projection_h(med)
    metrics = {
        "setup_s": _median(imports) + _median(setup),
        "fedavg_s": med["fedavg"],
        "eval_pass_s": med["eval_pass"],
        **{f"{alg}_s": med[alg] for alg in ALGORITHMS},
        "reference_projection_h": projection,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"setup_samples": setup, "import_samples": imports, "projection": basis}


def _trace(pipe: Pipeline, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from metrics import layer_table
    from tracing import Tracer

    start = time.perf_counter()
    pipe.setup_once()
    pipe.iteration()
    pipe.check_outputs()

    tracer = Tracer()
    traced: dict[str, float] = {}
    tracer.install()
    try:
        for run_id, phase in enumerate(("partition", *ITERATION)):
            tracer.run_id = run_id
            traced[phase] = pipe.run_phase(phase)
    finally:
        tracer.uninstall()
    last = sum(traced.values())
    while time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        pipe.iteration()
        last = time.perf_counter() - t0

    untraced = {phase: _median(pipe.samples[phase]) for phase in traced}
    overhead = {phase: traced[phase] - untraced[phase] for phase in traced}
    cols = tracer.arrays()
    metrics, kernel_table = layer_table(cols, tracer.names, tracer.tags)
    metrics["trace.overhead_s"] = sum(overhead.values())
    metrics["trace.overhead_share"] = sum(overhead.values()) / sum(untraced.values())
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path, list(traced))
    detail = {"traced_s": traced, "untraced_median_s": untraced, "overhead_s": overhead,
              "spans": int(len(cols["id"])), "spans_file": str(spans_path.relative_to(ROOT)),
              "kernel_table": kernel_table}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedmoe" / "__init__.py").is_file():
        print(f"error: the fedmoe sources are not at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import metrics as metric_defs

    workload = WORKLOADS[args.workload]
    workdir = RUNS / "work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        pipe = Pipeline(workload, args.seed, workdir)
        wanted = metric_defs.PER_LAYER if args.trace else metric_defs.END_TO_END
        try:
            if args.trace:
                spans = RUNS / "spans" / f"{workload.name}-seed{args.seed}.npz"
                values, detail = _trace(pipe, args.seconds, spans)
            else:
                values, detail = _measure(pipe, args.seconds)
            pipe.check_rerun()
        except Exception:  # noqa: BLE001 - e.g. a phase that wrote no checkpoint; the run fails, its result still prints
            pipe.op("measure", False, traceback.format_exc(limit=5))
            values, detail = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["ok"] for o in pipe.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(pipe.ops),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, *_ in wanted},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": _environment(workload), "error_rate": failed / len(pipe.ops),
        "samples": dict(pipe.samples), "operations": pipe.ops, "detail": detail, "result": result,
    }
    out = RUNS / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload.name} seed {args.seed}: {workload.why}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':52s} {record['error_rate']:.6g} ratio ({failed} of {len(pipe.ops)} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
