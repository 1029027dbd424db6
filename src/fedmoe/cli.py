"""Experiment runner: partition, fedavg, personalize, report, selftest.

Artifacts live under the configured output directory:
  partition.json / partition_histogram.csv   (partition)
  checkpoint.ckpt / rounds.csv / metrics_fedavg.csv / manifest_fedavg.json
  metrics_<algorithm>.csv / metrics_<algorithm>.jsonl / manifest_<algorithm>.json
  clients/<algorithm>/client_<id>.ckpt
  report.csv / deltas.csv                    (report)
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, checkpoint, data, evaluation, federation, models, personalization
from .config import ExperimentConfig, load_config
from .errors import ConfigError, FedmoeError
from .federation import SEED_DATA, derive_seed
from .fileio import BoundedReader, atomic_open, make_dir, read_json

log = logging.getLogger("fedmoe")


def build_datasets(cfg: ExperimentConfig) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Materialize (train, test) from the configured source."""
    if cfg.dataset.source == "synthetic":
        seed = derive_seed(cfg.seed, SEED_DATA)
        kwargs = dict(
            classes=cfg.dataset.classes,
            channels=cfg.dataset.channels,
            noise=cfg.dataset.noise,
            center_jitter=cfg.dataset.center_jitter,
        )
        train = data.make_synthetic(per_class=cfg.dataset.per_class, seed=seed, **kwargs)
        test = data.synthetic_test_set(seed, per_class=cfg.dataset.test_per_class, **kwargs)
    else:
        paths, classes = cfg.dataset.idx_paths, cfg.dataset.classes
        train, test = (
            data.pad_to_32(data.load_idx(paths[f"{part}_images"], paths[f"{part}_labels"], classes=classes))
            for part in ("train", "test")
        )
    data.require_all_classes(train)
    return train, test


def _partition_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "partition.json"


def load_partition(cfg: ExperimentConfig, train: data.LabeledDataset) -> data.ClientPartition:
    """The saved partition, checked against the configuration and the training set."""
    path, rerun = _partition_path(cfg), "re-run `fedmoe partition --config ...`"

    def invalid(problem: str) -> ConfigError:
        return ConfigError(f"partition file {path} {problem}; {rerun}")

    blob = read_json(path, "partition file", rerun)
    if not isinstance(blob, dict) or "dataset_size" not in blob or "clients" not in blob:
        raise invalid("lacks the `dataset_size` or the `clients` key")
    size, clients = blob["dataset_size"], blob["clients"]
    if type(size) is not int or size != len(train):
        raise invalid(f"covers {size} training examples but the configured dataset has {len(train)}")
    if not isinstance(clients, list) or len(clients) != cfg.partition.clients:
        count = len(clients) if isinstance(clients, list) else "no list of"
        raise invalid(f"holds {count} clients but [partition] clients is {cfg.partition.clients}")
    if blob.get("concentration") != cfg.partition.concentration:
        raise invalid(f"was drawn at concentration {blob.get('concentration')!r} but [partition] concentration "
                      f"is {cfg.partition.concentration}")
    if blob.get("partition_seed") != cfg.partition.seed:
        raise invalid(f"was drawn with partition seed {blob.get('partition_seed')!r} but run seed {cfg.seed} "
                      f"derives {cfg.partition.seed}")
    owner = [-1] * size
    for cid, indices in enumerate(clients):
        if not isinstance(indices, list):
            raise invalid(f"gives client {cid} {indices!r}, not a list of example indices")
        for i in indices:
            if type(i) is not int or not 0 <= i < size:
                raise invalid(f"gives client {cid} the index {i!r}, not an integer in [0, {size})")
            if owner[i] >= 0:
                raise invalid(f"assigns example {i} to both client {owner[i]} and client {cid}")
            owner[i] = cid
    if -1 in owner:
        raise invalid(f"assigns example {owner.index(-1)} to no client")
    return data.ClientPartition(tuple(tuple(c) for c in clients))


def _write_manifest(cfg: ExperimentConfig, name: str, extra: dict) -> None:
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
    }
    manifest.update(extra)
    with atomic_open(cfg.out_dir / f"manifest_{name}.json", "manifest") as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def cmd_partition(cfg: ExperimentConfig) -> int:
    train, _ = build_datasets(cfg)
    partition = data.dirichlet_partition(train, cfg.partition)
    make_dir(cfg.out_dir, "output directory")

    blob = {
        "clients": [list(c) for c in partition.clients],
        "concentration": cfg.partition.concentration,
        "partition_seed": cfg.partition.seed,
        "dataset_size": len(train),
    }
    with atomic_open(_partition_path(cfg), "partition") as f:
        f.write(json.dumps(blob, sort_keys=True) + "\n")

    with atomic_open(cfg.out_dir / "partition_histogram.csv", "partition histogram", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id"] + [f"class_{c}" for c in range(train.classes)] + ["total"])
        for cid, indices in enumerate(partition.clients):
            counts = np.bincount(train.labels[list(indices)], minlength=train.classes)
            writer.writerow([cid] + counts.tolist() + [int(counts.sum())])
    log.info("partitioned %d examples across %d clients", len(train), len(partition))
    print(f"wrote {_partition_path(cfg)} ({len(partition)} clients)")
    return 0


def _sha256(path: Path, what: str, rerun: str) -> str:
    """The sha256 of the file at ``path``, read through the bounded reader."""
    with BoundedReader(path, what, rerun) as r:
        return hashlib.sha256(r.bytes(r.size, "its bytes")).hexdigest()


def cmd_fedavg(cfg: ExperimentConfig) -> int:
    train, test = build_datasets(cfg)
    partition = load_partition(cfg, train)
    partition_digest = _sha256(_partition_path(cfg), "partition file", "re-run `fedmoe partition --config ...`")

    def eval_fn(params: models.ModelParams) -> float:
        return evaluation.global_test(lambda x: models.forward(params, x), test)

    result = federation.train_federated(
        train, partition, cfg.model, cfg.federation, eval_fn, workers=cfg.workers
    )

    with atomic_open(cfg.out_dir / "rounds.csv", "round log", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "sampled_clients", "global_acc"])
        for record in result.rounds:
            acc = "" if record.accuracy is None else f"{record.accuracy:.10f}"
            writer.writerow([record.round_index, ";".join(map(str, record.client_ids)), acc])

    ckpt_path = cfg.out_dir / "checkpoint.ckpt"
    digest = checkpoint.save_model(
        ckpt_path,
        result.best.params,
        extra={"round": result.best.round_index, "accuracy": result.best.accuracy, "seed": cfg.seed},
    )

    # Per-client baseline records: the global model under each client's ratios.
    per_class = evaluation.per_class_accuracy(
        lambda x: models.forward(result.best.params, x), test
    )
    global_acc = result.best.accuracy
    records = _metrics_records(cfg, "fedavg", train, partition,
                               [(cid, per_class, global_acc, None) for cid in range(len(partition))])
    evaluation.write_metrics_csv(records, cfg.out_dir / "metrics_fedavg.csv")
    _write_manifest(cfg, "fedavg", {"checkpoint_sha256": digest, "partition_sha256": partition_digest,
                                    "best_round": result.best.round_index})
    log.info("best round %d, global accuracy %.4f", result.best.round_index, global_acc)
    print(f"wrote {ckpt_path} (best round {result.best.round_index}, global acc {global_acc:.4f})")
    return 0


def _metrics_records(cfg: ExperimentConfig, algorithm: str, train: data.LabeledDataset, partition,
                     scores) -> list[evaluation.MetricsRecord]:
    """One metrics row per ``(client id, per-class test accuracy, global
    accuracy, mean g)``: the local test weighs the per-class accuracy by the
    client's training-set class ratios."""
    return [
        evaluation.MetricsRecord(
            run_id=f"seed{cfg.seed}",
            algorithm=algorithm,
            client_id=cid,
            local_acc=evaluation.local_test_from_per_class(
                per_class, evaluation.class_ratios(train.labels[list(partition.clients[cid])], train.classes)
            ),
            global_acc=global_acc,
            seed=cfg.seed,
            mean_gate=mean_g,
        )
        for cid, per_class, global_acc, mean_g in scores
    ]


# The parts of a run's config that fedavg's checkpoint depends on.
_FEDAVG_CONFIG = ("seed", "dataset", "model", "partition", "federation")


def _fedavg_fields(snapshot) -> dict:
    """The fields of a config snapshot that fedavg depends on, as dotted keys."""
    fields = {}
    for key in _FEDAVG_CONFIG:
        value = snapshot.get(key) if isinstance(snapshot, dict) else None
        if isinstance(value, dict):
            # Paths to the IDX files may differ between machines, not their bytes.
            fields.update({f"{key}.{k}": v for k, v in value.items() if k != "idx_paths"})
        else:
            fields[key] = value
    return fields


def _check_checkpoint(cfg: ExperimentConfig, ckpt_path: Path) -> None:
    """The checkpoint and the partition file must be the ones the last
    ``fedavg`` run recorded, and its configuration the one this run has."""
    manifest_path = cfg.out_dir / "manifest_fedavg.json"
    rerun = "re-run `fedmoe fedavg --config ...`"
    manifest = read_json(manifest_path, f"checkpoint {ckpt_path}'s fedavg manifest", rerun)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path} holds no JSON object for checkpoint {ckpt_path}; {rerun}")
    was = _fedavg_fields(manifest.get("config"))
    now = _fedavg_fields(cfg.snapshot())
    for key in {**now, **was}:
        if was.get(key) != now.get(key):
            raise ConfigError(
                f"checkpoint {ckpt_path} was trained with {key} = {was.get(key)!r} ({manifest_path}), "
                f"but the configuration gives {now.get(key)!r}; {rerun}"
            )
    for key, what, path in (("checkpoint_sha256", "checkpoint", ckpt_path),
                            ("partition_sha256", "partition file", _partition_path(cfg))):
        recorded = manifest.get(key)
        if recorded is None:
            raise ConfigError(f"{manifest_path} records no {key} for {what} {path}; {rerun}")
        actual = _sha256(path, what, rerun)
        if actual != recorded:
            raise ConfigError(
                f"{what} {path} has sha256 {actual}, but {manifest_path} records {recorded}; "
                f"the {what} is stale or was edited; {rerun}"
            )


def cmd_personalize(cfg: ExperimentConfig, algorithm: str) -> int:
    train, test = build_datasets(cfg)
    partition = load_partition(cfg, train)
    ckpt_path = cfg.out_dir / "checkpoint.ckpt"
    _check_checkpoint(cfg, ckpt_path)
    global_params, _ = checkpoint.load_model(ckpt_path)
    if global_params.spec != cfg.model:
        raise ConfigError(
            f"checkpoint model spec {global_params.spec} does not match configured {cfg.model}"
        )
    is_moe = algorithm in personalization.MOE_ALGORITHMS
    clients = personalization.personalize(cfg, algorithm, global_params, train, partition)
    # The full models of local and pfl_ft read no shared features.
    features = None
    if algorithm in personalization.HEAD_ALGORITHMS:
        features = models.extract_features(global_params, test.features)

    artifact_dir = cfg.out_dir / "clients" / algorithm
    make_dir(artifact_dir, "client checkpoint directory")
    scores = []
    for client in clients:
        cid = client.client_id
        per_class = evaluation.per_class_accuracy(lambda x: personalization.predict(client, x, features), test)
        global_acc = float(np.nansum(per_class * test.class_counts()) / len(test))
        scores.append((cid, per_class, global_acc, client.mean_g))
        artifact = dict(client.personalized)
        extra = {"kind": "client", "algorithm": algorithm, "client_id": cid, "seed": cfg.seed}
        if is_moe:
            artifact.update({f"gate.{name}": t for name, t in client.gate.items()})
            extra["gate_input_mode"] = personalization.GATE_INPUT[algorithm]
        checkpoint.save_tensors(artifact_dir / f"client_{cid}.ckpt", artifact, extra)
    # A run over fewer clients must not leave an earlier run's checkpoints behind.
    written = {f"client_{cid}.ckpt" for cid, *_ in scores}
    for stale in sorted(artifact_dir.glob("client_*.ckpt")):
        if stale.name not in written:
            try:
                stale.unlink()
            except OSError as e:
                raise ConfigError(f"cannot remove stale client checkpoint {stale}: {e.strerror or e}") from None

    records = _metrics_records(cfg, algorithm, train, partition, scores)
    evaluation.write_metrics_csv(records, cfg.out_dir / f"metrics_{algorithm}.csv", include_mean_gate=is_moe)
    evaluation.write_metrics_jsonl(records, cfg.out_dir / f"metrics_{algorithm}.jsonl")
    _write_manifest(cfg, algorithm, {"clients": len(partition)})
    mean_local = float(np.mean([r.local_acc for r in records]))
    mean_global = float(np.mean([r.global_acc for r in records]))
    log.info("%s: mean local %.4f, mean global %.4f", algorithm, mean_local, mean_global)
    print(f"{algorithm}: mean local acc {mean_local:.4f}, mean global acc {mean_global:.4f}")
    return 0


def cmd_report(metric_paths: list[str], out_dir: Path) -> int:
    records, source = [], {}
    for path in metric_paths:
        for r in evaluation.read_metrics_csv(path):
            key = (r.algorithm, r.run_id, r.client_id)
            if key in source:
                raise ConfigError(f"report: {r.algorithm} client {r.client_id} of run {r.run_id} appears in both "
                                  f"{source[key]} and {path}; pass each run's metrics once")
            source[key] = path
            records.append(r)
    if not records:
        raise ConfigError("report: no metrics records found in the given files")
    summary = evaluation.summarize(records)

    make_dir(out_dir, "report directory")
    with atomic_open(out_dir / "report.csv", "report", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "clients", "mean_local_acc", "mean_global_acc", "runs"])
        for row in summary.rows:
            writer.writerow([row.algorithm, row.clients, f"{row.mean_local_acc:.10f}", f"{row.mean_global_acc:.10f}",
                             row.runs])

    with atomic_open(out_dir / "deltas.csv", "deltas", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "client_id", "local_acc_delta", "global_acc_delta"])
        for alg in sorted(summary.deltas):
            for cid, dl, dg in summary.deltas[alg]:
                writer.writerow([alg, cid, f"{dl:.10f}", f"{dg:.10f}"])

    width = max(len("algorithm"), *(len(r.algorithm) for r in summary.rows))
    print(f"{'algorithm'.ljust(width)}  clients  local%   global%  runs")
    for row in summary.rows:
        print(
            f"{row.algorithm.ljust(width)}  {row.clients:7d}  {100 * row.mean_local_acc:6.2f}   "
            f"{100 * row.mean_global_acc:6.2f}  {row.runs:4d}"
        )
    return 0


def cmd_selftest() -> int:
    """Checks whose result can differ between two installs of the same source:
    the BLAS-backed conv kernels at LeNet-5's conv2 shape, and the checkpoint
    bytes. The forward must match ``kernels.dense`` on every 5x5 window, and
    both gradients the adjoint identity vdot(y, dy) = vdot(x, dx) = vdot(k, dk).
    Exits 1 if any check fails. What the source fixes on any numpy is left to
    the test suite."""
    import tempfile

    from .numerics import kernels

    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)
    errors = {"conv2d": [], "conv2d_input_grad": [], "conv2d_kernel_grad": []}
    for n in (10, 64):  # the fedavg and the personalization batch
        x, k, b = rng.normal(size=(n, 6, 14, 14)), rng.normal(size=(16, 6, 5, 5)), rng.normal(size=16)
        dy, y = rng.normal(size=(n, 16, 10, 10)), np.empty((n, 16, 10, 10))
        for i, j in np.ndindex(10, 10):  # the forward without its bias
            y[:, :, i, j] = kernels.dense(x[:, :, i : i + 5, j : j + 5].reshape(n, -1), k.reshape(16, -1).T,
                                          np.zeros(16))
        adjoint = np.vdot(y, dy)
        errors["conv2d"].append(np.abs(kernels.conv2d(x, k, b) - (y + b[:, None, None])).max() / np.abs(y).max())
        errors["conv2d_input_grad"].append(abs(np.vdot(x, kernels.conv2d_input_grad(dy, k)) / adjoint - 1))
        errors["conv2d_kernel_grad"].append(abs(np.vdot(k, kernels.conv2d_kernel_grad(x, dy, (5, 5))) / adjoint - 1))
    for name, errs in errors.items():
        err = float(np.max(errs))  # NaN fails the check
        ref = "kernels.dense on every window" if name == "conv2d" else "the adjoint identity"
        check(f"{name} matches {ref} at batch 10 and 64 (max rel err {err:.2e})", err <= 1e-12)

    params = models.build_model(models.ModelSpec("mlp", channels=1, classes=3, hidden_sizes=(6,)), seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            checkpoint.save_model(Path(tmp) / "m.ckpt", params)
            loaded = checkpoint.load_model(Path(tmp) / "m.ckpt")[0].tensors
            ok = all(np.array_equal(loaded[key].data, t.data) for key, t in params.tensors.items())
        except FedmoeError:
            ok = False
    check("checkpoint round trip preserves every bit", ok)
    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmoe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fedmoe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")
        p.add_argument("--workers", type=int, default=None, help="parallel client workers")
        p.add_argument("--out", default=None, help="override the output directory")

    common(sub.add_parser("partition", help="build and save the client partition"))
    common(sub.add_parser("fedavg", help="run federated training from the saved partition"))
    p = sub.add_parser("personalize", help="run one personalization algorithm for every client")
    common(p)
    p.add_argument("--algorithm", required=True, choices=personalization.ALGORITHMS)
    r = sub.add_parser("report", help="aggregate metrics CSVs into a report")
    r.add_argument("metrics", nargs="+", help="metrics CSV files")
    r.add_argument("--out", default="runs/latest", help="output directory")
    sub.add_parser("selftest", help="check the BLAS-backed kernels and the checkpoint bytes of this install")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FEDMOE_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR), format="%(name)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "report":
            return cmd_report(args.metrics, Path(args.out))
        cfg = load_config(args.config, seed_override=args.seed, workers_override=args.workers,
                          out_override=args.out)
        make_dir(cfg.out_dir, "output directory")
        if args.command == "partition":
            return cmd_partition(cfg)
        if args.command == "fedavg":
            return cmd_fedavg(cfg)
        return cmd_personalize(cfg, args.algorithm)
    except FedmoeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
