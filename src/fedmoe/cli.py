"""Experiment runner: partition, fedavg, personalize, report, selftest.

Artifacts live under the configured output directory:
  partition.json / partition_histogram.csv   (partition)
  checkpoint.ckpt / rounds.csv / metrics_fedavg.csv / manifest_fedavg.json
  metrics_<algorithm>.csv / clients/<algorithm>/client_<id>.ckpt
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
from .errors import ConfigError, DegenerateClientError, FedmoeError
from .federation import derive_seed
from .fileio import atomic_open
from .numerics.tensor import Tensor

log = logging.getLogger("fedmoe")

# Spawn-key namespaces for deriving per-purpose seeds from the global seed.
_SEED_DATA = 10
_SEED_LOCAL = 3
_SEED_SPLIT = 4
_SEED_PERSONALIZE = 5


def build_datasets(cfg: ExperimentConfig) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Materialize (train, test) from the configured source."""
    if cfg.dataset.source == "synthetic":
        seed = derive_seed(cfg.seed, _SEED_DATA)
        kwargs = dict(
            classes=cfg.dataset.classes,
            channels=cfg.dataset.channels,
            noise=cfg.dataset.noise,
            center_jitter=cfg.dataset.center_jitter,
        )
        train = data.make_synthetic(per_class=cfg.dataset.per_class, seed=seed, **kwargs)
        test = data.synthetic_test_set(seed, per_class=cfg.dataset.test_per_class, **kwargs)
    else:
        paths = cfg.dataset.idx_paths
        train = data.pad_to_32(
            data.load_idx(paths["train_images"], paths["train_labels"], classes=cfg.dataset.classes)
        )
        test = data.pad_to_32(
            data.load_idx(paths["test_images"], paths["test_labels"], classes=cfg.dataset.classes)
        )
    data.require_all_classes(train)
    return train, test


def _partition_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "partition.json"


def load_partition(cfg: ExperimentConfig, train: data.LabeledDataset) -> data.ClientPartition:
    """The saved partition, checked against the configuration and the training set."""
    path = _partition_path(cfg)
    if not path.exists():
        raise ConfigError(
            f"partition file {path} does not exist; run `fedmoe partition --config ...` first"
        )

    def invalid(problem: str) -> ConfigError:
        return ConfigError(f"partition file {path} {problem}; re-run `fedmoe partition --config ...`")

    try:
        blob = json.loads(path.read_text())
    except ValueError as e:  # malformed JSON or text
        raise invalid(f"is not valid JSON ({e})") from None
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
    return data.ClientPartition(tuple(tuple(c) for c in clients))


def _write_manifest(cfg: ExperimentConfig, name: str, extra: dict) -> None:
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
    }
    manifest.update(extra)
    with atomic_open(cfg.out_dir / f"manifest_{name}.json") as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def cmd_partition(cfg: ExperimentConfig) -> int:
    train, _ = build_datasets(cfg)
    partition = data.dirichlet_partition(train, cfg.partition)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    blob = {
        "clients": [list(c) for c in partition.clients],
        "concentration": cfg.partition.concentration,
        "partition_seed": cfg.partition.seed,
        "dataset_size": len(train),
    }
    with atomic_open(_partition_path(cfg)) as f:
        f.write(json.dumps(blob, sort_keys=True) + "\n")

    with atomic_open(cfg.out_dir / "partition_histogram.csv", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id"] + [f"class_{c}" for c in range(train.classes)] + ["total"])
        for cid, indices in enumerate(partition.clients):
            counts = np.bincount(train.labels[list(indices)], minlength=train.classes)
            writer.writerow([cid] + counts.tolist() + [int(counts.sum())])
    log.info("partitioned %d examples across %d clients", len(train), len(partition))
    print(f"wrote {_partition_path(cfg)} ({len(partition)} clients)")
    return 0


def cmd_fedavg(cfg: ExperimentConfig) -> int:
    train, test = build_datasets(cfg)
    partition = load_partition(cfg, train)

    def eval_fn(params: models.ModelParams) -> float:
        return evaluation.global_test(lambda x: models.forward(params, x), test)

    result = federation.train_federated(
        train, partition, cfg.model, cfg.federation, eval_fn, workers=cfg.workers
    )

    with atomic_open(cfg.out_dir / "rounds.csv", newline="") as f:
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
    records = []
    for cid, indices in enumerate(partition.clients):
        ratios = evaluation.class_ratios(train.labels[list(indices)], train.classes)
        records.append(
            evaluation.MetricsRecord(
                run_id=f"seed{cfg.seed}",
                algorithm="fedavg",
                client_id=cid,
                local_acc=evaluation.local_test_from_per_class(per_class, ratios),
                global_acc=global_acc,
                seed=cfg.seed,
            )
        )
    evaluation.write_metrics_csv(records, cfg.out_dir / "metrics_fedavg.csv")
    _write_manifest(cfg, "fedavg", {"checkpoint_sha256": digest, "best_round": result.best.round_index})
    log.info("best round %d, global accuracy %.4f", result.best.round_index, global_acc)
    print(f"wrote {ckpt_path} (best round {result.best.round_index}, global acc {global_acc:.4f})")
    return 0


def _client_seed(cfg: ExperimentConfig, namespace: int, client_id: int) -> int:
    return derive_seed(cfg.seed, namespace, client_id)


def _personalize_full(
    cfg: ExperimentConfig,
    algorithm: str,
    client_id: int,
    indices,
    train: data.LabeledDataset,
    global_params: models.ModelParams,
) -> personalization.PersonalizedClient:
    """Train one client's full model (local or pfl_ft)."""
    client_ds = train.subset(list(indices))
    if algorithm == "local":
        trained = personalization.train_local_baseline(
            client_ds,
            cfg.model,
            seed=_client_seed(cfg, _SEED_LOCAL, client_id),
            epochs=cfg.local_baseline.epochs,
            sgd=cfg.local_baseline.sgd,
            batch_size=cfg.local_baseline.batch,
            client_id=client_id,
        )
        return personalization.PersonalizedClient(client_id, "local", trained.tensors, None, global_params)
    seed = _client_seed(cfg, _SEED_PERSONALIZE, client_id)
    return personalization.pfl_ft(global_params, client_ds, cfg.personalization[algorithm], seed, client_id)


def _head_clients(cfg: ExperimentConfig, algorithm: str, partition, train: data.LabeledDataset):
    """The clients of a head-training stack, each subset built when read."""
    for cid, indices in enumerate(partition.clients):
        seed = _client_seed(cfg, _SEED_PERSONALIZE, cid)
        if algorithm == "pfl_fb":
            yield personalization.HeadClient(cid, seed, train.subset(list(indices)))
            continue
        try:
            client_split = data.split_per_gate(
                indices, cfg.personalization[algorithm].split_ratio, _client_seed(cfg, _SEED_SPLIT, cid)
            )
        except DegenerateClientError as e:
            raise DegenerateClientError(
                f"{algorithm}: client {cid}: {e}; {algorithm} splits each client into an adaptation and a "
                "gate set, so lower partition.clients or raise partition.concentration"
            ) from e
        yield personalization.HeadClient(
            cid, seed, train.subset(client_split.per_indices), train.subset(client_split.gate_indices)
        )


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
    """The checkpoint must be the one the last ``fedavg`` run recorded, from
    the configuration this run has."""
    manifest_path = cfg.out_dir / "manifest_fedavg.json"
    rerun = "re-run `fedmoe fedavg --config ...`"
    try:
        manifest = json.loads(manifest_path.read_text())
        recorded = manifest["checkpoint_sha256"]
    except FileNotFoundError:
        raise ConfigError(
            f"{manifest_path} does not exist, so checkpoint {ckpt_path} cannot be checked; {rerun}"
        ) from None
    except (ValueError, KeyError, TypeError):
        raise ConfigError(
            f"{manifest_path} records no checkpoint_sha256 for checkpoint {ckpt_path}; {rerun}"
        ) from None
    actual = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
    if actual != recorded:
        raise ConfigError(
            f"checkpoint {ckpt_path} has sha256 {actual}, but {manifest_path} records {recorded}; "
            f"the checkpoint is stale or was edited; {rerun}"
        )
    was = _fedavg_fields(manifest.get("config"))
    now = _fedavg_fields(cfg.snapshot())
    for key in {**now, **was}:
        if was.get(key) != now.get(key):
            raise ConfigError(
                f"checkpoint {ckpt_path} was trained with {key} = {was.get(key)!r} ({manifest_path}), "
                f"but the configuration gives {now.get(key)!r}; {rerun}"
            )


class _TestSetEvaluator:
    """Shared per-algorithm evaluation state: test-set extractor features are
    computed once and reused by every client that shares the extractor."""

    def __init__(self, test: data.LabeledDataset, global_model: models.ModelParams):
        self.test = test
        self.global_model = global_model
        self._features: Tensor | None = None

    @property
    def features(self) -> Tensor:
        if self._features is None:
            chunks = [
                models.extract_features(self.global_model, Tensor._wrap(self.test.features.data[s : s + 512]))
                for s in range(0, len(self.test), 512)
            ]
            self._features = Tensor._wrap(np.concatenate([c.data for c in chunks]))
        return self._features

    def per_class_accuracy(self, client: personalization.PersonalizedClient) -> np.ndarray:
        if client.algorithm in ("local", "pfl_ft"):
            params = models.ModelParams(self.global_model.spec, client.personalized)
            return evaluation.per_class_accuracy(lambda x: models.forward(params, x), self.test)
        if client.algorithm == "pfl_fb":
            logits = models.classify(self.global_model, self.features, classifier=client.personalized)
        else:
            _, logits = personalization.mixture(client, self.test.features, self.features)
        pred = np.argmax(logits.data, axis=1)
        return evaluation.per_class_accuracy_from_predictions(pred, self.test)


def cmd_personalize(cfg: ExperimentConfig, algorithm: str) -> int:
    if algorithm not in personalization.ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {personalization.ALGORITHMS}, got {algorithm!r}")
    train, test = build_datasets(cfg)
    partition = load_partition(cfg, train)
    ckpt_path = cfg.out_dir / "checkpoint.ckpt"
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint {ckpt_path} does not exist; run `fedmoe fedavg --config ...` first")
    _check_checkpoint(cfg, ckpt_path)
    global_params, _ = checkpoint.load_model(ckpt_path)
    if global_params.spec != cfg.model:
        raise ConfigError(
            f"checkpoint model spec {global_params.spec} does not match configured {cfg.model}"
        )
    evaluator = _TestSetEvaluator(test, global_params)
    is_moe = algorithm in personalization.MOE_ALGORITHMS

    if algorithm in ("local", "pfl_ft"):
        def work(cid: int) -> personalization.PersonalizedClient:
            return _personalize_full(cfg, algorithm, cid, partition.clients[cid], train, global_params)

        clients = federation.client_map(work, range(len(partition)), cfg.workers)
    else:
        clients = personalization.personalize_heads(
            algorithm, global_params, _head_clients(cfg, algorithm, partition, train),
            cfg.personalization[algorithm], cfg.workers,
        )

    artifact_dir = cfg.out_dir / "clients" / algorithm
    artifact_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for client in clients:
        cid = client.client_id
        ratios = evaluation.class_ratios(train.labels[list(partition.clients[cid])], train.classes)
        per_class = evaluator.per_class_accuracy(client)
        local_acc = evaluation.local_test_from_per_class(per_class, ratios)
        counts = evaluator.test.class_counts()
        global_acc = float(np.nansum(per_class * counts) / len(evaluator.test))
        records.append(
            evaluation.MetricsRecord(
                run_id=f"seed{cfg.seed}",
                algorithm=algorithm,
                client_id=cid,
                local_acc=local_acc,
                global_acc=global_acc,
                seed=cfg.seed,
                mean_gate=client.mean_g,
            )
        )
        artifact = dict(client.personalized)
        extra = {"kind": "client", "algorithm": algorithm, "client_id": cid, "seed": cfg.seed}
        if is_moe:
            artifact.update({f"gate.{name}": t for name, t in client.gate.items()})
            extra["gate_input_mode"] = personalization.GATE_INPUT[algorithm]
        checkpoint.save_tensors(artifact_dir / f"client_{cid}.ckpt", artifact, extra)

    evaluation.write_metrics_csv(records, cfg.out_dir / f"metrics_{algorithm}.csv", include_mean_gate=is_moe)
    evaluation.write_metrics_jsonl(records, cfg.out_dir / f"metrics_{algorithm}.jsonl")
    _write_manifest(cfg, algorithm, {"clients": len(partition)})
    mean_local = float(np.mean([r.local_acc for r in records]))
    mean_global = float(np.mean([r.global_acc for r in records]))
    log.info("%s: mean local %.4f, mean global %.4f", algorithm, mean_local, mean_global)
    print(f"{algorithm}: mean local acc {mean_local:.4f}, mean global acc {mean_global:.4f}")
    return 0


def cmd_report(metric_paths: list[str], out_dir: Path) -> int:
    records = []
    for path in metric_paths:
        records.extend(evaluation.read_metrics_csv(path))
    if not records:
        raise ConfigError("report: no metrics records found in the given files")
    summary = evaluation.summarize(records)

    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "report.csv", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "clients", "mean_local_acc", "mean_global_acc"])
        for row in summary.rows:
            writer.writerow([row.algorithm, row.clients, f"{row.mean_local_acc:.10f}", f"{row.mean_global_acc:.10f}"])

    with atomic_open(out_dir / "deltas.csv", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "client_id", "local_acc_delta", "global_acc_delta"])
        for alg in sorted(summary.deltas):
            for cid, dl, dg in summary.deltas[alg]:
                writer.writerow([alg, cid, f"{dl:.10f}", f"{dg:.10f}"])

    width = max(len(r.algorithm) for r in summary.rows)
    print(f"{'algorithm'.ljust(width)}  clients  local%   global%")
    for row in summary.rows:
        print(
            f"{row.algorithm.ljust(width)}  {row.clients:7d}  {100 * row.mean_local_acc:6.2f}   "
            f"{100 * row.mean_global_acc:6.2f}"
        )
    return 0


def cmd_selftest() -> int:
    """Quick built-in property checks; exits nonzero if any fails."""
    import tempfile

    from .numerics import SgdConfig, graph, kernels
    from .numerics.optim import OptimizerState, sgd_step

    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)

    # Gradient vs central finite differences on a dense + cross-entropy path.
    x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    labels = [0, 2, 1]
    leaves = [graph.leaf(w), graph.leaf(b)]
    loss = graph.cross_entropy(graph.dense(graph.leaf(x), leaves[0], leaves[1]), labels)
    analytic = graph.gradient(loss, leaves)
    worst = 0.0
    for arr, got in zip((w, b), analytic):
        num = np.zeros_like(arr)
        flat, nflat = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = float(graph.cross_entropy(graph.dense(graph.leaf(x), graph.leaf(w), graph.leaf(b)), labels).data)
            flat[i] = orig - 1e-5
            down = float(graph.cross_entropy(graph.dense(graph.leaf(x), graph.leaf(w), graph.leaf(b)), labels).data)
            flat[i] = orig
            nflat[i] = (up - down) / 2e-5
        worst = max(worst, float(np.max(np.abs(got - num) / np.maximum(1.0, np.abs(num)))))
    check(f"gradient matches finite differences (max rel err {worst:.2e})", worst < 1e-4)

    # Conv and pool kernels at the LeNet-5 conv2 shape against direct
    # references: one shifted slice per kernel offset (p, q), contracted over
    # channels with tensordot.
    x, k, b = rng.normal(size=(2, 6, 14, 14)), rng.normal(size=(16, 6, 5, 5)), rng.normal(size=16)
    dy = rng.normal(size=(2, 16, 10, 10))
    want = {
        "conv2d": np.broadcast_to(b[None, :, None, None], dy.shape).copy(),
        "conv2d_input_grad": np.zeros_like(x),
        "conv2d_kernel_grad": np.empty_like(k),
    }
    for p in range(5):
        for q in range(5):
            window = x[:, :, p : p + 10, q : q + 10]
            want["conv2d"] += np.tensordot(window, k[:, :, p, q], axes=([1], [1])).transpose(0, 3, 1, 2)
            want["conv2d_input_grad"][:, :, p : p + 10, q : q + 10] += np.tensordot(
                dy, k[:, :, p, q], axes=([1], [0])
            ).transpose(0, 3, 1, 2)
            want["conv2d_kernel_grad"][:, :, p, q] = np.tensordot(dy, window, axes=([0, 2, 3], [0, 2, 3]))
    got = {
        "conv2d": kernels.conv2d(x, k, b),
        "conv2d_input_grad": kernels.conv2d_input_grad(dy, k),
        "conv2d_kernel_grad": kernels.conv2d_kernel_grad(x, dy, (5, 5)),
    }
    for name, ref in want.items():
        err = float(np.abs(got[name] - ref).max() / np.abs(ref).max())
        check(f"{name} matches the shifted-slice reference (rel err {err:.2e})", err < 1e-12)
    # dy as pool input: normal draws, so no window holds a tie.
    pooled, routing = kernels.max_pool2x2(dy)
    ref = dy.reshape(2, 16, 5, 2, 5, 2).max(axis=(3, 5))
    dp = rng.normal(size=ref.shape)
    up = lambda v: v.repeat(2, axis=2).repeat(2, axis=3)
    check("max_pool2x2 matches the window maxima", np.array_equal(pooled, ref))
    check("max_pool2x2_grad routes each gradient to its window maximum",
          np.array_equal(kernels.max_pool2x2_grad(dp, routing), (dy == up(ref)) * up(dp)))

    # Partition properties.
    ds = data.make_synthetic(classes=5, per_class=20, seed=1, side=8)
    part = data.dirichlet_partition(ds, data.PartitionSpec(8, 0.5, seed=2))
    flat = sorted(i for c in part.clients for i in c)
    check("partition is a disjoint cover", flat == list(range(len(ds))))
    totals = sum(np.bincount(ds.labels[list(c)], minlength=5) for c in part.clients)
    check("per-class totals conserved", np.array_equal(totals, ds.class_counts()))
    check("all clients nonempty", min(part.sizes()) >= 1)

    # Mixing boundaries, through the mixture-inference path, and the gate
    # forward against numpy.
    spec = models.ModelSpec("mlp", channels=1, side=8, classes=4, hidden_sizes=(6,))
    glob = models.build_model(spec, seed=4)
    head = models.build_model(spec, seed=5).classifier
    gate = {"weight": Tensor(rng.normal(size=(64, 1))), "bias": Tensor(rng.normal(size=1))}
    client = personalization.PersonalizedClient(0, "pfl_mf", head, gate, glob)
    raw = Tensor(rng.uniform(size=(10, 1, 8, 8)))
    feats = models.extract_features(glob, raw)
    _, to_global = personalization.mixture(client, raw, feats, gate_override=1.0)
    _, to_local = personalization.mixture(client, raw, feats, gate_override=0.0)
    check("mix at g=1 returns the global expert",
          np.array_equal(to_global.data, models.classify(glob, feats).data))
    check("mix at g=0 returns the local expert",
          np.array_equal(to_local.data, models.classify(glob, feats, classifier=head).data))
    v = raw.data.reshape(10, -1)
    g = models.gate_graph(models.param_consts(gate), graph.const(v)).data
    want = 1.0 / (1.0 + np.exp(-(v @ gate["weight"].data + gate["bias"].data)))[:, 0]
    err = float(np.abs(g - want).max())
    check(f"gate_graph matches sigmoid(v @ w + b) (max abs err {err:.2e})", err < 1e-12)

    # Plain SGD equality.
    w, g = rng.normal(size=5), rng.normal(size=5)
    stepped = sgd_step({"w": w.copy()}, {"w": g}, OptimizerState(), SgdConfig(learning_rate=0.1))
    check("sgd without momentum equals param - lr*grad", np.array_equal(stepped["w"], w - 0.1 * g))

    # Checkpoint round trip.
    spec = models.ModelSpec("mlp", channels=1, classes=3, hidden_sizes=(6,))
    params = models.build_model(spec, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        checkpoint.save_model(path, params, extra={"seed": 3})
        loaded, _ = checkpoint.load_model(path)
        ok = all(np.array_equal(loaded.tensors[k].data, params.tensors[k].data) for k in params.tensors)
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
    sub.add_parser("selftest", help="run quick built-in property checks")
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
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
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
