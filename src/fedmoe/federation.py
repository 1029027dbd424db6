"""FedAvg orchestration: client sampling, local updates, parameter averaging,
and best-checkpoint tracking."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import ClientPartition, LabeledDataset
from .errors import ConfigError, DimensionError
from .models import ModelParams, ModelSpec, build_model, forward_graph, param_leaves
from .numerics import graph
from .numerics.optim import OptimizerState, SgdConfig, sgd_step
from .numerics.tensor import Tensor

log = logging.getLogger(__name__)

WEIGHTING_MODES = ("sample", "uniform")


@dataclass(frozen=True)
class FedConfig:
    rounds: int
    participation: float
    local_epochs: int
    local_batch: int
    sgd: SgdConfig
    seed: int = 0
    weighting: str = "sample"
    eval_interval: int = 1

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError(f"rounds: must be nonnegative, got {self.rounds}")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError(f"participation: must lie in (0, 1], got {self.participation}")
        if self.local_epochs < 0:
            raise ConfigError(f"local_epochs: must be nonnegative, got {self.local_epochs}")
        if self.local_batch < 1:
            raise ConfigError(f"local_batch: must be positive, got {self.local_batch}")
        if self.weighting not in WEIGHTING_MODES:
            raise ConfigError(f"weighting: expected one of {WEIGHTING_MODES}, got {self.weighting!r}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval: must be positive, got {self.eval_interval}")


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    params: ModelParams
    num_examples: int


@dataclass(frozen=True)
class GlobalCheckpoint:
    round_index: int
    params: ModelParams
    accuracy: float


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    client_ids: tuple[int, ...]
    accuracy: float | None  # None on rounds that were not evaluated


@dataclass(frozen=True)
class FederatedResult:
    best: GlobalCheckpoint
    final: ModelParams
    rounds: tuple[RoundRecord, ...]


def derive_seed(root: int, *key: int) -> int:
    """Stable per-(round, client, ...) seed derivation from one global seed."""
    return int(np.random.SeedSequence(root, spawn_key=tuple(key)).generate_state(1, np.uint64)[0])


# Maps (fresh parameter leaves, batch indices) to the batch's recorded scalar loss.
LossFn = Callable[[dict[str, graph.Value], np.ndarray], graph.Value]


def sgd_epoch(
    params: dict[str, Tensor],
    n: int,
    batch_size: int,
    loss_fn: LossFn,
    state: OptimizerState,
    cfg: SgdConfig,
    rng: np.random.Generator,
) -> dict[str, Tensor]:
    """One pass of minibatch SGD over n examples in a seeded shuffled order.

    Every trainer in the package runs through this loop: the full model, the
    personalized classifier head and the gate differ only in ``loss_fn``.
    """
    names = list(params)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        leaves = param_leaves(params)
        loss = loss_fn(leaves, order[start : start + batch_size])
        grads = graph.gradient(loss, [leaves[k] for k in names])
        params = sgd_step(params, dict(zip(names, grads)), state, cfg)
    state.epoch += 1
    return params


def sgd_epochs(
    params: dict[str, Tensor],
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    cfg: SgdConfig,
    rng: np.random.Generator,
) -> dict[str, Tensor]:
    """Full-model minibatch SGD on the cross-entropy of (features, labels)."""
    def loss_fn(leaves, batch):
        return graph.cross_entropy(forward_graph(spec, leaves, graph.const(features[batch])), labels[batch])

    state = OptimizerState()
    for _ in range(epochs):
        params = sgd_epoch(params, len(labels), batch_size, loss_fn, state, cfg, rng)
    return params


def local_update(
    params: ModelParams, client_data: LabeledDataset, cfg: FedConfig, seed: int
) -> tuple[ModelParams, int]:
    """One client's contribution: local_epochs of minibatch SGD from the
    delivered global parameters. Returns (updated params, example count)."""
    if len(client_data) == 0:
        raise ConfigError("local_update: client dataset is empty")
    rng = np.random.default_rng(seed)
    trained = sgd_epochs(
        params.tensors,
        params.spec,
        client_data.features.data,
        client_data.labels,
        cfg.local_epochs,
        cfg.local_batch,
        cfg.sgd,
        rng,
    )
    return ModelParams(params.spec, trained), len(client_data)


def aggregate(updates: Sequence[ClientUpdate], weighting: str = "sample") -> ModelParams:
    """Average client parameters, weighted by example counts or uniformly.

    Updates are sorted by client id before the reduction, so the result is
    permutation-invariant and bit-stable.
    """
    if not updates:
        raise ConfigError("aggregate: need at least one update")
    if weighting not in WEIGHTING_MODES:
        raise ConfigError(f"weighting: expected one of {WEIGHTING_MODES}, got {weighting!r}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    first = ordered[0].params
    for u in ordered[1:]:
        for name, t in u.params.tensors.items():
            if name not in first.tensors or t.shape != first.tensors[name].shape:
                raise DimensionError(f"aggregate: update for client {u.client_id} does not conform at {name!r}")
    if weighting == "sample":
        total = sum(u.num_examples for u in ordered)
        weights = np.array([u.num_examples / total for u in ordered])
    else:
        weights = np.full(len(ordered), 1.0 / len(ordered))
    tensors = {
        name: Tensor._wrap(
            np.tensordot(weights, np.stack([u.params.tensors[name].data for u in ordered]), axes=1)
        )
        for name in first.tensors
    }
    return ModelParams(first.spec, tensors)


def sample_clients(n_clients: int, participation: float, round_index: int, seed: int) -> tuple[int, ...]:
    """Sample ceil(participation * N) distinct clients for one round."""
    count = int(np.ceil(participation * n_clients))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(round_index,)))
    return tuple(sorted(rng.choice(n_clients, size=count, replace=False).tolist()))


def train_federated(
    train_set: LabeledDataset,
    partition: ClientPartition,
    spec: ModelSpec,
    cfg: FedConfig,
    eval_fn: Callable[[ModelParams], float],
    init_params: ModelParams | None = None,
    workers: int = 1,
    round_hook: Callable[[RoundRecord], None] | None = None,
) -> FederatedResult:
    """Run FedAvg for cfg.rounds rounds and keep the best-evaluated checkpoint.

    Per-client work may run on threads; every client's update depends only on
    (current params, its data, a seed derived from (seed, round, client)), and
    aggregation sorts by client id, so results are identical at any worker count.
    """
    params = init_params if init_params is not None else build_model(spec, cfg.seed)
    client_data = [train_set.subset(list(c)) for c in partition.clients]
    best = GlobalCheckpoint(0, params, eval_fn(params))
    records: list[RoundRecord] = []

    def run_client(round_index: int, client_id: int, current: ModelParams) -> ClientUpdate:
        updated, count = local_update(
            current, client_data[client_id], cfg, derive_seed(cfg.seed, round_index, client_id)
        )
        return ClientUpdate(client_id, updated, count)

    for round_index in range(1, cfg.rounds + 1):
        chosen = sample_clients(len(partition), cfg.participation, round_index, cfg.seed)
        if workers > 1 and len(chosen) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                updates = list(pool.map(lambda cid: run_client(round_index, cid, params), chosen))
        else:
            updates = [run_client(round_index, cid, params) for cid in chosen]
        params = aggregate(updates, cfg.weighting)

        accuracy = None
        if round_index % cfg.eval_interval == 0 or round_index == cfg.rounds:
            accuracy = eval_fn(params)
            if accuracy > best.accuracy:
                best = GlobalCheckpoint(round_index, params, accuracy)
        record = RoundRecord(round_index, chosen, accuracy)
        records.append(record)
        if round_hook is not None:
            round_hook(record)
        log.debug("round %d: clients=%s accuracy=%s", round_index, chosen, accuracy)

    return FederatedResult(best=best, final=params, rounds=tuple(records))
