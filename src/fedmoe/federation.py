"""FedAvg orchestration: client sampling, local updates, parameter averaging,
and best-checkpoint tracking."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .data import ClientPartition, LabeledDataset
from .errors import ConfigError, DimensionError, DivergenceError, UsageError
from .models import ModelParams, ModelSpec, build_model, forward_graph
from .numerics import graph
from .numerics.optim import OptimizerState, SgdConfig, sgd_step
from .numerics.tensor import Tensor

log = logging.getLogger(__name__)

WEIGHTING_MODES = ("sample", "uniform")

T = TypeVar("T")
R = TypeVar("R")


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


def client_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]`` on up to ``workers`` threads, in input order.

    One worker (or fewer than two items) runs on the calling thread, so
    Ctrl-C stops it at once and a profiler sees one stack; otherwise a pool
    of ``min(workers, len(items))`` threads. Every per-client loop of the
    package fans out here.
    """
    if workers < 1:
        raise UsageError(f"workers: must be positive, got {workers}")
    if workers == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def derive_seed(root: int, *key: int) -> int:
    """Stable per-(round, client, ...) seed derivation from one global seed."""
    return int(np.random.SeedSequence(root, spawn_key=tuple(key)).generate_state(1, np.uint64)[0])


# Maps (parameter leaves, batch rows) to the recorded scalar loss. For a group
# of G clients the leaves and rows carry a leading axis of G, and the loss is
# the sum of the clients' batch means; a group of one has no such axis.
LossFn = Callable[[dict[str, graph.Value], np.ndarray], graph.Value]


def _step_groups(sizes: Sequence[int], batch_size: int) -> list[list[tuple]]:
    """For each step t, the clients that have a t-th batch, grouped by its
    exact size, as (selection, members, batch size).

    A selection indexes the stack: a position for a group of one, a slice
    when the members are adjacent, else an index array. In a stack ordered
    by size, largest first, every group is adjacent.
    """
    steps = []
    for start in range(0, max(sizes, default=0), batch_size):
        groups: dict[int, list[int]] = {}
        for k, n in enumerate(sizes):
            if n > start:
                groups.setdefault(min(batch_size, n - start), []).append(k)
        step = []
        for size, members in groups.items():
            if len(members) == 1:
                sel = members[0]
            elif members[-1] - members[0] == len(members) - 1:
                sel = slice(members[0], members[-1] + 1)
            else:
                sel = np.array(members)
            step.append((sel, members, size))
        steps.append(step)
    return steps


def _check_finite(view: dict[str, np.ndarray], members: list[int], trainer: str,
                  client_ids: Sequence[int] | None, epoch: int) -> None:
    """Raise a DivergenceError naming the first client of a stepped group
    whose parameter is no longer finite."""
    for name, p in view.items():
        if np.isfinite(p).all():
            continue
        k = members[0] if len(members) == 1 else members[int(np.argmin(
            np.isfinite(p).reshape(len(members), -1).all(axis=1)))]
        raise DivergenceError(
            f"{trainer}: parameter {name!r} of client {k if client_ids is None else client_ids[k]} "
            f"is not finite after a step in epoch {epoch + 1}; lower the learning rate"
        )


def sgd_epoch(
    params: dict[str, np.ndarray],
    sizes: Sequence[int],
    batch_size: int,
    loss_fn: LossFn,
    state: OptimizerState,
    cfg: SgdConfig,
    rngs: Sequence[np.random.Generator],
    trainer: str = "sgd",
    client_ids: Sequence[int] | None = None,
) -> dict[str, np.ndarray]:
    """One epoch of minibatch SGD for a stack of K clients, in lockstep.

    ``params`` maps each name to a (K, ...) array and is updated in place.
    Client k shuffles its ``sizes[k]`` examples with ``rngs[k]``; its rows
    in the data ``loss_fn`` reads follow those of the clients before it.
    Step t trains every client that has a t-th batch, one group per batch
    size: one recorded loss on slices of the stack, then ``sgd_step`` on
    those slices, so each client gets exactly the updates it would get on
    its own. A client without a t-th batch is not touched. Every trainer in
    the package runs through this loop; they differ only in ``loss_fn``.
    """
    sizes = [int(n) for n in sizes]
    offsets = np.cumsum(sizes) - sizes
    order = np.concatenate([rng.permutation(n) + off for rng, n, off in zip(rngs, sizes, offsets)])
    names = list(params)
    first = not state.velocity  # step 0 of this epoch is every client's first step
    for t, groups in enumerate(_step_groups(sizes, batch_size)):
        start = t * batch_size
        for sel, members, size in groups:
            if isinstance(sel, int):
                rows = order[offsets[sel] + start : offsets[sel] + start + size]
            else:
                rows = order[(offsets[sel] + start)[:, None] + np.arange(size)]
            view = {name: p[sel] for name, p in params.items()}
            leaves = {name: graph.leaf(v) for name, v in view.items()}
            grads = graph.gradient(loss_fn(leaves, rows), list(leaves.values()))
            first_step = first and t == 0
            velocity = {} if first_step else {name: v[sel] for name, v in state.velocity.items()}
            step = OptimizerState(velocity, state.epoch)
            view = sgd_step(view, dict(zip(names, grads)), step, cfg)
            if first_step or isinstance(sel, np.ndarray):  # new buffers, or copies: store them
                for name, p in view.items():
                    params[name][sel] = p
                for name, v in step.velocity.items():
                    state.velocity.setdefault(name, np.zeros_like(params[name]))[sel] = v
            _check_finite(view, members, trainer, client_ids, state.epoch)
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
    trainer: str = "sgd",
    client_id: int = 0,
) -> dict[str, Tensor]:
    """Full-model minibatch SGD on the cross-entropy of (features, labels),
    as a stack of one client."""
    def loss_fn(leaves, batch):
        return graph.cross_entropy(forward_graph(spec, leaves, graph.const(features[batch])), labels[batch])

    stack = {name: t.data[None].copy() for name, t in params.items()}
    state = OptimizerState()
    for _ in range(epochs):
        sgd_epoch(stack, [len(labels)], batch_size, loss_fn, state, cfg, [rng], trainer, [client_id])
    return {name: Tensor._wrap(p[0]) for name, p in stack.items()}


def local_update(
    params: ModelParams, client_data: LabeledDataset, cfg: FedConfig, seed: int,
    trainer: str = "fedavg", client_id: int = 0,
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
        trainer,
        client_id,
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

    for round_index in range(1, cfg.rounds + 1):
        chosen = sample_clients(len(partition), cfg.participation, round_index, cfg.seed)

        def run_client(client_id: int) -> ClientUpdate:
            updated, count = local_update(
                params, client_data[client_id], cfg, derive_seed(cfg.seed, round_index, client_id),
                f"fedavg round {round_index}", client_id,
            )
            return ClientUpdate(client_id, updated, count)

        params = aggregate(client_map(run_client, chosen, workers), cfg.weighting)

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
