"""Per-client personalization: local baseline, full fine-tuning, freeze-base
fine-tuning, and the two expert-mixing variants with a trained linear gate.

The expert-mixing algorithms alternate, within every epoch, one adaptation
pass over the client's adaptation subset (updating only the personalized
classifier) with one gating pass over the gate subset (updating only the
gate weights, both experts frozen).

``pfl_fb``, ``pfl_mf`` and ``pfl_mfe`` freeze the extractor, so every
client's head (and gate) trains on cached features, and
:func:`personalize_heads` trains all clients as one stack in lockstep.
``pfl_fb`` is the adaptation pass alone: one head trainer serves all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, UsageError
from .federation import LossFn, check_workers, client_map, sgd_epoch, sgd_epochs
from .models import (
    ModelParams,
    ModelSpec,
    build_model,
    classify,
    classify_graph,
    extract_features,
    gate_graph,
    init_gate,
    param_consts,
)
from .numerics import graph
from .numerics.optim import OptimizerState, SgdConfig
# Unused here, but the benchmark's self-tests monkeypatch this name to switch
# off every optimizer step; keep it bound until they stop.
from .numerics.optim import sgd_step  # noqa: F401
from .numerics.tensor import Tensor

ALGORITHMS = ("local", "pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe")
# What each expert-mixing algorithm's gate reads: the flattened raw inputs
# (PFL-MF) or the shared extractor's features (PFL-MFE).
GATE_INPUT = {"pfl_mf": "raw", "pfl_mfe": "feature"}
MOE_ALGORITHMS = tuple(GATE_INPUT)


@dataclass(frozen=True)
class PersonalizationConfig:
    """One algorithm's personalization settings; ``config.DEFAULTS`` holds
    the reference values."""

    algorithm: str
    epochs: int
    adapt_lr: float
    gate_lr: float
    batch_size: int
    split_ratio: float
    adapt_momentum: float
    adapt_weight_decay: float

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: need at least 1, got {self.epochs}")
        for name in ("adapt_lr", "gate_lr"):
            value = getattr(self, name)
            if not 0.0 < value < float("inf"):
                raise ConfigError(f"{name}: must be positive and finite, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be positive, got {self.batch_size}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio: must lie in (0, 1), got {self.split_ratio}")
        if not 0.0 <= self.adapt_momentum < 1.0:
            raise ConfigError(f"adapt_momentum: must lie in [0, 1), got {self.adapt_momentum}")
        if not 0.0 <= self.adapt_weight_decay < float("inf"):
            raise ConfigError(f"adapt_weight_decay: must be finite and nonnegative, got {self.adapt_weight_decay}")

    def adapt_sgd(self) -> SgdConfig:
        # Fixed small lr, no decay, over the adaptation epochs.
        return SgdConfig(
            learning_rate=self.adapt_lr,
            momentum=self.adapt_momentum,
            weight_decay=self.adapt_weight_decay,
        )

    def gate_sgd(self) -> SgdConfig:
        return SgdConfig(learning_rate=self.gate_lr)


@dataclass(frozen=True)
class PersonalizedClient:
    """One client's personalization output plus the frozen global model."""

    client_id: int
    algorithm: str
    personalized: dict[str, Tensor]  # full model (local, pfl_ft) or classifier head (fb/mf/mfe)
    gate: dict[str, Tensor] | None  # {"weight": (input_dim, 1), "bias": (1,)} for mf/mfe
    global_model: ModelParams
    mean_g: float | None = None  # mean gate weight over the gate set it was trained on (mf/mfe)

    def __post_init__(self):
        if (self.gate is not None) != (self.algorithm in MOE_ALGORITHMS):
            raise ConfigError(f"gate must be present exactly for {MOE_ALGORITHMS}, got {self.algorithm}")


def train_local_baseline(
    client_data: LabeledDataset,
    spec: ModelSpec,
    seed: int,
    epochs: int,
    sgd: SgdConfig,
    batch_size: int,
    client_id: int = 0,
) -> ModelParams:
    """From-scratch training on the client's own data only."""
    # Shuffle stream must be independent of the init stream, which consumed seed.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return sgd_epochs(build_model(spec, seed), client_data, epochs, batch_size, sgd, rng, "local", client_id)


def pfl_ft(
    global_params: ModelParams,
    client_data: LabeledDataset,
    cfg: PersonalizationConfig,
    seed: int,
    client_id: int = 0,
) -> PersonalizedClient:
    """Fine-tune the whole model from the global parameters at a small lr."""
    trained = sgd_epochs(global_params, client_data, cfg.epochs, cfg.batch_size, cfg.adapt_sgd(),
                         np.random.default_rng(seed), "pfl_ft", client_id)
    return PersonalizedClient(client_id, "pfl_ft", trained.tensors, None, global_params)


def _head_loss(spec: ModelSpec, features: np.ndarray, labels: np.ndarray) -> LossFn:
    """Cross-entropy of a classifier head on precomputed extractor features."""
    def loss_fn(leaves, batch):
        return graph.cross_entropy(classify_graph(spec, leaves, graph.const(features[batch])), labels[batch])

    return loss_fn


def gate_loss(
    inputs: np.ndarray, global_logits: np.ndarray, local_logits: np.ndarray, labels: np.ndarray
) -> LossFn:
    """Cross-entropy of the gate's mixture of two frozen experts' logits, as a
    loss of the gate parameters ``{"weight", "bias"}``."""
    def loss_fn(leaves, batch):
        g = gate_graph(leaves, graph.const(inputs[batch]))
        mixed = graph.mix(g, graph.const(global_logits[batch]), graph.const(local_logits[batch]))
        return graph.cross_entropy(mixed, labels[batch])

    return loss_fn


@dataclass(frozen=True)
class HeadClient:
    """One client of a head-training stack: its id, the seed of its shuffles,
    its adaptation data, and for pfl_mf / pfl_mfe its gate subset."""

    client_id: int
    seed: int
    data: LabeledDataset
    gate_data: LabeledDataset | None = None


@dataclass(frozen=True)
class _Cached:
    """A head client's frozen-extractor view: features of its adaptation
    set, and for the mixtures the gate set's features, gate inputs and
    global-expert logits."""

    client_id: int
    seed: int
    features: np.ndarray
    labels: np.ndarray
    gate_features: Tensor | None = None
    gate_inputs: np.ndarray | None = None
    global_logits: np.ndarray | None = None
    gate_labels: np.ndarray | None = None


def _gate_inputs(mode: str, raw: Tensor, features: Tensor) -> Tensor:
    """What a gate reads: the flattened raw inputs or the shared features."""
    if mode == "raw":
        return Tensor._wrap(raw.data.reshape(len(raw), -1))
    return features


def _cache(model: ModelParams, client: HeadClient, algorithm: str) -> _Cached:
    """One client's extractor passes, each a call of its own: batching
    several clients into one pass would change the GEMM shapes, and bits."""
    input_mode = GATE_INPUT.get(algorithm)
    if input_mode is not None and client.gate_data is None:
        raise UsageError(f"{algorithm}: client {client.client_id} has no gate set (HeadClient.gate_data)")
    features = extract_features(model, client.data.features).data
    if input_mode is None:
        return _Cached(client.client_id, client.seed, features, client.data.labels)
    gate_raw = client.gate_data.features
    gate_feats = extract_features(model, gate_raw)
    return _Cached(
        client.client_id, client.seed, features, client.data.labels, gate_feats,
        _gate_inputs(input_mode, gate_raw, gate_feats).data, classify(model, gate_feats).data,
        client.gate_data.labels,
    )


def _stack(tensors: dict[str, Tensor], k: int) -> dict[str, np.ndarray]:
    """k writable copies of each tensor, stacked on a leading client axis."""
    return {name: np.repeat(t.data[None], k, axis=0) for name, t in tensors.items()}


def _unstack(stack: dict[str, np.ndarray], k: int) -> dict[str, Tensor]:
    """Client k's frozen slice of every stacked array."""
    return {name: Tensor._wrap(a[k]) for name, a in stack.items()}


def _train_heads(
    model: ModelParams, cached: list[_Cached], cfg: PersonalizationConfig, algorithm: str
) -> list[PersonalizedClient]:
    """Head adaptation of a stack, every client in lockstep: pfl_fb, and the
    shared body of the two expert-mixing algorithms.

    Per epoch: one adaptation pass over each adaptation subset (classifier
    only), then for pfl_mf / pfl_mfe one gating pass over each gate subset
    with the experts as they stand after that adaptation pass. A client's
    generator draws its adaptation shuffle, then its gate shuffle. The global
    classifier and the extractor never change; the extractor being shared
    lets every pass reuse cached activations.
    """
    heads = _stack(model.classifier, len(cached))
    adapt_loss = _head_loss(model.spec, np.concatenate([c.features for c in cached]),
                            np.concatenate([c.labels for c in cached]))
    sizes, ids = [len(c.labels) for c in cached], [c.client_id for c in cached]
    rngs = [np.random.default_rng(c.seed) for c in cached]
    adapt_state, adapt_sgd = OptimizerState(), cfg.adapt_sgd()
    mode = GATE_INPUT.get(algorithm)
    if mode is not None:
        gates = _stack(init_gate(model.spec, mode), len(cached))
        gate_inputs = np.concatenate([c.gate_inputs for c in cached])
        global_logits = np.concatenate([c.global_logits for c in cached])
        gate_labels = np.concatenate([c.gate_labels for c in cached])
        gate_sizes = [len(c.gate_labels) for c in cached]
        gate_state, gate_sgd = OptimizerState(), cfg.gate_sgd()
    for _ in range(cfg.epochs):
        sgd_epoch(heads, sizes, cfg.batch_size, adapt_loss, adapt_state, adapt_sgd, rngs, algorithm, ids)
        if mode is None:
            continue
        local_logits = np.concatenate([
            classify(model, c.gate_features, classifier={name: a[k] for name, a in heads.items()}).data
            for k, c in enumerate(cached)
        ])
        loss_fn = gate_loss(gate_inputs, global_logits, local_logits, gate_labels)
        sgd_epoch(gates, gate_sizes, cfg.batch_size, loss_fn, gate_state, gate_sgd, rngs, algorithm, ids)
    clients = []
    for k, c in enumerate(cached):
        gate = mean_g = None
        if mode is not None:
            gate = _unstack(gates, k)
            # The mean mixing weight g over the gate set, from the inputs already at hand.
            mean_g = float(gate_graph(param_consts(gate), graph.const(c.gate_inputs)).data.mean())
        clients.append(PersonalizedClient(c.client_id, algorithm, _unstack(heads, k), gate, model, mean_g))
    return clients


def personalize_heads(
    algorithm: str,
    model: ModelParams,
    clients: Iterable[HeadClient],
    cfg: PersonalizationConfig,
    workers: int = 1,
) -> list[PersonalizedClient]:
    """pfl_fb, pfl_mf or pfl_mfe for many clients, returned in input order.

    Each client's extractor passes run as it is read, so its raw adaptation
    subset can be freed before the next is built. The clients then train as
    one stack ordered by size, largest first, so every lockstep group is a
    contiguous slice. ``workers`` threads each train a strided shard of that
    order; a client's result does not depend on its shard.
    """
    if algorithm not in ("pfl_fb", *MOE_ALGORITHMS):
        raise ConfigError(f"algorithm: personalize_heads trains pfl_fb, pfl_mf or pfl_mfe, got {algorithm!r}")
    check_workers(workers)
    cached = [_cache(model, c, algorithm) for c in clients]

    def size(i: int) -> tuple[int, int]:
        gate_labels = cached[i].gate_labels
        return len(cached[i].labels), 0 if gate_labels is None else len(gate_labels)

    order = sorted(range(len(cached)), key=size, reverse=True)
    n_shards = min(workers, len(order))
    shards = [order[j::n_shards] for j in range(n_shards)]

    def train(shard: list[int]) -> list[PersonalizedClient]:
        return _train_heads(model, [cached[i] for i in shard], cfg, algorithm)

    out: list[PersonalizedClient | None] = [None] * len(cached)
    for shard, results in zip(shards, client_map(train, shards, workers)):
        for i, client in zip(shard, results):
            out[i] = client
    return out


def mixture(
    client: PersonalizedClient,
    raw: Tensor,
    features: Tensor,
    gate_override: float | None = None,
) -> tuple[Tensor, Tensor]:
    """The one mixture-inference path: per-example gate weights g and the
    mixed logits g * global + (1 - g) * personalized for an input batch.

    ``raw`` is the batch (B, C, S, S) and ``features`` the shared extractor's
    activations of it. ``gate_override`` in [0, 1] sets every g for boundary
    checks. Returns (g, logits).
    """
    if gate_override is not None and not 0.0 <= gate_override <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {gate_override}")
    if client.gate is None:
        raise UsageError(f"client {client.client_id} ({client.algorithm}) has no gating network")
    if gate_override is None:
        inputs = _gate_inputs(GATE_INPUT[client.algorithm], raw, features)
        g = gate_graph(param_consts(client.gate), graph.const(inputs)).data
    else:
        g = np.full(len(raw), float(gate_override))
    global_out = classify(client.global_model, features)
    local_out = classify(client.global_model, features, classifier=client.personalized)
    mixed = graph.mix(graph.const(g), graph.const(global_out), graph.const(local_out))
    return Tensor._wrap(g), Tensor._wrap(mixed.data)
