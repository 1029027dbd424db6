"""Per-client personalization: local baseline, full fine-tuning, freeze-base
fine-tuning, and the two expert-mixing variants with a trained linear gate.

The expert-mixing algorithms alternate, within every epoch, one adaptation
pass over the client's adaptation subset (updating only the personalized
classifier) with one gating pass over the gate subset (updating only the
gate weights, both experts frozen).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, UsageError
from .federation import LossFn, sgd_epoch, sgd_epochs
from .models import (
    GatingParams,
    ModelParams,
    ModelSpec,
    SplitModel,
    build_model,
    classify,
    classify_graph,
    extract_features,
    gate_forward,
    init_gate,
    mix_outputs,
    split_model,
)
from .numerics import graph
from .numerics.optim import OptimizerState, SgdConfig
# Unused here, but the benchmark's self-tests monkeypatch this name to switch
# off every optimizer step; keep it bound until they stop.
from .numerics.optim import sgd_step  # noqa: F401
from .numerics.tensor import Tensor

ALGORITHMS = ("local", "pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe")
MOE_ALGORITHMS = ("pfl_mf", "pfl_mfe")

# Local baseline defaults: 300 epochs of SGD with momentum 0.9, lr 0.1,
# weight decay 5e-4, batch 64, lr decayed by 0.1 every 100 epochs.
LOCAL_BASELINE_SGD = SgdConfig(
    learning_rate=0.1, momentum=0.9, weight_decay=0.0005, lr_decay_factor=0.1, lr_decay_every=100
)
LOCAL_BASELINE_EPOCHS = 300
LOCAL_BASELINE_BATCH = 64


@dataclass(frozen=True)
class PersonalizationConfig:
    algorithm: str
    epochs: int = 200
    adapt_lr: float = 0.001
    gate_lr: float = 0.001
    batch_size: int = 64
    split_ratio: float = 0.8
    adapt_momentum: float = 0.9
    adapt_weight_decay: float = 0.0005

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {self.algorithm!r}")
        min_epochs = 0 if self.algorithm == "local" else 1
        if self.epochs < min_epochs:
            raise ConfigError(f"epochs: need at least {min_epochs} for {self.algorithm}, got {self.epochs}")
        if not self.adapt_lr > 0:
            raise ConfigError(f"adapt_lr: must be positive, got {self.adapt_lr}")
        if not self.gate_lr > 0:
            raise ConfigError(f"gate_lr: must be positive, got {self.gate_lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be positive, got {self.batch_size}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio: must lie in (0, 1), got {self.split_ratio}")

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
    """One client's personalization output plus its frozen global reference."""

    client_id: int
    algorithm: str
    personalized: dict[str, Tensor]  # full model (pfl_ft) or classifier head (fb/mf/mfe)
    gate: GatingParams | None
    split: SplitModel

    def __post_init__(self):
        if (self.gate is not None) != (self.algorithm in MOE_ALGORITHMS):
            raise ConfigError(f"gate must be present exactly for {MOE_ALGORITHMS}, got {self.algorithm}")


def train_local_baseline(
    client_data: LabeledDataset,
    spec: ModelSpec,
    seed: int,
    epochs: int = LOCAL_BASELINE_EPOCHS,
    sgd: SgdConfig = LOCAL_BASELINE_SGD,
    batch_size: int = LOCAL_BASELINE_BATCH,
) -> ModelParams:
    """From-scratch training on the client's own data only."""
    params = build_model(spec, seed)
    # Shuffle stream must be independent of the init stream, which consumed seed.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    trained = sgd_epochs(
        params.tensors, spec, client_data.features.data, client_data.labels, epochs, batch_size, sgd, rng
    )
    return ModelParams(spec, trained)


def pfl_ft(
    global_params: ModelParams,
    client_data: LabeledDataset,
    cfg: PersonalizationConfig,
    seed: int,
    client_id: int = 0,
) -> PersonalizedClient:
    """Fine-tune the whole model from the global parameters at a small lr."""
    rng = np.random.default_rng(seed)
    trained = sgd_epochs(
        global_params.tensors,
        global_params.spec,
        client_data.features.data,
        client_data.labels,
        cfg.epochs,
        cfg.batch_size,
        cfg.adapt_sgd(),
        rng,
    )
    return PersonalizedClient(
        client_id=client_id,
        algorithm="pfl_ft",
        personalized=trained,
        gate=None,
        split=split_model(global_params),
    )


def _head_loss(spec: ModelSpec, features: np.ndarray, labels: np.ndarray) -> LossFn:
    """Cross-entropy of a classifier head on precomputed extractor features."""
    def loss_fn(leaves, batch):
        return graph.cross_entropy(classify_graph(spec, leaves, graph.leaf(features[batch])), labels[batch])

    return loss_fn


def gate_loss(
    inputs: np.ndarray, global_logits: np.ndarray, local_logits: np.ndarray, labels: np.ndarray
) -> LossFn:
    """Cross-entropy of the gate's mixture of two frozen experts' logits, as a
    loss of the gate parameters ``{"weight", "bias"}``."""
    def loss_fn(leaves, batch):
        score = graph.dense(graph.leaf(inputs[batch]), leaves["weight"], leaves["bias"])
        g = graph.sigmoid(graph.reshape(score, (len(batch),)))
        mixed = graph.mix(g, graph.leaf(global_logits[batch]), graph.leaf(local_logits[batch]))
        return graph.cross_entropy(mixed, labels[batch])

    return loss_fn


def pfl_fb(
    split: SplitModel,
    client_data: LabeledDataset,
    cfg: PersonalizationConfig,
    seed: int,
    client_id: int = 0,
) -> PersonalizedClient:
    """Freeze-base fine-tuning: extractor untouched, classifier adapted.

    The extractor is frozen, so its activations are computed once and the
    adaptation epochs run on the classifier head alone.
    """
    features = extract_features(split, client_data.features).data
    loss_fn = _head_loss(split.spec, features, client_data.labels)
    classifier = dict(split.classifier)
    state = OptimizerState()
    rng = np.random.default_rng(seed)
    sgd = cfg.adapt_sgd()
    for _ in range(cfg.epochs):
        classifier = sgd_epoch(classifier, len(client_data), cfg.batch_size, loss_fn, state, sgd, rng)
    return PersonalizedClient(
        client_id=client_id, algorithm="pfl_fb", personalized=classifier, gate=None, split=split
    )


def _gate_inputs(mode: str, raw: Tensor, features: Tensor | None) -> Tensor:
    """What a gate reads: the flattened raw inputs or the shared features."""
    if mode == "raw":
        return Tensor._wrap(raw.data.reshape(len(raw), -1))
    return features


def _run_moe(
    client_id: int,
    per_data: LabeledDataset,
    gate_data: LabeledDataset,
    split: SplitModel,
    cfg: PersonalizationConfig,
    input_mode: str,
    seed: int,
) -> PersonalizedClient:
    """Shared body of the two expert-mixing algorithms.

    Per epoch: one adaptation pass over the adaptation subset (classifier
    only), then one gating pass over the gate subset with the experts as they
    stand after that adaptation pass. The global classifier and the extractor
    never change; the extractor being shared lets every pass reuse cached
    activations.
    """
    spec = split.spec
    per_feats = extract_features(split, per_data.features).data
    gate_feats = extract_features(split, gate_data.features)
    global_logits = classify(split, gate_feats).data
    gate_inputs = _gate_inputs(input_mode, gate_data.features, gate_feats).data
    adapt_loss = _head_loss(spec, per_feats, per_data.labels)

    classifier = dict(split.classifier)
    gate = {"weight": init_gate(spec, input_mode).weights, "bias": Tensor._wrap(np.zeros(1))}
    adapt_state, gate_state = OptimizerState(), OptimizerState()
    adapt_sgd, gate_sgd = cfg.adapt_sgd(), cfg.gate_sgd()
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        classifier = sgd_epoch(
            classifier, len(per_data), cfg.batch_size, adapt_loss, adapt_state, adapt_sgd, rng
        )
        local_logits = classify(split, gate_feats, classifier=classifier).data
        loss_fn = gate_loss(gate_inputs, global_logits, local_logits, gate_data.labels)
        gate = sgd_epoch(gate, len(gate_data), cfg.batch_size, loss_fn, gate_state, gate_sgd, rng)
    return PersonalizedClient(
        client_id=client_id,
        algorithm="pfl_mf" if input_mode == "raw" else "pfl_mfe",
        personalized=classifier,
        gate=GatingParams(gate["weight"], float(gate["bias"].data[0]), input_mode),
        split=split,
    )


def run_pfl_mf(
    client_id: int,
    per_data: LabeledDataset,
    gate_data: LabeledDataset,
    split: SplitModel,
    cfg: PersonalizationConfig,
    seed: int,
) -> PersonalizedClient:
    """Expert mixing with the gate reading raw (flattened) inputs."""
    return _run_moe(client_id, per_data, gate_data, split, cfg, "raw", seed)


def run_pfl_mfe(
    client_id: int,
    per_data: LabeledDataset,
    gate_data: LabeledDataset,
    split: SplitModel,
    cfg: PersonalizationConfig,
    seed: int,
) -> PersonalizedClient:
    """Expert mixing with the gate reading extractor activations."""
    return _run_moe(client_id, per_data, gate_data, split, cfg, "feature", seed)


def mixture(
    client: PersonalizedClient,
    raw: Tensor,
    features: Tensor | None = None,
    gate_override: float | None = None,
) -> tuple[Tensor | float, Tensor | None]:
    """The one mixture-inference path: per-example gate weights g and the
    mixed logits g * global + (1 - g) * personalized for an input batch.

    ``raw`` is the batch (B, C, S, S) and ``features`` the shared extractor's
    activations of it. Mixing needs the features, so without them the logits
    are None and only g is computed: a feature-reading gate then extracts its
    own inputs, a raw-reading gate never runs the extractor.
    ``gate_override`` clamps g for boundary checks. Returns (g, logits).
    """
    if client.gate is None:
        raise UsageError(f"client {client.client_id} ({client.algorithm}) has no gating network")
    if gate_override is not None:
        g = gate_override
    elif features is None and client.gate.input_mode == "feature":
        g = gate_forward(client.gate, extract_features(client.split, raw))
    else:
        g = gate_forward(client.gate, _gate_inputs(client.gate.input_mode, raw, features))
    if features is None:
        return g, None
    global_out = classify(client.split, features)
    local_out = classify(client.split, features, classifier=client.personalized)
    return g, mix_outputs(g, global_out, local_out)


def moe_predict(x: Tensor, client: PersonalizedClient, gate_override: float | None = None) -> Tensor:
    """Mixture logits for a batch (B, C, S, S) or a single example (C, S, S)."""
    single = x.ndim == 3
    xb = Tensor._wrap(x.data[None]) if single else x
    _, mixed = mixture(client, xb, extract_features(client.split, xb), gate_override)
    return Tensor._wrap(mixed.data[0]) if single else mixed


def mean_gate_weight(client: PersonalizedClient, gate_data: LabeledDataset) -> float:
    """Average mixing weight g over a gate set; the global expert's share."""
    g, _ = mixture(client, gate_data.features)
    return float(g.data.mean())
