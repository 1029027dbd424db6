"""SGD with momentum, L2 weight decay, and stepped learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DimensionError


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_decay_factor: float = 1.0
    lr_decay_every: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate: must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < float("inf"):
            raise ConfigError(f"weight_decay: must be finite and nonnegative, got {self.weight_decay}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor: must lie in (0, 1], got {self.lr_decay_factor}")
        if self.lr_decay_every < 0:
            raise ConfigError(f"lr_decay_every: must be nonnegative, got {self.lr_decay_every}")

    def effective_lr(self, epoch: int) -> float:
        if self.lr_decay_every > 0:
            return self.learning_rate * self.lr_decay_factor ** (epoch // self.lr_decay_every)
        return self.learning_rate


@dataclass
class OptimizerState:
    """Per-parameter momentum buffers plus the epoch counter driving lr decay.

    Single-owner mutable: each training loop keeps its own state and bumps
    ``epoch`` once per data pass. A buffer is shaped like its parameter, so a
    client stack's buffers carry the stack axis too.
    """

    velocity: dict[str, np.ndarray] = field(default_factory=dict)
    epoch: int = 0


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    cfg: SgdConfig,
) -> dict[str, np.ndarray]:
    """One update, in place: v <- m*v + (grad + wd*param); param <- param - lr_epoch * v.

    A parameter without a velocity buffer takes its first step, which sets
    v to exactly grad + wd*param. Returns ``params``, now updated.
    """
    lr = cfg.effective_lr(state.epoch)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"sgd_step: gradient {g.shape} does not match parameter {name!r} {p.shape}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p
        if cfg.momentum:
            v = state.velocity.get(name)
            if v is None:
                g = state.velocity[name] = np.array(g)
            else:
                v *= cfg.momentum
                v += g
                g = v
        p -= lr * g
    return params
