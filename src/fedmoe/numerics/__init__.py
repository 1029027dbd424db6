"""Tensor values, raw kernels, the recorded graph with analytic gradients, and SGD."""

from .tensor import Tensor
from .graph import Value, leaf, gradient
from .optim import OptimizerState, SgdConfig, sgd_step

__all__ = [
    "OptimizerState",
    "SgdConfig",
    "Tensor",
    "Value",
    "gradient",
    "leaf",
    "sgd_step",
]
