"""Tensor values, raw kernels, the recorded graph with analytic gradients, and SGD."""

from .tensor import Tensor, tensor, zeros, allclose
from .graph import Value, leaf, gradient
from .optim import OptimizerState, SgdConfig, sgd_step

__all__ = [
    "OptimizerState",
    "SgdConfig",
    "Tensor",
    "Value",
    "allclose",
    "gradient",
    "leaf",
    "sgd_step",
    "tensor",
    "zeros",
]
