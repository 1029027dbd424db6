"""Reverse-mode gradients through the fixed layer set.

A forward pass builds :class:`Value` nodes (dense, conv, activations, loss,
expert mixing). Every computation the package records is a chain: each op
has at most one input that is itself a recorded op, and its other inputs are
leaves or constants. :func:`gradient` walks that chain back from the loss and
returns analytic gradients for the requested leaves.

Every node knows whether a gradient can reach it: a :func:`leaf` is tracked,
a :func:`const` is not, and an op is tracked if any parent is. An op on
constants only records nothing: it returns a constant with no parents and no
backward closure, so inference builds no graph and frees each activation as
soon as the next layer has read it. A tracked node's ``_backward(g)`` maps
the upstream gradient to one gradient per parent, None for constant parents.

``dense``, the activations, ``reshape``, ``mix`` and ``cross_entropy`` also
take a leading client axis: K clients' parameters and batches stacked, one
loss for all of them, each slice's gradient equal to that client's own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError, UsageError
from . import kernels
from .tensor import Tensor


class Value:
    """One node of a recorded computation: a result plus how to push gradients back."""

    __slots__ = ("data", "parents", "_backward", "tracked")

    def __init__(self, data: np.ndarray, parents: tuple = (), backward: Callable | None = None,
                 tracked: bool = True):
        self.data = data
        self.parents = parents
        self._backward = backward
        self.tracked = tracked


def _array(data) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    return np.asarray(data, dtype=np.float64)


def leaf(data) -> Value:
    """Wrap a parameter (or an input whose gradient is wanted) as a tracked leaf."""
    return Value(_array(data))


def const(data) -> Value:
    """Wrap data or a frozen parameter: no gradient flows to or through it."""
    return Value(_array(data), tracked=False)


def _record(out: np.ndarray, parents: tuple, backward: Callable) -> Value:
    """A tracked node if any parent is tracked, else a constant."""
    # A plain loop: a generator expression costs more on this per-op path.
    for parent in parents:
        if parent.tracked:
            return Value(out, parents, backward)
    return Value(out, tracked=False)


def dense(x: Value, w: Value, b: Value) -> Value:
    out = kernels.dense(x.data, w.data, b.data)

    def backward(g):
        return (
            g @ w.data.swapaxes(-1, -2) if x.tracked else None,
            x.data.swapaxes(-1, -2) @ g if w.tracked else None,
            g.sum(axis=-2) if b.tracked else None,
        )

    return _record(out, (x, w, b), backward)


def conv2d(x: Value, k: Value, b: Value) -> Value:
    khw = (k.data.shape[2], k.data.shape[3])
    if k.tracked:  # keep the patch matrix for the kernel gradient
        out, cols = kernels.conv2d(x.data, k.data, b.data, keep_cols=True)
    else:
        out, cols = kernels.conv2d(x.data, k.data, b.data), None

    def backward(g):
        return (
            kernels.conv2d_input_grad(g, k.data) if x.tracked else None,
            kernels.conv2d_kernel_grad(x.data, g, khw, cols) if k.tracked else None,
            g.sum(axis=(0, 2, 3)) if b.tracked else None,
        )

    return _record(out, (x, k, b), backward)


def relu(x: Value) -> Value:
    out = kernels.relu(x.data)
    return _record(out, (x,), lambda g: (g * (x.data > 0),))


def sigmoid(x: Value) -> Value:
    out = kernels.sigmoid(x.data)
    return _record(out, (x,), lambda g: (g * out * (1.0 - out),))


def max_pool2x2(x: Value) -> Value:
    out, routing = kernels.max_pool2x2(x.data, with_routing=x.tracked)
    return _record(out, (x,), lambda g: (kernels.max_pool2x2_grad(g, routing),))


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    out = x.data.reshape(shape)
    return _record(out, (x,), lambda g: (g.reshape(x.data.shape),))


def flatten(x: Value) -> Value:
    """Collapse all but the leading (batch) axis."""
    return reshape(x, (x.data.shape[0], -1))


def mix(g: Value, global_out: Value, local_out: Value) -> Value:
    """Per-row convex mixing of two expert outputs: g*global + (1-g)*local.

    ``g`` has shape (..., batch), the experts (..., batch, classes); the
    gradient with respect to g is the per-row inner product of the upstream
    gradient with the expert difference.
    """
    if global_out.data.shape != local_out.data.shape or global_out.data.shape[:-1] != g.data.shape:
        raise DimensionError(
            f"mix: gate {g.data.shape} does not conform with experts "
            f"{global_out.data.shape} and {local_out.data.shape}"
        )
    gw = g.data[..., None]
    out = gw * global_out.data + (1.0 - gw) * local_out.data

    def backward(d):
        return (
            (d * (global_out.data - local_out.data)).sum(axis=-1) if g.tracked else None,
            d * gw if global_out.tracked else None,
            d * (1.0 - gw) if local_out.tracked else None,
        )

    return _record(out, (g, global_out, local_out), backward)


class Loss(Value):
    """A recorded scalar loss whose value is computed when ``data`` is first
    read: training needs only its gradient, tests and reports its value."""

    __slots__ = ("_value", "_compute")

    def __init__(self, compute: Callable[[], float], logits: Value, backward: Callable):
        self._value, self._compute, self.tracked = None, compute, logits.tracked
        self.parents, self._backward = ((logits,), backward) if logits.tracked else ((), None)

    @property
    def data(self) -> np.ndarray:
        if self._value is None:
            self._value = np.asarray(self._compute())
        return self._value


def cross_entropy(logits: Value, labels: Sequence[int]) -> Loss:
    y = np.asarray(labels, dtype=np.int64)

    def backward(g):
        return (g * kernels.cross_entropy_grad(logits.data, y),)

    return Loss(lambda: kernels.cross_entropy(logits.data, y), logits, backward)


def gradient(loss: Value, params: Sequence[Value]) -> list[np.ndarray]:
    """Gradients of a recorded scalar loss with respect to each leaf in ``params``.

    The walk starts at the loss and follows each op's one tracked input that is
    itself an op; the op's other tracked inputs are leaves, which collect their
    gradients on the way (summed if a leaf is reached twice). An op with two
    tracked op inputs is a branching computation and raises UsageError.
    Constant inputs and frozen parameters cost no backward work.
    """
    if not isinstance(loss, Loss) and loss.data.ndim != 0:
        raise UsageError(f"gradient needs a scalar loss, got shape {loss.data.shape}")
    found: dict[Value, np.ndarray] = {}
    node, g = loss, np.ones(())
    while node._backward is not None:
        upstream = None
        for parent, pg in zip(node.parents, node._backward(g)):
            if pg is None:
                continue
            if parent._backward is None:
                found[parent] = found[parent] + pg if parent in found else pg
            elif upstream is None:
                upstream = (parent, pg)
            else:
                raise UsageError("gradient needs a chain: an op has two recorded ops among its inputs")
        if upstream is None:
            break
        node, g = upstream
    out = []
    for p in params:
        if p not in found:
            raise UsageError("gradient requested for a tensor that is not on the recorded path to the loss")
        out.append(np.asarray(found[p], dtype=np.float64))
    return out
