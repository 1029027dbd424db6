"""Reverse-mode gradient accumulation through the fixed layer set.

A forward pass builds :class:`Value` nodes (dense, conv, activations, loss,
expert mixing); :func:`gradient` then walks the recorded graph backwards and
returns analytic gradients for the requested parameter nodes.

Each node's ``_backward(g, needed)`` maps the upstream gradient to one
gradient per parent; ``needed`` flags the parents that lie on a path to a
requested node, and an op may return None for the others instead of
computing them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError, UsageError
from . import kernels
from .tensor import Tensor


class Value:
    """One node of a recorded computation: a result plus how to push gradients back."""

    __slots__ = ("data", "parents", "_backward")

    def __init__(self, data: np.ndarray, parents: tuple = (), backward: Callable | None = None):
        self.data = data
        self.parents = parents
        self._backward = backward


def leaf(data) -> Value:
    """Wrap an input or parameter as a graph leaf."""
    if isinstance(data, Tensor):
        data = data.data
    return Value(np.asarray(data, dtype=np.float64))


def _as_value(x) -> Value:
    return x if isinstance(x, Value) else leaf(x)


def dense(x: Value, w: Value, b: Value) -> Value:
    out = kernels.dense(x.data, w.data, b.data)

    def backward(g, needed):
        return (
            g @ w.data.T if needed[0] else None,
            x.data.T @ g if needed[1] else None,
            g.sum(axis=0) if needed[2] else None,
        )

    return Value(out, (x, w, b), backward)


def conv2d(x: Value, k: Value, b: Value) -> Value:
    out = kernels.conv2d(x.data, k.data, b.data)
    khw = (k.data.shape[2], k.data.shape[3])

    def backward(g, needed):
        return (
            kernels.conv2d_input_grad(g, k.data) if needed[0] else None,
            kernels.conv2d_kernel_grad(x.data, g, khw) if needed[1] else None,
            g.sum(axis=(0, 2, 3)) if needed[2] else None,
        )

    return Value(out, (x, k, b), backward)


def relu(x: Value) -> Value:
    out = kernels.relu(x.data)

    def backward(g, _):
        return (g * (x.data > 0),)

    return Value(out, (x,), backward)


def sigmoid(x: Value) -> Value:
    out = kernels.sigmoid(x.data)

    def backward(g, _):
        return (g * out * (1.0 - out),)

    return Value(out, (x,), backward)


def max_pool2x2(x: Value) -> Value:
    out, routing = kernels.max_pool2x2(x.data)

    def backward(g, _):
        return (kernels.max_pool2x2_grad(g, routing),)

    return Value(out, (x,), backward)


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    out = x.data.reshape(shape)

    def backward(g, _):
        return (g.reshape(x.data.shape),)

    return Value(out, (x,), backward)


def flatten(x: Value) -> Value:
    """Collapse all but the leading (batch) axis."""
    return reshape(x, (x.data.shape[0], -1))


def add(a: Value, b: Value) -> Value:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    return Value(a.data + b.data, (a, b), lambda g, _: (g, g))


def mul(a: Value, b: Value) -> Value:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    return Value(a.data * b.data, (a, b), lambda g, _: (g * b.data, g * a.data))


def sum_all(x: Value) -> Value:
    def backward(g, _):
        return (np.broadcast_to(g, x.data.shape),)

    return Value(np.asarray(x.data.sum()), (x,), backward)


def mix(g: Value, global_out: Value, local_out: Value) -> Value:
    """Per-row convex mixing of two expert outputs: g*global + (1-g)*local.

    ``g`` has shape (batch,), the experts (batch, classes); the gradient with
    respect to g is the per-row inner product of the upstream gradient with
    the expert difference.
    """
    if g.data.ndim != 1 or global_out.data.shape != local_out.data.shape or \
            global_out.data.shape[0] != g.data.shape[0]:
        raise DimensionError(
            f"mix: gate {g.data.shape} does not conform with experts "
            f"{global_out.data.shape} and {local_out.data.shape}"
        )
    gw = g.data[:, None]
    out = gw * global_out.data + (1.0 - gw) * local_out.data

    def backward(d, _):
        return (
            (d * (global_out.data - local_out.data)).sum(axis=1),
            d * gw,
            d * (1.0 - gw),
        )

    return Value(out, (g, global_out, local_out), backward)


def cross_entropy(logits: Value, labels: Sequence[int]) -> Value:
    y = np.asarray(labels, dtype=np.int64)
    loss = kernels.cross_entropy(logits.data, y)

    def backward(g, _):
        return (g * kernels.cross_entropy_grad(logits.data, y),)

    return Value(np.asarray(loss), (logits,), backward)


def _topo_order(root: Value) -> list[Value]:
    order: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def gradient(loss: Value, params: Sequence[Value]) -> list[np.ndarray]:
    """Gradients of a recorded scalar loss with respect to each parameter node.

    Only nodes on a path from a requested node to the loss receive a
    gradient, so inputs and frozen parameters cost no backward work.
    """
    if loss.data.ndim != 0:
        raise UsageError(f"gradient needs a scalar loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    needed = {id(p) for p in params}
    for node in order:  # parents before children
        for parent in node.parents:
            if id(parent) in needed:
                needed.add(id(node))
                break
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._backward is None:
            continue
        mask = [id(parent) in needed for parent in node.parents]
        for parent, need, pg in zip(node.parents, mask, node._backward(g, mask)):
            if not need:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    out = []
    for p in params:
        g = grads.get(id(p))
        if g is None:
            raise UsageError("gradient requested for a tensor that is not on the recorded path to the loss")
        out.append(np.asarray(g, dtype=np.float64))
    return out
