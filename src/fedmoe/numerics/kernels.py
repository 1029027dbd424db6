"""Raw ndarray math behind the recorded graph and the inference paths.

Everything here is float64 in, float64 out, with no shape validation;
callers are responsible for conformance checks.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Valid cross-correlation, stride 1: out[n,f,i,j] = sum_cpq x[n,c,i+p,j+q] k[f,c,p,q] + b[f]
    windows = sliding_window_view(x, k.shape[2:], axis=(2, 3))
    out = np.einsum("ncijpq,fcpq->nfij", windows, k, optimize=True)
    return out + b[None, :, None, None]


def conv2d_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    # Full correlation of dy with the spatially flipped kernels.
    kh, kw = k.shape[2], k.shape[3]
    pad = np.pad(dy, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    windows = sliding_window_view(pad, (kh, kw), axis=(2, 3))
    return np.einsum("nfuvpq,fcpq->ncuv", windows, k[:, :, ::-1, ::-1], optimize=True)


def conv2d_kernel_grad(x: np.ndarray, dy: np.ndarray, khw: tuple[int, int]) -> np.ndarray:
    windows = sliding_window_view(x, khw, axis=(2, 3))
    return np.einsum("ncijpq,nfij->fcpq", windows, dy, optimize=True)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable in both tails; float64 saturates to exactly 0/1 beyond |x| ~ 37.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def max_pool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2, stride-2 max pooling on (..., H, W). Returns (pooled, routing mask).

    The mask marks, for each output cell, the first maximal position of its
    window in row-major order, which fixes the gradient tie-break.
    """
    h, w = x.shape[-2], x.shape[-1]
    lead = x.shape[:-2]
    win = x.reshape(lead + (h // 2, 2, w // 2, 2))
    axes = list(range(len(lead)))
    win = win.transpose(axes + [len(lead), len(lead) + 2, len(lead) + 1, len(lead) + 3])
    win = win.reshape(lead + (h // 2, w // 2, 4))
    pooled = win.max(axis=-1)
    eq = win == pooled[..., None]
    first = eq & (np.cumsum(eq, axis=-1) == 1)
    return pooled, first


def max_pool2x2_grad(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    lead = dy.shape[:-2]
    h2, w2 = dy.shape[-2], dy.shape[-1]
    routed = mask * dy[..., None]
    routed = routed.reshape(lead + (h2, w2, 2, 2))
    axes = list(range(len(lead)))
    routed = routed.transpose(axes + [len(lead), len(lead) + 2, len(lead) + 1, len(lead) + 3])
    return routed.reshape(lead + (h2 * 2, w2 * 2))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    lsm = log_softmax(logits)
    return float(-lsm[np.arange(len(labels)), labels].mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = softmax(logits)
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)
