"""Raw ndarray math behind the recorded graph and the inference paths.

Everything here is float64 in, float64 out, with no shape validation;
callers are responsible for conformance checks. ``dense`` and the
cross-entropy kernels also take a leading client axis: a stack of K
clients' batches, each slice computed as on its own.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b[..., None, :]


def _im2col(x: np.ndarray, khw: tuple[int, int]) -> np.ndarray:
    """Patch matrix of a valid stride-1 convolution: shape (C*kh*kw, N*oh*ow),
    rows ordered (c, p, q) to match ``k.reshape(F, -1)``, columns (n, i, j)."""
    windows = sliding_window_view(x, khw, axis=(2, 3))  # (N, C, oh, ow, kh, kw)
    n, c, oh, ow = windows.shape[:4]
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * khw[0] * khw[1], n * oh * ow)


# Inference convolves this many images per GEMM, so the patch matrix stays
# cache-sized at large batches.
CONV_BLOCK = 32


def conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray, *, keep_cols: bool = False):
    """Valid cross-correlation, stride 1: out[n,f,i,j] = sum_cpq x[n,c,i+p,j+q] k[f,c,p,q] + b[f].

    With ``keep_cols`` the whole batch is one GEMM and the call returns
    ``(out, cols)``, the patch matrix for :func:`conv2d_kernel_grad`.
    Otherwise the batch runs in blocks of CONV_BLOCK images, a remainder
    joining the last block, and the call returns ``out``. Every block then
    holds at least CONV_BLOCK images: a small remainder block made OpenBLAS
    pick another GEMM path, changing the last bit of some outputs.
    """
    f, _, kh, kw = k.shape
    n, oh, ow = x.shape[0], x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.empty((n, f, oh, ow))
    kmat, bias = k.reshape(f, -1), b[None, :, None, None]
    bounds = [0, n] if keep_cols else list(range(0, n, CONV_BLOCK))[: max(n // CONV_BLOCK, 1)] + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        cols = _im2col(x[lo:hi], (kh, kw))
        # Adding the bias writes the result in NCHW order, which the next layers read.
        np.add((kmat @ cols).reshape(f, hi - lo, oh, ow).transpose(1, 0, 2, 3), bias, out=out[lo:hi])
    return (out, cols) if keep_cols else out


def conv2d_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Gradient of conv2d with respect to its input, as an NCHW view of a
    channel-major (C, N, H, W) buffer."""
    # GEMM into patch space, then col2im: each kernel offset (p, q) adds its
    # patch-space slice, already (C, N, oh, ow), back onto the input positions
    # it read. The GEMM stays k.T @ dy: the patch-major product
    # k.transpose(2, 3, 1, 0).reshape(-1, F) @ dy changes the last bit of
    # some gradients at odd batch sizes.
    n, f, oh, ow = dy.shape
    c, kh, kw = k.shape[1:]
    cols = (k.reshape(f, -1).T @ dy.transpose(1, 0, 2, 3).reshape(f, -1)).reshape(c, kh, kw, n, oh, ow)
    dx = np.zeros((c, n, oh + kh - 1, ow + kw - 1))
    for p in range(kh):
        for q in range(kw):
            dx[:, :, p : p + oh, q : q + ow] += cols[:, p, q]
    return dx.transpose(1, 0, 2, 3)


def conv2d_kernel_grad(
    x: np.ndarray, dy: np.ndarray, khw: tuple[int, int], cols: np.ndarray | None = None
) -> np.ndarray:
    """``cols`` is ``x``'s patch matrix if the forward pass kept it."""
    f = dy.shape[1]
    if cols is None:
        cols = _im2col(x, khw)
    dk = dy.transpose(1, 0, 2, 3).reshape(f, -1) @ cols.T
    return dk.reshape(f, x.shape[1], khw[0], khw[1])


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


def max_pool2x2(x: np.ndarray, *, with_routing: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """2x2, stride-2 max pooling on (..., H, W). Returns (pooled, routing).

    ``routing`` is an int8 array of the pooled shape holding, for each output
    cell, the row-major offset 0..3 of the first maximal cell of its window
    (0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right), which fixes the
    gradient tie-break. Inference, which needs no gradient, passes
    ``with_routing=False`` and gets None instead.
    """
    a, b, c, d = (x[..., i::2, j::2] for i in (0, 1) for j in (0, 1))
    top, bottom = np.maximum(a, b), np.maximum(c, d)
    if not with_routing:
        return np.maximum(top, bottom), None
    # First maximum in row-major order: the top row unless the bottom row's
    # maximum is strictly larger, then the left cell unless the right one is.
    lower = top < bottom
    right = np.where(lower, c < d, a < b)
    return np.maximum(top, bottom), 2 * lower.view(np.int8) + right.view(np.int8)


def max_pool2x2_grad(dy: np.ndarray, routing: np.ndarray) -> np.ndarray:
    dx = np.zeros(dy.shape[:-2] + (2 * dy.shape[-2], 2 * dy.shape[-1]))
    for offset in range(4):
        i, j = divmod(offset, 2)
        np.multiply(dy, routing == offset, out=dx[..., i::2, j::2])
    return dx


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean loss over the batch axis, summed over a leading client axis."""
    picked = log_softmax(logits)[(*np.indices(labels.shape, sparse=True), labels)]
    return float(-picked.mean(axis=-1).sum())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = softmax(logits)
    p[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    return p / labels.shape[-1]
