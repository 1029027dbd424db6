"""Raw ndarray math behind the recorded graph and the inference paths.

Everything here is float64 in, float64 out, with no shape validation;
callers are responsible for conformance checks. ``dense`` and the
cross-entropy kernels also take a leading client axis: a stack of K
clients' batches, each slice computed as on its own.

Memory order of the conv and pool kernels: their arguments and results
have NCHW shapes, (N, C, H, W), and they accept any strides. What they
return is an NCHW view of a batch-innermost buffer, (C, H, W, N) in
memory, so each im2col copy, pool slice and col2im add runs over ow*N or
N contiguous values, and the next kernel reads it without a copy. A
kernel's result does not depend on the memory order of its inputs, bit
for bit. The (N, 400) features leave this order through
``graph.flatten``'s reshape, which copies them into row-major order.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b[..., None, :]


def _im2col(x: np.ndarray, khw: tuple[int, int]) -> np.ndarray:
    """Patch matrix of a valid stride-1 convolution: shape (C*kh*kw, oh*ow*N),
    rows ordered (c, p, q) to match ``k.reshape(F, -1)``, columns (i, j, n).
    On a batch-innermost ``x`` the copy reads runs of ow*N values."""
    windows = sliding_window_view(x.transpose(1, 2, 3, 0), khw, axis=(1, 2))  # (C, oh, ow, N, kh, kw)
    c, oh, ow, n = windows.shape[:4]
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * khw[0] * khw[1], oh * ow * n)


# Inference convolves about this many images' worth of patch-matrix columns
# per GEMM, so the patch matrix stays cache-sized at large batches.
CONV_BLOCK = 32


def _batch_innermost(a: np.ndarray) -> np.ndarray:
    """``a`` (N, C, H, W) as an NCHW view of a (C, H, W, N) buffer; no copy
    if it is one already."""
    if a.transpose(1, 2, 3, 0).flags.c_contiguous:
        return a
    out = np.empty(a.shape[1:] + a.shape[:1])
    # CONV_BLOCK images at a time: a whole-batch copy reads with a stride of
    # one image and took three times as long at 400 images.
    for lo in range(0, a.shape[0], CONV_BLOCK):
        out[..., lo : lo + CONV_BLOCK] = a[lo : lo + CONV_BLOCK].transpose(1, 2, 3, 0)
    return out.transpose(3, 0, 1, 2)


def conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray, *, keep_cols: bool = False):
    """Valid cross-correlation, stride 1: out[n,f,i,j] = sum_cpq x[n,c,i+p,j+q] k[f,c,p,q] + b[f].

    ``x`` may have any strides; one that is not batch-innermost is copied to
    that order first. ``out`` is an NCHW view of an (F, oh, ow, N) buffer,
    which the GEMM writes in place.

    With ``keep_cols`` the whole batch is one GEMM and the call returns
    ``(out, cols)``, the patch matrix for :func:`conv2d_kernel_grad`.
    Otherwise the output rows run in blocks over all N images, each block
    at most CONV_BLOCK images' worth of columns or one row, and the call
    returns ``out``. The rows per block are rounded up, to at most twice
    as many, so that every block starts at a multiple of 8 columns, the
    width of OpenBLAS's AVX-512 DGEMM tiles: each column then keeps its
    place in its tile, and the output equals one GEMM's bit for bit. A block
    starting elsewhere changed the last bit of some outputs; that remains
    possible only at conv2's shape for odd batches above 160 images.
    """
    f, _, kh, kw = k.shape
    n, oh, ow = x.shape[0], x.shape[2] - kh + 1, x.shape[3] - kw + 1
    x, out = _batch_innermost(x), np.empty((f, oh, ow, n))
    step = oh if keep_cols else max(CONV_BLOCK * oh // n, 1)
    align = 8 // math.gcd(ow * n, 8)  # rows in the fewest whole rows that span a multiple of 8 columns
    aligned = -(-step // align) * align
    bounds = [*range(0, oh, aligned if aligned <= 2 * step else step), oh]
    kmat, flat = k.reshape(f, -1), out.reshape(f, -1)
    for lo, hi in zip(bounds, bounds[1:]):
        cols = None  # free the last block's patch matrix before building this one
        cols = _im2col(x[:, :, lo : hi + kh - 1], (kh, kw))
        block = flat[:, lo * ow * n : hi * ow * n]
        np.matmul(kmat, cols, out=block)
        block += b[:, None]
    out = out.transpose(3, 0, 1, 2)
    return (out, cols) if keep_cols else out


def conv2d_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Gradient of conv2d with respect to its input, as an NCHW view of a
    (C, H, W, N) buffer."""
    # GEMM into patch space, then col2im: each kernel offset (p, q) adds its
    # patch-space slice, (C, oh, ow, N), back onto the input positions it
    # read, in runs of ow*N values.
    n, f, oh, ow = dy.shape
    c, kh, kw = k.shape[1:]
    cols = (k.reshape(f, -1).T @ dy.transpose(1, 2, 3, 0).reshape(f, -1)).reshape(c, kh, kw, oh, ow, n)
    dx = np.zeros((c, oh + kh - 1, ow + kw - 1, n))
    for p in range(kh):
        for q in range(kw):
            dx[:, p : p + oh, q : q + ow] += cols[:, p, q]
    return dx.transpose(3, 0, 1, 2)


def conv2d_kernel_grad(
    x: np.ndarray, dy: np.ndarray, khw: tuple[int, int], cols: np.ndarray | None = None
) -> np.ndarray:
    """``cols`` is ``x``'s patch matrix if the forward pass kept it. The sum
    runs over (i, j, n); a batch-innermost ``dy`` is read without a copy."""
    f = dy.shape[1]
    if cols is None:
        cols = _im2col(x, khw)
    dk = dy.transpose(1, 2, 3, 0).reshape(f, -1) @ cols.T
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
    """2x2, stride-2 max pooling on (..., H, W). Returns (pooled, routing),
    both in the memory order of ``x``.

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
    """Gradient of max_pool2x2, laid out in memory like ``routing``."""
    # The four offsets' slices write every cell, so dx needs no zero fill.
    dx = np.empty_like(routing, dtype=np.float64, shape=dy.shape[:-2] + (2 * dy.shape[-2], 2 * dy.shape[-1]))
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
