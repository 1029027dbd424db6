"""Raw ndarray math behind the recorded graph and the inference paths.

Everything here is float64 in, float64 out, with no shape validation;
callers are responsible for conformance checks. ``dense`` and the
cross-entropy kernels also take a leading client axis: a stack of K
clients' batches, each slice computed as on its own.

Memory order of the conv and pool kernels: their arguments and results
have NCHW shapes, (N, C, H, W), and they accept any strides. What they
return is an NCHW view of a batch-innermost buffer, (C, H, W, N) in memory,
so each copy, pool slice and add runs over ow*N or N contiguous values, and
the next kernel reads it without a copy. A kernel's result does not depend
on the memory order of its inputs, bit for bit. The (N, 400) features leave
this order through ``graph.flatten``'s reshape, a row-major copy.

Convolutions lower to GEMMs through a row buffer (MEC; Cho and Brand 2017,
arXiv 1706.06873), E[h, c, q, j, n] = x[n, c, h, j+q] of shape
(H, C, kw, ow, N): 5x the input where an im2col patch matrix is 25x. Any kh
consecutive rows of E are one contiguous (kh*C*kw, ow*N) matrix, so each
output row is one GEMM on it. Against im2col this changes conv2's summation
order (the last bits of its forward and both gradients); conv1's forward
(C = 1) keeps its bits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b[..., None, :]


def _batch_innermost(a: np.ndarray) -> np.ndarray:
    """``a`` (N, C, H, W) as an NCHW view of a (C, H, W, N) buffer; no copy
    if it is one already."""
    if a.transpose(1, 2, 3, 0).flags.c_contiguous:
        return a
    out = np.empty(a.shape[1:] + a.shape[:1])
    # 32 images at a time: a whole-batch copy, read at a stride of one image, took 3x as long at 400.
    for lo in range(0, a.shape[0], 32):
        out[..., lo : lo + 32] = a[lo : lo + 32].transpose(1, 2, 3, 0)
    return out.transpose(3, 0, 1, 2)


def row_buffer(x: np.ndarray, kw: int) -> np.ndarray:
    """The row buffer E of ``x``: kw copies of runs of ow*N values."""
    n, c, h, w = x.shape
    rows, xt = np.empty((h, c, kw, w - kw + 1, n)), x.transpose(2, 1, 3, 0)
    for q in range(kw):
        rows[:, :, q] = xt[:, :, q : q + w - kw + 1]
    return rows


def _windows(rows: np.ndarray, kh: int) -> np.ndarray:
    """(oh, kh*C*kw, ow*N) view of a row buffer: output row i's operand."""
    h, c, kw, ow, n = rows.shape
    return as_strided(rows, (h - kh + 1, kh * c * kw, ow * n), rows.strides[::2], writeable=False)


def _by_row(dy: np.ndarray) -> np.ndarray:
    """(oh, F, ow*N) view of a batch-innermost copy of dy (N, F, oh, ow)."""
    n, f, oh, ow = dy.shape
    return _batch_innermost(dy).transpose(1, 2, 3, 0).reshape(f, oh, ow * n).transpose(1, 0, 2)


def conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray, *, keep_rows: bool = False):
    """Valid cross-correlation, stride 1: out[n,f,i,j] = sum_pcq k[f,c,p,q] x[n,c,i+p,j+q] + b[f].

    One GEMM per output row, kmat @ E[i:i+kh], with kmat's columns in (p, c, q)
    order, writes the (F, oh, ow, N) output in place. With ``keep_rows`` the
    call returns ``(out, rows)``, the row buffer for :func:`conv2d_kernel_grad`;
    otherwise ``out``. Inference passes ``models``' cache-sized image blocks."""
    f, _, kh, kw = k.shape
    n, oh, ow = x.shape[0], x.shape[2] - kh + 1, x.shape[3] - kw + 1
    rows, out = row_buffer(_batch_innermost(x), kw), np.empty((f, oh, ow * n))
    np.matmul(k.transpose(0, 2, 1, 3).reshape(f, -1), _windows(rows, kh), out=out.transpose(1, 0, 2))
    out += b[:, None, None]
    out = out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2)
    return (out, rows) if keep_rows else out


def conv2d_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Gradient of conv2d with respect to its input: kmat.T @ dy_i for each
    output row i into row space, then kh adds of contiguous slabs fold that
    into the row buffer's gradient and kw adds of ow*N runs fold it into dx."""
    n, f, oh, ow = dy.shape
    c, kh, kw = k.shape[1:]
    grads = np.matmul(k.transpose(0, 2, 1, 3).reshape(f, -1).T, _by_row(dy)).reshape(oh, kh, c, kw, ow, n)
    drows = np.zeros((oh + kh - 1, c, kw, ow, n))
    for p in range(kh):
        drows[p : p + oh] += grads[:, p]
    dx = np.zeros((c, oh + kh - 1, ow + kw - 1, n))
    for q in range(kw):
        dx[:, :, q : q + ow] += drows[:, :, q].transpose(1, 0, 2, 3)
    return dx.transpose(3, 0, 1, 2)


def conv2d_kernel_grad(x: np.ndarray, dy: np.ndarray, khw: tuple[int, int], rows: np.ndarray | None = None):
    """``rows`` is ``x``'s row buffer if the forward pass kept it; the rows' GEMMs add up in row order."""
    (kh, kw), f, c = khw, dy.shape[1], x.shape[1]
    if rows is None:
        rows = row_buffer(_batch_innermost(x), kw)
    dk = np.matmul(_by_row(dy), _windows(rows, kh).transpose(0, 2, 1)).sum(axis=0)
    return np.ascontiguousarray(dk.reshape(f, kh, c, kw).transpose(0, 2, 1, 3))


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
