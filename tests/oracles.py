"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (explicit loops, no vectorization,
no reuse of library kernels) so it can serve as a second route for the
implementations under test.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_loops(x, w, b):
    """Naive triple-loop affine layer."""
    x, w, b = np.asarray(x), np.asarray(w), np.asarray(b)
    n, i_dim = x.shape
    o_dim = w.shape[1]
    out = np.zeros((n, o_dim))
    for n_i in range(n):
        for o in range(o_dim):
            acc = b[o]
            for i in range(i_dim):
                acc += x[n_i, i] * w[i, o]
            out[n_i, o] = acc
    return out


def conv2d_loops(x, k, b):
    """Direct six-loop valid convolution (cross-correlation), stride 1."""
    x, k, b = np.asarray(x), np.asarray(k), np.asarray(b)
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((n, f, ho, wo))
    for n_i in range(n):
        for f_i in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = b[f_i]
                    for c_i in range(c):
                        for p in range(kh):
                            for q in range(kw):
                                acc += x[n_i, c_i, i + p, j + q] * k[f_i, c_i, p, q]
                    out[n_i, f_i, i, j] = acc
    return out


def conv2d_input_grad_loops(dy, k):
    """Gradient of sum(conv2d(x) * dy) with respect to x, by scattering each
    output gradient back over the window it read."""
    dy, k = np.asarray(dy), np.asarray(k)
    n, f, ho, wo = dy.shape
    _, c, kh, kw = k.shape
    dx = np.zeros((n, c, ho + kh - 1, wo + kw - 1))
    for n_i in range(n):
        for f_i in range(f):
            for i in range(ho):
                for j in range(wo):
                    g = dy[n_i, f_i, i, j]
                    for c_i in range(c):
                        for p in range(kh):
                            for q in range(kw):
                                dx[n_i, c_i, i + p, j + q] += g * k[f_i, c_i, p, q]
    return dx


def conv2d_kernel_grad_loops(x, dy, kh, kw):
    """Gradient of sum(conv2d(x) * dy) with respect to the kernels."""
    x, dy = np.asarray(x), np.asarray(dy)
    n, f, ho, wo = dy.shape
    c = x.shape[1]
    dk = np.zeros((f, c, kh, kw))
    for f_i in range(f):
        for c_i in range(c):
            for p in range(kh):
                for q in range(kw):
                    acc = 0.0
                    for n_i in range(n):
                        for i in range(ho):
                            for j in range(wo):
                                acc += x[n_i, c_i, i + p, j + q] * dy[n_i, f_i, i, j]
                    dk[f_i, c_i, p, q] = acc
    return dk


def max_pool2x2_loops(x):
    """2x2 stride-2 max pooling on (N, C, H, W). Returns (pooled, routing),
    routing being the row-major offset 0..3 of the first maximal window cell."""
    x = np.asarray(x)
    n, c, h, w = x.shape
    pooled = np.zeros((n, c, h // 2, w // 2))
    routing = np.zeros((n, c, h // 2, w // 2), dtype=np.int64)
    for n_i in range(n):
        for c_i in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    cells = [x[n_i, c_i, 2 * i + p, 2 * j + q] for p in (0, 1) for q in (0, 1)]
                    best = 0
                    for offset in range(1, 4):
                        if cells[offset] > cells[best]:
                            best = offset
                    pooled[n_i, c_i, i, j] = cells[best]
                    routing[n_i, c_i, i, j] = best
    return pooled, routing


def max_pool2x2_grad_loops(x, dy):
    """Gradient of sum(max_pool(x) * dy): each output gradient goes to the
    first maximal cell of its window."""
    _, routing = max_pool2x2_loops(x)
    dy = np.asarray(dy)
    n, c, h2, w2 = dy.shape
    dx = np.zeros((n, c, 2 * h2, 2 * w2))
    for n_i in range(n):
        for c_i in range(c):
            for i in range(h2):
                for j in range(w2):
                    p, q = divmod(int(routing[n_i, c_i, i, j]), 2)
                    dx[n_i, c_i, 2 * i + p, 2 * j + q] = dy[n_i, c_i, i, j]
    return dx


def cross_entropy_per_sample(logits, labels):
    """Per-sample -log p oracle via explicit softmax, averaged by hand."""
    logits = np.asarray(logits)
    total = 0.0
    for row, label in zip(logits, labels):
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        p = exps[label] / sum(exps)
        total += -math.log(p)
    return total / len(labels)


def make_synthetic_loops(classes, per_class, channels=1, seed=0, noise=0.25, center_jitter=2.0,
                         blob_sigma=5.0, side=32, pattern_seed=None):
    """data.make_synthetic's (features, labels) with one offset draw and one
    blob rendering per example and channel."""
    pattern_rng = np.random.default_rng(
        np.random.SeedSequence(seed if pattern_seed is None else pattern_seed, spawn_key=(0,))
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    margin = side / 4.0
    centers = pattern_rng.uniform(margin, side - margin, size=(classes, channels, 2))
    n = classes * per_class
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    grid = np.arange(side, dtype=np.float64)
    yy = grid[:, None]
    xx = grid[None, :]
    features = np.empty((n, channels, side, side))
    for i, label in enumerate(labels):
        offsets = noise_rng.normal(scale=center_jitter, size=(channels, 2))
        for ch in range(channels):
            cy, cx = centers[label, ch] + offsets[ch]
            features[i, ch] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * blob_sigma**2))
    features += noise_rng.normal(scale=noise, size=features.shape)
    np.clip(features, 0.0, 1.0, out=features)
    order = noise_rng.permutation(n)
    return features[order], labels[order]


def finite_difference(f, arrays, step=1e-5):
    """Central finite-difference gradients of scalar f w.r.t. each array."""
    grads = []
    for idx, arr in enumerate(arrays):
        arr = np.asarray(arr, dtype=np.float64)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f(arrays)
            flat[i] = orig - step
            f_minus = f(arrays)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|) over all components of all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def weighted_local_accuracy_loops(pred_labels, true_labels, ratios):
    """Brute-force weighted local test: per-sample loop with weights
    ratios[c] / |test examples of class c|."""
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    counts = {}
    for y in true_labels:
        counts[int(y)] = counts.get(int(y), 0) + 1
    total = 0.0
    for p, y in zip(pred_labels, true_labels):
        if p == y:
            total += ratios[int(y)] / counts[int(y)]
    return total
