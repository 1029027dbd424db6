"""Datasets, Dirichlet non-IID partitioning, and per-client subset division."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataFormatError, DegenerateClientError
from .fileio import BoundedReader
from .numerics.tensor import Tensor

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    """Image features in [0, 1] with integer labels in [0, classes)."""

    features: Tensor  # (N, C, S, S)
    labels: np.ndarray  # (N,) int64
    classes: int

    def __post_init__(self):
        if self.features.ndim != 4:
            raise ConfigError(f"features: expected (N, C, S, S), got {self.features.shape}")
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.shape != (self.features.shape[0],):
            raise ConfigError(f"labels: {labels.shape} does not match {self.features.shape[0]} examples")
        if labels.size and (labels.min() < 0 or labels.max() >= self.classes):
            raise ConfigError(f"labels: values outside [0, {self.classes})")
        lo, hi = float(self.features.data.min()), float(self.features.data.max())
        if lo < 0.0 or hi > 1.0:
            raise ConfigError(f"features: values outside [0, 1], saw [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def side(self) -> int:
        return self.features.shape[2]

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(Tensor._wrap(self.features.data[idx]), self.labels[idx], self.classes)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.classes)


def require_all_classes(ds: LabeledDataset) -> None:
    """Training sets must contain every class at least once."""
    missing = np.flatnonzero(ds.class_counts() == 0)
    if missing.size:
        raise ConfigError(f"training dataset is missing classes {missing.tolist()}")


@dataclass(frozen=True)
class PartitionSpec:
    clients: int
    concentration: float
    seed: int

    def __post_init__(self):
        if self.clients < 1:
            raise ConfigError(f"clients: must be at least 1, got {self.clients}")
        if not 0.0 < self.concentration < np.inf:
            raise ConfigError(f"concentration: must be positive and finite, got {self.concentration}")


@dataclass(frozen=True)
class ClientPartition:
    """Disjoint per-client index lists covering a dataset exactly once."""

    clients: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.clients)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clients]


@dataclass(frozen=True)
class ClientSplit:
    """One client's division into adaptation and gate-training indices."""

    per_indices: tuple[int, ...]
    gate_indices: tuple[int, ...]


def dirichlet_partition(ds: LabeledDataset, spec: PartitionSpec) -> ClientPartition:
    """Allocate each class across clients in Dirichlet-drawn proportions.

    Per class, proportions come from Dirichlet(concentration * 1_N) and the
    class's examples are dealt out with largest-remainder rounding, which
    conserves per-class totals exactly. Clients left empty are repaired by
    moving one example from the currently largest client.
    """
    n_clients = spec.clients
    if n_clients > len(ds):
        raise ConfigError(f"clients: {n_clients} exceeds dataset size {len(ds)}")
    rng = np.random.default_rng(spec.seed)
    buckets: list[list[int]] = [[] for _ in range(n_clients)]
    for c in range(ds.classes):
        class_idx = np.flatnonzero(ds.labels == c)
        if class_idx.size == 0:
            continue
        rng.shuffle(class_idx)
        proportions = rng.dirichlet(np.full(n_clients, spec.concentration))
        quota = proportions * class_idx.size
        counts = np.floor(quota).astype(np.int64)
        remainder = class_idx.size - int(counts.sum())
        if remainder:
            order = np.argsort(-(quota - counts), kind="stable")
            counts[order[:remainder]] += 1
        start = 0
        for k in range(n_clients):
            buckets[k].extend(class_idx[start : start + counts[k]].tolist())
            start += counts[k]
    for k in range(n_clients):
        if not buckets[k]:
            donor = max(range(n_clients), key=lambda i: (len(buckets[i]), -i))
            buckets[k].append(buckets[donor].pop())
    return ClientPartition(tuple(tuple(sorted(b)) for b in buckets))


def ceil_share(fraction: float, n: int) -> int:
    """ceil(fraction * n) for the decimal ``fraction`` as written: in floats
    0.07 * 100 is 7.000000000000001, whose ceiling would be 8."""
    return math.ceil(Fraction(repr(float(fraction))) * n)


def split_per_gate(client_indices, ratio: float, seed: int) -> ClientSplit:
    """Seeded shuffle, then ceil(ratio*n) indices to the adaptation subset.

    The gate subset always keeps at least one index, so the ceiling is capped
    at n-1 when it would consume the whole client.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio: must lie in (0, 1), got {ratio}")
    idx = np.asarray(list(client_indices), dtype=np.int64)
    if idx.size < 2:
        raise DegenerateClientError(f"cannot split a client with {idx.size} example(s)")
    rng = np.random.default_rng(seed)
    rng.shuffle(idx)
    n_per = min(ceil_share(ratio, idx.size), idx.size - 1)
    return ClientSplit(
        per_indices=tuple(sorted(idx[:n_per].tolist())),
        gate_indices=tuple(sorted(idx[n_per:].tolist())),
    )


def _read_idx(path, magic: int, kind: str, *dims: str) -> tuple[tuple[int, ...], np.ndarray]:
    """One IDX file: magic, a positive count of ``kind`` entries and ``dims``, one byte per value."""
    with BoundedReader(path, "IDX file") as r:
        found, *sizes = struct.unpack(f">{2 + len(dims)}i", r.bytes(8 + 4 * len(dims), f"{kind} header"))
        if found != magic:
            raise DataFormatError(f"bad {kind} magic 0x{found:08x}, expected 0x{magic:08x} in {path}", offset=0)
        for offset, name, value in zip(range(4, 16, 4), (f"{kind} count", *dims), sizes):
            if value <= 0:
                raise DataFormatError(f"header {name} must be positive, got {value} in {path}", offset=offset)
        return tuple(sizes), np.frombuffer(r.bytes(math.prod(sizes), f"{sizes[0]} {kind}s"), dtype=np.uint8)


def load_idx(images_path, labels_path, classes: int | None = None) -> LabeledDataset:
    """Load an IDX image/label pair (big-endian headers, one byte per pixel)."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", "rows", "columns")
    (label_count,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if count != label_count:
        raise DataFormatError(f"{count} images but {label_count} labels ({images_path}, {labels_path})")
    features = (pixels.astype(np.float64) / 255.0).reshape(count, 1, rows, cols)
    labels = labels.astype(np.int64)
    if classes is None:
        classes = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(Tensor._wrap(features), labels, classes)


def write_idx(ds: LabeledDataset, images_path, labels_path) -> None:
    """Dump a single-channel dataset as an IDX pair (pixels quantized to bytes)."""
    if ds.channels != 1:
        raise ConfigError(f"write_idx supports single-channel data, got {ds.channels} channels")
    n, _, rows, cols = ds.features.shape
    pixels = np.clip(np.rint(ds.features.data * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def pad_to_32(ds: LabeledDataset) -> LabeledDataset:
    """Zero-pad 28x28 images to 32x32 (2 pixels on every side)."""
    rows, cols = ds.features.shape[2:]
    if (rows, cols) == (32, 32):
        return ds
    if (rows, cols) != (28, 28):
        raise ConfigError(f"pad_to_32 expects 28x28 or 32x32 inputs, got {rows}x{cols}")
    padded = np.pad(ds.features.data, ((0, 0), (0, 0), (2, 2), (2, 2)))
    return LabeledDataset(Tensor._wrap(padded), ds.labels, ds.classes)


def make_synthetic(
    classes: int,
    per_class: int,
    channels: int = 1,
    seed: int = 0,
    noise: float = 0.25,
    center_jitter: float = 2.0,
    blob_sigma: float = 5.0,
    side: int = 32,
    pattern_seed: int | None = None,
) -> LabeledDataset:
    """Gaussian-blob images: one mean pattern per class, rendered per channel.

    Class patterns derive from ``pattern_seed`` (default: ``seed``), so a
    train/test pair shares patterns by fixing pattern_seed and varying seed.
    Examples jitter the blob center and add pixel noise, after which values
    are clipped back into [0, 1].
    """
    pattern_rng = np.random.default_rng(
        np.random.SeedSequence(seed if pattern_seed is None else pattern_seed, spawn_key=(0,))
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    margin = side / 4.0
    centers = pattern_rng.uniform(margin, side - margin, size=(classes, channels, 2))

    n = classes * per_class
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    grid = np.arange(side, dtype=np.float64)
    # One draw for every example's offsets, in the order a per-example loop
    # draws them, then every blob at once, elementwise as that loop did.
    blob_centers = centers[labels] + noise_rng.normal(scale=center_jitter, size=(n, channels, 2))
    cy, cx = blob_centers[..., 0, None, None], blob_centers[..., 1, None, None]
    features = (grid[:, None] - cy) ** 2 + (grid[None, :] - cx) ** 2
    np.negative(features, out=features)
    features /= 2.0 * blob_sigma**2
    np.exp(features, out=features)
    features += noise_rng.normal(scale=noise, size=features.shape)
    np.clip(features, 0.0, 1.0, out=features)

    order = noise_rng.permutation(n)
    return LabeledDataset(Tensor._wrap(features[order]), labels[order], classes)


def synthetic_test_set(train_seed: int, **kwargs) -> LabeledDataset:
    """Companion test set: same class patterns as ``train_seed``, fresh noise."""
    return make_synthetic(seed=train_seed + 1_000_003, pattern_seed=train_seed, **kwargs)
