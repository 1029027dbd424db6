"""Dense 64-bit tensor values: a shape plus a row-major numeric buffer."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


class Tensor:
    """Immutable dense array of float64 in C order.

    Every constructor validates that all elements are finite, so any value
    that leaves a numeric operation is guaranteed NaN/Inf free. The backing
    numpy buffer is write-locked; operations produce new tensors.
    """

    __slots__ = ("data",)

    data: np.ndarray

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            raise DimensionError("tensors must have at least one dimension; use a plain float for scalars")
        if any(d <= 0 for d in arr.shape):
            raise DimensionError(f"tensor dimensions must be positive, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for freshly computed arrays; still validates finiteness.
        out = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(out, "data", arr)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def tolist(self):
        return self.data.tolist()

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"
