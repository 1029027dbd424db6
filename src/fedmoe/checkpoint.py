"""Named-tensor checkpoint files: a JSON manifest plus little-endian f64 payloads.

Layout: magic ``FMCK`` | version byte | manifest length (u32 LE) | manifest
JSON | per tensor: name length (u16 LE), name, ndim (u8), dims (u32 LE each),
row-major float64 data.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import fields

import numpy as np

from .errors import DataFormatError
from .fileio import atomic_open
from .models import ModelParams, ModelSpec, param_shapes
from .numerics.tensor import Tensor

MAGIC = b"FMCK"
VERSION = 1


def save_tensors(path, tensors: dict[str, Tensor], manifest: dict) -> str:
    """Write a named-tensor container; returns the sha256 hex digest of its bytes.

    The write is atomic (:func:`fileio.atomic_open`): a write that fails
    partway leaves any earlier file at ``path`` as it was.
    """
    manifest = dict(manifest)
    # An ordered pair list, not a dict: sort_keys must not disturb tensor order.
    manifest["tensors"] = [[name, list(t.shape)] for name, t in tensors.items()]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as f:
        def write(buf: bytes):
            f.write(buf)
            digest.update(buf)

        write(MAGIC)
        write(struct.pack("<B", VERSION))
        write(struct.pack("<I", len(blob)))
        write(blob)
        for name, t in tensors.items():
            encoded = name.encode("utf-8")
            write(struct.pack("<H", len(encoded)))
            write(encoded)
            write(struct.pack("<B", t.ndim))
            write(struct.pack(f"<{t.ndim}I", *t.shape))
            write(t.data.astype("<f8", copy=False).tobytes(order="C"))
    return digest.hexdigest()


def load_tensors(path) -> tuple[dict[str, Tensor], dict]:
    with open(path, "rb") as f:
        def read(n, what):
            offset = f.tell()
            buf = f.read(n)
            if len(buf) != n:
                raise DataFormatError(f"truncated checkpoint while reading {what}", offset=offset)
            return buf

        if read(4, "magic") != MAGIC:
            raise DataFormatError(f"not a checkpoint file: {path}", offset=0)
        (version,) = struct.unpack("<B", read(1, "version"))
        if version != VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}", offset=4)
        (manifest_len,) = struct.unpack("<I", read(4, "manifest length"))
        manifest = json.loads(read(manifest_len, "manifest"))
        tensors: dict[str, Tensor] = {}
        for name, shape in manifest.get("tensors", []):
            (name_len,) = struct.unpack("<H", read(2, "tensor name length"))
            stored = read(name_len, "tensor name").decode("utf-8")
            if stored != name:
                raise DataFormatError(f"tensor order mismatch: manifest says {name!r}, file has {stored!r}")
            (ndim,) = struct.unpack("<B", read(1, "tensor rank"))
            dims = struct.unpack(f"<{ndim}I", read(4 * ndim, "tensor dims"))
            if list(dims) != list(shape):
                raise DataFormatError(f"shape mismatch for {name!r}: manifest {shape}, file {list(dims)}")
            count = int(np.prod(dims))
            raw = read(8 * count, f"tensor {name!r} payload")
            tensors[name] = Tensor._wrap(np.frombuffer(raw, dtype="<f8").reshape(dims))
        if f.read(1):
            raise DataFormatError("trailing bytes after last tensor", offset=f.tell() - 1)
    return tensors, manifest


def save_model(path, params: ModelParams, extra: dict | None = None) -> str:
    manifest = {"kind": "model", "spec": params.spec.to_json()}
    if extra:
        manifest.update(extra)
    return save_tensors(path, params.tensors, manifest)


def load_model(path) -> tuple[ModelParams, dict]:
    tensors, manifest = load_tensors(path)
    if manifest.get("kind") != "model":
        raise DataFormatError(f"checkpoint {path} is not a model (kind={manifest.get('kind')!r})")
    stored, names = manifest.get("spec"), sorted(f.name for f in fields(ModelSpec))
    if not isinstance(stored, dict) or sorted(stored) != names:
        raise DataFormatError(f"checkpoint {path} records the model spec {stored!r}; "
                              f"it needs exactly the fields {', '.join(names)}")
    spec = ModelSpec(**stored)
    layout = param_shapes(spec)
    for name in [*layout, *(name for name in tensors if name not in layout)]:
        if name not in tensors:
            raise DataFormatError(f"checkpoint {path} lacks tensor {name!r} of the {spec.architecture} model")
        if name not in layout:
            raise DataFormatError(f"checkpoint {path} has tensor {name!r}, which the {spec.architecture} model lacks")
        if tensors[name].shape != layout[name]:
            raise DataFormatError(f"checkpoint {path}: tensor {name!r} has shape {tensors[name].shape}, "
                                  f"the model needs {layout[name]}")
    return ModelParams(spec, tensors), manifest
