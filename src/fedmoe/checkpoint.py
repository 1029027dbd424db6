"""Named-tensor checkpoint files: a JSON manifest plus little-endian f64 payloads.

Layout: magic ``FMCK`` | version byte | manifest length (u32 LE) | manifest
JSON | per tensor: name length (u16 LE), name, ndim (u8), dims (u32 LE each),
row-major float64 data.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import fields

import numpy as np

from .errors import DataFormatError
from .fileio import BoundedReader, atomic_open
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
    with atomic_open(path, "checkpoint", "wb") as f:
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
    """Read a named-tensor container. Any malformed byte raises a
    DataFormatError, with the byte offset where one is known."""
    with BoundedReader(path, "checkpoint") as r:
        if r.bytes(4, "magic") != MAGIC:
            raise DataFormatError(f"not a checkpoint file: {path}", offset=0)
        (version,) = struct.unpack("<B", r.bytes(1, "version"))
        if version != VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}", offset=4)
        (manifest_len,) = struct.unpack("<I", r.bytes(4, "manifest length"))
        manifest = r.json(manifest_len, "manifest")
        entries = manifest.get("tensors", []) if isinstance(manifest, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], list) for e in entries
        ):
            raise DataFormatError("checkpoint manifest is not an object listing [name, shape] tensor pairs",
                                  offset=9)  # the manifest starts after the 9-byte header
        tensors: dict[str, Tensor] = {}
        for name, shape in entries:
            (name_len,) = struct.unpack("<H", r.bytes(2, "tensor name length"))
            stored = r.text(name_len, "tensor name")
            if stored != name:
                raise DataFormatError(f"tensor order mismatch: manifest says {name!r}, file has {stored!r}")
            (ndim,) = struct.unpack("<B", r.bytes(1, "tensor rank"))
            dims = struct.unpack(f"<{ndim}I", r.bytes(4 * ndim, "tensor dims"))
            if list(dims) != shape:
                raise DataFormatError(f"shape mismatch for {name!r}: manifest {shape}, file {list(dims)}")
            start = r.file.tell()
            values = np.frombuffer(r.bytes(8 * math.prod(dims), f"tensor {name!r} payload"), dtype="<f8")
            finite = np.isfinite(values)
            if not finite.all():
                raise DataFormatError(f"tensor {name!r} holds a non-finite value",
                                      offset=start + 8 * int(np.argmin(finite)))
            tensors[name] = Tensor._wrap(values.reshape(dims))
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
    sizes = [stored["channels"], stored["side"], stored["classes"]]
    if not isinstance(stored["architecture"], str) or not isinstance(stored["hidden_sizes"], list) or not all(
        type(v) is int for v in sizes + stored["hidden_sizes"]
    ):
        raise DataFormatError(f"checkpoint {path} records the model spec {stored!r}; its architecture must be "
                              f"a string, hidden_sizes a list of integers and the other fields integers")
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
