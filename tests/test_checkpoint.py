import builtins
import errno
import hashlib
import os
import re
import struct

import numpy as np
import pytest

from fedmoe import checkpoint, fileio, models
from fedmoe.errors import ConfigError, DataFormatError
from fedmoe.numerics import Tensor
from mutants import assert_every_mutant_loads_or_raises_a_typed_error


SPEC = models.ModelSpec("mlp", channels=1, classes=5, hidden_sizes=(9,))


def test_model_round_trip_preserves_every_bit(tmp_path):
    params = models.build_model(SPEC, seed=3)
    path = tmp_path / "model.ckpt"
    digest = checkpoint.save_model(path, params, extra={"round": 7, "accuracy": 0.5, "seed": 3})
    loaded, manifest = checkpoint.load_model(path)
    assert loaded.spec == SPEC
    assert manifest["round"] == 7
    assert len(digest) == 64
    for k in params.tensors:
        assert np.array_equal(loaded.tensors[k].data, params.tensors[k].data)


def test_named_tensor_container(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"gate.weight": Tensor(rng.normal(size=(6, 1))), "gate.bias": Tensor(rng.normal(size=1))}
    path = tmp_path / "gate.ckpt"
    checkpoint.save_tensors(path, tensors, {"kind": "gate", "input_mode": "raw"})
    loaded, manifest = checkpoint.load_tensors(path)
    assert manifest["input_mode"] == "raw"
    assert np.array_equal(loaded["gate.weight"].data, tensors["gate.weight"].data)


def test_payload_is_little_endian_f64(tmp_path):
    tensors = {"x": Tensor(np.array([1.0]))}
    path = tmp_path / "x.ckpt"
    checkpoint.save_tensors(path, tensors, {"kind": "raw"})
    raw = path.read_bytes()
    assert raw[:4] == b"FMCK"
    assert raw[-8:] == np.array([1.0], dtype="<f8").tobytes()


def test_truncated_checkpoint(tmp_path):
    params = models.build_model(SPEC, seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, params)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataFormatError, match="offset"):
        checkpoint.load_model(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataFormatError, match="not a checkpoint"):
        checkpoint.load_tensors(path)


def test_identical_content_identical_digest(tmp_path):
    params = models.build_model(SPEC, seed=2)
    d1 = checkpoint.save_model(tmp_path / "a.ckpt", params, extra={"seed": 2})
    d2 = checkpoint.save_model(tmp_path / "b.ckpt", params, extra={"seed": 2})
    assert d1 == d2
    assert d1 == hashlib.sha256((tmp_path / "a.ckpt").read_bytes()).hexdigest()


class _UnreadablePayload:
    """A tensor whose shape is known but whose payload cannot be read, so a
    write fails after the header and earlier tensors are out."""

    ndim, shape = 1, (2,)

    @property
    def data(self):
        raise RuntimeError("payload unavailable")


def test_failed_write_leaves_the_earlier_checkpoint_intact(tmp_path):
    params = models.build_model(SPEC, seed=4)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, params)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="payload unavailable"):
        checkpoint.save_tensors(path, {**params.tensors, "late": _UnreadablePayload()}, {"kind": "model"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class _FullDisk:
    """An open file whose writes fail as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.f.close()

    def write(self, _):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _refuse_replace(src, dst):
    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dst))


@pytest.mark.parametrize("patch, reason", [
    (lambda m: m.setattr(fileio, "open", lambda *a, **k: _FullDisk(builtins.open(*a, **k)), raising=False),
     "No space left on device"),
    (lambda m: m.setattr(fileio.os, "replace", _refuse_replace), "Permission denied"),
], ids=["ENOSPC on write", "EACCES on replace"])
def test_write_error_is_a_typed_error_and_leaves_the_earlier_checkpoint(tmp_path, monkeypatch, patch, reason):
    params = models.build_model(SPEC, seed=4)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, params)
    before = path.read_bytes()
    patch(monkeypatch)
    with pytest.raises(ConfigError, match=f"^cannot write checkpoint {re.escape(str(path))}: {reason}$"):
        checkpoint.save_model(path, models.build_model(SPEC, seed=5))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("change, message", [
    (lambda t: t.pop("out.bias"), "lacks tensor 'out.bias'"),
    (lambda t: t.update({"out.weight": Tensor(np.zeros((9, 4)))}), r"'out.weight' has shape \(9, 4\).*\(9, 5\)"),
    (lambda t: t.update({"out.scale": Tensor(np.ones(5))}), "has tensor 'out.scale'"),
], ids=["missing", "misshapen", "extra"])
def test_model_tensors_must_match_the_spec_layout(tmp_path, change, message):
    tensors = dict(models.build_model(SPEC, seed=5).tensors)
    change(tensors)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, models.ModelParams(SPEC, tensors))
    with pytest.raises(DataFormatError, match=message):
        checkpoint.load_model(path)


@pytest.mark.parametrize("change", [
    lambda spec: spec.pop("side"),
    lambda spec: spec.update(depth=3),
], ids=["missing field", "unknown field"])
def test_model_spec_must_give_exactly_its_fields(tmp_path, change):
    spec = {"architecture": "mlp", "channels": 1, "side": 32, "classes": 5, "hidden_sizes": [9]}
    change(spec)
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, models.build_model(SPEC, seed=5).tensors, {"kind": "model", "spec": spec})
    with pytest.raises(DataFormatError, match="records the model spec .*needs exactly the fields architecture, "
                                              "channels, classes, hidden_sizes, side"):
        checkpoint.load_model(path)


@pytest.mark.parametrize("at, blob, message", [
    (10, b"{not json", "manifest is not JSON"),  # the header is 9 bytes; "n" is manifest byte 1
    (11, b'{"\xff": 1}', "manifest is not UTF-8"),
    (9, b"[1, 2]", r"not an object listing \[name, shape\]"),
    (9, b"[" * 100_000, "nests too deeply"),
    (9, b'{"round": ' + b"1" * 5000 + b"}", "manifest is not JSON: Exceeds the limit"),
], ids=["not JSON", "not UTF-8", "not an object", "nested too deeply", "integer too long"])
def test_unreadable_manifest_is_a_typed_error_at_its_offset(tmp_path, at, blob, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"FMCK" + struct.pack("<BI", 1, len(blob)) + blob)
    with pytest.raises(DataFormatError, match=f"{message}.*at byte offset {at}"):
        checkpoint.load_model(path)


def test_non_finite_payload_is_a_typed_error_at_its_offset(tmp_path):
    path = tmp_path / "nan.ckpt"
    checkpoint.save_tensors(path, {"x": Tensor(np.zeros(3))}, {"kind": "raw"})
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=f"non-finite.*at byte offset {len(raw) - 8}"):
        checkpoint.load_tensors(path)


def test_trailing_byte_is_a_typed_error_at_its_offset(tmp_path):
    path = tmp_path / "x.ckpt"
    checkpoint.save_tensors(path, {"x": Tensor(np.zeros(3))}, {"kind": "raw"})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataFormatError, match=f"trailing bytes after tensor 'x' payload .*at byte offset {size}"):
        checkpoint.load_tensors(path)


def test_model_spec_field_of_the_wrong_type_is_a_typed_error(tmp_path):
    spec = {"architecture": "mlp", "channels": "1", "side": 32, "classes": 5, "hidden_sizes": [9]}
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, models.build_model(SPEC, seed=5).tensors, {"kind": "model", "spec": spec})
    with pytest.raises(DataFormatError, match="other fields integers"):
        checkpoint.load_model(path)


def test_every_truncation_and_seeded_byte_substitution_loads_or_raises_a_typed_error(tmp_path):
    spec = models.ModelSpec("mlp", channels=1, side=4, classes=3, hidden_sizes=(5,))
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, models.build_model(spec, seed=8), extra={"round": 2, "accuracy": 0.5})
    assert_every_mutant_loads_or_raises_a_typed_error(path, lambda: checkpoint.load_model(path), seed=20261019)


def test_directory_in_place_of_a_checkpoint_is_a_typed_error(tmp_path):
    with pytest.raises(ConfigError, match=f"cannot read checkpoint {tmp_path}: Is a directory"):
        checkpoint.load_tensors(tmp_path)
