"""Experiment configuration: a flat INI document mirroring the type tree.

Every key has a default matching the reference hyperparameters (100 clients,
1000 rounds, participation 0.1, batch 10, 5 local epochs, lr 0.01 with
momentum 0.5 for federation; 200 adaptation epochs at lr 0.001; gate lr
0.001; local baseline 300 epochs at lr 0.1 with decay 0.1 every 100).
``DEFAULTS`` is the one list of keys: each section builds its dataclass from
the fields whose key it has, and records the values it read for the run
manifests. Validation is total: any bad value is rejected, naming the
section that set it and its key, before any compute starts.
"""

from __future__ import annotations

import configparser
import copy
import functools
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .data import PartitionSpec
from .errors import ConfigError
from .federation import FedConfig, derive_seed
from .models import ModelSpec
from .numerics.optim import SgdConfig
from .personalization import ALGORITHMS, PersonalizationConfig

DEFAULTS = {
    "run": {"seed": "42", "workers": "1", "out_dir": "runs/latest"},
    "dataset": {
        "source": "synthetic",
        "classes": "10",
        "channels": "1",
        "per_class": "120",
        "test_per_class": "40",
        "noise": "0.25",
        "center_jitter": "2.0",
        "train_images": "",
        "train_labels": "",
        "test_images": "",
        "test_labels": "",
    },
    "model": {"architecture": "lenet5", "hidden_sizes": "64"},
    "partition": {"clients": "100", "concentration": "0.5"},
    "federation": {
        "rounds": "1000",
        "participation": "0.1",
        "local_epochs": "5",
        "local_batch": "10",
        "lr": "0.01",
        "momentum": "0.5",
        "weight_decay": "0.0",
        "weighting": "sample",
        "eval_interval": "1",
    },
    "local_baseline": {
        "epochs": "300",
        "lr": "0.1",
        "momentum": "0.9",
        "weight_decay": "0.0005",
        "batch": "64",
        "lr_decay_factor": "0.1",
        "lr_decay_every": "100",
    },
    "personalization": {
        "epochs": "200",
        "adapt_lr": "0.001",
        "gate_lr": "0.001",
        "batch": "64",
        "split_ratio": "0.8",
        "adapt_momentum": "0.9",
        "adapt_weight_decay": "0.0005",
    },
}

# The INI key of each dataclass field whose name differs from its key.
_KEYS = {"learning_rate": "lr", "batch_size": "batch"}
# The [dataset] keys that DatasetConfig holds as idx_paths.
_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")
# local trains with the [local_baseline] keys; the others adapt with [personalization].
_ADAPTED = tuple(alg for alg in ALGORITHMS if alg != "local")
# How a raw value becomes each field type, and what a value that fails is said to need.
_CONVERT = {
    str: (str.strip, "text"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple[int, ...]: (lambda raw: [int(part) for part in raw.split(",")] if raw.strip() else [],
                      "comma-separated integers"),
}
_field_types = functools.cache(typing.get_type_hints)  # resolved once per dataclass


@dataclass(frozen=True)
class DatasetConfig:
    source: str  # synthetic | idx
    classes: int
    channels: int
    per_class: int
    test_per_class: int
    noise: float
    center_jitter: float
    idx_paths: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in ("synthetic", "idx"):
            raise ConfigError(f"source: expected synthetic or idx, got {self.source!r}")
        for key in _IDX_KEYS if self.source == "idx" else ():
            if not self.idx_paths.get(key):
                raise ConfigError(f"{key}: required when source is idx")
        if self.classes < 2:
            raise ConfigError(f"classes: need at least 2, got {self.classes}")
        if self.channels < 1:
            raise ConfigError(f"channels: must be positive, got {self.channels}")
        if self.source == "synthetic" and (self.per_class < 1 or self.test_per_class < 1):
            raise ConfigError("per_class: synthetic datasets need at least 1 example per class")
        for name in ("noise", "center_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise ConfigError(f"{name}: must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class LocalBaselineConfig:
    epochs: int
    sgd: SgdConfig
    batch: int

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs: must be nonnegative, got {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch: must be positive, got {self.batch}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: ModelSpec
    partition: PartitionSpec
    federation: FedConfig
    local_baseline: LocalBaselineConfig
    personalization: dict[str, PersonalizationConfig]
    out_dir: Path
    seed: int
    workers: int
    read: dict[str, dict]  # section -> INI key -> the value its dataclass took

    def snapshot(self) -> dict:
        """Resolved config as plain JSON-serializable data, for run manifests:
        the run keys, then every section's values under their INI keys."""
        return copy.deepcopy({"seed": self.seed, "workers": self.workers, "out_dir": str(self.out_dir), **self.read})


class _Section:
    """One section's raw values over its ``DEFAULTS``, a dotted section
    ([personalization.pfl_mf]) over its base section, each key with the
    section that set it. ``read`` collects what ``build`` gave its types."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        base = name.split(".")[0]
        self.name, self.values, self.read = name, dict(DEFAULTS[base]), {}
        self.origin = dict.fromkeys(self.values, base)
        for section in dict.fromkeys((base, name)):
            for key, raw in parser[section].items() if parser.has_section(section) else ():
                if key not in self.values:
                    raise ConfigError(f"{section}.{key}: unknown key")
                self.values[key], self.origin[key] = raw, section

    def value(self, key: str, kind=str):
        convert, needs = _CONVERT[kind]
        try:
            return convert(self.values[key])
        except ValueError:
            raise ConfigError(f"{self.origin[key]}.{key}: expected {needs}, got {self.values[key]!r}") from None

    def build(self, cls, **derived):
        """``cls`` from the derived values and from every field whose INI key
        this section has, converted by the field's type. A ``ConfigError``
        that ``cls`` raises for a field names the key and where it was set."""
        kinds = _field_types(cls)
        kwargs = dict(derived)
        for f in fields(cls):
            key = _KEYS.get(f.name, f.name)
            if is_dataclass(kinds[f.name]):
                kwargs[f.name] = self.build(kinds[f.name])
            elif f.name not in derived and key in self.values:
                kwargs[f.name] = self.read[key] = self.value(key, kinds[f.name])
        self.read.update(derived)
        try:
            return cls(**kwargs)
        except ConfigError as e:
            name, _, reason = str(e).partition(": ")
            key = _KEYS.get(name, name)
            raise ConfigError(f"{self.origin.get(key, self.name)}.{key}: {reason}") from None


def load_config(path, seed_override: int | None = None, workers_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    parser = configparser.ConfigParser(interpolation=None)  # a '%' in a value is literal
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():  # configparser would lay these keys over every section
        raise ConfigError(f"DEFAULT: unknown section; move {', '.join(parser.defaults())} to the sections they set")
    known_sections = set(DEFAULTS) | {f"personalization.{alg}" for alg in _ADAPTED}
    for section in parser.sections():
        if section == "personalization.local":
            raise ConfigError(f"{section}: local trains with the [local_baseline] keys; remove this section")
        if section not in known_sections:
            raise ConfigError(f"{section}: unknown section")
    run, ds, model, part, fed, local = (
        _Section(parser, name) for name in ("run", "dataset", "model", "partition", "federation", "local_baseline")
    )
    adapted = {alg: _Section(parser, f"personalization.{alg}") for alg in _ADAPTED}

    seed = run.value("seed", int) if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"run.seed: must be nonnegative, got {seed}")
    workers = run.value("workers", int) if workers_override is None else workers_override
    if workers < 1:
        raise ConfigError(f"run.workers: must be positive, got {workers}")
    idx_paths = {key: ds.value(key) for key in _IDX_KEYS} if ds.value("source") == "idx" else {}
    dataset = ds.build(DatasetConfig, idx_paths=idx_paths)
    return ExperimentConfig(
        dataset=dataset,
        model=model.build(ModelSpec, channels=dataset.channels, side=32, classes=dataset.classes),
        partition=part.build(PartitionSpec, seed=derive_seed(seed, 1)),
        federation=fed.build(FedConfig, seed=derive_seed(seed, 2)),
        local_baseline=local.build(LocalBaselineConfig),
        personalization={alg: section.build(PersonalizationConfig, algorithm=alg) for alg, section in adapted.items()},
        out_dir=Path(run.value("out_dir") if out_override is None else out_override),
        seed=seed,
        workers=workers,
        read={
            **{section.name: section.read for section in (ds, model, part, fed, local)},
            "personalization": {
                alg: {key: value for key, value in section.read.items() if key != "algorithm"}
                for alg, section in adapted.items()
            },
        },
    )
