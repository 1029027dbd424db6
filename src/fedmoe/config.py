"""Experiment configuration: a flat INI document mirroring the type tree.

Every key has a default matching the reference hyperparameters (100 clients,
1000 rounds, participation 0.1, batch 10, 5 local epochs, lr 0.01 with
momentum 0.5 for federation; 200 adaptation epochs at lr 0.001; gate lr
0.001; local baseline 300 epochs at lr 0.1 with decay 0.1 every 100).
Validation is total: any bad value is rejected, with its section.key path,
before any compute starts.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field
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

    def snapshot(self) -> dict:
        """Resolved config as plain JSON-serializable data, for run manifests."""
        return {
            "seed": self.seed,
            "workers": self.workers,
            "out_dir": str(self.out_dir),
            "dataset": asdict(self.dataset),
            "model": self.model.to_json(),
            "partition": asdict(self.partition),
            "federation": {
                "rounds": self.federation.rounds,
                "participation": self.federation.participation,
                "local_epochs": self.federation.local_epochs,
                "local_batch": self.federation.local_batch,
                "lr": self.federation.sgd.learning_rate,
                "momentum": self.federation.sgd.momentum,
                "weight_decay": self.federation.sgd.weight_decay,
                "weighting": self.federation.weighting,
                "eval_interval": self.federation.eval_interval,
                "seed": self.federation.seed,
            },
            "local_baseline": {
                "epochs": self.local_baseline.epochs,
                "lr": self.local_baseline.sgd.learning_rate,
                "momentum": self.local_baseline.sgd.momentum,
                "weight_decay": self.local_baseline.sgd.weight_decay,
                "lr_decay_factor": self.local_baseline.sgd.lr_decay_factor,
                "lr_decay_every": self.local_baseline.sgd.lr_decay_every,
                "batch": self.local_baseline.batch,
            },
            "personalization": {
                alg: {key: value for key, value in asdict(cfg).items() if key != "algorithm"}
                for alg, cfg in self.personalization.items()
            },
        }


class _Reader:
    """Typed access to one parsed section, with section.key error paths."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        # A dotted section ([personalization.pfl_mf]) overrides its base section.
        self.section, base = section, section.split(".")[0]
        self.values = dict(DEFAULTS.get(base, {}))
        for name in dict.fromkeys((base, section)):
            if parser.has_section(name):
                self.values.update(parser[name])

    def _get(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"{self.section}.{key}: unknown key")
        return self.values[key]

    def str(self, key: str) -> str:
        return self._get(key).strip()

    def int(self, key: str) -> int:
        raw = self._get(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.section}.{key}: expected an integer, got {raw!r}") from None

    def float(self, key: str) -> float:
        raw = self._get(key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.section}.{key}: expected a number, got {raw!r}") from None

    def int_list(self, key: str) -> tuple[int, ...]:
        raw = self._get(key).strip()
        if not raw:
            return ()
        try:
            return tuple(int(part.strip()) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{self.section}.{key}: expected comma-separated integers, got {raw!r}") from None

    def check_known_keys(self):
        known = set(DEFAULTS.get(self.section.split(".")[0], {}))
        unknown = set(self.values) - known
        if unknown:
            raise ConfigError(f"{self.section}.{sorted(unknown)[0]}: unknown key")


def _wrap(section: str, build):
    try:
        return build()
    except ConfigError as e:
        msg = str(e)
        if msg.startswith(section):
            raise
        raise ConfigError(f"{section}.{msg}") from None


def load_config(path, seed_override: int | None = None, workers_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known_sections = set(DEFAULTS) | {f"personalization.{alg}" for alg in ALGORITHMS}
    for section in parser.sections():
        if section == "personalization.local":
            raise ConfigError(f"{section}: local trains with the [local_baseline] keys; remove this section")
        if section not in known_sections:
            raise ConfigError(f"{section}: unknown section")

    run = _Reader(parser, "run")
    run.check_known_keys()
    seed = seed_override if seed_override is not None else run.int("seed")
    workers = workers_override if workers_override is not None else run.int("workers")
    if workers < 1:
        raise ConfigError(f"run.workers: must be positive, got {workers}")
    out_dir = Path(out_override if out_override is not None else run.str("out_dir"))

    ds = _Reader(parser, "dataset")
    ds.check_known_keys()
    source = ds.str("source")
    idx_paths = {}
    if source == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            value = ds.str(key)
            if not value:
                raise ConfigError(f"dataset.{key}: required when source is idx")
            idx_paths[key] = value
    dataset = _wrap(
        "dataset",
        lambda: DatasetConfig(
            source=source,
            classes=ds.int("classes"),
            channels=ds.int("channels"),
            per_class=ds.int("per_class"),
            test_per_class=ds.int("test_per_class"),
            noise=ds.float("noise"),
            center_jitter=ds.float("center_jitter"),
            idx_paths=idx_paths,
        ),
    )

    model = _Reader(parser, "model")
    model.check_known_keys()
    spec = _wrap(
        "model",
        lambda: ModelSpec(
            architecture=model.str("architecture"),
            channels=dataset.channels,
            side=32,
            classes=dataset.classes,
            hidden_sizes=model.int_list("hidden_sizes"),
        ),
    )

    part = _Reader(parser, "partition")
    part.check_known_keys()
    partition = _wrap(
        "partition",
        lambda: PartitionSpec(
            clients=part.int("clients"),
            concentration=part.float("concentration"),
            seed=derive_seed(seed, 1),
        ),
    )

    fed = _Reader(parser, "federation")
    fed.check_known_keys()
    federation_cfg = _wrap(
        "federation",
        lambda: FedConfig(
            rounds=fed.int("rounds"),
            participation=fed.float("participation"),
            local_epochs=fed.int("local_epochs"),
            local_batch=fed.int("local_batch"),
            sgd=SgdConfig(
                learning_rate=fed.float("lr"),
                momentum=fed.float("momentum"),
                weight_decay=fed.float("weight_decay"),
            ),
            seed=derive_seed(seed, 2),
            weighting=fed.str("weighting"),
            eval_interval=fed.int("eval_interval"),
        ),
    )

    local = _Reader(parser, "local_baseline")
    local.check_known_keys()
    local_epochs = local.int("epochs")
    if local_epochs < 0:
        raise ConfigError(f"local_baseline.epochs: must be nonnegative, got {local_epochs}")
    local_batch = local.int("batch")
    if local_batch < 1:
        raise ConfigError(f"local_baseline.batch: must be positive, got {local_batch}")
    local_cfg = _wrap(
        "local_baseline",
        lambda: LocalBaselineConfig(
            epochs=local_epochs,
            sgd=SgdConfig(
                learning_rate=local.float("lr"),
                momentum=local.float("momentum"),
                weight_decay=local.float("weight_decay"),
                lr_decay_factor=local.float("lr_decay_factor"),
                lr_decay_every=local.int("lr_decay_every"),
            ),
            batch=local_batch,
        ),
    )

    base = _Reader(parser, "personalization")
    base.check_known_keys()
    personalization_cfgs: dict[str, PersonalizationConfig] = {}
    for alg in ALGORITHMS:
        reader = _Reader(parser, f"personalization.{alg}")
        reader.check_known_keys()
        personalization_cfgs[alg] = _wrap(
            f"personalization.{alg}",
            lambda r=reader, a=alg: PersonalizationConfig(
                algorithm=a,
                epochs=r.int("epochs"),
                adapt_lr=r.float("adapt_lr"),
                gate_lr=r.float("gate_lr"),
                batch_size=r.int("batch"),
                split_ratio=r.float("split_ratio"),
                adapt_momentum=r.float("adapt_momentum"),
                adapt_weight_decay=r.float("adapt_weight_decay"),
            ),
        )

    return ExperimentConfig(
        dataset=dataset,
        model=spec,
        partition=partition,
        federation=federation_cfg,
        local_baseline=local_cfg,
        personalization=personalization_cfgs,
        out_dir=out_dir,
        seed=seed,
        workers=workers,
    )
