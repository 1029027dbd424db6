import json
import re

import pytest

from fedmoe.config import DEFAULTS, load_config
from fedmoe.errors import ConfigError
from mutants import assert_every_mutant_loads_or_raises_a_typed_error


BASE = """
[run]
seed = 3
out_dir = {out}

[dataset]
source = synthetic
classes = 4
per_class = 30
test_per_class = 10

[model]
architecture = mlp
hidden_sizes = 16

[partition]
clients = 5
concentration = 0.5

[federation]
rounds = 2
participation = 0.5
"""


def write_config(tmp_path, body=None, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text((body or BASE).format(out=tmp_path / "out") + extra)
    return path


def test_defaults_follow_reference_hyperparameters(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.federation.local_epochs == 5
    assert cfg.federation.local_batch == 10
    assert cfg.federation.sgd.learning_rate == pytest.approx(0.01)
    assert cfg.federation.sgd.momentum == pytest.approx(0.5)
    assert cfg.local_baseline.epochs == 300
    assert cfg.local_baseline.sgd.learning_rate == pytest.approx(0.1)
    assert cfg.local_baseline.sgd.momentum == pytest.approx(0.9)
    assert cfg.local_baseline.sgd.weight_decay == pytest.approx(0.0005)
    assert cfg.local_baseline.sgd.lr_decay_factor == pytest.approx(0.1)
    assert cfg.local_baseline.sgd.lr_decay_every == 100
    assert cfg.local_baseline.batch == 64
    pfl = cfg.personalization["pfl_mf"]
    assert pfl.epochs == 200
    assert pfl.adapt_lr == pytest.approx(0.001)
    assert pfl.gate_lr == pytest.approx(0.001)
    assert pfl.split_ratio == pytest.approx(0.8)


def test_overrides_and_seed_derivation(tmp_path):
    path = write_config(tmp_path)
    a = load_config(path)
    b = load_config(path, seed_override=99)
    assert a.seed == 3 and b.seed == 99
    assert a.partition.seed != b.partition.seed
    assert a.partition.seed != a.federation.seed
    # Same seed, same derivations.
    assert load_config(path).partition.seed == a.partition.seed


def test_per_algorithm_override_section(tmp_path):
    path = write_config(tmp_path, extra="\n[personalization.pfl_mfe]\nepochs = 7\n")
    cfg = load_config(path)
    assert cfg.personalization["pfl_mfe"].epochs == 7
    assert cfg.personalization["pfl_mf"].epochs == 200
    # [personalization] sets every algorithm; an algorithm's own section wins.
    shared = "\n[personalization]\nepochs = 9\nbatch = 8\n"
    path = write_config(tmp_path, extra=shared + "\n[personalization.pfl_mfe]\nepochs = 7\n")
    cfg = load_config(path)
    assert (cfg.personalization["pfl_mfe"].epochs, cfg.personalization["pfl_mfe"].batch_size) == (7, 8)
    assert cfg.personalization["pfl_mf"].epochs == 9
    # local trains with [local_baseline], so [personalization] builds no entry for it.
    assert "local" not in cfg.personalization


def test_personalization_local_section_is_rejected(tmp_path):
    # local trains for [local_baseline] epochs; this section would be ignored.
    path = write_config(tmp_path, extra="\n[personalization.local]\nepochs = 1\n")
    with pytest.raises(ConfigError, match=r"personalization\.local: local trains with the \[local_baseline\] keys"):
        load_config(path)


def test_error_messages_carry_field_path(tmp_path):
    path = write_config(tmp_path, extra="\n[personalization]\nsplit_ratio = 1.5\n")
    with pytest.raises(ConfigError, match="split_ratio"):
        load_config(path)

    path2 = tmp_path / "bad2.ini"
    path2.write_text(BASE.format(out=tmp_path).replace("participation = 0.5", "participation = 0"))
    with pytest.raises(ConfigError, match="federation.participation"):
        load_config(path2)


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_config(tmp_path, extra="\n[mystery]\nx = 1\n"))
    path = tmp_path / "bad3.ini"
    path.write_text(BASE.format(out=tmp_path).replace("rounds = 2", "rounds = 2\nlr_typo = 3"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_duplicate_section_is_config_error(tmp_path):
    path = write_config(tmp_path, extra="\n[federation]\nrounds = 3\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_idx_source_requires_paths(tmp_path):
    body = BASE.replace("source = synthetic", "source = idx")
    with pytest.raises(ConfigError, match="train_images"):
        load_config(write_config(tmp_path, body=body))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


# A value other than the default for every personalization key.
PERSONALIZATION_KNOBS = {"epochs": 7, "adapt_lr": 0.003, "gate_lr": 0.004, "batch": 9, "split_ratio": 0.7,
                         "adapt_momentum": 0.6, "adapt_weight_decay": 0.002}


def test_snapshot_round_trips_every_knob(tmp_path):
    assert set(PERSONALIZATION_KNOBS) == set(DEFAULTS["personalization"])
    knobs = "".join(f"{key} = {value}\n" for key, value in PERSONALIZATION_KNOBS.items())
    cfg = load_config(write_config(tmp_path, extra="\n[personalization]\n" + knobs))
    snap = cfg.snapshot()
    assert snap["federation"]["rounds"] == 2
    assert snap["model"]["hidden_sizes"] == [16]
    assert set(snap["personalization"]) == {"pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe"}
    for alg, recorded in snap["personalization"].items():
        for key, value in PERSONALIZATION_KNOBS.items():
            assert recorded[key] == value, (alg, key)
    json.dumps(snap)  # must be JSON-serializable as written


@pytest.mark.parametrize("section, key, value", [
    ("run", "seed", "-3"),
    ("dataset", "channels", "0"),
    ("dataset", "noise", "nan"),
    ("dataset", "noise", "inf"),
    ("dataset", "noise", "-0.5"),
    ("dataset", "center_jitter", "-1"),
    ("dataset", "center_jitter", "nan"),
    ("dataset", "center_jitter", "inf"),
    ("model", "hidden_sizes", "0"),
    ("model", "hidden_sizes", "-4"),
    ("model", "hidden_sizes", "16, 0"),
    ("partition", "concentration", "inf"),
    ("partition", "concentration", "nan"),
    ("federation", "weight_decay", "nan"),
    ("local_baseline", "weight_decay", "inf"),
    ("personalization", "adapt_lr", "inf"),
    ("personalization", "gate_lr", "inf"),
    ("personalization", "adapt_momentum", "nan"),
    ("personalization", "adapt_weight_decay", "inf"),
    ("federation", "lr", "inf"),
    ("local_baseline", "lr", "inf"),
    ("local_baseline", "epochs", "-1"),
    ("local_baseline", "batch", "0"),
    ("personalization", "batch", "0"),
    ("personalization.pfl_mf", "batch", "0"),
])
def test_value_outside_its_range_is_a_config_error_naming_it(tmp_path, section, key, value):
    # BASE with key = value in its [section], in place of any value BASE gives.
    lines = [line for line in BASE.format(out=tmp_path / "out").splitlines() if not line.startswith(f"{key} = ")]
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    at = lines.index(f"[{section}]") + 1
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n")
    # The error names the INI key and the section that set it.
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: "):
        load_config(path)


def test_snapshot_holds_each_sections_keys(tmp_path):
    # Every DEFAULTS key reaches the manifests under its section, with the IDX
    # paths folded into idx_paths and the derived seeds and model sizes added.
    snap = load_config(write_config(tmp_path)).snapshot()
    expected = {section: set(keys) for section, keys in DEFAULTS.items()}
    expected["dataset"] -= {"train_images", "train_labels", "test_images", "test_labels"}
    expected["dataset"] |= {"idx_paths"}
    expected["model"] |= {"channels", "side", "classes"}
    expected["partition"] |= {"seed"}
    expected["federation"] |= {"seed"}
    run = expected.pop("run")
    assert set(snap) == run | set(expected)
    for section, keys in expected.items():
        recorded = snap[section].values() if section == "personalization" else [snap[section]]
        for entry in recorded:
            assert set(entry) == keys, section


# BASE with every section set, as the mutation test's starting point.
FULL = BASE.format(out="runs/full") + """
[local_baseline]
epochs = 10
lr = 0.05
batch = 16
lr_decay_every = 0

[personalization]
epochs = 5
adapt_lr = 0.01
batch = 16

[personalization.pfl_mf]
gate_lr = 0.05
"""


def test_every_truncation_and_seeded_byte_substitution_loads_or_raises_a_typed_error(tmp_path):
    path = write_config(tmp_path, body=FULL)
    load_config(path)
    assert_every_mutant_loads_or_raises_a_typed_error(path, lambda: load_config(path), seed=20261019)
