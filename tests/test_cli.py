import json
import re
import struct
import threading

import numpy as np
import pytest

from fedmoe import checkpoint, cli, data, evaluation, personalization
from fedmoe.config import load_config
from fedmoe.numerics import Tensor
from mutants import assert_every_mutant_loads_or_raises_a_typed_error

CONFIG = """
[run]
seed = 11
out_dir = {out}

[dataset]
source = synthetic
classes = 4
per_class = 40
test_per_class = 15
noise = 0.3

[model]
architecture = mlp
hidden_sizes = 24

[partition]
clients = 6
concentration = 0.5

[federation]
rounds = 6
participation = 0.5
local_epochs = 2
local_batch = 10
lr = 0.05
momentum = 0.5

[local_baseline]
epochs = 10
lr = 0.05
batch = 16
lr_decay_every = 0

[personalization]
epochs = 5
adapt_lr = 0.01
gate_lr = 0.05
batch = 16
"""


@pytest.fixture()
def workspace(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(out=out))
    return config, out


def run(args):
    code = cli.main([str(a) for a in args])
    assert code == 0, f"command {args} exited {code}"


class TestPartitionCommand:
    def test_histogram_rows_sum_to_dataset_size(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        lines = (out / "partition_histogram.csv").read_text().splitlines()
        totals = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(totals) == 4 * 40

    def test_rerun_is_byte_identical(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        first = (out / "partition.json").read_bytes()
        run(["partition", "--config", config])
        assert (out / "partition.json").read_bytes() == first

    def test_iid_limit_histograms_near_uniform(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            CONFIG.format(out=tmp_path / "out").replace("concentration = 0.5", "concentration = 1e6")
        )
        run(["partition", "--config", config])
        lines = (tmp_path / "out" / "partition_histogram.csv").read_text().splitlines()
        counts = np.array([[int(v) for v in line.split(",")[1:-1]] for line in lines[1:]])
        # 40 per class over 6 clients: expect roughly 6-7 everywhere.
        assert np.abs(counts - 40 / 6).max() <= 2.5


class TestFedavgCommand:
    def test_round_csv_and_checkpoint(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert len(rounds) == 1 + 6
        params, manifest = checkpoint.load_model(out / "checkpoint.ckpt")
        assert manifest["accuracy"] >= 0.0
        assert params.count() > 0

    def test_checkpoint_reload_reproduces_accuracy(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        from fedmoe import models
        from fedmoe.config import load_config

        cfg = load_config(config)
        _, test = cli.build_datasets(cfg)
        params, manifest = checkpoint.load_model(out / "checkpoint.ckpt")
        acc = evaluation.global_test(lambda x: models.forward(params, x), test)
        assert acc == pytest.approx(manifest["accuracy"], abs=1e-12)

    def test_missing_partition_is_actionable(self, workspace, capsys):
        config, out = workspace
        assert cli.main(["fedavg", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "partition" in err and "fedmoe partition" in err

    @pytest.mark.parametrize("per_class", [30, 50], ids=["fewer_examples", "more_examples"])
    def test_partition_of_another_dataset_size_is_rejected(self, workspace, capsys, per_class):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        config.write_text(CONFIG.format(out=out).replace("\nper_class = 40", f"\nper_class = {per_class}"))
        for command in (["fedavg"], ["personalize", "--algorithm", "pfl_fb"]):
            assert cli.main(command + ["--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert "partition.json" in err and "fedmoe partition" in err


@pytest.mark.parametrize("field, change", [
    ("concentration", ("concentration = 0.5", "concentration = 5.0")),
    ("partition seed", ("seed = 11", "seed = 12")),
])
def test_partition_of_another_draw_is_rejected(workspace, capsys, field, change):
    config, out = workspace
    run(["partition", "--config", config])
    config.write_text(CONFIG.format(out=out).replace(*change))
    assert cli.main(["fedavg", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "partition.json" in err and field in err and "fedmoe partition" in err


def _edited(change):
    """A partition.json edit that changes the parsed blob and writes it back."""
    def edit(text):
        blob = json.loads(text)
        change(blob)
        return json.dumps(blob)

    return edit


# Hand edits of partition.json, each mapping the file's text to the edited text.
PARTITION_EDITS = {
    "malformed_json": lambda text: text[: len(text) // 2],
    "missing_key": _edited(lambda blob: blob.pop("clients")),
    "client_count": _edited(lambda blob: blob["clients"][0].extend(blob["clients"].pop())),
    "index_out_of_range": _edited(lambda blob: blob["clients"][0].append(blob["dataset_size"])),
    "index_not_integer": _edited(lambda blob: blob["clients"][0].__setitem__(0, 0.5)),
    "example_in_two_clients": _edited(lambda blob: blob["clients"][1].append(blob["clients"][0][0])),
}


@pytest.mark.parametrize("edit", sorted(PARTITION_EDITS))
def test_hand_edited_partition_is_rejected(workspace, capsys, edit):
    config, out = workspace
    run(["partition", "--config", config])
    path = out / "partition.json"
    path.write_text(PARTITION_EDITS[edit](path.read_text()))
    for command in (["fedavg"], ["personalize", "--algorithm", "pfl_fb"]):
        assert cli.main(command + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "partition.json" in err and "fedmoe partition" in err


def test_partition_that_leaves_examples_out_names_the_first(workspace, capsys):
    config, out = workspace
    run(["partition", "--config", config])
    path = out / "partition.json"
    blob = json.loads(path.read_text())
    dropped = [blob["clients"][0].pop(), blob["clients"][-1].pop(0)]
    path.write_text(json.dumps(blob))
    assert cli.main(["fedavg", "--config", str(config)]) == 2
    assert f"assigns example {min(dropped)} to no client; re-run `fedmoe partition" in capsys.readouterr().err


class TestPersonalizeCommand:
    def test_metrics_schema_per_algorithm(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        run(["personalize", "--config", config, "--algorithm", "pfl_fb"])
        run(["personalize", "--config", config, "--algorithm", "pfl_mf"])
        fb_header = (out / "metrics_pfl_fb.csv").read_text().splitlines()[0]
        mf_header = (out / "metrics_pfl_mf.csv").read_text().splitlines()[0]
        assert fb_header == "run_id,algorithm,client_id,local_acc,global_acc,seed"
        assert mf_header == "run_id,algorithm,client_id,local_acc,global_acc,seed,mean_g"

    @pytest.mark.parametrize("algorithm", ["local", "pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe"])
    def test_artifacts_reload_and_reproduce_predictions(self, workspace, algorithm):
        # Every client's recorded global accuracy, recomputed from its saved
        # artifacts through the library's inference path.
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        run(["personalize", "--config", config, "--algorithm", algorithm])
        from fedmoe import models, personalization
        from fedmoe.config import load_config

        cfg = load_config(config)
        _, test = cli.build_datasets(cfg)
        global_params, _ = checkpoint.load_model(out / "checkpoint.ckpt")
        split = models.split_model(global_params)
        feats = models.extract_features(split, test.features)
        records = evaluation.read_metrics_csv(out / f"metrics_{algorithm}.csv")
        assert [r.client_id for r in records] == list(range(6))
        for record in records:
            path = out / "clients" / algorithm / f"client_{record.client_id}.ckpt"
            tensors, manifest = checkpoint.load_tensors(path)
            assert manifest["client_id"] == record.client_id
            assert manifest.get("gate_input_mode") == personalization.GATE_INPUT.get(algorithm)
            head = {k: tensors[k] for k in split.classifier}
            if algorithm in ("local", "pfl_ft"):
                logits = models.forward(models.ModelParams(cfg.model, tensors), test.features)
            elif algorithm == "pfl_fb":
                logits = models.classify(split, feats, classifier=head)
            else:
                gate = {k: tensors[f"gate.{k}"] for k in ("weight", "bias")}
                client = personalization.PersonalizedClient(record.client_id, algorithm, head, gate, split)
                _, logits = personalization.mixture(client, test.features, feats)
            acc = float((logits.data.argmax(axis=1) == test.labels).mean())
            assert acc == pytest.approx(record.global_acc, abs=1e-10)

    def test_pfl_mfe_extracts_every_training_example_once(self, workspace, monkeypatch):
        from fedmoe import personalization

        config, _ = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        passes = []
        extract = personalization.extract_features

        def counting(split, x):
            passes.append(len(x))
            return extract(split, x)

        monkeypatch.setattr(personalization, "extract_features", counting)
        run(["personalize", "--config", config, "--algorithm", "pfl_mfe"])
        # One pass over each client's adaptation set and one over its gate set.
        assert len(passes) == 2 * 6
        assert sum(passes) == 4 * 40

    def test_missing_checkpoint_is_actionable(self, workspace, capsys):
        config, out = workspace
        run(["partition", "--config", config])
        assert cli.main(["personalize", "--config", str(config), "--algorithm", "pfl_fb"]) == 2
        assert "fedmoe fedavg" in capsys.readouterr().err

    def test_checkpoint_without_its_fedavg_manifest_is_rejected(self, workspace, capsys):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        (out / "manifest_fedavg.json").unlink()
        assert cli.main(["personalize", "--config", str(config), "--algorithm", "pfl_fb"]) == 2
        err = capsys.readouterr().err
        assert "checkpoint.ckpt" in err and "manifest_fedavg.json" in err and "re-run `fedmoe fedavg" in err

    def test_checkpoint_that_is_not_the_recorded_one_is_rejected(self, workspace, capsys):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        params, manifest = checkpoint.load_model(out / "checkpoint.ckpt")
        checkpoint.save_model(out / "checkpoint.ckpt", params, extra={**manifest, "round": manifest["round"] + 1})
        assert cli.main(["personalize", "--config", str(config), "--algorithm", "pfl_fb"]) == 2
        err = capsys.readouterr().err
        assert "checkpoint.ckpt" in err and "manifest_fedavg.json" in err and "re-run `fedmoe fedavg" in err

    @pytest.mark.parametrize("algorithm", ["pfl_mf", "pfl_mfe"])
    def test_one_example_client_is_named_in_the_split_error(self, workspace, capsys, algorithm):
        config, out = workspace
        run(["partition", "--config", config])
        path = out / "partition.json"
        blob = json.loads(path.read_text())
        blob["clients"][3].extend(blob["clients"][2][1:])
        del blob["clients"][2][1:]
        path.write_text(json.dumps(blob))
        run(["fedavg", "--config", config])
        assert cli.main(["personalize", "--config", str(config), "--algorithm", algorithm]) == 2
        err = capsys.readouterr().err
        assert f"{algorithm}: client 2: cannot split a client with 1 example(s)" in err
        assert "partition.clients" in err and "partition.concentration" in err

    @pytest.mark.parametrize("key, change", [
        ("seed", ("seed = 11", "seed = 12")),
        ("federation.rounds", ("rounds = 6", "rounds = 7")),
    ])
    def test_checkpoint_of_another_fedavg_config_is_rejected(self, workspace, capsys, key, change):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        config.write_text(CONFIG.format(out=out).replace(*change))
        run(["partition", "--config", config])
        assert cli.main(["personalize", "--config", str(config), "--algorithm", "pfl_fb"]) == 2
        err = capsys.readouterr().err
        assert f"trained with {key} = " in err and "re-run `fedmoe fedavg" in err

    @pytest.mark.parametrize("algorithm", ["pfl_fb", "pfl_mf", "pfl_mfe"])
    def test_client_checkpoints_do_not_depend_on_the_worker_count(self, workspace, algorithm):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        written = {}
        for workers in ("1", "3"):
            run(["personalize", "--config", config, "--algorithm", algorithm, "--workers", workers])
            paths = sorted((out / "clients" / algorithm).glob("client_*.ckpt"))
            paths.append(out / f"metrics_{algorithm}.csv")
            written[workers] = {p.name: p.read_bytes() for p in paths}
        assert len(written["1"]) == 7 and written["1"] == written["3"]


class TestDivergence:
    """A learning rate that drives a parameter to inf or NaN ends in a typed
    error that says where, not in a traceback."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fedavg(self, workspace, capsys):
        config, out = workspace
        config.write_text(CONFIG.format(out=out).replace("lr = 0.05\nmomentum = 0.5", "lr = 1e200\nmomentum = 0.5"))
        run(["partition", "--config", config])
        assert cli.main(["fedavg", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: fedavg round 1: parameter '[\w.]+' of client \d+ is not finite after a step "
                            r"in epoch [12]; lower the learning rate\n", err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pfl_fb(self, workspace, capsys):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        config.write_text(CONFIG.format(out=out).replace("adapt_lr = 0.01", "adapt_lr = 1e200"))
        assert cli.main(["personalize", "--config", str(config), "--algorithm", "pfl_fb"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: pfl_fb: parameter 'out\.(weight|bias)' of client \d+ is not finite after a "
                            r"step in epoch \d; lower the learning rate\n", err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_local_on_two_workers(self, workspace, capsys, monkeypatch):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        config.write_text(CONFIG.format(out=out).replace("epochs = 10\nlr = 0.05", "epochs = 10\nlr = 1e200"))
        threads = set()
        train = personalization.train_local_baseline

        def recording(*args, **kwargs):
            threads.add(threading.current_thread())
            return train(*args, **kwargs)

        monkeypatch.setattr(personalization, "train_local_baseline", recording)
        args = ["personalize", "--config", str(config), "--algorithm", "local", "--workers", "2"]
        assert cli.main(args) == 2
        assert threads and threading.main_thread() not in threads
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: local: parameter '[\w.]+' of client [0-5] is not finite after a step in "
                            r"epoch \d+; lower the learning rate\n", err)


class TestReportCommand:
    def test_single_algorithm_single_row(self, workspace, tmp_path):
        records = [evaluation.MetricsRecord("r", "pfl_fb", i, 0.5 + 0.1 * i, 0.4, 1) for i in range(3)]
        path = tmp_path / "m.csv"
        evaluation.write_metrics_csv(records, path)
        out = tmp_path / "report"
        run(["report", path, "--out", out])
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("pfl_fb,3,0.6")

    def test_deltas_of_baseline_against_itself_are_zero(self, workspace, tmp_path):
        records = [evaluation.MetricsRecord("r", "fedavg", i, 0.5, 0.5, 1) for i in range(3)]
        records += [evaluation.MetricsRecord("r", "pfl_mf", i, 0.5, 0.5, 1) for i in range(3)]
        path = tmp_path / "m.csv"
        evaluation.write_metrics_csv(records, path)
        out = tmp_path / "report"
        run(["report", path, "--out", out])
        for line in (out / "deltas.csv").read_text().splitlines()[1:]:
            _, _, dl, dg = line.split(",")
            assert float(dl) == 0.0 and float(dg) == 0.0

    def test_matches_hand_computed_means(self, workspace, tmp_path):
        rows = [(0, 0.8, 0.3), (1, 0.6, 0.5), (2, 0.7, 0.7)]
        records = [evaluation.MetricsRecord("r", "local", c, l, g, 1) for c, l, g in rows]
        path = tmp_path / "m.csv"
        evaluation.write_metrics_csv(records, path)
        out = tmp_path / "report"
        run(["report", path, "--out", out])
        line = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert float(line[2]) == pytest.approx(0.7, abs=1e-9)
        assert float(line[3]) == pytest.approx(0.5, abs=1e-9)

    def test_client_id_of_non_ascii_digits_stays_text(self, tmp_path):
        # "²" and "٣" are digits to str.isdigit; int() rejects the first and
        # reads the second as 3.
        path = tmp_path / "m.csv"
        path.write_text("run_id,algorithm,client_id,local_acc,global_acc,seed\n"
                        "r,local,\u00b2,0.5,0.4,1\nr,local,\u0663,0.7,0.6,1\nr,local,3,0.6,0.5,1\n",
                        encoding="utf-8")
        assert [r.client_id for r in evaluation.read_metrics_csv(path)] == ["\u00b2", "\u0663", 3]
        out = tmp_path / "report"
        run(["report", path, "--out", out])
        assert (out / "report.csv").read_text().splitlines()[1].startswith("local,3,0.6")

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read metrics file {path}: No such file or directory"),
        ("r,pfl_fb,0,0.5,0.4,1\n", "{path} line 1: the header has no 'run_id' column"),
        ("run_id,algorithm,client_id,local_acc,global_acc,seed\nr,local,0,0.5,0.4,1\nr,local,1,high,0.4,1\n",
         "{path} line 3, column local_acc: cannot read 'high'"),
        ("run_id,algorithm,client_id,local_acc,global_acc,seed\nr,local,0,0.5\n",
         "{path} line 2, column global_acc: cannot read None"),
        ("run_id,algorithm,client_id,local_acc,global_acc,seed\nr,local,0,0.5,0.4,1,0.9\n",
         "{path} line 2: 1 more value(s) than the header has columns"),
        (b"\xff\xfe\x00binary", "{path} is not a readable CSV file"),
    ], ids=["missing file", "no header", "non-numeric local_acc", "short row", "long row", "binary file"])
    def test_bad_metrics_file_is_an_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "m.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert cli.main(["report", str(path), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1


@pytest.mark.parametrize("cols, header, message", [
    (28, {4: 0}, "header image count must be positive, got 0"),
    (28, {4: -2}, "header image count must be positive, got -2"),
    (28, {8: 0}, "header rows must be positive, got 0"),
    (30, {}, "28x28 or 32x32 inputs, got 28x30"),
], ids=["zero count", "negative count", "zero rows", "non-square"])
def test_bad_idx_file_is_an_error_line(tmp_path, capsys, cols, header, message):
    images = data.LabeledDataset(Tensor(np.zeros((8, 1, 28, cols))), np.arange(8) % 4, classes=4)
    paths = {key: tmp_path / key for key in ("train_images", "train_labels", "test_images", "test_labels")}
    data.write_idx(images, paths["train_images"], paths["train_labels"])
    data.write_idx(images, paths["test_images"], paths["test_labels"])
    raw = bytearray(paths["train_images"].read_bytes())
    for offset, value in header.items():
        raw[offset : offset + 4] = struct.pack(">i", value)
    paths["train_images"].write_bytes(bytes(raw))
    idx = "".join(f"{key} = {path}\n" for key, path in paths.items())
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(out=tmp_path / "out").replace("source = synthetic", f"source = idx\n{idx}"))
    assert cli.main(["partition", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["non-text config", "missing idx file"])
def test_unreadable_input_is_an_error_line(tmp_path, capsys, case):
    config, text = tmp_path / "exp.ini", CONFIG.format(out=tmp_path / "out")
    if case == "non-text config":
        config.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        message = f"malformed config file {config}: 'utf-8' codec can't decode"
    else:
        paths = {key: tmp_path / key for key in ("train_images", "train_labels", "test_images", "test_labels")}
        idx = "".join(f"{key} = {path}\n" for key, path in paths.items())
        config.write_text(text.replace("source = synthetic", f"source = idx\n{idx}"))
        message = f"cannot read IDX file {paths['train_images']}: No such file or directory"
    assert cli.main(["partition", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1


# The run files each command reads: the commands that write them, then the one that reads them.
RUN_FILES = {
    "partition.json": ([["partition"]], ["fedavg"]),
    "manifest_fedavg.json": ([["partition"], ["fedavg"]], ["personalize", "--algorithm", "pfl_fb"]),
    "checkpoint.ckpt": ([["partition"], ["fedavg"]], ["personalize", "--algorithm", "pfl_fb"]),
}


@pytest.mark.parametrize("name", [*RUN_FILES, "IDX file", "metrics CSV"])
def test_directory_in_place_of_an_input_is_an_error_line(workspace, capsys, name):
    config, out = workspace
    if name in RUN_FILES:
        writers, reader = RUN_FILES[name]
        for command in writers:
            run([*command, "--config", config])
        path, args = out / name, [*reader, "--config", config]
        path.unlink()
    elif name == "IDX file":
        keys = ("train_images", "train_labels", "test_images", "test_labels")
        idx = "".join(f"{key} = {config.parent / key}\n" for key in keys)
        config.write_text(CONFIG.format(out=out).replace("source = synthetic", f"source = idx\n{idx}"))
        path, args = config.parent / "train_images", ["partition", "--config", config]
    else:
        path, args = out / "metrics_local.csv", ["report", out / "metrics_local.csv", "--out", out]
    path.mkdir(parents=True)
    assert cli.main([str(a) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and f"{path}: Is a directory" in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["partition.json", "manifest_fedavg.json"])
def test_json_run_file_nested_too_deeply_is_an_error_line(workspace, capsys, name):
    config, out = workspace
    writers, reader = RUN_FILES[name]
    for command in writers:
        run([*command, "--config", config])
    (out / name).write_text("[" * 100_000)
    assert cli.main([*reader, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{out / name}: text nests too deeply to read; re-run `fedmoe " in err and "(at byte offset 0)" in err


def test_every_partition_mutant_loads_or_raises_a_typed_error(workspace):
    config, out = workspace
    run(["partition", "--config", config])
    cfg = load_config(config)
    train, _ = cli.build_datasets(cfg)
    assert_every_mutant_loads_or_raises_a_typed_error(out / "partition.json", lambda: cli.load_partition(cfg, train),
                                                      seed=20261022)


def test_every_fedavg_manifest_mutant_loads_or_raises_a_typed_error(workspace):
    config, out = workspace
    run(["partition", "--config", config])
    run(["fedavg", "--config", config])
    cfg = load_config(config)
    assert_every_mutant_loads_or_raises_a_typed_error(
        out / "manifest_fedavg.json", lambda: cli._check_checkpoint(cfg, out / "checkpoint.ckpt"), seed=20261023
    )


@pytest.mark.parametrize("case", ["percent in a value", "negative seed flag", "DEFAULT section"])
def test_config_value_error_is_an_error_line(tmp_path, capsys, case):
    # A '%' in a value is literal, so '6%' is a value that is not an integer.
    config, text = tmp_path / "exp.ini", CONFIG.format(out=tmp_path / "out")
    args = ["partition", "--config", str(config)]
    if case == "percent in a value":
        config.write_text(text.replace("rounds = 6", "rounds = 6%"))
        message = "federation.rounds: expected an integer, got '6%'"
    elif case == "DEFAULT section":
        # configparser lays [DEFAULT]'s keys over every section, so the loader refuses it.
        config.write_text("[DEFAULT]\nepochs = 3\n" + text)
        message = "DEFAULT: unknown section; move epochs to the sections they set"
    else:
        config.write_text(text)
        args += ["--seed", "-1"]
        message = "run.seed: must be nonnegative, got -1"
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_percent_in_the_output_path_is_literal(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(out=tmp_path / "runs" / "50%"))
    assert cli.main(["partition", "--config", str(config)]) == 0
    assert (tmp_path / "runs" / "50%" / "partition.json").exists()


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for kernel in ("conv2d", "conv2d_input_grad", "conv2d_kernel_grad", "max_pool2x2", "max_pool2x2_grad"):
            assert f"PASS  {kernel} " in out


class TestFullPipelineDeterminism:
    def test_rerun_and_worker_count_byte_identical(self, workspace):
        config, out = workspace
        run(["partition", "--config", config])
        run(["fedavg", "--config", config])
        run(["personalize", "--config", config, "--algorithm", "pfl_mf"])
        reference = {
            name: (out / name).read_bytes()
            for name in ("partition.json", "rounds.csv", "metrics_fedavg.csv", "metrics_pfl_mf.csv")
        }
        run(["partition", "--config", config, "--workers", "2"])
        run(["fedavg", "--config", config, "--workers", "2"])
        run(["personalize", "--config", config, "--algorithm", "pfl_mf", "--workers", "2"])
        for name, blob in reference.items():
            assert (out / name).read_bytes() == blob, f"{name} changed across reruns"


def test_run_manifest_contents(workspace):
    config, out = workspace
    run(["partition", "--config", config])
    run(["fedavg", "--config", config])
    manifest = json.loads((out / "manifest_fedavg.json").read_text())
    assert manifest["seed"] == 11
    assert len(manifest["checkpoint_sha256"]) == 64
    assert manifest["config"]["federation"]["rounds"] == 6
