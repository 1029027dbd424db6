"""Tests of the benchmark itself: its output check, tracer and declared metrics.

    python3 -m pytest -q bench/selftest_checks.py

The check must accept what the current code writes and reject corrupted
artifacts, wrong kernels and models that stopped learning. The file name
keeps these tests out of the repository's default pytest collection; they run
the desk_mlp pipeline once and the lenet5 pipeline twice (about a minute).
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fedmoe.errors import EvaluationError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = WORKLOADS["desk_mlp"]
SEED = 0  # one of the seeds reference.json was recorded from


def _run_pipeline(workload, out: Path):
    pipe = run.Pipeline(workload, SEED, out)
    pipe.setup_once()
    pipe.iteration()
    return pipe


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    pipe = _run_pipeline(WORKLOAD, tmp_path_factory.mktemp("desk_mlp"))
    assert all(op["ok"] for op in pipe.ops), [op for op in pipe.ops if not op["ok"]]
    return pipe


@pytest.fixture(scope="module")
def lenet5(tmp_path_factory):
    pipe = _run_pipeline(WORKLOADS["lenet5"], tmp_path_factory.mktemp("lenet5"))
    assert all(op["ok"] for op in pipe.ops), [op for op in pipe.ops if not op["ok"]]
    return pipe


def _copy(pipe, tmp_path) -> tuple[Path, object]:
    out = tmp_path / "out"
    shutil.copytree(pipe.out, out)
    return out, pipe.cfg


def _failed(out: Path, cfg, workload: str = WORKLOAD.name) -> set[str]:
    return {c.name for c in checks.check_outputs(cfg, out, workload) if not c.ok}


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def test_check_accepts_the_current_outputs(outputs, tmp_path):
    out, cfg = _copy(outputs, tmp_path)
    results = checks.check_outputs(cfg, out, WORKLOAD.name)
    assert [c for c in results if not c.ok] == []
    names = {c.name for c in results}
    assert {"checkpoint", "clients_pfl_mf", "reference.fedavg.best_acc"} <= names


def test_truncated_metrics_csv_is_rejected(outputs, tmp_path):
    out, cfg = _copy(outputs, tmp_path)
    path = out / "metrics_pfl_mf.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert "metrics_pfl_mf" in _failed(out, cfg)


def test_zeroed_global_checkpoint_tensor_is_rejected(outputs, tmp_path):
    from fedmoe import checkpoint

    out, cfg = _copy(outputs, tmp_path)
    tensors, manifest = checkpoint.load_tensors(out / "checkpoint.ckpt")
    tensors["hidden1.weight"] = type(tensors["hidden1.weight"])(np.zeros(tensors["hidden1.weight"].shape))
    manifest.pop("tensors")
    checkpoint.save_tensors(out / "checkpoint.ckpt", tensors, manifest)
    assert "checkpoint" in _failed(out, cfg)


@pytest.mark.parametrize("alg,tensor", [("pfl_ft", "hidden1.weight"), ("pfl_mfe", "out.weight")])
def test_zeroed_client_checkpoint_tensor_is_rejected(outputs, tmp_path, alg, tensor):
    from fedmoe import checkpoint

    out, cfg = _copy(outputs, tmp_path)
    path = out / "clients" / alg / "client_0.ckpt"
    tensors, manifest = checkpoint.load_tensors(path)
    tensors[tensor] = type(tensors[tensor])(np.zeros(tensors[tensor].shape))
    manifest.pop("tensors")
    checkpoint.save_tensors(path, tensors, manifest)
    assert f"clients_{alg}" in _failed(out, cfg)


def test_missing_client_checkpoint_is_rejected(outputs, tmp_path):
    out, cfg = _copy(outputs, tmp_path)
    (out / "clients" / "local" / "client_3.ckpt").unlink()
    assert "clients_local" in _failed(out, cfg)


def test_accuracy_outside_the_reference_band_is_rejected(outputs, tmp_path):
    out, cfg = _copy(outputs, tmp_path)
    _rewrite_csv(out / "metrics_pfl_fb.csv", lambda rows: [{**r, "local_acc": "0.1000000000"} for r in rows])
    assert "reference.pfl_fb.mean_local_acc" in _failed(out, cfg)


def test_gate_weight_at_the_boundary_is_rejected(outputs, tmp_path):
    out, cfg = _copy(outputs, tmp_path)
    _rewrite_csv(out / "metrics_pfl_mf.csv", lambda rows: [{**r, "mean_g": "1.0000000000"} for r in rows])
    assert "metrics_pfl_mf" in _failed(out, cfg)


def test_a_repetition_that_writes_other_bytes_is_flagged(outputs, tmp_path):
    out, _ = _copy(outputs, tmp_path)
    pipe = run.Pipeline(WORKLOAD, SEED, out)
    pipe._same_as_first("pfl_fb")
    _rewrite_csv(out / "metrics_pfl_fb.csv", lambda rows: rows[::-1])
    pipe._same_as_first("pfl_fb")
    assert [op["ok"] for op in pipe.ops] == [True, False]


def test_lenet5_check_accepts_the_current_outputs(lenet5):
    results = checks.check_outputs(lenet5.cfg, lenet5.out, "lenet5")
    assert [c for c in results if not c.ok] == []
    names = {c.name for c in results}
    assert {"kernel.conv2d.conv1.b10", "kernel.conv2d_input_grad.conv1.b64", "kernel.max_pool2x2_grad.pool2.b64",
            "reference.pfl_mf.mean_global_acc"} <= names


@pytest.mark.parametrize("fn,wrong", [
    ("conv2d", lambda f: lambda x, k, b: f(x, k[:, :, ::-1, ::-1], b)),
    ("conv2d_input_grad", lambda f: lambda dy, k: 0.5 * f(dy, k)),
    ("conv2d_kernel_grad", lambda f: lambda x, dy, khw: f(x, dy, khw).swapaxes(2, 3)),
    ("max_pool2x2_grad", lambda f: lambda dy, mask: np.roll(f(dy, mask), 1, axis=-1)),
])
def test_lenet5_wrong_kernel_is_rejected(lenet5, monkeypatch, fn, wrong):
    from fedmoe.numerics import kernels

    monkeypatch.setattr(kernels, fn, wrong(getattr(kernels, fn)))
    failed = _failed(lenet5.out, lenet5.cfg, "lenet5")
    assert {name for name in failed if name.startswith(f"kernel.{fn}.")}


def test_lenet5_model_that_stopped_learning_is_rejected(monkeypatch, tmp_path):
    # Without optimizer steps fedavg keeps its round-0 initialisation as the
    # best checkpoint, and every personalized model stays at its start.
    from fedmoe import federation, personalization

    for module in (federation, personalization):
        monkeypatch.setattr(module, "sgd_step", lambda params, grads, state, cfg: params)
    pipe = _run_pipeline(WORKLOADS["lenet5"], tmp_path / "out")
    failed = _failed(pipe.out, pipe.cfg, "lenet5")
    assert {f"reference.{q}" for q in ("fedavg.best_acc", "pfl_ft.mean_global_acc", "pfl_fb.mean_global_acc",
                                        "pfl_mf.mean_global_acc", "pfl_mfe.mean_global_acc")} <= failed


def test_a_failing_phase_is_counted_and_the_result_still_prints(monkeypatch, capsys):
    from fedmoe import federation

    def broken(*args, **kwargs):
        raise RuntimeError("fedavg broke")

    monkeypatch.setattr(federation, "train_federated", broken)
    assert run.main(["--workload", "desk_mlp", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 2 and result["attempted"] > result["failed"]
    assert set(result["metrics"]) == {name for name, *_ in metrics.END_TO_END}


@pytest.mark.xfail(strict=True, raises=EvaluationError, reason="fedmoe defect: a perfect local accuracy can sum to "
                   "1.0000000000000002 and the program's own [0, 1] check then rejects it")
def test_a_perfect_local_accuracy_is_recorded():
    # Four classes in a 46-example client; every class predicted right. The
    # class ratios sum to one plus a rounding error.
    from fedmoe import evaluation

    ratios = evaluation.class_ratios(np.repeat(np.arange(4), [27, 4, 5, 10]), 10)
    local = evaluation.local_test_from_per_class(np.ones(10), ratios)
    record = evaluation.MetricsRecord(run_id="r", algorithm="pfl_fb", client_id=0, local_acc=local,
                                      global_acc=1.0, seed=0)
    assert record.local_acc <= 1.0


def test_reference_bands_cover_every_recorded_seed():
    reference = checks.load_reference()
    for name, entry in reference["workloads"].items():
        assert name in WORKLOADS
        for quantity, band in entry["bands"].items():
            for value in entry["values"][quantity]:
                assert abs(value - band["median"]) <= band["tolerance"]
                assert value >= band.get("floor", 0.0)


def test_tracing_keeps_outputs_and_restores_every_function(outputs, tmp_path):
    from fedmoe import federation, models
    from fedmoe.numerics import kernels
    from fedmoe.numerics.tensor import Tensor

    def current():
        return kernels.dense, models.forward_graph, federation.forward_graph, Tensor.__dict__["_wrap"]

    before = current()
    pipe = run.Pipeline(WORKLOAD, SEED, tmp_path / "traced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert federation.forward_graph is models.forward_graph is not before[1]
        pipe.setup_once()
        pipe.run_phase("fedavg")
    finally:
        tracer.uninstall()
    assert current() == before
    assert all(op["ok"] for op in pipe.ops)
    for name in ("rounds.csv", "metrics_fedavg.csv", "checkpoint.ckpt"):
        assert pipe.digests[name] == outputs.digests[name]
    names = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"kernels.dense", "graph.gradient", "federation.local_update", "cli.cmd_fedavg"} <= names


def test_self_time_subtracts_the_direct_children():
    # parent [0, 10] with children [1, 5] and [6, 9]; a grandchild [1, 2]
    # inside the first child counts against that child only.
    cols = {
        "id": np.array([0, 1, 2, 3]),
        "start": np.array([0.0, 1.0, 6.0, 1.0]),
        "end": np.array([10.0, 5.0, 9.0, 2.0]),
        "parent": np.array([-1, 0, 0, 1]),
    }
    assert tracing.self_times(cols).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_benchmark_json_declares_the_metrics_the_benchmark_prints():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == metrics.PER_LAYER
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
