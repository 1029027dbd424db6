"""Metric definitions and the per-layer table computed from traced spans.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
``selftest_checks.py`` keeps the two in step.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import CONV_SITES, DENSE_SITES, POOL_SITES, self_times
from workloads import ALGORITHMS

# (name, unit, better, bound). The machine the benchmark was tuned on shares
# its two cores with other tenants, whose load moves phase times by up to 30%
# for tens of seconds at a time. Over ten seeds at 55 s per run the quartile
# spread of a phase time was 0.04-0.07 of the median in calm sets and up to
# 0.22 in busy ones, hence the widest bound allowed. Peak
# memory follows the largest client's one-batch feature extraction, so it
# moves with the seed's partition.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("fedavg_s", "s", "lower", 0.25),
    ("eval_pass_s", "s", "lower", 0.25),
    *[(f"{alg}_s", "s", "lower", 0.25) for alg in ALGORITHMS],
    ("reference_projection_h", "h", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

KERNEL_ROWS = [
    *[(fn, site) for fn in ("conv2d", "conv2d_input_grad", "conv2d_kernel_grad") for site in CONV_SITES],
    *[(fn, site) for fn in ("max_pool2x2", "max_pool2x2_grad") for site in POOL_SITES],
    *[("dense", site) for site in DENSE_SITES],
    ("cross_entropy", "loss"),
    ("cross_entropy_grad", "loss"),
]
PERSONALIZATION_FNS = ("train_local_baseline", "pfl_ft", "pfl_fb", "run_pfl_mf", "run_pfl_mfe")

# (name, unit, better)
PER_LAYER = [
    *[m for fn, site in KERNEL_ROWS for m in (
        (f"kernels.{fn}.{site}.calls", "count", "lower"),
        (f"kernels.{fn}.{site}.self_s", "s", "lower"),
        (f"kernels.{fn}.{site}.gflop", "GFLOP", "lower"),
    )],
    ("graph.record.self_s", "s", "lower"),
    ("graph.gradient.calls", "count", "lower"),
    ("graph.gradient.self_s", "s", "lower"),
    ("optim.sgd_step.calls", "count", "lower"),
    ("optim.sgd_step.self_s", "s", "lower"),
    ("tensor.wrap.calls", "count", "lower"),
    ("tensor.wrap.self_s", "s", "lower"),
    *[m for fn in ("forward", "forward_graph", "extract_features", "classify", "gate_forward") for m in (
        (f"models.{fn}.calls", "count", "lower"),
        (f"models.{fn}.self_s", "s", "lower"),
    )],
    ("federation.local_update.p50_s", "s", "lower"),
    ("federation.local_update.p90_s", "s", "lower"),
    ("federation.aggregate.self_s", "s", "lower"),
    ("federation.round.p50_s", "s", "lower"),
    ("federation.round.p90_s", "s", "lower"),
    ("federation.worker_idle_share", "ratio", "lower"),
    *[m for fn in PERSONALIZATION_FNS for m in (
        (f"personalization.{fn}.p50_s", "s", "lower"),
        (f"personalization.{fn}.p90_s", "s", "lower"),
    )],
    ("personalization.mean_gate_weight.self_s", "s", "lower"),
    ("evaluation.global_test.calls", "count", "lower"),
    ("evaluation.global_test.self_s", "s", "lower"),
    ("evaluation.per_class_accuracy.calls", "count", "lower"),
    ("evaluation.per_class_accuracy.self_s", "s", "lower"),
    ("evaluation.predict_labels.examples_per_s", "1/s", "higher"),
    ("data.make_synthetic.self_s", "s", "lower"),
    ("data.dirichlet_partition.self_s", "s", "lower"),
    ("data.subset.calls", "count", "lower"),
    ("data.subset.self_s", "s", "lower"),
    ("data.split_per_gate.self_s", "s", "lower"),
    ("checkpoint.save_tensors.calls", "count", "lower"),
    ("checkpoint.save_tensors.self_s", "s", "lower"),
    ("checkpoint.save_tensors.bytes", "B", "lower"),
    ("checkpoint.load_model.self_s", "s", "lower"),
    ("cli.build_datasets.self_s", "s", "lower"),
    ("cli.cmd_partition.self_s", "s", "lower"),
    ("cli.cmd_fedavg.self_s", "s", "lower"),
    ("cli.cmd_personalize.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_table(cols: dict[str, np.ndarray], names: list[str], tags: list[tuple]):
    """Per-layer metrics plus the kernel rows split by batch size.

    Returns (metrics, kernel_rows) where metrics maps every PER_LAYER name
    except the trace.* ones to a value (0 for a layer the run never entered).
    """
    self_s = self_times(cols)
    dur = cols["end"] - cols["start"]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, nid in enumerate(cols["name"]):
        by_name[names[nid]].append(i)
    idx = {k: np.array(v, dtype=np.int64) for k, v in by_name.items()}
    empty = np.zeros(0, dtype=np.int64)

    def rows(name):
        return idx.get(name, empty)

    out: dict[str, float] = {}
    kernel_rows: dict[tuple, dict] = {}
    for fn, site in KERNEL_ROWS:
        out[f"kernels.{fn}.{site}.calls"] = 0
        out[f"kernels.{fn}.{site}.self_s"] = 0.0
        out[f"kernels.{fn}.{site}.gflop"] = 0.0
    kernel_spans = [i for name, r in idx.items() if name.startswith("kernels.") for i in r.tolist()]
    for i in kernel_spans:
        fn = names[cols["name"][i]].split(".", 1)[1]
        site, batch, flop = tags[cols["tag"][i]]
        if not site:
            continue
        key = f"kernels.{fn}.{site}"
        if f"{key}.calls" in out:
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += float(self_s[i])
            out[f"{key}.gflop"] += flop / 1e9
        row = kernel_rows.setdefault((fn, site, batch), {"calls": 0, "self_s": 0.0, "gflop": 0.0})
        row["calls"] += 1
        row["self_s"] += float(self_s[i])
        row["gflop"] += flop / 1e9

    def total_self(name):
        return float(self_s[rows(name)].sum())

    def calls(name):
        return int(len(rows(name)))

    out["graph.record.self_s"] = total_self("graph.record")
    for name in ("graph.gradient", "optim.sgd_step", "tensor.wrap", "evaluation.global_test",
                 "evaluation.per_class_accuracy", "data.subset", "checkpoint.save_tensors"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = total_self(name)
    for fn in ("forward", "forward_graph", "extract_features", "classify", "gate_forward"):
        out[f"models.{fn}.calls"] = calls(f"models.{fn}")
        out[f"models.{fn}.self_s"] = total_self(f"models.{fn}")
    for name in ("personalization.mean_gate_weight", "federation.aggregate", "data.make_synthetic",
                 "data.dirichlet_partition", "data.split_per_gate", "checkpoint.load_model",
                 "cli.build_datasets", "cli.cmd_partition", "cli.cmd_fedavg", "cli.cmd_personalize"):
        out[f"{name}.self_s"] = total_self(name)

    local = dur[rows("federation.local_update")]
    out["federation.local_update.p50_s"] = _pct(local, 50)
    out["federation.local_update.p90_s"] = _pct(local, 90)
    # A round's training wall runs from client sampling to the end of
    # aggregation; evaluation is timed under evaluation.*.
    samples = sorted(cols["start"][rows("federation.sample_clients")])
    ends = sorted(cols["end"][rows("federation.aggregate")])
    round_wall = np.array([e - s for s, e in zip(samples, ends)])
    out["federation.round.p50_s"] = _pct(round_wall, 50)
    out["federation.round.p90_s"] = _pct(round_wall, 90)
    # Every workload runs one worker, so this is the share of round time spent
    # outside client updates: sampling and aggregation.
    capacity = float(round_wall.sum())
    out["federation.worker_idle_share"] = 1.0 - float(local.sum()) / capacity if capacity > 0 else 0.0
    for fn in PERSONALIZATION_FNS:
        d = dur[rows(f"personalization.{fn}")]
        out[f"personalization.{fn}.p50_s"] = _pct(d, 50)
        out[f"personalization.{fn}.p90_s"] = _pct(d, 90)

    predict = rows("evaluation.predict_labels")
    examples = sum(tags[t][1] for t in cols["tag"][predict])
    seconds = float(dur[predict].sum())
    out["evaluation.predict_labels.examples_per_s"] = examples / seconds if seconds > 0 else 0.0
    out["checkpoint.save_tensors.bytes"] = int(sum(tags[t][2] for t in cols["tag"][rows("checkpoint.save_tensors")]))

    table = [
        {"fn": fn, "site": site, "batch": batch, **row,
         "ms_per_call": 1e3 * row["self_s"] / row["calls"],
         "gflop_per_s": row["gflop"] / row["self_s"] if row["self_s"] > 0 else 0.0}
        for (fn, site, batch), row in sorted(kernel_rows.items())
    ]
    return out, table

