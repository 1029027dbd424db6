"""Span tracing for ``--trace 1`` runs, installed from outside the program.

The tracer replaces public functions of the ``fedmoe`` modules with wrappers
that record one span per call: name, start, end, parent span, run id (the
pipeline phase it belongs to) and a tag with the call's shape-derived counts.
Spans stay in memory as flat arrays and are written out once at the end.
Nothing under ``src/`` changes; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from array import array

import numpy as np

# LeNet-5 and the desk MLP, told apart by weight shape. A dense weight of
# width 1 is the linear gate of pfl_mf / pfl_mfe.
_DENSE_SITES = {(400, 120): "fc1", (120, 84): "fc2", (84, 10): "fc3", (1024, 32): "hidden1", (32, 10): "out"}
_CONV_SITES = {6: "conv1", 16: "conv2"}  # by filter count
_POOL_SITES = {28: "pool1", 10: "pool2"}  # by input side
DENSE_SITES = ("fc1", "fc2", "fc3", "hidden1", "out", "gate")
CONV_SITES = ("conv1", "conv2")
POOL_SITES = ("pool1", "pool2")


def _dense_site(w) -> str:
    if w.shape[1] == 1:
        return "gate"
    return _DENSE_SITES.get(w.shape, f"{w.shape[0]}x{w.shape[1]}")


# Each describer maps (args, result) to (site, batch, flop). Convolutions and
# dense layers count 2 flop per multiply-add; pooling and the loss count one
# operation per input element.
def _conv2d(args, _):
    x, k = args[0], args[1]
    n, f, (c, kh, kw) = x.shape[0], k.shape[0], k.shape[1:]
    ho, wo = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    return _CONV_SITES.get(f, f"conv{f}"), n, 2 * n * f * c * kh * kw * ho * wo


def _conv2d_input_grad(args, _):
    dy, k = args[0], args[1]
    n, f, ho, wo = dy.shape
    c, kh, kw = k.shape[1:]
    return _CONV_SITES.get(f, f"conv{f}"), n, 2 * n * c * (ho + kh - 1) * (wo + kw - 1) * f * kh * kw


def _conv2d_kernel_grad(args, _):
    x, dy, (kh, kw) = args[0], args[1], args[2]
    n, f, ho, wo = dy.shape
    return _CONV_SITES.get(f, f"conv{f}"), n, 2 * n * f * x.shape[1] * kh * kw * ho * wo


def _max_pool(args, _):
    x = args[0]
    return _POOL_SITES.get(x.shape[-1], f"pool{x.shape[-1]}"), x.shape[0], x.size


def _max_pool_grad(args, _):
    dy = args[0]
    return _POOL_SITES.get(2 * dy.shape[-1], f"pool{2 * dy.shape[-1]}"), dy.shape[0], 4 * dy.size


def _dense(args, _):
    x, w = args[0], args[1]
    return _dense_site(w), x.shape[0], 2 * x.shape[0] * w.shape[0] * w.shape[1]


def _loss(args, _):
    logits = args[0]
    return "loss", logits.shape[0], logits.size


def _examples(args, _):
    return "", len(args[1]), 0


def _bytes_written(args, _):
    return "", 0, os.path.getsize(args[0])


# (module, attribute, span name, describer). Kernel spans carry a site; the
# graph's op functions all record under one name, since they are one layer.
TARGETS = [
    *[("fedmoe.numerics.kernels", fn, f"kernels.{fn}", d) for fn, d in (
        ("conv2d", _conv2d),
        ("conv2d_input_grad", _conv2d_input_grad),
        ("conv2d_kernel_grad", _conv2d_kernel_grad),
        ("max_pool2x2", _max_pool),
        ("max_pool2x2_grad", _max_pool_grad),
        ("dense", _dense),
        ("cross_entropy", _loss),
        ("cross_entropy_grad", _loss),
        ("relu", None),
        ("sigmoid", None),
    )],
    *[("fedmoe.numerics.graph", fn, "graph.record", None) for fn in (
        "dense", "conv2d", "relu", "sigmoid", "max_pool2x2", "reshape", "flatten",
        "add", "mul", "sum_all", "mix", "cross_entropy",
    )],
    ("fedmoe.numerics.graph", "gradient", "graph.gradient", None),
    ("fedmoe.numerics.optim", "sgd_step", "optim.sgd_step", None),
    ("fedmoe.numerics.tensor", "Tensor._wrap", "tensor.wrap", None),
    *[("fedmoe.models", fn, f"models.{fn}", None) for fn in (
        "forward", "forward_graph", "extract_features", "classify", "gate_forward",
    )],
    *[("fedmoe.federation", fn, f"federation.{fn}", None) for fn in (
        "train_federated", "sample_clients", "local_update", "aggregate",
    )],
    *[("fedmoe.personalization", fn, f"personalization.{fn}", None) for fn in (
        "train_local_baseline", "pfl_ft", "pfl_fb", "run_pfl_mf", "run_pfl_mfe", "mean_gate_weight",
    )],
    ("fedmoe.evaluation", "global_test", "evaluation.global_test", None),
    ("fedmoe.evaluation", "per_class_accuracy", "evaluation.per_class_accuracy", None),
    ("fedmoe.evaluation", "predict_labels", "evaluation.predict_labels", _examples),
    ("fedmoe.data", "make_synthetic", "data.make_synthetic", None),
    ("fedmoe.data", "dirichlet_partition", "data.dirichlet_partition", None),
    ("fedmoe.data", "split_per_gate", "data.split_per_gate", None),
    ("fedmoe.data", "LabeledDataset.subset", "data.subset", None),
    ("fedmoe.checkpoint", "save_tensors", "checkpoint.save_tensors", _bytes_written),
    ("fedmoe.checkpoint", "load_model", "checkpoint.load_model", None),
    *[("fedmoe.cli", fn, f"cli.{fn}", None) for fn in (
        "build_datasets", "cmd_partition", "cmd_fedavg", "cmd_personalize",
    )],
]


class Tracer:
    """Records one span per call of a wrapped function. Every workload runs
    on one thread, so one stack gives each span its parent."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[tuple] = [("", 0, 0)]  # tag 0: no tag
        self._tag_ids: dict[tuple, int] = {}
        self.cols = {k: array(t) for k, t in (
            ("id", "q"), ("name", "i"), ("start", "d"), ("end", "d"), ("parent", "q"), ("run", "i"), ("tag", "i"),
        )}
        self.run_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _tag_id(self, tag: tuple) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def wrap(self, fn, name: str, describe=None):
        name_id = self._name_id(name)
        perf = time.perf_counter
        cols, stack = self.cols, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
            tag = self._tag_id(describe(args, result)) if describe else 0
            cols["id"].append(sid)
            cols["name"].append(name_id)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent)
            cols["run"].append(self.run_id)
            cols["tag"].append(tag)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in every fedmoe module that holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fedmoe" or n.startswith("fedmoe.")]
        for module_name, attr, name, describe in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, describe)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, describe))
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            traced = self.wrap(original, name, describe)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0) for k, v in self.cols.items()}

    def save(self, path, run_names: list[str]) -> None:
        """Write every span, plus the name, tag and run tables, as one .npz file."""
        cols = self.arrays()
        tags = np.array([f"{s}|{b}|{f}" for s, b, f in self.tags])
        np.savez_compressed(path, names=np.array(self.names), tags=tags, runs=np.array(run_names), **cols)


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = cols["end"] - cols["start"]
    row_of = {int(sid): i for i, sid in enumerate(cols["id"])}
    child_total = np.zeros(len(dur))
    for i, pid in enumerate(cols["parent"]):
        if pid >= 0:
            child_total[row_of[int(pid)]] += dur[i]
    return dur - child_total
