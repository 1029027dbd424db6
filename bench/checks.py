"""Output checks for one workload run.

Three kinds of check, none of which compares bytes against a stored hash, so
a later change that moves float summation order on purpose cannot fail them:

* structure: one metrics row per client, accuracies in [0, 1], ``mean_g`` in
  (0, 1) for the mixture algorithms, every checkpoint loads with the
  configured spec and finite values;
* consistency: accuracies recomputed from the written checkpoints match the
  accuracies the program reported for them, up to one test example;
* reference: the fedavg best accuracy and each algorithm's mean local and
  global accuracy fall within ``reference.json``'s band, which was derived
  from the spread of those values across workload seeds, and stay above the
  band's floor above chance where it has one;
* kernels (LeNet-5 only): the convolution and pooling kernels, with the
  checkpoint's conv weights at the workload's batch sizes, agree with direct
  numpy references to a float tolerance. The consistency checks reuse the
  program's own forward pass, so they alone cannot see a wrong kernel.

Byte-identity of ``metrics_*.csv`` between repeated runs of the same code is
checked by the caller, which sees the repetitions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import ALGORITHMS

MOE = ("pfl_mf", "pfl_mfe")
# Largest allowed max-abs difference from a kernel reference, relative to the
# reference's largest magnitude: far above float64 rounding under any
# summation order, far below any wrong index or dropped term.
KERNEL_RTOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=1) == labels).mean())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _guard(name: str, fn) -> Check:
    """Run one check; any exception it raises is that check failing."""
    try:
        ok, detail = fn()
    except Exception as e:  # noqa: BLE001 - a crash inside a check is a failed check
        return Check(name, False, f"{type(e).__name__}: {e}")
    return Check(name, bool(ok), detail)


def summary_values(out_dir: Path) -> dict[str, float]:
    """The accuracies the reference bands constrain."""
    rows = _read_rows(out_dir / "metrics_fedavg.csv")
    values = {"fedavg.best_acc": float(rows[0]["global_acc"])}
    for alg in ALGORITHMS:
        rows = _read_rows(out_dir / f"metrics_{alg}.csv")
        values[f"{alg}.mean_local_acc"] = float(np.mean([float(r["local_acc"]) for r in rows]))
        values[f"{alg}.mean_global_acc"] = float(np.mean([float(r["global_acc"]) for r in rows]))
    return values


def check_outputs(cfg, out_dir: Path, workload: str) -> list[Check]:
    """Every check on a finished pipeline's artifacts in ``out_dir``."""
    from fedmoe import checkpoint, cli, models

    n_clients = cfg.partition.clients
    train, test = cli.build_datasets(cfg)
    state: dict = {}
    checks: list[Check] = []

    def partition():
        clients = json.loads((out_dir / "partition.json").read_text())["clients"]
        flat = sorted(i for c in clients for i in c)
        return len(clients) == n_clients and flat == list(range(len(train))), f"{len(clients)} clients"

    def global_checkpoint():
        params, manifest = checkpoint.load_model(out_dir / "checkpoint.ckpt")
        state["params"], state["manifest"] = params, manifest
        finite = all(np.isfinite(t.data).all() for t in params.tensors.values())
        logits = models.forward(params, test.features).data
        acc = _accuracy(logits, test.labels)
        ok = params.spec == cfg.model and finite and abs(acc - manifest["accuracy"]) <= 1 / len(test) + 1e-9
        return ok, f"recomputed {acc:.6f}, recorded {manifest['accuracy']:.6f}"

    def rounds():
        rows = _read_rows(out_dir / "rounds.csv")
        accs = [float(r["global_acc"]) for r in rows if r["global_acc"]]
        best = state["manifest"]["accuracy"]
        ok = (
            [int(r["round"]) for r in rows] == list(range(1, cfg.federation.rounds + 1))
            and all(0.0 <= a <= 1.0 for a in accs)
            and all(a <= best for a in accs)
        )
        return ok, f"{len(rows)} rounds, best {best:.6f}"

    def metrics_rows(alg):
        def check():
            rows = _read_rows(out_dir / f"metrics_{alg}.csv")
            ids = [int(r["client_id"]) for r in rows]
            accs = [float(r[k]) for r in rows for k in ("local_acc", "global_acc")]
            ok = ids == list(range(n_clients)) and all(0.0 <= a <= 1.0 for a in accs)
            if alg in MOE:
                gates = [float(r["mean_g"]) for r in rows]
                ok = ok and all(0.0 < g < 1.0 for g in gates)
            else:
                ok = ok and "mean_g" not in rows[0]
            if alg == "fedavg":
                ok = ok and all(abs(float(r["global_acc"]) - state["manifest"]["accuracy"]) < 1e-9 for r in rows)
            state[alg] = rows
            return ok, f"{len(rows)} rows"
        return check

    def client_checkpoints(alg):
        def check():
            params = state["params"]
            split = models.split_model(params)
            head = {k: t.shape for k, t in split.classifier.items()}
            expected = {k: t.shape for k, t in params.tensors.items()} if alg in ("local", "pfl_ft") else dict(head)
            if alg in MOE:
                dim = cfg.model.raw_input_dim if alg == "pfl_mf" else cfg.model.feature_dim
                expected.update({"gate.weight": (dim, 1), "gate.bias": (1,)})
            files = sorted((out_dir / "clients" / alg).glob("client_*.ckpt"))
            if len(files) != n_clients:
                return False, f"{len(files)} client checkpoints for {n_clients} clients"
            loaded = {}
            for path in files:
                tensors, _ = checkpoint.load_tensors(path)
                shapes = {k: t.shape for k, t in tensors.items()}
                if shapes != expected or not all(np.isfinite(t.data).all() for t in tensors.values()):
                    return False, f"{path.name}: tensors {shapes} do not match {expected}"
                loaded[path.name] = tensors
            # Recompute client 0's global-test accuracy from its checkpoint.
            t = loaded["client_0.ckpt"]
            if alg in ("local", "pfl_ft"):
                logits = models.forward(models.ModelParams(cfg.model, t), test.features).data
            else:
                feats = models.extract_features(split, test.features)
                local_head = {k: t[k] for k in head}
                local = models.classify(split, feats, classifier=local_head).data
                if alg == "pfl_fb":
                    logits = local
                else:
                    glob = models.classify(split, feats).data
                    v = test.features.data.reshape(len(test), -1) if alg == "pfl_mf" else feats.data
                    g = _sigmoid(v @ t["gate.weight"].data[:, 0] + t["gate.bias"].data[0])[:, None]
                    logits = g * glob + (1.0 - g) * local
            acc = _accuracy(logits, test.labels)
            recorded = float(state[alg][0]["global_acc"])
            ok = abs(acc - recorded) <= 1 / len(test) + 1e-9
            return ok, f"client 0 recomputed {acc:.6f}, recorded {recorded:.6f}"
        return check

    checks.append(_guard("partition", partition))
    checks.append(_guard("checkpoint", global_checkpoint))
    if "manifest" not in state:
        return checks
    checks.append(_guard("rounds", rounds))
    checks.append(_guard("metrics_fedavg", metrics_rows("fedavg")))
    for alg in ALGORITHMS:
        checks.append(_guard(f"metrics_{alg}", metrics_rows(alg)))
        if alg in state:
            checks.append(_guard(f"clients_{alg}", client_checkpoints(alg)))
    checks.extend(check_reference(out_dir, workload))
    if cfg.model.architecture == "lenet5":
        checks.extend(check_kernels(state["params"], _conv_batches(cfg)))
    return checks


def _conv_batches(cfg) -> list[int]:
    """Batch sizes that train through the convolutions."""
    return sorted({cfg.federation.local_batch, cfg.local_baseline.batch, cfg.personalization["pfl_ft"].batch_size})


# Direct references: one shifted slice per kernel offset (p, q), contracted
# over channels with tensordot. The program's kernels use other formulations.
def conv2d_ref(x, k, b):
    f, _, kh, kw = k.shape
    ho, wo = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.broadcast_to(b[None, :, None, None], (x.shape[0], f, ho, wo)).copy()
    for p in range(kh):
        for q in range(kw):
            out += np.tensordot(x[:, :, p:p + ho, q:q + wo], k[:, :, p, q], axes=([1], [1])).transpose(0, 3, 1, 2)
    return out


def conv2d_input_grad_ref(dy, k):
    n, _, ho, wo = dy.shape
    _, c, kh, kw = k.shape
    dx = np.zeros((n, c, ho + kh - 1, wo + kw - 1))
    for p in range(kh):
        for q in range(kw):
            dx[:, :, p:p + ho, q:q + wo] += np.tensordot(dy, k[:, :, p, q], axes=([1], [0])).transpose(0, 3, 1, 2)
    return dx


def conv2d_kernel_grad_ref(x, dy, khw):
    kh, kw = khw
    ho, wo = dy.shape[2], dy.shape[3]
    dk = np.empty((dy.shape[1], x.shape[1], kh, kw))
    for p in range(kh):
        for q in range(kw):
            dk[:, :, p, q] = np.tensordot(dy, x[:, :, p:p + ho, q:q + wo], axes=([0, 2, 3], [0, 2, 3]))
    return dk


def max_pool2x2_ref(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def _upsample2x2(a):
    return a.repeat(2, axis=2).repeat(2, axis=3)


def max_pool2x2_grad_ref(x, dy):
    """Gradient of sum(max_pool2x2(x) * dy); x must have no ties in a window."""
    return (x == _upsample2x2(max_pool2x2_ref(x))) * _upsample2x2(dy)


def _close(got, want) -> tuple[bool, str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False, f"shape {got.shape}, expected {want.shape}"
    err = float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)
    return err <= KERNEL_RTOL, f"relative error {err:.2e}"


def check_kernels(params, batches: list[int]) -> list[Check]:
    """One check per (kernel, layer, batch): the program's kernel against the
    reference on random inputs, with the layer's trained weights."""
    from fedmoe.numerics import kernels

    rng = np.random.default_rng(0)
    checks = []
    convs = [name[: -len(".weight")] for name, t in params.tensors.items() if t.data.ndim == 4]
    for batch in batches:
        side = params.spec.side
        for layer in convs:
            k, b = params.tensors[f"{layer}.weight"].data, params.tensors[f"{layer}.bias"].data
            x = rng.uniform(0.0, 1.0, (batch, k.shape[1], side, side))
            out_side = side - k.shape[2] + 1
            dy = rng.normal(size=(batch, k.shape[0], out_side, out_side))
            a = rng.normal(size=(batch, k.shape[0], out_side, out_side))  # pool input: no ties
            dp = rng.normal(size=(batch, k.shape[0], out_side // 2, out_side // 2))
            cases = {
                "conv2d": (lambda: kernels.conv2d(x, k, b), lambda: conv2d_ref(x, k, b)),
                "conv2d_input_grad": (lambda: kernels.conv2d_input_grad(dy, k), lambda: conv2d_input_grad_ref(dy, k)),
                "conv2d_kernel_grad": (lambda: kernels.conv2d_kernel_grad(x, dy, k.shape[2:]),
                                       lambda: conv2d_kernel_grad_ref(x, dy, k.shape[2:])),
                "max_pool2x2": (lambda: kernels.max_pool2x2(a)[0], lambda: max_pool2x2_ref(a)),
                "max_pool2x2_grad": (lambda: kernels.max_pool2x2_grad(dp, kernels.max_pool2x2(a)[1]),
                                     lambda: max_pool2x2_grad_ref(a, dp)),
            }
            pool = layer.replace("conv", "pool")
            for fn, (got, want) in cases.items():
                site = pool if fn.startswith("max_pool") else layer
                checks.append(_guard(f"kernel.{fn}.{site}.b{batch}", lambda got=got, want=want: _close(got(), want())))
            side = out_side // 2
    return checks


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_reference(out_dir: Path, workload: str) -> list[Check]:
    """One check per banded accuracy: |value - median| <= tolerance and value >= floor."""
    try:
        bands = load_reference()["workloads"][workload]["bands"]
    except (OSError, KeyError, ValueError) as e:
        return [Check("reference", False, f"no reference bands for {workload}: {type(e).__name__}: {e}")]
    try:
        values = summary_values(out_dir)
    except Exception as e:  # noqa: BLE001 - unreadable outputs fail every band
        return [Check(f"reference.{q}", False, f"{type(e).__name__}: {e}") for q in bands]
    checks = []
    for quantity, band in bands.items():
        value = values[quantity]
        floor = band.get("floor", 0.0)
        ok = abs(value - band["median"]) <= band["tolerance"] and value >= floor
        checks.append(Check(f"reference.{quantity}", ok,
                            f"{value:.6f} vs {band['median']:.6f} +- {band['tolerance']:.6f}, floor {floor:.6f}"))
    return checks
