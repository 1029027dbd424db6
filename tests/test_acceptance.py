"""Acceptance suite: one test per criterion, each printing a pass/fail line
(see conftest.py). Trend criteria run the full pipeline through the CLI
entry points at desk scale; tolerances are pinned in-line."""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from fedmoe import cli, data, evaluation, federation, models, personalization
from fedmoe.config import load_config
from fedmoe.numerics import SgdConfig, Tensor, graph
from fedmoe.numerics.optim import OptimizerState

GRAD_TOL = 1e-4
EXACT_TOL = 1e-12

TREND_CONFIG = """
[run]
seed = {seed}
out_dir = {out}

[dataset]
source = synthetic
classes = 10
per_class = 120
test_per_class = 40
noise = 0.3
center_jitter = 2.0

[model]
architecture = mlp
hidden_sizes = 32

[partition]
clients = 20
concentration = 0.5

[federation]
rounds = 50
participation = 0.3
local_epochs = 2
local_batch = 10
lr = 0.05
momentum = 0.5
eval_interval = 5

[local_baseline]
epochs = 40
lr = 0.05
momentum = 0.9
batch = 32
lr_decay_every = 0

[personalization]
epochs = 30
adapt_lr = 0.01
gate_lr = 0.05
batch = 16
split_ratio = 0.8
"""

ALGS = ("local", "pfl_ft", "pfl_fb", "pfl_mf", "pfl_mfe")


def run_pipeline(config_text, out: Path, algorithms=ALGS):
    out.mkdir(parents=True, exist_ok=True)
    cfg_file = out / "exp.ini"
    cfg_file.write_text(config_text)
    cfg = load_config(cfg_file)
    cli.cmd_partition(cfg)
    cli.cmd_fedavg(cfg)
    for alg in algorithms:
        cli.cmd_personalize(cfg, alg)
    records = []
    for name in ("fedavg",) + tuple(algorithms):
        records.extend(evaluation.read_metrics_csv(cfg.out_dir / f"metrics_{name}.csv"))
    summary = evaluation.summarize(records)
    return cfg, {row.algorithm: (row.mean_local_acc, row.mean_global_acc) for row in summary.rows}


def test_criterion_1_gradient_suite():
    """Every layer, the cross-entropy path, and the gate/mixing path match
    central finite differences at < 1e-4 relative error, in under 10 s."""
    start = time.monotonic()
    worst = 0.0

    def fd_check(build, arrays):
        nonlocal worst
        leaves = [graph.leaf(a) for a in arrays]
        analytic = graph.gradient(build(leaves), leaves)

        def f(raw):
            return float(build([graph.leaf(a) for a in raw]).data)

        numeric = oracles.finite_difference(f, [a.copy() for a in arrays], step=1e-5)
        worst = max(worst, oracles.max_relative_error(analytic, numeric))

    rng = np.random.default_rng(0)

    # Dense + cross entropy.
    x, w, b = rng.normal(size=(2, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
    fd_check(lambda lv: graph.cross_entropy(graph.dense(lv[0], lv[1], lv[2]), [0, 2]), [x, w, b])

    # Conv + relu + pool + dense + cross entropy (all layer kinds on one path).
    x = rng.normal(size=(2, 2, 6, 6))
    k, kb = rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    w2, b2 = rng.normal(size=(12, 4)), rng.normal(size=4)

    def conv_path(lv):
        h = graph.max_pool2x2(graph.relu(graph.conv2d(lv[0], lv[1], lv[2])))
        return graph.cross_entropy(graph.dense(graph.flatten(h), lv[3], lv[4]), [1, 3])

    fd_check(conv_path, [x, k, kb, w2, b2])

    # Sigmoid on its own path.
    s = rng.normal(size=(3, 4))
    fd_check(lambda lv: graph.cross_entropy(graph.sigmoid(lv[0]), [0, 3, 1]), [s])

    # Gate/mixing path: linear gate -> sigmoid -> mix of frozen experts -> loss,
    # in both raw and feature widths.
    for dim in (8, 5):
        v = rng.normal(size=(4, dim))
        gw, gb = rng.normal(scale=0.3, size=(dim, 1)), rng.normal(scale=0.1, size=1)
        glog, llog = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def gate_path(lv, v=v, glog=glog, llog=llog):
            score = graph.reshape(graph.dense(graph.leaf(v), lv[0], lv[1]), (4,))
            mixed = graph.mix(graph.sigmoid(score), graph.leaf(glog), graph.leaf(llog))
            return graph.cross_entropy(mixed, [0, 1, 2, 1])

        fd_check(gate_path, [gw, gb])

    # Gradient also flows through both expert inputs of the mixing node.
    g0 = rng.uniform(0.2, 0.8, size=3)
    ga, gb_ = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    fd_check(lambda lv: graph.cross_entropy(graph.mix(lv[0], lv[1], lv[2]), [0, 3, 2]), [g0, ga, gb_])

    elapsed = time.monotonic() - start
    assert worst < GRAD_TOL, f"max relative error {worst:.3e}"
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_degenerate_federation_equivalence():
    """N=1, c=1 federated training is bit-identical to centralized minibatch
    SGD; two-client aggregation matches hand oracles exactly."""
    spec = models.ModelSpec("mlp", channels=1, classes=4, hidden_sizes=(16,))
    ds = data.make_synthetic(classes=4, per_class=15, seed=5)
    partition = data.ClientPartition((tuple(range(len(ds))),))
    cfg = federation.FedConfig(
        rounds=1, participation=1.0, local_epochs=3, local_batch=8,
        sgd=SgdConfig(learning_rate=0.05, momentum=0.5), seed=17,
    )
    result = federation.train_federated(ds, partition, spec, cfg, eval_fn=lambda p: 0.0)

    init = models.build_model(spec, cfg.seed)
    rng = np.random.default_rng(federation.derive_seed(cfg.seed, 1, 0))
    central = federation.sgd_epochs(init, ds, 3, 8, cfg.sgd, rng)
    for name, t in central.tensors.items():
        assert np.array_equal(result.final.tensors[name].data, t.data), name

    # Two clients, equal counts, parameters p and -p: exact zero average.
    base = models.build_model(spec, seed=1)
    plus = models.ModelParams(spec, {k: t for k, t in base.tensors.items()})
    minus = models.ModelParams(spec, {k: Tensor(-t.data) for k, t in base.tensors.items()})
    zero = federation.aggregate(
        [federation.ClientUpdate(0, plus, 7), federation.ClientUpdate(1, minus, 7)]
    )
    assert all(np.abs(t.data).max() == 0.0 for t in zero.tensors.values())

    # Counts (1, 3) on constants 0 and 4: sample weighting 3, uniform 2, exact.
    c0 = models.ModelParams(spec, {k: Tensor(np.zeros(t.shape)) for k, t in base.tensors.items()})
    c4 = models.ModelParams(spec, {k: Tensor(np.full(t.shape, 4.0)) for k, t in base.tensors.items()})
    updates = [federation.ClientUpdate(0, c0, 1), federation.ClientUpdate(1, c4, 3)]
    sample = federation.aggregate(updates, weighting="sample")
    uniform = federation.aggregate(updates, weighting="uniform")
    assert all(np.all(t.data == 3.0) for t in sample.tensors.values())
    assert all(np.all(t.data == 2.0) for t in uniform.tensors.values())


def test_criterion_3_mixing_boundary_identities():
    """Clamping the gate to 1 (resp. 0) reproduces the global (resp.
    personalized) model's argmax on 1000 random inputs with zero violations."""
    spec = models.ModelSpec("mlp", channels=1, classes=6, hidden_sizes=(20,))
    ds = data.make_synthetic(classes=6, per_class=20, seed=9)
    glob = models.build_model(spec, seed=2)
    rng = np.random.default_rng(3)
    glob = federation.sgd_epochs(glob, ds, 8, 16, SgdConfig(learning_rate=0.1), rng)
    client_split = data.split_per_gate(range(len(ds)), ratio=0.8, seed=1)
    head_client = personalization.HeadClient(
        0, 4, ds.subset(client_split.per_indices), ds.subset(client_split.gate_indices)
    )
    client, = personalization.personalize_heads(
        "pfl_mf", glob, [head_client],
        personalization.PersonalizationConfig("pfl_mf", epochs=3, adapt_lr=0.02, gate_lr=0.05, batch_size=16,
                                              split_ratio=0.8, adapt_momentum=0.9, adapt_weight_decay=0.0005),
    )

    inputs = Tensor(np.random.default_rng(11).uniform(size=(1000, 1, 32, 32)))
    feats = models.extract_features(glob, inputs)
    _, to_global = personalization.mixture(client, inputs, feats, gate_override=1.0)
    global_argmax = models.forward(glob, inputs).data.argmax(axis=1)
    violations_one = int((to_global.data.argmax(axis=1) != global_argmax).sum())

    _, to_local = personalization.mixture(client, inputs, feats, gate_override=0.0)
    local_argmax = models.classify(glob, feats, classifier=client.personalized).data.argmax(axis=1)
    violations_zero = int((to_local.data.argmax(axis=1) != local_argmax).sum())

    assert violations_one == 0 and violations_zero == 0


def test_criterion_4_partition_suite():
    """Disjoint cover, per-class conservation, nonempty clients, determinism,
    and KL-vs-concentration monotonicity over {0.5, 0.9, 2} x 20 seeds, < 30 s."""
    start = time.monotonic()
    ds = data.make_synthetic(classes=10, per_class=100, seed=21, side=8)

    for concentration in (0.3, 1.0, 10.0):
        spec = data.PartitionSpec(20, concentration, seed=5)
        part = data.dirichlet_partition(ds, spec)
        flat = sorted(i for c in part.clients for i in c)
        assert flat == list(range(len(ds)))
        totals = sum(np.bincount(ds.labels[list(c)], minlength=10) for c in part.clients)
        assert np.array_equal(totals, ds.class_counts())
        assert min(part.sizes()) >= 1
        assert data.dirichlet_partition(ds, spec) == part

    global_dist = ds.class_counts() / len(ds)

    def mean_kl(concentration):
        total, n = 0.0, 0
        for seed in range(20):
            part = data.dirichlet_partition(ds, data.PartitionSpec(20, concentration, seed))
            for client in part.clients:
                p = np.bincount(ds.labels[list(client)], minlength=10) / len(client)
                mask = p > 0
                total += float((p[mask] * np.log(p[mask] / global_dist[mask])).sum())
                n += 1
        return total / n

    kls = [mean_kl(c) for c in (0.5, 0.9, 2.0)]
    elapsed = time.monotonic() - start
    assert kls[0] > kls[1] > kls[2], f"mean KL not strictly decreasing: {kls}"
    assert elapsed < 30.0, f"partition suite took {elapsed:.1f}s"


def test_criterion_5_local_test_oracle_equivalence():
    """Weighted local test equals the brute-force per-sample oracle to 1e-12
    on 50 random (predictor, ratios) pairs; the data-size-weighted aggregation
    identity holds exactly."""
    ds = data.make_synthetic(classes=8, per_class=25, seed=31, side=8)
    rng = np.random.default_rng(13)
    for trial in range(50):
        logits = rng.normal(size=(len(ds), 8))
        predictor = lambda x, logits=logits: Tensor(logits[: x.shape[0]])
        ratios = rng.dirichlet(np.full(8, 0.7))
        pred = logits.argmax(axis=1)
        want = oracles.weighted_local_accuracy_loops(pred, ds.labels, ratios)
        per_class = evaluation.per_class_accuracy(lambda x, logits=logits: Tensor(logits), ds)
        got = evaluation.local_test_from_per_class(per_class, ratios)
        assert abs(got - want) < EXACT_TOL, f"trial {trial}: {got} vs {want}"

    # Aggregation identity: sum_i (n_i/n) * (local test of the model at ratios_i) equals
    # the training-distribution-weighted accuracy of the same predictor.
    train = data.make_synthetic(classes=8, per_class=50, seed=32, side=8)
    partition = data.dirichlet_partition(train, data.PartitionSpec(12, 0.5, seed=6))
    logits = rng.normal(size=(len(ds), 8))
    per_class = evaluation.per_class_accuracy(lambda x: Tensor(logits), ds)
    n = len(train)
    weighted_sum = 0.0
    for indices in partition.clients:
        ratios = evaluation.class_ratios(train.labels[list(indices)], 8)
        weighted_sum += (len(indices) / n) * evaluation.local_test_from_per_class(per_class, ratios)
    train_dist = train.class_counts() / n
    direct = float(np.sum(train_dist * per_class))
    assert abs(weighted_sum - direct) < EXACT_TOL


def test_criterion_6_gate_safety():
    """A corrupted local expert against a competent global expert: after gate
    training, the mean mixing weight exceeds 0.5 on 5 seeds out of 5, < 60 s."""
    start = time.monotonic()
    spec = models.ModelSpec("mlp", channels=1, classes=4, hidden_sizes=(12,))
    for seed in range(5):
        train = data.make_synthetic(classes=4, per_class=40, seed=50 + seed, noise=0.2)
        params = models.build_model(spec, seed=seed)
        rng = np.random.default_rng(seed)
        glob = federation.sgd_epochs(params, train, 15, 16, SgdConfig(learning_rate=0.1), rng)
        corrupt = np.random.default_rng(900 + seed)
        corrupted = {k: Tensor(corrupt.normal(scale=0.5, size=t.shape)) for k, t in glob.classifier.items()}
        gate_ds = data.synthetic_test_set(50 + seed, classes=4, per_class=10, noise=0.2)

        feats = models.extract_features(glob, gate_ds.features).data
        glog = models.classify(glob, Tensor._wrap(feats)).data
        llog = models.classify(glob, Tensor._wrap(feats), classifier=corrupted).data
        gate = {name: t.data[None].copy() for name, t in models.init_gate(spec, "raw").items()}
        state = OptimizerState()
        gate_rng = np.random.default_rng(7)
        inputs = gate_ds.features.data.reshape(len(gate_ds), -1)
        loss_fn = personalization.gate_loss(inputs, glog, llog, gate_ds.labels)
        for _ in range(30):
            gate = federation.sgd_epoch(
                gate, [len(gate_ds)], 16, loss_fn, state, SgdConfig(learning_rate=0.1), [gate_rng]
            )
        gate = {name: Tensor(a[0]) for name, a in gate.items()}
        client = personalization.PersonalizedClient(0, "pfl_mf", corrupted, gate, glob)
        g, _ = personalization.mixture(client, gate_ds.features, Tensor._wrap(feats))
        mean_g = float(g.data.mean())
        assert mean_g > 0.5, f"seed {seed}: mean gate weight {mean_g:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gate safety took {elapsed:.1f}s"


def test_criterion_7_trend_reproduction_synthetic(tmp_path):
    """20 clients, concentration 0.5, MLP, 50 rounds, 30 adaptation epochs,
    3 seeds. Four orderings must each hold in at least 2 of 3 seeds; the whole
    run stays under 10 minutes."""
    start = time.monotonic()
    hits = {"a": 0, "b": 0, "c": 0, "d": 0}
    for seed in (1, 2, 3):
        _, means = run_pipeline(
            TREND_CONFIG.format(seed=seed, out=tmp_path / f"s{seed}"), tmp_path / f"s{seed}"
        )
        hits["a"] += means["local"][1] < means["fedavg"][1]
        hits["b"] += means["pfl_fb"][0] > means["fedavg"][0]
        hits["c"] += means["pfl_mf"][1] > means["pfl_fb"][1]
        hits["d"] += means["pfl_mf"][0] >= means["fedavg"][0]
    elapsed = time.monotonic() - start
    assert hits["a"] >= 2, f"Local global < FedAvg global held in {hits['a']}/3 seeds"
    assert hits["b"] >= 2, f"PFL-FB local > FedAvg local held in {hits['b']}/3 seeds"
    assert hits["c"] >= 2, f"PFL-MF global > PFL-FB global held in {hits['c']}/3 seeds"
    assert hits["d"] >= 2, f"PFL-MF local >= FedAvg local held in {hits['d']}/3 seeds"
    assert elapsed < 600.0, f"trend suite took {elapsed:.1f}s"


FMNIST_DIR = os.environ.get("FEDMOE_FMNIST_DIR", "")

FMNIST_CONFIG = """
[run]
seed = 1
out_dir = {out}

[dataset]
source = idx
classes = 10
train_images = {d}/train-images-idx3-ubyte
train_labels = {d}/train-labels-idx1-ubyte
test_images = {d}/t10k-images-idx3-ubyte
test_labels = {d}/t10k-labels-idx1-ubyte

[model]
architecture = lenet5

[partition]
clients = 20
concentration = 0.5

[federation]
rounds = 100
participation = 0.25
local_epochs = 5
local_batch = 10
lr = 0.01
momentum = 0.5
eval_interval = 5

[local_baseline]
epochs = 60
lr = 0.05
momentum = 0.9
batch = 64
lr_decay_every = 0

[personalization]
epochs = 50
adapt_lr = 0.001
gate_lr = 0.001
batch = 64
split_ratio = 0.8
"""


@pytest.mark.skipif(not FMNIST_DIR, reason="set FEDMOE_FMNIST_DIR to run the IDX-scale tier")
def test_criterion_8_trend_reproduction_fmnist(tmp_path):
    """Optional tier on supplied IDX files: LeNet-5, 20 clients, 100 rounds,
    50 adaptation epochs; same four orderings plus a weak global anchor."""
    start = time.monotonic()
    out = tmp_path / "fmnist"
    _, means = run_pipeline(FMNIST_CONFIG.format(out=out, d=FMNIST_DIR), out)
    elapsed = time.monotonic() - start
    assert means["fedavg"][1] >= 0.80, f"FedAvg global accuracy {means['fedavg'][1]:.3f} < 0.80"
    assert means["local"][1] < means["fedavg"][1]
    assert means["pfl_fb"][0] > means["fedavg"][0]
    assert means["pfl_mf"][1] > means["pfl_fb"][1]
    assert means["pfl_mf"][0] >= means["fedavg"][0]
    assert elapsed < 7200.0, f"IDX tier took {elapsed:.1f}s"


DETERMINISM_CONFIG = """
[run]
seed = 23
out_dir = {out}

[dataset]
source = synthetic
classes = 5
per_class = 40
test_per_class = 15
noise = 0.3

[model]
architecture = mlp
hidden_sizes = 16

[partition]
clients = 6
concentration = 0.5

[federation]
rounds = 5
participation = 0.5
local_epochs = 2
local_batch = 10
lr = 0.05
momentum = 0.5

[local_baseline]
epochs = 8
lr = 0.05
batch = 16
lr_decay_every = 0

[personalization]
epochs = 4
adapt_lr = 0.01
gate_lr = 0.05
batch = 16
"""


def test_criterion_9_full_pipeline_determinism(tmp_path):
    """Rerunning the whole pipeline, at any worker count, reproduces every
    metrics CSV byte for byte."""
    out = tmp_path / "run"
    out.mkdir(parents=True)
    cfg_file = out / "exp.ini"
    cfg_file.write_text(DETERMINISM_CONFIG.format(out=out))

    def run_all(workers):
        cfg = load_config(cfg_file, workers_override=workers)
        cli.cmd_partition(cfg)
        cli.cmd_fedavg(cfg)
        for alg in ALGS:
            cli.cmd_personalize(cfg, alg)
        names = ["partition.json", "rounds.csv", "metrics_fedavg.csv"]
        names += [f"metrics_{alg}.csv" for alg in ALGS]
        return {name: (out / name).read_bytes() for name in names}

    first = run_all(workers=1)
    second = run_all(workers=1)
    third = run_all(workers=3)
    for name in first:
        assert second[name] == first[name], f"{name} differs between identical reruns"
        assert third[name] == first[name], f"{name} differs at worker count 3"
