import numpy as np
import pytest

from fedmoe import data, evaluation, federation, models
from fedmoe.errors import ConfigError
from fedmoe.numerics import SgdConfig, Tensor, graph, kernels, sgd_step
from fedmoe.numerics.optim import OptimizerState


MLP = models.ModelSpec("mlp", channels=1, classes=3, hidden_sizes=(16,))


def tiny_dataset(seed=0, per_class=20, classes=3, **kwargs):
    return data.make_synthetic(classes=classes, per_class=per_class, seed=seed, **kwargs)


def fed_cfg(**kwargs):
    defaults = dict(
        rounds=1,
        participation=1.0,
        local_epochs=1,
        local_batch=10,
        sgd=SgdConfig(learning_rate=0.05),
        seed=7,
    )
    defaults.update(kwargs)
    return federation.FedConfig(**defaults)


def params_like(spec, fill):
    base = models.build_model(spec, seed=0)
    return models.ModelParams(spec, {k: Tensor(np.full(t.shape, fill)) for k, t in base.tensors.items()})


class TestLocalUpdate:
    def test_zero_epochs_returns_params_unchanged(self):
        ds = tiny_dataset()
        params = models.build_model(MLP, seed=1)
        updated, n = federation.local_update(params, ds, fed_cfg(local_epochs=0), seed=3)
        assert n == len(ds)
        assert all(np.array_equal(updated.tensors[k].data, params.tensors[k].data) for k in params.tensors)

    def test_single_full_batch_is_one_sgd_step(self):
        # Hand oracle: one recorded forward/backward plus one sgd_step.
        ds = tiny_dataset(per_class=4)
        params = models.build_model(MLP, seed=2)
        cfg = fed_cfg(local_epochs=1, local_batch=len(ds))
        updated, _ = federation.local_update(params, ds, cfg, seed=5)

        rng = np.random.default_rng(5)
        order = rng.permutation(len(ds))
        leaves = models.param_leaves(params.tensors)
        logits = models.forward_graph(MLP, leaves, graph.leaf(ds.features.data[order]))
        loss = graph.cross_entropy(logits, ds.labels[order])
        names = list(params.tensors)
        grads = graph.gradient(loss, [leaves[k] for k in names])
        want = sgd_step(params.tensors, dict(zip(names, grads)), OptimizerState(), cfg.sgd)

        assert all(np.array_equal(updated.tensors[k].data, want[k].data) for k in names)

    def test_loss_non_increasing_on_separable_data(self):
        ds = tiny_dataset(seed=3, noise=0.05, center_jitter=0.3)
        params = models.build_model(MLP, seed=3)

        def mean_loss(p):
            return kernels.cross_entropy(models.forward(p, ds.features).data, ds.labels)

        losses = [mean_loss(params)]
        for epoch in range(5):
            updated, _ = federation.local_update(params, ds, fed_cfg(local_epochs=1), seed=100 + epoch)
            params = updated
            losses.append(mean_loss(params))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


class TestAggregate:
    def test_single_update_unchanged(self):
        p = models.build_model(MLP, seed=4)
        out = federation.aggregate([federation.ClientUpdate(0, p, 10)])
        assert all(np.array_equal(out.tensors[k].data, p.tensors[k].data) for k in p.tensors)

    def test_symmetric_pair_averages_to_zero(self):
        plus = params_like(MLP, 1.5)
        minus = params_like(MLP, -1.5)
        out = federation.aggregate(
            [federation.ClientUpdate(0, plus, 10), federation.ClientUpdate(1, minus, 10)]
        )
        assert all(np.abs(out.tensors[k].data).max() == 0.0 for k in out.tensors)

    def test_sample_vs_uniform_weighting(self):
        zero = params_like(MLP, 0.0)
        four = params_like(MLP, 4.0)
        updates = [federation.ClientUpdate(0, zero, 1), federation.ClientUpdate(1, four, 3)]
        sample = federation.aggregate(updates, weighting="sample")
        uniform = federation.aggregate(updates, weighting="uniform")
        key = next(iter(sample.tensors))
        assert sample.tensors[key].data.flat[0] == pytest.approx(3.0, abs=1e-12)
        assert uniform.tensors[key].data.flat[0] == pytest.approx(2.0, abs=1e-12)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(5)
        updates = []
        for cid in range(4):
            base = models.build_model(MLP, seed=10 + cid)
            updates.append(federation.ClientUpdate(cid, base, int(rng.integers(1, 20))))
        forward_order = federation.aggregate(updates)
        shuffled = federation.aggregate(updates[::-1])
        assert all(
            np.array_equal(forward_order.tensors[k].data, shuffled.tensors[k].data)
            for k in forward_order.tensors
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            federation.aggregate([])


class TestTrainFederated:
    def test_degenerate_federation_equals_centralized(self):
        # N=1, c=1, T=1 must reproduce plain minibatch SGD bit-exactly.
        ds = tiny_dataset(seed=6)
        partition = data.ClientPartition((tuple(range(len(ds))),))
        cfg = fed_cfg(rounds=1, local_epochs=2, local_batch=8, seed=21)
        result = federation.train_federated(ds, partition, MLP, cfg, eval_fn=lambda p: 0.0)

        init = models.build_model(MLP, cfg.seed)
        rng = np.random.default_rng(federation.derive_seed(cfg.seed, 1, 0))
        want = federation.sgd_epochs(
            init.tensors, MLP, ds.features.data, ds.labels, 2, 8, cfg.sgd, rng
        )
        assert all(np.array_equal(result.final.tensors[k].data, want[k].data) for k in want)

    def test_zero_rounds_returns_initial_model(self):
        ds = tiny_dataset(seed=7)
        partition = data.ClientPartition((tuple(range(len(ds))),))
        cfg = fed_cfg(rounds=0, seed=33)
        result = federation.train_federated(ds, partition, MLP, cfg, eval_fn=lambda p: 0.5)
        init = models.build_model(MLP, cfg.seed)
        assert result.best.round_index == 0
        assert all(np.array_equal(result.final.tensors[k].data, init.tensors[k].data) for k in init.tensors)

    def test_federated_learns_separable_data(self):
        train = tiny_dataset(seed=8, per_class=40, noise=0.15, center_jitter=1.0)
        test = data.synthetic_test_set(8, classes=3, per_class=20, noise=0.15, center_jitter=1.0)
        partition = data.dirichlet_partition(train, data.PartitionSpec(20, 1.0, seed=2))
        cfg = fed_cfg(rounds=30, participation=0.5, local_epochs=2, local_batch=10, seed=9)

        def eval_fn(p):
            return evaluation.global_test(lambda x: models.forward(p, x), test)

        result = federation.train_federated(train, partition, MLP, cfg, eval_fn)
        assert result.best.accuracy >= 0.9

    def test_identical_clients_average_is_identity(self):
        ds = tiny_dataset(seed=10, per_class=6)
        idx = tuple(range(len(ds)))
        partition = data.ClientPartition((idx, idx, idx))
        cfg = fed_cfg(rounds=1, local_epochs=1, local_batch=6, seed=11)
        result = federation.train_federated(ds, partition, MLP, cfg, eval_fn=lambda p: 0.0)
        single, _ = federation.local_update(
            models.build_model(MLP, cfg.seed), ds, cfg, federation.derive_seed(cfg.seed, 1, 0)
        )
        # All three clients hold the same data; with per-client seeds they differ,
        # so force identical seeds by comparing against the average of the three.
        updates = [
            federation.ClientUpdate(
                cid,
                federation.local_update(
                    models.build_model(MLP, cfg.seed), ds, cfg, federation.derive_seed(cfg.seed, 1, cid)
                )[0],
                len(ds),
            )
            for cid in range(3)
        ]
        want = federation.aggregate(updates)
        assert all(np.array_equal(result.final.tensors[k].data, want.tensors[k].data) for k in want.tensors)
        del single

    def test_best_checkpoint_is_running_max(self):
        ds = tiny_dataset(seed=12, per_class=10)
        partition = data.ClientPartition((tuple(range(len(ds))),))
        cfg = fed_cfg(rounds=5, local_epochs=1, seed=13)
        fake_scores = iter([0.1, 0.6, 0.4, 0.6, 0.2, 0.3])

        result = federation.train_federated(ds, partition, MLP, cfg, eval_fn=lambda p: next(fake_scores))
        evaluated = [r.accuracy for r in result.rounds]
        # Scores consumed: 0.1 for the initial model, then one per round.
        assert evaluated == [0.6, 0.4, 0.6, 0.2, 0.3]
        assert result.best.accuracy == max([0.1] + evaluated)
        assert result.best.round_index == 1

    def test_worker_count_does_not_change_result(self):
        train = tiny_dataset(seed=14, per_class=20)
        partition = data.dirichlet_partition(train, data.PartitionSpec(6, 1.0, seed=3))
        cfg = fed_cfg(rounds=3, participation=0.5, local_epochs=1, seed=15)
        one = federation.train_federated(train, partition, MLP, cfg, eval_fn=lambda p: 0.0, workers=1)
        two = federation.train_federated(train, partition, MLP, cfg, eval_fn=lambda p: 0.0, workers=2)
        assert all(
            np.array_equal(one.final.tensors[k].data, two.final.tensors[k].data) for k in one.final.tensors
        )
        assert [r.client_ids for r in one.rounds] == [r.client_ids for r in two.rounds]


class TestSampling:
    def test_sample_size_is_ceiling(self):
        chosen = federation.sample_clients(10, 0.25, round_index=1, seed=0)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3

    def test_sampling_is_seeded_per_round(self):
        a = federation.sample_clients(100, 0.1, round_index=5, seed=1)
        b = federation.sample_clients(100, 0.1, round_index=5, seed=1)
        c = federation.sample_clients(100, 0.1, round_index=6, seed=1)
        assert a == b
        assert a != c
