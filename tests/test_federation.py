import threading
import time

import numpy as np
import pytest

from fedmoe import data, evaluation, federation, models
from fedmoe.errors import ConfigError, DivergenceError, UsageError
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
        updated = federation.local_update(params, ds, fed_cfg(local_epochs=0), seed=3)
        assert all(np.array_equal(updated.tensors[k].data, params.tensors[k].data) for k in params.tensors)

    def test_single_full_batch_is_one_sgd_step(self):
        # Hand oracle: one recorded forward/backward plus one sgd_step.
        ds = tiny_dataset(per_class=4)
        params = models.build_model(MLP, seed=2)
        cfg = fed_cfg(local_epochs=1, local_batch=len(ds))
        updated = federation.local_update(params, ds, cfg, seed=5)

        rng = np.random.default_rng(5)
        order = rng.permutation(len(ds))
        leaves = {k: graph.leaf(t) for k, t in params.tensors.items()}
        logits = models.forward_graph(MLP, leaves, graph.leaf(ds.features.data[order]))
        loss = graph.cross_entropy(logits, ds.labels[order])
        names = list(params.tensors)
        grads = graph.gradient(loss, [leaves[k] for k in names])
        start = {k: t.data.copy() for k, t in params.tensors.items()}
        want = sgd_step(start, dict(zip(names, grads)), OptimizerState(), cfg.sgd)

        assert all(np.array_equal(updated.tensors[k].data, want[k]) for k in names)

    def test_loss_non_increasing_on_separable_data(self):
        ds = tiny_dataset(seed=3, noise=0.05, center_jitter=0.3)
        params = models.build_model(MLP, seed=3)

        def mean_loss(p):
            return kernels.cross_entropy(models.forward(p, ds.features).data, ds.labels)

        losses = [mean_loss(params)]
        for epoch in range(5):
            params = federation.local_update(params, ds, fed_cfg(local_epochs=1), seed=100 + epoch)
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
        want = federation.sgd_epochs(init, ds, 2, 8, cfg.sgd, rng)
        assert all(np.array_equal(result.final.tensors[k].data, t.data) for k, t in want.tensors.items())

    def test_updates_are_weighted_by_client_example_counts(self):
        ds = tiny_dataset(seed=14, per_class=6)
        partition = data.ClientPartition((tuple(range(4)), tuple(range(4, len(ds)))))
        cfg = fed_cfg(rounds=1, local_epochs=1, local_batch=6, seed=15)
        result = federation.train_federated(ds, partition, MLP, cfg, eval_fn=lambda p: 0.0)
        updates = []
        for cid, indices in enumerate(partition.clients):
            client = ds.subset(list(indices))
            seed = federation.derive_seed(cfg.seed, 1, cid)
            updates.append(federation.ClientUpdate(
                cid, federation.local_update(models.build_model(MLP, cfg.seed), client, cfg, seed), len(client)))
        want = federation.aggregate(updates)
        assert [u.num_examples for u in updates] == [4, len(ds) - 4]
        assert all(np.array_equal(result.final.tensors[k].data, want.tensors[k].data) for k in want.tensors)

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
        # All three clients hold the same data; with per-client seeds they differ,
        # so force identical seeds by comparing against the average of the three.
        updates = [
            federation.ClientUpdate(
                cid,
                federation.local_update(
                    models.build_model(MLP, cfg.seed), ds, cfg, federation.derive_seed(cfg.seed, 1, cid)
                ),
                len(ds),
            )
            for cid in range(3)
        ]
        want = federation.aggregate(updates)
        assert all(np.array_equal(result.final.tensors[k].data, want.tensors[k].data) for k in want.tensors)

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

    def test_zero_workers_is_usage_error(self):
        train = tiny_dataset(seed=14, per_class=20)
        partition = data.dirichlet_partition(train, data.PartitionSpec(6, 1.0, seed=3))
        with pytest.raises(UsageError, match="workers: must be positive, got 0"):
            federation.train_federated(train, partition, MLP, fed_cfg(), eval_fn=lambda p: 0.0, workers=0)

    def test_zero_workers_is_refused_before_the_first_eval_even_without_rounds(self):
        train = tiny_dataset(seed=14, per_class=20)
        partition = data.dirichlet_partition(train, data.PartitionSpec(6, 1.0, seed=3))
        evaluated = []
        with pytest.raises(UsageError, match="workers: must be positive, got 0"):
            federation.train_federated(train, partition, MLP, fed_cfg(rounds=0), eval_fn=evaluated.append, workers=0)
        assert evaluated == []


class TestClientMap:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_keep_input_order(self, workers):
        # Later items finish first, so results taken as they finish would be reversed.
        def square_late_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert federation.client_map(square_late_first, list(range(8)), workers) == [i * i for i in range(8)]

    def test_one_worker_runs_on_the_calling_thread(self):
        here = threading.current_thread()
        assert federation.client_map(lambda _: threading.current_thread(), range(3), 1) == [here] * 3

    def test_more_workers_run_items_at_once_off_the_calling_thread(self):
        # Each item waits for the other, which only a pool of two can satisfy.
        barrier = threading.Barrier(2, timeout=10)

        def meet(_):
            barrier.wait()
            return threading.current_thread()

        threads = federation.client_map(meet, [0, 1], 5)
        assert threads[0] is not threads[1] and threading.current_thread() not in threads

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_is_usage_error(self, workers):
        with pytest.raises(UsageError, match=f"workers: must be positive, got {workers}"):
            federation.client_map(abs, [1, 2], workers)


class TestSampling:
    def test_sample_size_is_ceiling(self):
        chosen = federation.sample_clients(10, 0.25, round_index=1, seed=0)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3

    @pytest.mark.parametrize("n, participation", [(100, 0.07), (50, 0.14), (25, 0.28)])
    def test_sample_size_is_the_ceiling_of_the_participation_as_written(self, n, participation):
        # In floats each product is 7.000000000000001, whose ceiling is 8.
        assert len(federation.sample_clients(n, participation, round_index=0, seed=0)) == 7

    def test_seed_namespaces_are_distinct(self):
        keys = (federation.SEED_PARTITION, federation.SEED_FEDERATION, federation.SEED_LOCAL,
                federation.SEED_SPLIT, federation.SEED_PERSONALIZE, federation.SEED_DATA)
        assert len(set(keys)) == 6

    def test_sampling_is_seeded_per_round(self):
        a = federation.sample_clients(100, 0.1, round_index=5, seed=1)
        b = federation.sample_clients(100, 0.1, round_index=5, seed=1)
        c = federation.sample_clients(100, 0.1, round_index=6, seed=1)
        assert a == b
        assert a != c


class TestClientStack:
    """sgd_epoch trains a stack of clients exactly as each would train alone."""

    SGD = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01, lr_decay_factor=0.5, lr_decay_every=1)
    FEATURES, HIDDEN, CLASSES = 6, 5, 3

    def head(self, seed):
        rng = np.random.default_rng(seed)
        return {
            "w1": rng.normal(size=(self.FEATURES, self.HIDDEN)), "b1": rng.normal(size=self.HIDDEN),
            "w2": rng.normal(size=(self.HIDDEN, self.CLASSES)), "b2": rng.normal(size=self.CLASSES),
        }

    def data(self, sizes, seed=0):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        return rng.normal(size=(n, self.FEATURES)), rng.integers(0, self.CLASSES, size=n)

    @staticmethod
    def loss_fn(x, y):
        def loss(leaves, rows):
            h = graph.relu(graph.dense(graph.const(x[rows]), leaves["w1"], leaves["b1"]))
            return graph.cross_entropy(graph.dense(h, leaves["w2"], leaves["b2"]), y[rows])

        return loss

    def stacked(self, sizes, epochs, batch_size, order=None):
        """The clients in ``order`` (default: all) as one stack; per client,
        its (parameters, velocity) after each epoch."""
        order = list(range(len(sizes))) if order is None else order
        x, y = self.data(sizes)
        bounds = np.cumsum([0] + list(sizes))
        rows = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in order])
        heads = [self.head(k) for k in order]
        params = {name: np.stack([h[name] for h in heads]) for name in heads[0]}
        state = OptimizerState()
        rngs = [np.random.default_rng(100 + k) for k in order]
        loss = self.loss_fn(x[rows], y[rows])
        snapshots = {k: [] for k in order}
        for _ in range(epochs):
            federation.sgd_epoch(params, [sizes[k] for k in order], batch_size, loss, state, self.SGD, rngs)
            for i, k in enumerate(order):
                snapshots[k].append(({n: p[i].copy() for n, p in params.items()},
                                     {n: v[i].copy() for n, v in state.velocity.items()}))
        return snapshots

    def reference(self, sizes, k, epochs, batch_size):
        """Client k trained by the one-client loop written out: a shuffle per
        epoch, then one recorded loss and one sgd_step per batch."""
        x, y = self.data(sizes)
        lo = sum(sizes[:k])
        x, y = x[lo : lo + sizes[k]], y[lo : lo + sizes[k]]
        params, state, rng = self.head(k), OptimizerState(), np.random.default_rng(100 + k)
        snapshots = []
        for _ in range(epochs):
            order = rng.permutation(sizes[k])
            for start in range(0, sizes[k], batch_size):
                leaves = {n: graph.leaf(p) for n, p in params.items()}
                loss = self.loss_fn(x, y)(leaves, order[start : start + batch_size])
                sgd_step(params, dict(zip(params, graph.gradient(loss, list(leaves.values())))), state, self.SGD)
            state.epoch += 1
            snapshots.append(({n: p.copy() for n, p in params.items()},
                              {n: v.copy() for n, v in state.velocity.items()}))
        return snapshots

    @staticmethod
    def assert_same(got, want):
        for (p, v), (wp, wv) in zip(got, want, strict=True):
            assert p.keys() == wp.keys() and v.keys() == wv.keys()
            assert all(np.array_equal(p[n], wp[n]) for n in p)
            assert all(np.array_equal(v[n], wv[n]) for n in v)

    # Batch 8: full batches, last batches of 7 and 5, and clients that run
    # out after one, two or three steps while the first takes four.
    SIZES = [31, 24, 16, 16, 13, 7, 5, 5]

    def test_stack_equals_stacks_of_one(self):
        stacked = self.stacked(self.SIZES, 3, 8)
        for k in range(len(self.SIZES)):
            alone = self.stacked(self.SIZES, 3, 8, [k])[k]
            self.assert_same(stacked[k], alone)
            self.assert_same(alone, self.reference(self.SIZES, k, 3, 8))

    def test_one_batch_client_beside_a_four_batch_client_keeps_its_solo_state(self):
        sizes = [32, 6]
        stacked = self.stacked(sizes, 4, 8)
        for k in (0, 1):
            self.assert_same(stacked[k], self.stacked(sizes, 4, 8, [k])[k])

    def test_permuted_stack_gives_the_same_clients(self):
        # Not ordered by size, so same-size groups are not adjacent.
        order = [5, 0, 3, 7, 2, 6, 1, 4]
        first = federation._step_groups([self.SIZES[k] for k in order], 8)[0]
        assert [(sel.tolist(), size) for sel, _, size in first if isinstance(sel, np.ndarray)] == [
            ([1, 2, 4, 6, 7], 8), ([3, 5], 5)
        ]
        permuted, ordered = self.stacked(self.SIZES, 2, 8, order), self.stacked(self.SIZES, 2, 8)
        for k in order:
            self.assert_same(permuted[k], ordered[k])

    def test_groups_of_a_size_ordered_stack_are_slices(self):
        steps = federation._step_groups(self.SIZES, 8)
        assert [[(sel, size) for sel, _, size in step] for step in steps] == [
            [(slice(0, 5), 8), (5, 7), (slice(6, 8), 5)],
            [(slice(0, 4), 8), (4, 5)],
            [(slice(0, 2), 8)],
            [(0, 7)],
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_names_trainer_client_parameter_and_epoch(self):
        x, y = self.data([16, 16])
        x[16:] *= 1e200  # only the second client diverges
        params = {name: np.stack([p, p]) for name, p in self.head(0).items()}
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(DivergenceError, match=r"^pfl_fb: parameter 'w1' of client 3 is not finite .* epoch 1;"):
            federation.sgd_epoch(params, [16, 16], 8, self.loss_fn(x, y), OptimizerState(),
                                 SgdConfig(learning_rate=1.0), rngs, "pfl_fb", [7, 3])
