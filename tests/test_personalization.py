import numpy as np
import pytest

import oracles
from fedmoe import data, evaluation, federation, models, personalization
from fedmoe.errors import ConfigError, UsageError
from fedmoe.numerics import SgdConfig, Tensor, graph, kernels
from fedmoe.numerics.optim import OptimizerState, sgd_step

SPEC = models.ModelSpec("mlp", channels=1, classes=4, hidden_sizes=(12,))

# An lr this small underflows against O(0.1) parameters, so one update leaves
# every float bit unchanged: the alpha -> 0 limit without violating lr > 0.
VANISHING_LR = 1e-300


def client_dataset(seed=0, per_class=15, classes=4, **kwargs):
    return data.make_synthetic(classes=classes, per_class=per_class, seed=seed, **kwargs)


def pcfg(algorithm, **kwargs):
    defaults = dict(epochs=3, adapt_lr=0.01, gate_lr=0.05, batch_size=16, split_ratio=0.8,
                    adapt_momentum=0.9, adapt_weight_decay=0.0005)
    defaults.update(kwargs)
    return personalization.PersonalizationConfig(algorithm, **defaults)


def global_model(seed=11):
    """A global model with some signal: short centralized training."""
    ds = client_dataset(seed=seed, per_class=30)
    params = models.build_model(SPEC, seed=seed)
    rng = np.random.default_rng(seed)
    return federation.sgd_epochs(params, ds, 12, 16, SgdConfig(learning_rate=0.1), rng), ds


def fit_gate(mode, inputs, global_logits, local_logits, labels, cfg, seed):
    """A zero-initialized gate trained on frozen expert logits with the
    production gate loss and SGD epoch."""
    gate = {name: t.data[None].copy() for name, t in models.init_gate(SPEC, mode).items()}
    loss_fn = personalization.gate_loss(inputs, global_logits, local_logits, labels)
    state, rng = OptimizerState(), np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        gate = federation.sgd_epoch(gate, [len(labels)], cfg.batch_size, loss_fn, state, cfg.gate_sgd(), [rng])
    return {name: Tensor(a[0]) for name, a in gate.items()}


def heads(algorithm, glob, ds, cfg, seed, client_id=0, gate_data=None):
    """One client through personalize_heads, the entry point of pfl_fb, pfl_mf and pfl_mfe."""
    client = personalization.HeadClient(client_id, seed, ds, gate_data)
    return personalization.personalize_heads(algorithm, glob, [client], cfg)[0]


def mix(client, x, gate_override=None):
    """The mixture of a batch, given the global extractor's features of it."""
    return personalization.mixture(client, x, models.extract_features(client.global_model, x), gate_override)


def mean_gate(client, ds):
    """Mean mixing weight g of a client's gate over a dataset."""
    return float(mix(client, ds.features)[0].data.mean())


def sigmoid(z):
    """The stable two-branch logistic function, in plain numpy."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gate_weights(gate, v):
    """g = sigmoid(v @ w + b) for a batch of gate inputs v, in plain numpy."""
    return sigmoid(v @ gate["weight"].data + gate["bias"].data)[:, 0]


class TestLocalBaseline:
    def test_reaches_high_accuracy_on_separable_client(self):
        # Centralized oracle target: the same data is linearly separable.
        ds = client_dataset(seed=1, per_class=25, noise=0.05, center_jitter=0.3)
        trained = personalization.train_local_baseline(
            ds, SPEC, seed=2, epochs=50, sgd=SgdConfig(learning_rate=0.05, momentum=0.9), batch_size=16
        )
        acc = evaluation.global_test(lambda x: models.forward(trained, x), ds)
        assert acc >= 0.95

    def test_zero_epochs_gives_initial_model(self):
        ds = client_dataset(seed=2)
        trained = personalization.train_local_baseline(
            ds, SPEC, seed=5, epochs=0, sgd=SgdConfig(learning_rate=0.1, momentum=0.9), batch_size=64
        )
        init = models.build_model(SPEC, seed=5)
        assert all(np.array_equal(trained.tensors[k].data, init.tensors[k].data) for k in init.tensors)


class TestPflFt:
    def test_vanishing_lr_returns_global_params(self):
        glob, ds = global_model()
        out = personalization.pfl_ft(glob, ds, pcfg("pfl_ft", epochs=2, adapt_lr=VANISHING_LR), seed=3)
        assert all(np.array_equal(out.personalized[k].data, glob.tensors[k].data) for k in glob.tensors)

    def test_single_batch_epoch_is_one_sgd_step(self):
        glob, _ = global_model()
        ds = client_dataset(seed=4, per_class=3)
        cfg = pcfg("pfl_ft", epochs=1, batch_size=len(ds))
        out = personalization.pfl_ft(glob, ds, cfg, seed=6)

        rng = np.random.default_rng(6)
        order = rng.permutation(len(ds))
        leaves = {k: graph.leaf(t) for k, t in glob.tensors.items()}
        logits = models.forward_graph(SPEC, leaves, graph.leaf(ds.features.data[order]))
        loss = graph.cross_entropy(logits, ds.labels[order])
        names = list(glob.tensors)
        grads = graph.gradient(loss, [leaves[k] for k in names])
        start = {k: t.data.copy() for k, t in glob.tensors.items()}
        want = sgd_step(start, dict(zip(names, grads)), OptimizerState(), cfg.adapt_sgd())
        assert all(np.array_equal(out.personalized[k].data, want[k]) for k in names)

    def test_adaptation_loss_non_increasing(self):
        glob, _ = global_model()
        ds = client_dataset(seed=5, per_class=10, noise=0.1)
        losses = []
        params = glob
        for epoch in range(4):
            out = personalization.pfl_ft(params, ds, pcfg("pfl_ft", epochs=1, adapt_lr=0.02), seed=7)
            params = models.ModelParams(SPEC, out.personalized)
            logits = models.forward(params, ds.features)
            losses.append(kernels.cross_entropy(logits.data, ds.labels))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


class TestPflFb:
    def test_extractor_is_untouched(self):
        glob, ds = global_model()
        before = {k: t.data.copy() for k, t in glob.extractor.items()}
        out = heads("pfl_fb", glob, ds, pcfg("pfl_fb"), seed=8)
        assert all(np.array_equal(out.global_model.extractor[k].data, before[k]) for k in before)
        assert set(out.personalized) == set(glob.classifier)

    def test_vanishing_lr_returns_global_classifier(self):
        glob, ds = global_model()
        out = heads("pfl_fb", glob, ds, pcfg("pfl_fb", adapt_lr=VANISHING_LR), seed=9)
        assert all(np.array_equal(out.personalized[k].data, glob.classifier[k].data) for k in glob.classifier)

    def test_update_matches_classifier_finite_differences(self):
        # One plain-SGD step on the classify path vs a finite-difference oracle.
        glob, _ = global_model()
        ds = client_dataset(seed=6, per_class=2)
        feats = models.extract_features(glob, ds.features).data

        names = list(glob.classifier)
        leaves = {k: graph.leaf(t) for k, t in glob.classifier.items()}
        logits = models.classify_graph(SPEC, leaves, graph.leaf(feats))
        loss = graph.cross_entropy(logits, ds.labels)
        analytic = graph.gradient(loss, [leaves[k] for k in names])

        arrays = [glob.classifier[k].data.copy() for k in names]

        def f(arrs):
            params = {k: Tensor(a) for k, a in zip(names, arrs)}
            out = models.classify(glob, Tensor(feats), classifier=params)
            return kernels.cross_entropy(out.data, ds.labels)

        numeric = oracles.finite_difference(f, arrays, step=1e-5)
        assert oracles.max_relative_error(analytic, numeric) < 1e-4


class TestTrainGate:
    def test_zero_init_gives_half_gate(self):
        glob, ds = global_model()
        gate = models.init_gate(SPEC, "raw")
        v = ds.features.data.reshape(len(ds), -1)
        assert (gate_weights(gate, v) == 0.5).all()
        client = personalization.PersonalizedClient(0, "pfl_mf", glob.classifier, gate, glob)
        assert (mix(client, ds.features)[0].data == 0.5).all()

    def test_identical_experts_leave_gate_at_init(self):
        glob, ds = global_model()
        cfg = pcfg("pfl_mf", epochs=3)
        logits = models.forward(glob, ds.features).data
        gate = fit_gate("raw", ds.features.data.reshape(len(ds), -1), logits, logits, ds.labels, cfg, seed=10)
        assert np.abs(gate["weight"].data).max() == 0.0
        assert gate["bias"].data.tolist() == [0.0]

    def test_gate_loss_non_increasing_full_batch(self):
        glob, _ = global_model()
        local, _ = global_model(seed=15)
        ds = client_dataset(seed=7, per_class=8)
        cfg_batch = len(ds)
        glog = models.forward(glob, ds.features).data
        llog = models.forward(local, ds.features).data
        v = ds.features.data.reshape(len(ds), -1)

        def mixed_loss(gate):
            g = gate_weights(gate, v)[:, None]
            return kernels.cross_entropy(g * glog + (1.0 - g) * llog, ds.labels)

        losses = []
        for epochs in (1, 2, 3, 4):
            cfg = pcfg("pfl_mf", epochs=epochs, batch_size=cfg_batch)
            losses.append(mixed_loss(fit_gate("raw", v, glog, llog, ds.labels, cfg, seed=11)))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_feature_mode_dimensions(self):
        # Each gate reads its own input kind, and mixes one g per example.
        glob, ds = global_model()
        feats = models.extract_features(glob, ds.features)
        s = data.split_per_gate(range(len(ds)), ratio=0.8, seed=0)
        per, gate_ds = ds.subset(s.per_indices), ds.subset(s.gate_indices)
        cfg = pcfg("pfl_mf", epochs=1)
        for algorithm, dim in (("pfl_mf", SPEC.raw_input_dim), ("pfl_mfe", SPEC.feature_dim)):
            client = heads(algorithm, glob, per, cfg, seed=12, gate_data=gate_ds)
            assert client.gate["weight"].shape[0] == dim
            g, logits = personalization.mixture(client, ds.features, feats)
            assert g.shape == (len(ds),) and logits.shape == (len(ds), SPEC.classes)


class TestMoeRuns:
    def split_client(self, seed=8):
        ds = client_dataset(seed=seed, per_class=12)
        split = data.split_per_gate(range(len(ds)), ratio=0.8, seed=seed)
        return ds.subset(split.per_indices), ds.subset(split.gate_indices)

    def test_single_epoch_matches_pfl_fb_epoch(self):
        # With E=1 the gating pass happens after the only adaptation pass, so
        # the personalized classifier must equal one freeze-base epoch bit-exactly.
        glob, _ = global_model()
        per, gate_ds = self.split_client()
        cfg = pcfg("pfl_mf", epochs=1)
        moe = heads("pfl_mf", glob, per, cfg, seed=13, gate_data=gate_ds)
        fb = heads("pfl_fb", glob, per, pcfg("pfl_fb", epochs=1), seed=13)
        assert all(np.array_equal(moe.personalized[k].data, fb.personalized[k].data) for k in fb.personalized)

    def test_vanishing_adapt_lr_keeps_gate_at_init(self):
        glob, _ = global_model()
        per, gate_ds = self.split_client(seed=9)
        cfg = pcfg("pfl_mf", epochs=1, adapt_lr=VANISHING_LR)
        moe = heads("pfl_mf", glob, per, cfg, seed=14, gate_data=gate_ds)
        assert np.abs(moe.gate["weight"].data).max() == 0.0
        assert moe.gate["bias"].data.tolist() == [0.0]

    def test_mf_and_mfe_differ_only_in_gate_input_dim(self):
        glob, _ = global_model()
        per, gate_ds = self.split_client(seed=10)
        cfg = pcfg("pfl_mf", epochs=2)
        mf = heads("pfl_mf", glob, per, cfg, seed=15, gate_data=gate_ds)
        mfe = heads("pfl_mfe", glob, per, cfg, seed=15, gate_data=gate_ds)
        assert mf.gate["weight"].shape[0] == SPEC.raw_input_dim
        assert mfe.gate["weight"].shape[0] == SPEC.feature_dim
        # Identical adaptation stream: the personalized classifiers agree.
        assert all(np.array_equal(mf.personalized[k].data, mfe.personalized[k].data) for k in mf.personalized)

    def test_freeze_contracts(self):
        glob, _ = global_model()
        frozen = {k: t.data.copy() for k, t in {**glob.extractor, **glob.classifier}.items()}
        per, gate_ds = self.split_client(seed=11)
        moe = heads("pfl_mf", glob, per, pcfg("pfl_mf"), seed=16, gate_data=gate_ds)
        for k, arr in frozen.items():
            merged = {**moe.global_model.extractor, **moe.global_model.classifier}
            assert np.array_equal(merged[k].data, arr)

    # The values the CLI recorded when it ran the extractor over the gate set
    # a second time, after the run; the run's own features give the same g.
    @pytest.mark.parametrize("algorithm, recorded", [
        ("pfl_mf", 0.5141748261471378),
        ("pfl_mfe", 0.5037070362363202),
    ])
    def test_mean_g_comes_from_the_run_and_is_unchanged(self, algorithm, recorded):
        glob, _ = global_model()
        per, gate_ds = self.split_client(seed=10)
        client = heads(algorithm, glob, per, pcfg("pfl_mf", epochs=2), seed=15, gate_data=gate_ds)
        assert client.mean_g == mean_gate(client, gate_ds)
        assert client.mean_g == pytest.approx(recorded, rel=1e-12)

    def test_determinism(self):
        glob, _ = global_model()
        per, gate_ds = self.split_client(seed=12)
        cfg = pcfg("pfl_mf", epochs=2)
        a = heads("pfl_mf", glob, per, cfg, seed=17, gate_data=gate_ds)
        b = heads("pfl_mf", glob, per, cfg, seed=17, gate_data=gate_ds)
        assert all(np.array_equal(a.gate[k].data, b.gate[k].data) for k in a.gate)
        assert all(np.array_equal(a.personalized[k].data, b.personalized[k].data) for k in a.personalized)

    def test_gate_gradient_matches_finite_differences_both_modes(self):
        glob, _ = global_model()
        ds = client_dataset(seed=13, per_class=2)
        feats = models.extract_features(glob, ds.features).data
        glog = models.classify(glob, Tensor(feats)).data
        rng = np.random.default_rng(18)
        llog = glog + rng.normal(scale=0.5, size=glog.shape)

        for mode, v in (("raw", ds.features.data.reshape(len(ds), -1)), ("feature", feats)):
            dim = v.shape[1]
            w0 = rng.normal(scale=0.05, size=(dim, 1))
            b0 = rng.normal(scale=0.05, size=1)

            def build(leaves):
                wv, bv = leaves
                score = graph.reshape(graph.dense(graph.leaf(v), wv, bv), (len(ds),))
                mixed = graph.mix(graph.sigmoid(score), graph.leaf(glog), graph.leaf(llog))
                return graph.cross_entropy(mixed, ds.labels)

            leaves = [graph.leaf(w0), graph.leaf(b0)]
            analytic = graph.gradient(build(leaves), leaves)

            def f(arrs):
                return float(build([graph.leaf(a) for a in arrs]).data)

            numeric = oracles.finite_difference(f, [w0.copy(), b0.copy()], step=1e-5)
            assert oracles.max_relative_error(analytic, numeric) < 1e-4, mode


class TestMoePredict:
    def trained_client(self):
        glob, _ = global_model()
        ds = client_dataset(seed=14, per_class=10)
        s = data.split_per_gate(range(len(ds)), ratio=0.8, seed=0)
        client = heads("pfl_mf", glob, ds.subset(s.per_indices), pcfg("pfl_mf"), seed=19, client_id=3,
                       gate_data=ds.subset(s.gate_indices))
        return client, ds

    def test_gate_override_one_matches_global_model(self):
        client, ds = self.trained_client()
        x = ds.features
        _, forced = mix(client, x, gate_override=1.0)
        glob_params = client.global_model
        want = models.forward(glob_params, x)
        assert np.array_equal(forced.data.argmax(axis=1), want.data.argmax(axis=1))

    def test_gate_override_zero_matches_personalized_model(self):
        client, ds = self.trained_client()
        x = ds.features
        _, forced = mix(client, x, gate_override=0.0)
        feats = models.extract_features(client.global_model, x)
        want = models.classify(client.global_model, feats, classifier=client.personalized)
        assert np.array_equal(forced.data.argmax(axis=1), want.data.argmax(axis=1))

    def test_matches_composition_of_model_ops(self):
        client, ds = self.trained_client()
        x = ds.features
        _, got = mix(client, x)
        feats = models.extract_features(client.global_model, x)
        g = gate_weights(client.gate, x.data.reshape(len(ds), -1))[:, None]
        glob = models.classify(client.global_model, feats).data
        loc = models.classify(client.global_model, feats, classifier=client.personalized).data
        assert np.array_equal(got.data, g * glob + (1.0 - g) * loc)

    def test_missing_gate_is_usage_error(self):
        glob, ds = global_model()
        fb = heads("pfl_fb", glob, ds, pcfg("pfl_fb", epochs=1), seed=20)
        with pytest.raises(UsageError):
            mix(fb, ds.features)


class TestGateSafety:
    @pytest.mark.parametrize("seed", range(5))
    def test_corrupted_local_expert_is_discarded(self, seed):
        # A competent global expert against a random-classifier local expert:
        # after gate training the mean mixing weight must favor the global side.
        train = data.make_synthetic(classes=4, per_class=40, seed=40 + seed, noise=0.2)
        params = models.build_model(SPEC, seed=seed)
        rng = np.random.default_rng(seed)
        glob = federation.sgd_epochs(params, train, 15, 16, SgdConfig(learning_rate=0.1), rng)

        corrupt_rng = np.random.default_rng(1000 + seed)
        corrupted = {
            k: Tensor(corrupt_rng.normal(scale=0.5, size=t.shape)) for k, t in glob.classifier.items()
        }
        gate_ds = data.synthetic_test_set(40 + seed, classes=4, per_class=10, noise=0.2)

        feats = models.extract_features(glob, gate_ds.features).data
        glog = models.classify(glob, Tensor._wrap(feats)).data
        llog = models.classify(glob, Tensor._wrap(feats), classifier=corrupted).data

        inputs = gate_ds.features.data.reshape(len(gate_ds), -1)
        cfg = pcfg("pfl_mf", epochs=30, batch_size=16, gate_lr=0.1)
        gate = fit_gate("raw", inputs, glog, llog, gate_ds.labels, cfg, seed=7)
        client = personalization.PersonalizedClient(0, "pfl_mf", corrupted, gate, glob)
        assert mean_gate(client, gate_ds) > 0.5


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            pcfg("pfl_xx")

    def test_non_local_needs_epochs(self):
        with pytest.raises(ConfigError):
            pcfg("pfl_fb", epochs=0)

    def test_gate_present_exactly_for_moe(self):
        glob, _ = global_model()
        with pytest.raises(ConfigError):
            personalization.PersonalizedClient(0, "pfl_fb", dict(glob.classifier),
                                               models.init_gate(SPEC, "raw"), glob)
        with pytest.raises(ConfigError):
            personalization.PersonalizedClient(0, "pfl_mf", dict(glob.classifier), None, glob)


class TestHeadStack:
    """personalize_heads trains every client as one stack; each client must
    come out exactly as it does trained alone."""

    def clients(self, moe):
        out = []
        for cid, per_class in enumerate((9, 4, 15, 2, 6)):
            ds = client_dataset(seed=30 + cid, per_class=per_class)
            if moe:
                s = data.split_per_gate(range(len(ds)), ratio=0.8, seed=cid)
                out.append(personalization.HeadClient(10 + cid, 40 + cid, ds.subset(s.per_indices),
                                                      ds.subset(s.gate_indices)))
            else:
                out.append(personalization.HeadClient(10 + cid, 40 + cid, ds))
        return out

    @staticmethod
    def assert_same(a, b):
        assert (a.client_id, a.algorithm) == (b.client_id, b.algorithm)
        assert a.personalized.keys() == b.personalized.keys()
        assert all(np.array_equal(a.personalized[k].data, b.personalized[k].data) for k in a.personalized)
        if a.gate is not None:
            assert all(np.array_equal(a.gate[k].data, b.gate[k].data) for k in ("weight", "bias"))
            assert a.mean_g == b.mean_g

    @pytest.mark.parametrize("algorithm", ["pfl_fb", "pfl_mf", "pfl_mfe"])
    def test_stack_equals_each_client_alone(self, algorithm):
        glob, _ = global_model()
        cfg = pcfg(algorithm, epochs=3)
        clients = self.clients(algorithm != "pfl_fb")
        stacked = personalization.personalize_heads(algorithm, glob, clients, cfg)
        for c, got in zip(clients, stacked):
            alone = personalization.personalize_heads(algorithm, glob, [c], cfg)[0]
            self.assert_same(got, alone)

    @pytest.mark.parametrize("algorithm", ["pfl_mf", "pfl_mfe"])
    def test_mixture_client_without_gate_set_is_usage_error(self, algorithm):
        glob, _ = global_model()
        clients = self.clients(moe=True)
        clients[2] = personalization.HeadClient(clients[2].client_id, clients[2].seed, clients[2].data)
        with pytest.raises(UsageError, match=f"{algorithm}: client 12 has no gate set"):
            personalization.personalize_heads(algorithm, glob, clients, pcfg(algorithm))

    def test_zero_workers_is_usage_error(self):
        glob, _ = global_model()
        with pytest.raises(UsageError, match="workers: must be positive, got 0"):
            personalization.personalize_heads("pfl_fb", glob, self.clients(moe=False), pcfg("pfl_fb"), workers=0)

    def test_zero_workers_is_refused_before_any_extractor_pass(self, monkeypatch):
        glob, _ = global_model()
        calls = []
        extract = personalization.extract_features
        monkeypatch.setattr(personalization, "extract_features", lambda *args: calls.append(1) or extract(*args))
        with pytest.raises(UsageError, match="workers: must be positive, got 0"):
            personalization.personalize_heads("pfl_mf", glob, self.clients(moe=True), pcfg("pfl_mf"), workers=0)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ["pfl_fb", "pfl_mf", "pfl_mfe"])
    def test_worker_count_does_not_change_any_client(self, algorithm):
        glob, _ = global_model()
        cfg = pcfg(algorithm, epochs=2)
        clients = self.clients(algorithm != "pfl_fb")
        one = personalization.personalize_heads(algorithm, glob, clients, cfg, workers=1)
        three = personalization.personalize_heads(algorithm, glob, clients, cfg, workers=3)
        assert [c.client_id for c in one] == [c.client_id for c in clients]
        for a, b in zip(one, three):
            self.assert_same(a, b)
