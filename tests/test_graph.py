import numpy as np
import pytest

import oracles
from fedmoe import data, federation, models
from fedmoe.errors import UsageError
from fedmoe.numerics import SgdConfig, Tensor, graph, kernels

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def sgd_full_batch(params: models.ModelParams, x: np.ndarray, labels: np.ndarray) -> None:
    """One epoch of federation.sgd_epochs over (x, labels) as a single batch."""
    ds = data.LabeledDataset(Tensor(x), labels, classes=params.spec.classes)
    federation.sgd_epochs(params, ds, 1, len(labels), SgdConfig(learning_rate=0.1), np.random.default_rng(0))


def check_gradients(build_loss, arrays, tol=GRAD_TOL):
    """Compare recorded-graph gradients against central finite differences.

    ``build_loss`` maps a list of ndarrays to a scalar loss Value; the same
    callable drives both routes so only the differentiation differs.
    """
    leaves = [graph.leaf(a) for a in arrays]
    analytic = graph.gradient(build_loss(leaves), leaves)

    def f(raw):
        return float(build_loss([graph.leaf(a) for a in raw]).data)

    numeric = oracles.finite_difference(f, [a.copy() for a in arrays], step=FD_STEP)
    err = oracles.max_relative_error(analytic, numeric)
    assert err < tol, f"max relative error {err:.3e}"


class TestScalarRules:
    def test_off_path_parameter_is_rejected(self):
        x = graph.leaf(np.ones((2, 3)))
        other = graph.leaf(np.array([1.0]))
        loss = graph.cross_entropy(graph.sigmoid(x), [0, 2])
        with pytest.raises(UsageError):
            graph.gradient(loss, [other])

    def test_non_scalar_loss_is_rejected(self):
        w = graph.leaf(np.ones((2, 3)))
        with pytest.raises(UsageError):
            graph.gradient(graph.sigmoid(w), [w])


class TestChainWalk:
    def test_branching_computation_is_rejected(self):
        rng = np.random.default_rng(24)
        g, glob = graph.leaf(rng.normal(size=3)), graph.leaf(rng.normal(size=(3, 4)))
        mixed = graph.mix(graph.sigmoid(g), graph.relu(glob), graph.const(rng.normal(size=(3, 4))))
        with pytest.raises(UsageError, match="chain"):
            graph.gradient(graph.cross_entropy(mixed, [0, 3, 2]), [g, glob])

    def test_leaf_used_twice_gets_the_sum_of_its_gradients(self):
        rng = np.random.default_rng(25)
        x, w, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), rng.normal(size=3)

        def build(leaves):
            xv, wv, bv = leaves
            return graph.cross_entropy(graph.dense(graph.relu(graph.dense(xv, wv, bv)), wv, bv), [0, 2])

        check_gradients(build, [x, w, b])

    def test_leaf_used_twice_in_one_op(self):
        rng = np.random.default_rng(26)
        g, e = rng.uniform(0.2, 0.8, size=3), rng.normal(size=(3, 4))
        ev = graph.leaf(e)
        loss = graph.cross_entropy(graph.mix(graph.const(g), ev, ev), [0, 3, 2])
        (got,) = graph.gradient(loss, [ev])
        gw = g[:, None]
        d = kernels.cross_entropy_grad(gw * e + (1.0 - gw) * e, np.array([0, 3, 2]))
        assert np.array_equal(got, d * gw + d * (1.0 - gw))


class TestLayerGradients:
    def test_dense_cross_entropy_path(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        labels = [0, 2]

        def build(leaves):
            xv, wv, bv = leaves
            return graph.cross_entropy(graph.dense(xv, wv, bv), labels)

        check_gradients(build, [x, w, b])

    def test_conv_relu_pool_dense_path(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        kb = rng.normal(size=3)
        w = rng.normal(size=(3 * 2 * 2, 4))
        b = rng.normal(size=4)
        labels = [1, 3]

        def build(leaves):
            xv, kv, kbv, wv, bv = leaves
            h = graph.max_pool2x2(graph.relu(graph.conv2d(xv, kv, kbv)))
            return graph.cross_entropy(graph.dense(graph.flatten(h), wv, bv), labels)

        check_gradients(build, [x, k, kb, w, b])

    def test_sigmoid_path(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 4))

        def build(leaves):
            return graph.cross_entropy(graph.sigmoid(leaves[0]), [0, 3, 1])

        check_gradients(build, [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_every_layer_kind_small_random_shapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(2, 1, 4, 4))
        k = rng.normal(size=(2, 1, 3, 3))
        kb = rng.normal(size=2)
        w = rng.normal(size=(2 * 1 * 1, 3))
        b = rng.normal(size=3)
        labels = rng.integers(0, 3, size=2).tolist()

        def build(leaves):
            xv, kv, kbv, wv, bv = leaves
            h = graph.relu(graph.conv2d(xv, kv, kbv))
            h = graph.max_pool2x2(h)
            h = graph.dense(graph.flatten(h), wv, bv)
            return graph.cross_entropy(h, labels)

        check_gradients(build, [x, k, kb, w, b])


class TestGateAndMixingGradients:
    def test_gate_weights_through_mixing(self):
        # Loss path: linear gate -> sigmoid -> convex mix of frozen experts -> cross entropy.
        rng = np.random.default_rng(31)
        v = rng.normal(size=(4, 6))
        w = rng.normal(scale=0.3, size=(6, 1))
        b = rng.normal(scale=0.1, size=1)
        global_logits = rng.normal(size=(4, 3))
        local_logits = rng.normal(size=(4, 3))
        labels = [0, 1, 2, 1]

        def build(leaves):
            wv, bv = leaves
            score = graph.reshape(graph.dense(graph.leaf(v), wv, bv), (4,))
            g = graph.sigmoid(score)
            mixed = graph.mix(g, graph.leaf(global_logits), graph.leaf(local_logits))
            return graph.cross_entropy(mixed, labels)

        check_gradients(build, [w, b])

    def test_mix_gradient_flows_to_both_experts(self):
        rng = np.random.default_rng(32)
        g = rng.uniform(0.2, 0.8, size=3)
        glob = rng.normal(size=(3, 4))
        loc = rng.normal(size=(3, 4))
        labels = [0, 3, 2]

        def build(leaves):
            gv, globv, locv = leaves
            return graph.cross_entropy(graph.mix(gv, globv, locv), labels)

        check_gradients(build, [g, glob, loc])

    def test_identical_experts_zero_gate_gradient(self):
        rng = np.random.default_rng(33)
        v = rng.normal(size=(4, 5))
        expert = rng.normal(size=(4, 3))
        w = graph.leaf(np.zeros((5, 1)))
        b = graph.leaf(np.zeros(1))
        score = graph.reshape(graph.dense(graph.leaf(v), w, b), (4,))
        mixed = graph.mix(graph.sigmoid(score), graph.leaf(expert), graph.leaf(expert))
        loss = graph.cross_entropy(mixed, [0, 1, 2, 0])
        gw, gb = graph.gradient(loss, [w, b])
        assert np.abs(gw).max() == 0.0
        assert np.abs(gb).max() == 0.0


class TestGradientPruning:
    SPEC = models.ModelSpec("lenet5", channels=1, classes=4)

    def lenet_batch(self):
        rng = np.random.default_rng(51)
        params = models.build_model(self.SPEC, seed=5).tensors
        x = rng.uniform(size=(3,) + self.SPEC.input_shape)
        labels = rng.integers(0, 4, size=3)
        return params, x, labels

    def test_sgd_epoch_batch_skips_the_input_gradient_of_conv1(self, monkeypatch):
        params, x, labels = self.lenet_batch()
        kernel_shapes = []
        real = kernels.conv2d_input_grad

        def counting(dy, k):
            kernel_shapes.append(k.shape)
            return real(dy, k)

        monkeypatch.setattr(kernels, "conv2d_input_grad", counting)
        sgd_full_batch(models.ModelParams(self.SPEC, params), x, labels)
        assert kernel_shapes == [params["conv2.weight"].shape]

    def test_parameter_gradients_do_not_depend_on_requesting_the_input(self):
        params, x, labels = self.lenet_batch()
        leaves = {k: graph.leaf(t) for k, t in params.items()}
        xv = graph.leaf(x)
        loss = graph.cross_entropy(models.forward_graph(self.SPEC, leaves, xv), labels)
        alone = graph.gradient(loss, list(leaves.values()))
        *with_input, _ = graph.gradient(loss, [*leaves.values(), xv])
        for a, b in zip(alone, with_input):
            assert np.array_equal(a, b)

    def test_input_alone_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        kb = rng.normal(size=3)
        w = rng.normal(size=(3 * 2 * 2, 4))
        b = rng.normal(size=4)

        def build(leaves):
            (xv,) = leaves
            h = graph.max_pool2x2(graph.relu(graph.conv2d(xv, graph.leaf(k), graph.leaf(kb))))
            return graph.cross_entropy(graph.dense(graph.flatten(h), graph.leaf(w), graph.leaf(b)), [1, 3])

        check_gradients(build, [x])


def awkward_pool_input(shape, seed):
    """Pool inputs with ties: small integers, exact zeros and -0.0, and some
    windows that are all negative."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    x[rng.random(shape) < 0.1] = -0.0
    x[..., :4, :6] = -rng.integers(1, 3, size=x[..., :4, :6].shape)
    return x


@pytest.mark.parametrize("shape", [(3, 6, 28, 28), (3, 16, 10, 10)])
def test_relu_after_pool_equals_relu_before_pool(shape):
    x = awkward_pool_input(shape, seed=53)
    labels = np.random.default_rng(54).integers(0, 10, size=shape[0])
    results = []
    for order in ((graph.max_pool2x2, graph.relu), (graph.relu, graph.max_pool2x2)):
        xv = graph.leaf(x)
        h = order[1](order[0](xv))
        (dx,) = graph.gradient(graph.cross_entropy(graph.flatten(h), labels), [xv])
        results.append((h.data, dx))
    (pool_first, dx_pool_first), (relu_first, dx_relu_first) = results
    # Bit for bit, the signs of zeros included.
    assert pool_first.tobytes() == relu_first.tobytes()
    assert dx_pool_first.tobytes() == dx_relu_first.tobytes()
    assert (dx_pool_first != 0).any() and np.signbit(dx_pool_first[dx_pool_first == 0]).any()


def test_lenet5_training_batch_runs_relu_on_pooled_maps(monkeypatch):
    spec = models.ModelSpec("lenet5", channels=1, classes=4)
    rng = np.random.default_rng(55)
    x, labels = rng.uniform(size=(3,) + spec.input_shape), rng.integers(0, 4, size=3)
    relu_shapes = []
    real = kernels.relu

    def recording(a):
        relu_shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(kernels, "relu", recording)
    sgd_full_batch(models.build_model(spec, seed=5), x, labels)
    assert relu_shapes == [(3, 6, 14, 14), (3, 16, 5, 5), (3, 120), (3, 84)]


class TestConstantValues:
    SPEC = models.ModelSpec("lenet5", channels=1, classes=4)

    def test_op_on_constants_records_nothing(self):
        x, w, b = graph.const(np.ones((2, 3))), graph.const(np.ones((3, 2))), graph.const(np.zeros(2))
        out = graph.relu(graph.dense(x, w, b))
        assert not out.tracked and out.parents == () and out._backward is None
        assert graph.dense(x, graph.leaf(np.ones((3, 2))), b).tracked

    def test_sgd_epoch_batch_builds_each_row_buffer_once(self, monkeypatch):
        rng = np.random.default_rng(53)
        params = models.build_model(self.SPEC, seed=5)
        x = rng.uniform(size=(3,) + self.SPEC.input_shape)
        builds = []
        real = kernels.row_buffer

        def counting(x, kw):
            builds.append(x.shape[1])
            return real(x, kw)

        monkeypatch.setattr(kernels, "row_buffer", counting)
        sgd_full_batch(params, x, rng.integers(0, 4, size=3))
        assert builds == [1, 6]  # conv1's input channels, then conv2's

    def test_inference_builds_no_backward_closure(self, monkeypatch):
        params = models.build_model(self.SPEC, seed=6)
        x = np.random.default_rng(54).uniform(size=(400,) + self.SPEC.input_shape)
        closures = []
        real_init = graph.Value.__init__

        def counting_init(self, data, parents=(), backward=None, tracked=True):
            closures.append(backward)
            real_init(self, data, parents, backward, tracked)

        monkeypatch.setattr(graph.Value, "__init__", counting_init)
        logits = models.forward(params, Tensor(x))
        assert logits.shape == (400, 4)
        assert len(closures) > 10 and closures == [None] * len(closures)

    def test_mix_with_constant_experts_computes_only_the_gate_gradient(self):
        rng = np.random.default_rng(55)
        g = graph.leaf(rng.uniform(0.2, 0.8, size=3))
        mixed = graph.mix(g, graph.const(rng.normal(size=(3, 4))), graph.const(rng.normal(size=(3, 4))))
        dg, dglob, dloc = mixed._backward(np.ones((3, 4)))
        assert dg.shape == (3,) and dglob is None and dloc is None

    def test_constant_is_off_the_gradient_path(self):
        rng = np.random.default_rng(56)
        x, w, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        wv, bv = graph.leaf(w), graph.const(b)
        loss = graph.cross_entropy(graph.dense(graph.const(x), wv, bv), [1, 3])
        want = x.T @ kernels.cross_entropy_grad(x @ w + b, np.array([1, 3]))
        assert np.array_equal(graph.gradient(loss, [wv])[0], want)
        with pytest.raises(UsageError):
            graph.gradient(loss, [bv])

    def test_loss_value_is_computed_when_read(self, monkeypatch):
        rng = np.random.default_rng(57)
        logits, labels = rng.normal(size=(3, 4)), np.array([0, 3, 1])
        calls = []
        real = kernels.cross_entropy
        monkeypatch.setattr(kernels, "cross_entropy", lambda z, y: calls.append(1) or real(z, y))
        leaf = graph.leaf(logits)
        loss = graph.cross_entropy(leaf, labels)
        graph.gradient(loss, [leaf])
        assert calls == []
        assert float(loss.data) == real(logits, labels) and float(loss.data) == real(logits, labels)
        assert calls == [1]
