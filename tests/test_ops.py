"""Forward layers of the one numeric path (``kernels`` and the recorded
``graph``) against hand values and the loop oracles."""

import numpy as np
import pytest

import oracles
from fedmoe.errors import DimensionError
from fedmoe.numerics import Tensor, graph, kernels, tensor, zeros


def forward(op, *arrays):
    """Recorded forward value of a graph op on plain arrays."""
    return op(*(graph.leaf(np.asarray(a, dtype=np.float64)) for a in arrays)).data


class TestTensor:
    def test_shape_and_buffer_agree(self):
        t = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            tensor([float("inf")])

    def test_rejects_scalar_and_zero_dims(self):
        with pytest.raises(DimensionError):
            Tensor(3.0)

    def test_buffer_is_write_locked(self):
        t = zeros((3,))
        with pytest.raises(ValueError):
            t.data[0] = 1.0


class TestDense:
    def test_identity_weights(self):
        out = forward(graph.dense, [[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        assert out.tolist() == [[1.0, 2.0]]

    def test_zero_input_passes_bias(self):
        out = forward(graph.dense, [[0.0, 0.0]], [[5.0, -1.0], [2.0, 7.0]], [3.0, 4.0])
        assert out.tolist() == [[3.0, 4.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        want = oracles.matmul_loops(x, w, b)
        assert np.allclose(kernels.dense(x, w, b), want, atol=1e-12)
        assert np.allclose(forward(graph.dense, x, w, b), want, atol=1e-12)


class TestConv2d:
    def test_all_ones_sums_window(self):
        out = forward(graph.conv2d, np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1))
        assert out.tolist() == [[[[9.0]]]]

    def test_center_delta_kernel_crops(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = forward(graph.conv2d, x, k, np.zeros(1))
        assert np.array_equal(out[0, 0], x[0, 0, 1:4, 1:4])

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 8, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        want = oracles.conv2d_loops(x, k, b)
        assert np.allclose(kernels.conv2d(x, k, b), want, atol=1e-12)
        assert np.allclose(forward(graph.conv2d, x, k, b), want, atol=1e-12)


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert forward(graph.sigmoid, [0.0]).tolist() == [0.5]

    def test_relu_definition(self):
        assert forward(graph.relu, [-2.0, 3.0]).tolist() == [0.0, 3.0]

    def test_softmax_uniform(self):
        out = kernels.softmax(np.array([0.0, 0.0, 0.0]))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = kernels.softmax(rng.normal(scale=50.0, size=(20, 7)))
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12

    def test_sigmoid_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        out = forward(graph.sigmoid, rng.uniform(-30, 30, size=200))
        assert (out > 0).all() and (out < 1).all()

    def test_max_pool_windows(self):
        out = forward(graph.max_pool2x2, np.arange(16.0).reshape(1, 1, 4, 4))
        assert out.tolist() == [[[[5.0, 7.0], [13.0, 15.0]]]]

    def test_forward_ops_are_pure(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        first = kernels.softmax(x)
        second = kernels.softmax(x)
        assert np.array_equal(first, second)


class TestCrossEntropy:
    def test_uniform_binary(self):
        assert kernels.cross_entropy(np.zeros((1, 2)), np.array([0])) == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated_correct_class(self):
        logits = np.array([[1000.0, 0.0, 0.0]])
        assert kernels.cross_entropy(logits, np.array([0])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        want = oracles.cross_entropy_per_sample(logits, labels.tolist())
        assert kernels.cross_entropy(logits, labels) == pytest.approx(want, abs=1e-12)
        assert float(graph.cross_entropy(graph.leaf(logits), labels).data) == pytest.approx(want, abs=1e-12)
