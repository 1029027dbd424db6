"""Forward layers of the one numeric path (``kernels`` and the recorded
``graph``) against hand values and the loop oracles."""

import numpy as np
import pytest

import oracles
from fedmoe.errors import DimensionError
from fedmoe.numerics import Tensor, graph, kernels


def forward(op, *arrays):
    """Recorded forward value of a graph op on plain arrays."""
    return op(*(graph.leaf(np.asarray(a, dtype=np.float64)) for a in arrays)).data


class TestTensor:
    def test_shape_and_buffer_agree(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            Tensor([float("inf")])

    def test_rejects_scalar_and_zero_dims(self):
        with pytest.raises(DimensionError):
            Tensor(3.0)

    def test_buffer_is_write_locked(self):
        t = Tensor(np.zeros(3))
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


# LeNet-5 layer shapes at batch 2: (input, kernel).
LENET_CONVS = {
    "conv1": ((2, 1, 32, 32), (6, 1, 5, 5)),
    "conv2": ((2, 6, 14, 14), (16, 6, 5, 5)),
}


@pytest.mark.parametrize("layer", sorted(LENET_CONVS))
class TestConvGradientsAtLenetShapes:
    def arrays(self, layer):
        x_shape, k_shape = LENET_CONVS[layer]
        rng = np.random.default_rng(41)
        x = rng.normal(size=x_shape)
        k = rng.normal(size=k_shape)
        side = x_shape[2] - k_shape[2] + 1
        dy = rng.normal(size=(x_shape[0], k_shape[0], side, side))
        return x, k, dy

    def test_forward_matches_six_loop_oracle(self, layer):
        x, k, _ = self.arrays(layer)
        b = np.linspace(-1.0, 1.0, k.shape[0])
        assert np.allclose(kernels.conv2d(x, k, b), oracles.conv2d_loops(x, k, b), rtol=0, atol=1e-12)

    def test_input_grad_matches_loop_oracle(self, layer):
        _, k, dy = self.arrays(layer)
        want = oracles.conv2d_input_grad_loops(dy, k)
        assert np.allclose(kernels.conv2d_input_grad(dy, k), want, rtol=0, atol=1e-12)

    def test_kernel_grad_matches_loop_oracle(self, layer):
        x, k, dy = self.arrays(layer)
        want = oracles.conv2d_kernel_grad_loops(x, dy, k.shape[2], k.shape[3])
        assert np.allclose(kernels.conv2d_kernel_grad(x, dy, k.shape[2:]), want, rtol=0, atol=1e-12)


def nchw_col2im_input_grad(dy, k):
    """conv2d_input_grad as it was before its col2im went channel-major: the
    same GEMM, each offset's slab transposed to NCHW before it is added."""
    n, f, oh, ow = dy.shape
    c, kh, kw = k.shape[1:]
    cols = (k.reshape(f, -1).T @ dy.transpose(1, 0, 2, 3).reshape(f, -1)).reshape(c, kh, kw, n, oh, ow)
    dx = np.zeros((n, c, oh + kh - 1, ow + kw - 1))
    for p in range(kh):
        for q in range(kw):
            dx[:, :, p : p + oh, q : q + ow] += cols[:, p, q].transpose(1, 0, 2, 3)
    return dx


def test_channel_major_input_grad_equals_the_nchw_col2im_at_every_batch_size():
    # A patch-major GEMM changed the last bit at odd batch sizes; this scatter must not.
    rng = np.random.default_rng(49)
    k = rng.normal(size=LENET_CONVS["conv2"][1])
    dy = rng.normal(size=(130, 16, 10, 10))
    for n in range(1, 131):
        got = kernels.conv2d_input_grad(dy[:n], k)
        assert got.shape == (n, 6, 14, 14)
        assert np.array_equal(got, nchw_col2im_input_grad(dy[:n], k)), f"batch {n}"


class TestBlockedInference:
    """A constant-kernel conv2d runs the batch in blocks of kernels.CONV_BLOCK
    images, a remainder joining the last block; the output must not change."""

    @pytest.fixture(scope="class", params=sorted(LENET_CONVS))
    def layer(self, request):
        x_shape, k_shape = LENET_CONVS[request.param]
        rng = np.random.default_rng(47)
        x = rng.normal(size=(400,) + x_shape[1:])
        return x, rng.normal(size=k_shape), rng.normal(size=k_shape[0])

    def test_equals_one_gemm_at_every_batch_size(self, layer):
        x, k, b = layer
        f, _, kh, kw = k.shape
        side = x.shape[2] - kh + 1
        for n in [*range(1, 131), 400]:
            one_gemm = (k.reshape(f, -1) @ kernels._im2col(x[:n], (kh, kw))).reshape(f, n, side, side)
            want = one_gemm.transpose(1, 0, 2, 3) + b[None, :, None, None]
            assert np.array_equal(kernels.conv2d(x[:n], k, b), want), f"batch {n}"

    def test_kept_patch_matrix_path_gives_the_same_output(self, layer):
        x, k, b = layer
        out, cols = kernels.conv2d(x[:97], k, b, keep_cols=True)
        assert np.array_equal(out, kernels.conv2d(x[:97], k, b))
        assert np.array_equal(cols, kernels._im2col(x[:97], k.shape[2:]))

    def test_images_of_every_block_match_the_loop_oracle(self, layer):
        x, k, b = layer
        out = kernels.conv2d(x[:97], k, b)  # blocks 0-31, 32-63, 64-96
        rows = [31, 32, 96]  # the last image of the first block, the first of the second, the last
        assert np.allclose(out[rows], oracles.conv2d_loops(x[rows], k, b), rtol=0, atol=1e-12)

    def test_kernel_grad_from_the_kept_patch_matrix_is_unchanged(self, layer):
        x, k, b = layer
        _, cols = kernels.conv2d(x[:10], k, b, keep_cols=True)
        dy = np.random.default_rng(48).normal(size=kernels.conv2d(x[:10], k, b).shape)
        assert np.array_equal(kernels.conv2d_kernel_grad(x[:10], dy, k.shape[2:], cols),
                              kernels.conv2d_kernel_grad(x[:10], dy, k.shape[2:]))


class TestMaxPoolRouting:
    @pytest.mark.parametrize("shape", [(2, 6, 28, 28), (2, 16, 10, 10)])
    def test_matches_loop_oracle_at_lenet_shapes(self, shape):
        rng = np.random.default_rng(43)
        # Few distinct values, so many windows hold ties.
        x = rng.integers(0, 3, size=shape).astype(np.float64)
        dy = rng.normal(size=shape[:2] + (shape[2] // 2, shape[3] // 2))
        pooled, routing = kernels.max_pool2x2(x)
        want_pooled, want_routing = oracles.max_pool2x2_loops(x)
        assert np.array_equal(pooled, want_pooled)
        assert np.array_equal(routing, want_routing)
        assert np.allclose(kernels.max_pool2x2_grad(dy, routing), oracles.max_pool2x2_grad_loops(x, dy),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 6, 28, 28), (2, 16, 10, 10)])
    def test_pooling_without_routing_gives_the_same_values(self, shape):
        x = np.random.default_rng(44).integers(0, 3, size=shape).astype(np.float64)
        pooled, routing = kernels.max_pool2x2(x, with_routing=False)
        assert routing is None
        assert np.array_equal(pooled, kernels.max_pool2x2(x)[0])

    @pytest.mark.parametrize("window, cell", [
        ([[1.0, 1.0], [1.0, 1.0]], (0, 0)),  # all equal: top-left
        ([[0.0, 1.0], [2.0, 2.0]], (1, 0)),  # the two bottom cells tie: bottom-left
    ])
    def test_tie_routes_to_first_maximum_in_row_major_order(self, window, cell):
        x = np.array(window).reshape(1, 1, 2, 2)
        _, routing = kernels.max_pool2x2(x)
        dx = kernels.max_pool2x2_grad(np.array([[[[3.0]]]]), routing)
        want = np.zeros((2, 2))
        want[cell] = 3.0
        assert np.array_equal(dx[0, 0], want)


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
