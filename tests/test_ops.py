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


def batch_innermost(a):
    """The values of ``a`` (N, C, H, W) stored as a (C, H, W, N) buffer, the
    memory order of the model's activations, seen through an NCHW view."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def loop_row_buffer(x, kw):
    """E[h, c, q, j, n] = x[n, c, h, j+q], indexed element by element."""
    n, c, h, w = x.shape
    hh, cc, qq, jj, nn = np.indices((h, c, kw, w - kw + 1, n), sparse=True)
    return x[nn, cc, hh, jj + qq]


def patch_matrix(x, kh, kw):
    """Rows (c, p, q), columns (i, j, n), from one slice per kernel offset."""
    n, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    slabs = [x[:, :, p : p + oh, q : q + ow] for p in range(kh) for q in range(kw)]  # each (N, C, oh, ow)
    return np.stack(slabs, axis=1).transpose(2, 1, 3, 4, 0).reshape(c * kh * kw, oh * ow * n)


def patch_matrix_from_rows(rows, kh):
    """The patch matrix read out of a row buffer E[h, c, q, j, n]: entry
    ((c, p, q), (i, j, n)) is E[i+p, c, q, j, n]."""
    h, c, kw, ow, n = rows.shape
    oh = h - kh + 1
    windows = np.stack([rows[p : p + oh] for p in range(kh)])  # (kh, oh, C, kw, ow, N)
    return windows.transpose(2, 0, 3, 1, 4, 5).reshape(c * kh * kw, oh * ow * n)


class TestBlockedInference:
    """A constant-kernel conv2d, as inference runs it, against the kept-rows
    path training runs; ``models`` bounds inference's batch (see
    tests/test_models.py::TestInferenceBlocks)."""

    @pytest.fixture(scope="class", params=sorted(LENET_CONVS))
    def layer(self, request):
        x_shape, k_shape = LENET_CONVS[request.param]
        rng = np.random.default_rng(47)
        x = batch_innermost(rng.normal(size=(400,) + x_shape[1:]))
        return x, rng.normal(size=k_shape), rng.normal(size=k_shape[0])

    def test_equals_one_gemm_at_every_batch_size(self, layer):
        x, k, b = layer
        for n in [*range(1, 131), 400]:
            want, _ = kernels.conv2d(x[:n], k, b, keep_rows=True)
            assert np.array_equal(kernels.conv2d(x[:n], k, b), want), f"batch {n}"

    def test_kept_patch_matrix_path_gives_the_same_output(self, layer):
        # The kept row buffer still holds the whole patch matrix: its kh
        # shifted row windows, stacked, are the im2col columns.
        x, k, b = layer
        out, rows = kernels.conv2d(x[:97], k, b, keep_rows=True)
        assert np.array_equal(out, kernels.conv2d(x[:97], k, b))
        assert np.array_equal(patch_matrix_from_rows(rows, k.shape[2]), patch_matrix(x[:97], *k.shape[2:]))

    def test_kept_row_buffer_holds_each_row_once_per_kernel_column(self, layer):
        x, k, b = layer
        _, rows = kernels.conv2d(x[:97], k, b, keep_rows=True)
        assert np.array_equal(rows, loop_row_buffer(x[:97], k.shape[3]))

    def test_images_of_every_block_match_the_loop_oracle(self, layer):
        x, k, b = layer
        out = kernels.conv2d(x, k, b)  # 400 images, more than one inference block
        rows = [31, 32, 399]
        assert np.allclose(out[rows], oracles.conv2d_loops(x[rows], k, b), rtol=0, atol=1e-12)

    def test_kernel_grad_from_the_kept_row_buffer_is_unchanged(self, layer):
        x, k, b = layer
        out, rows = kernels.conv2d(x[:10], k, b, keep_rows=True)
        dy = np.random.default_rng(48).normal(size=out.shape)
        assert np.array_equal(kernels.conv2d_kernel_grad(x[:10], dy, k.shape[2:], rows),
                              kernels.conv2d_kernel_grad(x[:10], dy, k.shape[2:]))


def layer_arrays(layer, batch, seed):
    """Conv input, kernel, bias, output gradient, pool input (few distinct
    values, so windows tie) and pooled gradient at a LeNet-5 layer's shapes."""
    x_shape, k_shape = LENET_CONVS[layer]
    rng = np.random.default_rng(seed)
    side = x_shape[2] - k_shape[2] + 1
    out_shape = (batch, k_shape[0], side, side)
    return (rng.normal(size=(batch,) + x_shape[1:]), rng.normal(size=k_shape), rng.normal(size=k_shape[0]),
            rng.normal(size=out_shape), rng.integers(0, 3, size=out_shape).astype(np.float64),
            rng.normal(size=out_shape[:2] + (side // 2, side // 2)))


def kernel_results(x, k, b, dy, a, dp):
    """Every conv and pool kernel's output on one set of inputs."""
    khw = k.shape[2:]
    out, rows = kernels.conv2d(x, k, b, keep_rows=True)
    pooled, routing = kernels.max_pool2x2(a)
    return {
        "conv2d": kernels.conv2d(x, k, b),
        "conv2d keep_rows": out,
        "row buffer": rows,
        "conv2d_input_grad": kernels.conv2d_input_grad(dy, k),
        "conv2d_kernel_grad": kernels.conv2d_kernel_grad(x, dy, khw),
        "conv2d_kernel_grad from rows": kernels.conv2d_kernel_grad(x, dy, khw, rows),
        "max_pool2x2": pooled,
        "routing": routing,
        "max_pool2x2 without routing": kernels.max_pool2x2(a, with_routing=False)[0],
        "max_pool2x2_grad": kernels.max_pool2x2_grad(dp, routing),
    }


@pytest.mark.parametrize("batch", [1, 6, 7, 10, 61, 64])
@pytest.mark.parametrize("layer", sorted(LENET_CONVS))
def test_kernel_results_do_not_depend_on_the_input_memory_order(layer, batch):
    # bench/checks.py checks the kernels on contiguous NCHW arrays; the model
    # feeds them batch-innermost ones. Both, and a strided view, must agree
    # bit for bit.
    x, k, b, dy, a, dp = layer_arrays(layer, batch, seed=batch)
    want = kernel_results(x, k, b, dy, a, dp)
    for order, relayout in (("batch-innermost", batch_innermost),
                            ("every other image", lambda v: np.repeat(v, 2, axis=0)[::2])):
        got = kernel_results(relayout(x), k, b, relayout(dy), relayout(a), relayout(dp))
        for name in want:
            assert np.array_equal(got[name], want[name]), f"{name}, {order} input"


@pytest.mark.parametrize("batch", [1, 7, 10, 61, 64, 97, 400])
@pytest.mark.parametrize("layer", sorted(LENET_CONVS))
def test_kernels_on_batch_innermost_inputs_match_the_loop_oracles(layer, batch):
    x, k, b, dy, a, dp = layer_arrays(layer, batch, seed=100 + batch)
    x, dy, a, dp = (batch_innermost(v) for v in (x, dy, a, dp))
    rows = sorted({0, batch // 2, batch - 1})  # the oracles are slow; each image's results depend on it alone
    assert np.allclose(kernels.conv2d(x, k, b)[rows], oracles.conv2d_loops(x[rows], k, b), rtol=0, atol=1e-12)
    assert np.allclose(kernels.conv2d_input_grad(dy, k)[rows], oracles.conv2d_input_grad_loops(dy[rows], k),
                       rtol=0, atol=1e-12)
    # The kernel gradient sums over the batch: give the other images a zero gradient.
    only = np.zeros_like(dy)
    only[rows] = dy[rows]
    assert np.allclose(kernels.conv2d_kernel_grad(x, batch_innermost(only), k.shape[2:]),
                       oracles.conv2d_kernel_grad_loops(x[rows], dy[rows], *k.shape[2:]), rtol=0, atol=1e-12)
    pooled, routing = kernels.max_pool2x2(a)
    want_pooled, want_routing = oracles.max_pool2x2_loops(a[rows])
    assert np.array_equal(pooled[rows], want_pooled) and np.array_equal(routing[rows], want_routing)
    assert np.array_equal(kernels.max_pool2x2_grad(dp, routing)[rows], oracles.max_pool2x2_grad_loops(a[rows], dp[rows]))


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
