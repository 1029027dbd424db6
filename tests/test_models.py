import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import zero_gate
from fedmoe import data, models, personalization
from fedmoe.errors import ConfigError, DimensionError
from fedmoe.numerics import SgdConfig, Tensor
from fedmoe.numerics import graph, kernels


def lenet_spec(channels=1, classes=10):
    return models.ModelSpec("lenet5", channels=channels, classes=classes)


def mlp_spec(hidden=(64,), channels=1, classes=10):
    return models.ModelSpec("mlp", channels=channels, classes=classes, hidden_sizes=hidden)


class TestBuildModel:
    def test_lenet5_grayscale_parameter_count(self):
        model = models.build_model(lenet_spec(channels=1), seed=0)
        assert model.count() == 61706
        assert sum(math.prod(shape) for shape in models.param_shapes(lenet_spec(channels=1)).values()) == 61706

    def test_lenet5_rgb_parameter_count(self):
        model = models.build_model(lenet_spec(channels=3), seed=0)
        assert model.count() == 62006

    def test_mlp_parameter_count(self):
        model = models.build_model(mlp_spec(hidden=(64,)), seed=0)
        assert model.count() == 64 * 1024 + 64 + 10 * 64 + 10

    @pytest.mark.parametrize("spec", [lenet_spec(channels=3), mlp_spec(hidden=(64, 32))], ids=["lenet5", "mlp"])
    def test_param_shapes_are_the_built_layout_in_order(self, spec):
        built = models.build_model(spec, seed=0).tensors
        assert list(models.param_shapes(spec).items()) == [(name, t.shape) for name, t in built.items()]

    def test_unsupported_architecture(self):
        with pytest.raises(ConfigError):
            models.ModelSpec("vgg16")

    def test_build_is_seeded(self):
        a = models.build_model(mlp_spec(), seed=9)
        b = models.build_model(mlp_spec(), seed=9)
        c = models.build_model(mlp_spec(), seed=10)
        assert all(np.array_equal(a.tensors[k].data, b.tensors[k].data) for k in a.tensors)
        assert any(not np.array_equal(a.tensors[k].data, c.tensors[k].data) for k in a.tensors)


class TestForwardAndSplit:
    def test_forward_equals_classify_of_features_bit_exactly(self):
        rng = np.random.default_rng(41)
        for spec in (lenet_spec(), mlp_spec(hidden=(32, 16))):
            model = models.build_model(spec, seed=1)
            x = Tensor(rng.uniform(size=(3, *spec.input_shape)))
            direct = models.forward(model, x)
            composed = models.classify(model, models.extract_features(model, x))
            assert np.array_equal(direct.data, composed.data)

    def test_extractor_then_classifier_list_the_tensors_in_order(self):
        model = models.build_model(lenet_spec(), seed=2)
        merged = {**model.extractor, **model.classifier}
        assert list(merged) == list(model.tensors)
        assert all(np.array_equal(merged[k].data, model.tensors[k].data) for k in model.tensors)

    def test_zero_weight_model_outputs_biases(self):
        spec = mlp_spec(hidden=(8,))
        zero = {k: Tensor(np.zeros(t.shape)) for k, t in models.build_model(spec, 0).tensors.items()}
        biased = dict(zero)
        biased["out.bias"] = Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        model = models.ModelParams(spec, biased)
        out = models.forward(model, Tensor(np.zeros((1, 1, 32, 32))))
        assert out.tolist() == [list(np.arange(1.0, 11.0))]

    def test_lenet_feature_dim_is_400(self):
        model = models.build_model(lenet_spec(), seed=3)
        x = Tensor(np.random.default_rng(42).uniform(size=(1, 1, 32, 32)))
        feats = models.extract_features(model, x)
        assert feats.shape == (1, 400)

    def test_zero_input_zero_bias_gives_zero_features(self):
        spec = lenet_spec()
        model = models.build_model(spec, seed=4)
        feats = models.extract_features(model, Tensor(np.zeros((1, 1, 32, 32))))
        assert np.abs(feats.data).max() == 0.0

    def test_extract_features_matches_loop_conv_oracle(self):
        spec = lenet_spec()
        model = models.build_model(spec, seed=5)
        rng = np.random.default_rng(43)
        x = rng.uniform(size=(1, 1, 32, 32))

        h = oracles.conv2d_loops(x, model.extractor["conv1.weight"].data, model.extractor["conv1.bias"].data)
        h = np.maximum(h, 0.0)
        h, _ = kernels.max_pool2x2(h)
        h = oracles.conv2d_loops(h, model.extractor["conv2.weight"].data, model.extractor["conv2.bias"].data)
        h = np.maximum(h, 0.0)
        h, _ = kernels.max_pool2x2(h)
        want = h.reshape(1, -1)

        got = models.extract_features(model, Tensor(x)).data
        assert np.allclose(got, want, atol=1e-12)

    def test_classify_matches_matmul_oracle(self):
        spec = mlp_spec(hidden=(12,))
        model = models.build_model(spec, seed=6)
        rng = np.random.default_rng(44)
        a = rng.normal(size=(2, 12))
        want = oracles.matmul_loops(a, model.classifier["out.weight"].data, model.classifier["out.bias"].data)
        got = models.classify(model, Tensor(a)).data
        assert np.allclose(got, want, atol=1e-12)

    def test_input_shape_mismatch(self):
        model = models.build_model(lenet_spec(), seed=0)
        with pytest.raises(DimensionError):
            models.forward(model, Tensor(np.zeros((1, 3, 32, 32))))

    def test_one_example_without_its_batch_axis_is_a_dimension_error(self):
        model = models.build_model(lenet_spec(), seed=0)
        with pytest.raises(DimensionError, match="model input"):
            models.forward(model, Tensor(np.zeros((1, 32, 32))))
        with pytest.raises(DimensionError, match="features"):
            models.classify(model, Tensor(np.zeros(400)))


def block_size(spec):
    return max(1, models.BUDGET // models.per_image_doubles(spec))


class TestInferenceBlocks:
    """forward and extract_features run their images in blocks of
    ``block_size(spec)``; a block's result is the same call on its slice."""

    def test_block_sizes_follow_the_largest_per_image_array(self):
        # LeNet-5: conv1's 6x28x28 output; the MLP: its 32x32 input; RGB
        # LeNet-5: conv1's row buffer, 32 rows x 3 channels x 5 x 28.
        assert (models.per_image_doubles(lenet_spec()), block_size(lenet_spec())) == (4704, 111)
        assert (models.per_image_doubles(mlp_spec()), block_size(mlp_spec())) == (1024, 512)
        assert models.per_image_doubles(lenet_spec(channels=3)) == 32 * 3 * 5 * 28
        assert models.per_image_doubles(mlp_spec(hidden=(2048, 16))) == 2048

    def test_an_image_larger_than_the_budget_is_a_block_of_its_own(self, monkeypatch):
        spec = lenet_spec()
        model = models.build_model(spec, seed=10)
        x = np.random.default_rng(48).uniform(size=(5, *spec.input_shape))
        want = [models.forward(model, Tensor(x[i : i + 1])).data for i in range(5)]
        monkeypatch.setattr(models, "BUDGET", 1000)
        assert np.array_equal(models.forward(model, Tensor(x)).data, np.concatenate(want))

    @pytest.mark.parametrize("call", [models.forward, models.extract_features], ids=["forward", "features"])
    def test_equals_the_calls_on_the_rule_slices(self, call):
        spec = lenet_spec()
        model, block = models.build_model(spec, seed=11), block_size(spec)
        x = np.random.default_rng(49).uniform(size=(400, *spec.input_shape))
        for n in (1, block - 1, block, block + 1, 400):
            slices = [call(model, Tensor(x[lo : min(lo + block, n)])).data for lo in range(0, n, block)]
            assert np.array_equal(call(model, Tensor(x[:n])).data, np.concatenate(slices)), f"{n} images"

    def test_mlp_test_set_of_400_images_is_one_block(self):
        spec = mlp_spec(hidden=(32,))
        model = models.build_model(spec, seed=12)
        x = np.random.default_rng(50).uniform(size=(400, *spec.input_shape))
        whole = models.forward_graph(spec, models.param_consts(model.tensors), graph.const(x)).data
        assert block_size(spec) >= 400
        assert np.array_equal(models.forward(model, Tensor(x)).data, whole)

    def test_peak_memory_is_set_by_the_budget_not_the_batch(self):
        spec = lenet_spec()
        model = models.build_model(spec, seed=13)
        x = Tensor(np.random.default_rng(51).uniform(size=(2000, *spec.input_shape)))
        tracemalloc.start()
        try:
            models.forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One block's conv1 output and row buffer are each about BUDGET doubles;
        # 2,000 images in one batch would be 18x that.
        assert peak < 3 * models.BUDGET * 8


def gate_of(gate: dict, v: np.ndarray) -> np.ndarray:
    """The gate's mixing weights for inputs v, on constants."""
    return models.gate_graph(models.param_consts(gate), graph.const(v)).data


def tiny_client():
    """A pfl_mf client whose personalized head differs from the global one."""
    spec = mlp_spec(hidden=(8,), classes=4)
    glob = models.build_model(spec, seed=7)
    head = models.build_model(spec, seed=8).classifier
    client = personalization.PersonalizedClient(0, "pfl_mf", head, zero_gate(spec.raw_input_dim), glob)
    raw = Tensor(np.random.default_rng(47).uniform(size=(3, 1, 32, 32)))
    return client, raw, models.extract_features(glob, raw)


class TestGating:
    def test_zero_gate_gives_half(self):
        gate = zero_gate(1024)
        assert gate_of(gate, np.zeros((1, 1024))).tolist() == [0.5]

    def test_large_bias_saturates(self):
        gate = {"weight": Tensor(np.zeros((4, 1))), "bias": Tensor([50.0])}
        g = gate_of(gate, np.zeros((1, 4)))
        assert g[0] >= 1.0 - 1e-12

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(45)
        w = rng.normal(size=(6, 1))
        v = rng.normal(size=6)
        bias = 0.3
        gate = {"weight": Tensor(w), "bias": Tensor([bias])}
        want = 1.0 / (1.0 + np.exp(-(float(v @ w[:, 0]) + bias)))
        assert gate_of(gate, v[None])[0] == pytest.approx(want, abs=1e-12)

    def test_stacked_gates_match_dot_product_oracle(self):
        # A (G, n, D) stack of inputs through G gates: g has shape (G, n).
        rng = np.random.default_rng(48)
        w, b, v = rng.normal(size=(3, 6, 1)), rng.normal(size=(3, 1)), rng.normal(size=(3, 5, 6))
        g = models.gate_graph({"weight": graph.const(w), "bias": graph.const(b)}, graph.const(v)).data
        want = 1.0 / (1.0 + np.exp(-(np.einsum("gnd,gd->gn", v, w[:, :, 0]) + b)))
        assert g.shape == (3, 5)
        assert np.allclose(g, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("algorithm, spec, dim", [
        ("pfl_mf", lenet_spec(channels=1), 1024),
        ("pfl_mf", lenet_spec(channels=3), 3072),
        ("pfl_mfe", lenet_spec(), 400),
        ("pfl_mfe", mlp_spec(hidden=(64,)), 64),
    ], ids=["mf_gray", "mf_rgb", "mfe_lenet5", "mfe_mlp"])
    def test_trained_gate_reads_its_algorithms_input(self, algorithm, spec, dim):
        # pfl_mf's gate reads the flattened raw image, pfl_mfe's the extractor's features.
        ds = data.make_synthetic(classes=spec.classes, per_class=1, channels=spec.channels, seed=3)
        cfg = personalization.PersonalizationConfig(algorithm, 1, SgdConfig(0.01), SgdConfig(0.05), 4, 0.5)
        client = personalization.HeadClient(0, 5, ds.subset(range(6)), ds.subset(range(6, 10)))
        trained, = personalization.personalize_heads(algorithm, models.build_model(spec, seed=0), [client], cfg)
        assert trained.gate["weight"].shape == (dim, 1)
        assert trained.gate["bias"].shape == (1,)

    def test_dimension_mismatch(self):
        gate = zero_gate(400)
        with pytest.raises(DimensionError):
            gate_of(gate, np.zeros((1, 1024)))

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((1024, 2), (2,)),
        ((1024, 1), (2,)),
        ((1024,), (1,)),
        ((3, 1024, 1), (2, 1)),
        ((3, 1024, 1), (1,)),
    ], ids=["two_outputs", "wide_bias", "no_output_axis", "stack_sizes_differ", "unstacked_bias"])
    def test_gate_shape_must_be_input_dim_by_one(self, w_shape, b_shape):
        gate = {"weight": Tensor(np.zeros(w_shape)), "bias": Tensor(np.zeros(b_shape))}
        with pytest.raises(DimensionError, match="gate weight"):
            gate_of(gate, np.zeros((3, 2, 1024)))


class TestMixOutputs:
    def test_boundary_one_returns_global(self, clamp_gate):
        client, raw, feats = tiny_client()
        g, mixed = personalization.mixture(clamp_gate(client, 1), raw, feats)
        assert g.tolist() == [1.0, 1.0, 1.0]
        assert np.array_equal(mixed.data, models.classify(client.global_model, feats).data)

    def test_boundary_zero_returns_local(self, clamp_gate):
        client, raw, feats = tiny_client()
        g, mixed = personalization.mixture(clamp_gate(client, 0), raw, feats)
        assert g.tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(mixed.data, models.classify(client.global_model, feats, classifier=client.personalized).data)

    def test_midpoint(self):
        mixed = graph.mix(graph.const([0.5]), graph.const([[2.0, 0.0]]), graph.const([[0.0, 2.0]]))
        assert mixed.data.tolist() == [[1.0, 1.0]]

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(46)
        glob = rng.normal(size=(5, 4))
        loc = rng.normal(size=(5, 4))
        g = rng.uniform(size=5)
        mixed = graph.mix(graph.const(g), graph.const(glob), graph.const(loc)).data
        lo = np.minimum(glob, loc)
        hi = np.maximum(glob, loc)
        assert (mixed >= lo - 1e-12).all() and (mixed <= hi + 1e-12).all()

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            graph.mix(graph.const(np.full(3, 0.5)), graph.const(np.zeros((3, 2))), graph.const(np.zeros((4, 2))))
