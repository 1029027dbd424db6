import numpy as np
import pytest

import oracles
from fedmoe import models, personalization
from fedmoe.errors import ConfigError, DimensionError
from fedmoe.numerics import Tensor, tensor, zeros
from fedmoe.numerics import graph, kernels


def lenet_spec(channels=1, classes=10):
    return models.ModelSpec("lenet5", channels=channels, classes=classes)


def mlp_spec(hidden=(64,), channels=1, classes=10):
    return models.ModelSpec("mlp", channels=channels, classes=classes, hidden_sizes=hidden)


class TestBuildModel:
    def test_lenet5_grayscale_parameter_count(self):
        model = models.build_model(lenet_spec(channels=1), seed=0)
        assert model.count() == 61706
        assert models.parameter_count(lenet_spec(channels=1)) == 61706

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
        zero = {k: zeros(t.shape) for k, t in models.build_model(spec, 0).tensors.items()}
        biased = dict(zero)
        biased["out.bias"] = tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        model = models.ModelParams(spec, biased)
        out = models.forward(model, zeros((1, 1, 32, 32)))
        assert out.tolist() == [list(np.arange(1.0, 11.0))]

    def test_lenet_feature_dim_is_400(self):
        model = models.build_model(lenet_spec(), seed=3)
        x = Tensor(np.random.default_rng(42).uniform(size=(1, 32, 32)))
        feats = models.extract_features(model, x)
        assert feats.shape == (400,)

    def test_zero_input_zero_bias_gives_zero_features(self):
        spec = lenet_spec()
        model = models.build_model(spec, seed=4)
        feats = models.extract_features(model, zeros((1, 1, 32, 32)))
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
            models.forward(model, zeros((1, 3, 32, 32)))


def gate_of(gate: dict, v: np.ndarray) -> np.ndarray:
    """The gate's mixing weights for inputs v, on constants."""
    return models.gate_graph(models.param_consts(gate), graph.const(v)).data


def tiny_client():
    """A pfl_mf client whose personalized head differs from the global one."""
    spec = mlp_spec(hidden=(8,), classes=4)
    glob = models.build_model(spec, seed=7)
    head = models.build_model(spec, seed=8).classifier
    client = personalization.PersonalizedClient(0, "pfl_mf", head, models.init_gate(spec, "raw"), glob)
    raw = Tensor(np.random.default_rng(47).uniform(size=(3, 1, 32, 32)))
    return client, raw, models.extract_features(glob, raw)


class TestGating:
    def test_zero_gate_gives_half(self):
        gate = models.init_gate(lenet_spec(), "raw")
        assert gate_of(gate, np.zeros((1, 1024))).tolist() == [0.5]

    def test_large_bias_saturates(self):
        gate = {"weight": zeros((4, 1)), "bias": tensor([50.0])}
        g = gate_of(gate, np.zeros((1, 4)))
        assert g[0] >= 1.0 - 1e-12

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(45)
        w = rng.normal(size=(6, 1))
        v = rng.normal(size=6)
        bias = 0.3
        gate = {"weight": Tensor(w), "bias": tensor([bias])}
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

    def test_input_dims_per_mode(self):
        assert models.gate_input_dim(lenet_spec(channels=1), "raw") == 1024
        assert models.gate_input_dim(lenet_spec(channels=3), "raw") == 3072
        assert models.gate_input_dim(lenet_spec(), "feature") == 400
        assert models.gate_input_dim(mlp_spec(hidden=(64,)), "feature") == 64

    def test_dimension_mismatch(self):
        gate = models.init_gate(lenet_spec(), "feature")
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
        gate = {"weight": zeros(w_shape), "bias": zeros(b_shape)}
        with pytest.raises(DimensionError, match="gate weight"):
            gate_of(gate, np.zeros((3, 2, 1024)))


class TestMixOutputs:
    def test_boundary_one_returns_global(self):
        client, raw, feats = tiny_client()
        _, mixed = personalization.mixture(client, raw, feats, gate_override=1.0)
        assert np.array_equal(mixed.data, models.classify(client.global_model, feats).data)

    def test_boundary_zero_returns_local(self):
        client, raw, feats = tiny_client()
        _, mixed = personalization.mixture(client, raw, feats, gate_override=0.0)
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

    def test_out_of_range_scalar(self):
        client, raw, feats = tiny_client()
        with pytest.raises(ValueError):
            personalization.mixture(client, raw, feats, gate_override=1.5)
