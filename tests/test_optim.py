import numpy as np
import pytest

from fedmoe.errors import ConfigError, DimensionError
from fedmoe.numerics import OptimizerState, SgdConfig, sgd_step


def test_plain_step():
    cfg = SgdConfig(learning_rate=0.1)
    params = {"w": np.array([0.0])}
    out = sgd_step(params, {"w": np.array([1.0])}, OptimizerState(), cfg)
    assert out["w"].tolist() == [-0.1]


def test_momentum_two_step_recurrence():
    # Hand-rolled recurrence: v1 = g1, v2 = 0.9*g1 + g2; param_2 = -lr*(v1 + v2).
    cfg = SgdConfig(learning_rate=0.1, momentum=0.9)
    g1, g2 = np.array([1.0]), np.array([0.5])
    state = OptimizerState()
    params = {"w": np.array([0.0])}
    params = sgd_step(params, {"w": g1}, state, cfg)
    params = sgd_step(params, {"w": g2}, state, cfg)
    v1 = g1
    v2 = 0.9 * v1 + g2
    assert params["w"] == pytest.approx(-0.1 * (v1 + v2), abs=1e-15)


def test_weight_decay_enters_gradient():
    cfg = SgdConfig(learning_rate=1.0, weight_decay=0.5)
    params = {"w": np.array([2.0])}
    out = sgd_step(params, {"w": np.array([0.0])}, OptimizerState(), cfg)
    # v = g + wd*param = 1.0; param - lr*v = 1.0
    assert out["w"].tolist() == [1.0]


def test_lr_decay_schedule():
    cfg = SgdConfig(learning_rate=0.1, lr_decay_factor=0.1, lr_decay_every=100)
    assert cfg.effective_lr(0) == pytest.approx(0.1)
    assert cfg.effective_lr(99) == pytest.approx(0.1)
    assert cfg.effective_lr(100) == pytest.approx(0.01)
    assert cfg.effective_lr(250) == pytest.approx(0.001)

    state = OptimizerState(epoch=100)
    out = sgd_step({"w": np.array([0.0])}, {"w": np.array([1.0])}, state, cfg)
    assert out["w"] == pytest.approx([-0.01], abs=1e-15)


def test_momentum_zero_equals_plain_exactly():
    rng = np.random.default_rng(4)
    p = rng.normal(size=7)
    g = rng.normal(size=7)
    cfg = SgdConfig(learning_rate=0.05)
    out = sgd_step({"w": p.copy()}, {"w": g}, OptimizerState(), cfg)
    assert np.array_equal(out["w"], p - 0.05 * g)


def test_velocity_buffers_mirror_parameter_shapes():
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    grads = {k: np.ones(v.shape) for k, v in params.items()}
    state = OptimizerState()
    sgd_step(params, grads, state, SgdConfig(learning_rate=0.1, momentum=0.5))
    assert {k: v.shape for k, v in state.velocity.items()} == {"a": (3, 2), "b": (4,)}


def test_gradient_shape_mismatch():
    with pytest.raises(DimensionError):
        sgd_step({"w": np.array([0.0, 1.0])}, {"w": np.zeros(3)}, OptimizerState(), SgdConfig(learning_rate=0.1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": 0.1, "momentum": 1.0},
        {"learning_rate": 0.1, "weight_decay": -1.0},
        {"learning_rate": 0.1, "lr_decay_factor": 0.0},
        {"learning_rate": 0.1, "lr_decay_factor": 1.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SgdConfig(**kwargs)
