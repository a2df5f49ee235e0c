import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench.optim import (
    RMSPROP_EPS,
    RMSPROP_RHO,
    Optimizer,
    OptimizerConfig,
    default_config,
    mae_grad,
    mae_loss,
)

vec = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20)


# ---------------------------------------------------------------- config


def test_config_defaults():
    sgd = default_config("sgd")
    assert (sgd.kind, sgd.learning_rate) == ("sgd", 0.01)
    rp = default_config("rmsprop")
    assert (rp.kind, rp.learning_rate) == ("rmsprop", 0.001)
    assert (RMSPROP_RHO, RMSPROP_EPS) == (0.9, 1e-8)
    assert default_config("rmsprop", 0.005).learning_rate == 0.005


def test_config_validation():
    with pytest.raises(ValueError, match="unknown optimizer"):
        OptimizerConfig(kind="adam", learning_rate=0.1)
    with pytest.raises(ValueError, match="learning_rate"):
        OptimizerConfig(kind="sgd", learning_rate=0.0)
    for lr in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            OptimizerConfig(kind="rmsprop", learning_rate=lr)


# ---------------------------------------------------------------- mae


def test_mae_identical_vectors():
    assert mae_loss([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_mae_hand_example():
    assert mae_loss([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-15)


def test_mae_rejects_mismatch_and_empty():
    with pytest.raises(ValueError, match="length"):
        mae_loss([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        mae_loss([], [])
    with pytest.raises(ValueError, match="length"):
        mae_grad([1.0], [1.0, 2.0])


@given(vec)
def test_mae_symmetric_and_nonnegative(values):
    a = np.array(values)
    b = a[::-1].copy()
    assert mae_loss(a, b) == mae_loss(b, a) >= 0.0


@given(vec)
def test_mae_zero_iff_equal(values):
    a = np.array(values)
    assert mae_loss(a, a.copy()) == 0.0
    assert mae_loss(a, a + 1.0) > 0.0


def test_mae_grad_at_kink_is_zero():
    assert np.array_equal(mae_grad([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])


def test_mae_grad_hand_example():
    assert np.array_equal(mae_grad([2.0], [1.0]), [1.0])
    assert np.array_equal(mae_grad([1.0, 5.0], [3.0, 1.0]), [-0.5, 0.5])


def test_mae_grad_matches_finite_difference_away_from_kinks():
    rng = np.random.default_rng(7)
    yhat = rng.uniform(-5, 5, size=50)
    y = yhat + rng.choice([-1.0, 1.0], size=50) * rng.uniform(0.01, 2.0, size=50)
    g = mae_grad(yhat, y)
    h = 1e-6
    for i in range(50):
        bumped = yhat.copy()
        bumped[i] += h
        fplus = mae_loss(bumped, y)
        bumped[i] -= 2 * h
        fminus = mae_loss(bumped, y)
        assert abs((fplus - fminus) / (2 * h) - g[i]) <= 1e-8


# ---------------------------------------------------------------- sgd


def sgd(learning_rate):
    return Optimizer(1, OptimizerConfig(kind="sgd", learning_rate=learning_rate))


def test_sgd_zero_gradient_is_identity():
    theta = np.array([1.0])
    sgd(0.1).step(theta, np.array([0.0]))
    assert theta[0] == 1.0


def test_sgd_hand_steps():
    theta = np.array([1.0])
    g = np.array([0.5])
    opt = sgd(0.1)
    opt.step(theta, g)
    assert theta[0] == pytest.approx(0.95, abs=1e-15)
    opt.step(theta, g)
    assert theta[0] == pytest.approx(0.90, abs=1e-15)


def test_sgd_shape_mismatch():
    opt = Optimizer(2, default_config("sgd", 0.1))
    with pytest.raises(ValueError):
        opt.step(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        opt.step(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        opt.step(np.zeros((2, 1)), np.zeros((2, 1)))


# ---------------------------------------------------------------- rmsprop


def test_rmsprop_zero_gradient_decays_accumulator_only():
    opt = Optimizer(1, default_config("rmsprop"))
    theta = np.array([2.0])
    opt.acc[:] = 1.0
    opt.step(theta, np.array([0.0]))
    assert theta[0] == 2.0
    assert opt.acc[0] == pytest.approx(0.9, abs=1e-15)


def test_rmsprop_first_step_hand_value():
    opt = Optimizer(1, default_config("rmsprop"))
    theta = np.array([0.0])
    opt.step(theta, np.array([1.0]))
    assert opt.acc[0] == pytest.approx(0.1, abs=1e-15)
    # -lr / (sqrt(0.1) + eps)
    assert theta[0] == pytest.approx(-0.001 / (np.sqrt(0.1) + 1e-8), abs=1e-15)
    assert theta[0] == pytest.approx(-0.0031623, abs=1e-7)


def test_rmsprop_steady_state_step_magnitude_bounded_by_lr():
    cfg = default_config("rmsprop")
    opt = Optimizer(1, cfg)
    theta = np.array([0.0])
    g = np.array([3.7])
    prev = theta[0]
    for _ in range(250):
        prev = theta[0]
        opt.step(theta, g)
    assert abs(theta[0] - prev) <= cfg.learning_rate * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30))
def test_rmsprop_accumulators_stay_nonnegative(gradients):
    opt = Optimizer(1, default_config("rmsprop"))
    theta = np.array([1.0])
    for g in gradients:
        opt.step(theta, np.array([g]))
        assert opt.acc[0] >= 0.0


def test_rmsprop_state_requires_matching_shapes():
    opt = Optimizer(2, default_config("rmsprop"))
    with pytest.raises(ValueError, match="2 parameters"):
        opt.step(np.zeros(2), np.zeros(3))
    # a rejected step leaves the accumulator untouched
    assert np.array_equal(opt.acc, np.zeros(2))


# ---------------------------------------------------------------- stepper


def test_optimizer_class_dispatches_both_kinds():
    for kind in ("sgd", "rmsprop"):
        theta = np.array([1.0])
        opt = Optimizer(1, default_config(kind))
        before = theta[0]
        opt.step(theta, np.array([0.5]))
        assert theta[0] < before


def test_optimizer_rmsprop_keeps_state_across_steps():
    theta = np.array([0.0])
    opt = Optimizer(1, default_config("rmsprop"))
    opt.step(theta, np.array([1.0]))
    first = theta[0]
    opt.step(theta, np.array([1.0]))
    # second step divides by a larger accumulator, so it moves less than 2x
    assert abs(theta[0]) < 2 * abs(first)
    assert opt.acc.shape == (1,)
    assert Optimizer(1, default_config("sgd")).acc is None


def reference_steps(kind, theta, grads, lr, rho=0.9, eps=1e-8):
    """The update rules one scalar at a time, in the stepper's operation order."""
    theta = [float(v) for v in theta]
    acc = [0.0] * len(theta)
    for g in grads:
        for i, gi in enumerate(g.tolist()):
            if kind == "sgd":
                theta[i] -= lr * gi
            else:
                acc[i] *= rho
                acc[i] += (1.0 - rho) * gi * gi
                theta[i] -= lr * gi / (np.sqrt(acc[i]) + eps)
    return np.array(theta)


@pytest.mark.parametrize("kind", ["sgd", "rmsprop"])
def test_flat_step_matches_elementwise_reference_bitwise(kind):
    rng = np.random.default_rng(2024)
    n = 57
    theta0 = rng.normal(size=n)
    grads = [rng.normal(scale=rng.uniform(0.01, 10.0), size=n) for _ in range(200)]
    for g in grads[::17]:
        g[rng.integers(n)] = 0.0  # zero gradients decay the accumulator only
    cfg = default_config(kind)
    opt = Optimizer(n, cfg)
    theta = theta0.copy()
    for g in grads:
        opt.step(theta, g)
    assert np.array_equal(theta, reference_steps(kind, theta0, grads, cfg.learning_rate))


def test_step_updates_in_place_and_leaves_gradient_alone():
    theta = np.array([1.0, -2.0, 3.0])
    view = theta[:]
    g = np.array([0.5, 0.0, -1.0])
    opt = Optimizer(3, default_config("rmsprop"))
    opt.step(view, g)
    assert theta[0] < 1.0 and theta[1] == -2.0 and theta[2] > 3.0
    assert np.array_equal(g, [0.5, 0.0, -1.0])
