import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ARCHS,
    ModelSpec,
    NetworkModel,
    backward,
    forward,
    forward_batch,
    init_model,
    parameter_count,
    param_shapes,
)
from fxbench.cells import _sigmoid
from gradcheck import check_model_gradients


def zeroed(spec, seed=0):
    model = init_model(spec, seed)
    for arr in model.params.values():
        arr[:] = 0.0
    return model


# ---------------------------------------------------------------- specs


def test_structure_string():
    assert ModelSpec(arch="lstm", hidden=5).structure == "4-5-1"
    assert ModelSpec(arch="mlp", hidden=6, input_dim=4, output_dim=1).structure == "4-6-1"


def test_spec_validation():
    with pytest.raises(ValueError, match="hidden"):
        ModelSpec(arch="gru", hidden=0)
    with pytest.raises(ValueError, match="unknown architecture"):
        ModelSpec(arch="transformer", hidden=4)
    with pytest.raises(ValueError, match="window=1 only"):
        ModelSpec(arch="mlp", hidden=4, window=3)


def test_parameter_counts_match_closed_forms():
    # hand-expanded: weights + biases per block, plus the output layer
    assert parameter_count(init_model(ModelSpec(arch="mlp", hidden=6), 0)) == 4 * 6 + 6 + 6 + 1
    assert parameter_count(init_model(ModelSpec(arch="lstm", hidden=5), 0)) == 4 * (
        5 * (4 + 5) + 5
    ) + 5 + 1
    assert parameter_count(init_model(ModelSpec(arch="gru", hidden=7), 0)) == 3 * (
        7 * (4 + 7) + 7
    ) + 7 + 1
    assert parameter_count(init_model(ModelSpec(arch="srnn", hidden=3), 0)) == (
        3 * 4 + 3 * 3 + 3 + 3 + 1
    )


@pytest.mark.parametrize("arch", ARCHS)
def test_param_shapes_consistent_with_spec(arch):
    spec = ModelSpec(arch=arch, hidden=5, input_dim=4, output_dim=1)
    shapes = param_shapes(spec)
    model = init_model(spec, 7)
    assert set(model.params) == set(shapes)
    for name, shape in shapes.items():
        assert model.params[name].shape == shape
    assert shapes["W_out"] == (1, 5)


# ---------------------------------------------------------------- flat buffer


@pytest.mark.parametrize("arch", ARCHS)
def test_params_are_views_into_the_flat_buffer(arch):
    spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 2)
    model = init_model(spec, 4)
    assert list(model.params) == list(param_shapes(spec))
    assert model.flat.shape == model.grad.shape == (parameter_count(model),)
    assert sum(a.size for a in model.params.values()) == model.flat.size
    for name, arr in model.params.items():
        assert np.shares_memory(arr, model.flat)
        assert np.shares_memory(model.grads[name], model.grad)
        before = model.flat.copy()
        arr.flat[-1] = 1e6  # a write through the view shows in the flat vector
        changed = np.flatnonzero(model.flat != before)
        assert changed.size == 1 and model.flat[changed[0]] == 1e6
    model.flat[:] = 0.0  # and a write to the flat vector shows in every view
    assert all(np.all(arr == 0.0) for arr in model.params.values())


@pytest.mark.parametrize("arch,gates", [("lstm", "ifoc"), ("gru", "zrh")])
def test_gate_weights_form_one_block_then_biases(arch, gates):
    h, d = 3, 4
    model = init_model(ModelSpec(arch=arch, hidden=h, window=2), 6)
    p = model.params
    rows = len(gates) * h
    w = model.flat[: rows * (d + h)].reshape(rows, d + h)
    b = model.flat[rows * (d + h) : rows * (d + h + 1)]
    assert np.array_equal(w, np.vstack([p[f"W_{g}"] for g in gates]))
    for arr in p.values():
        arr[...] = np.arange(arr.size).reshape(arr.shape) + 1.0
    assert np.array_equal(b, np.concatenate([p[f"b_{g}"] for g in gates]))
    assert np.array_equal(model.flat[-h - 1 :], np.concatenate([p["W_out"].ravel(), p["b_out"]]))


def test_network_model_rejects_foreign_parameters():
    spec = ModelSpec(arch="srnn", hidden=2)
    good = {name: np.zeros(shape) for name, shape in param_shapes(spec).items()}
    with pytest.raises(ValueError, match="parameter names"):
        NetworkModel(spec=spec, params={**good, "W_extra": np.zeros(2)}, rng_seed=0)
    with pytest.raises(ValueError, match="'W_h' has shape"):
        NetworkModel(spec=spec, params={**good, "W_h": np.zeros((2, 3))}, rng_seed=0)
    given = {**good, "b": np.ones(2)}
    model = NetworkModel(spec=spec, params=given, rng_seed=0)
    given["b"][0] = 5.0  # the model holds a copy, not the caller's arrays
    assert model.params["b"][0] == 1.0


# ---------------------------------------------------------------- init


@pytest.mark.parametrize("arch", ARCHS)
def test_init_deterministic_and_glorot_bounded(arch):
    spec = ModelSpec(arch=arch, hidden=5)
    a = init_model(spec, 99)
    b = init_model(spec, 99)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = init_model(spec, 100)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)
    for name, shape in param_shapes(spec).items():
        arr = a.params[name]
        if len(shape) == 2:
            r = math.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.all(np.abs(arr) <= r)
            assert np.any(arr != 0.0)
        else:
            assert np.all(arr == 0.0)


# ---------------------------------------------------------------- sigmoid


def test_sigmoid_at_zero():
    assert _sigmoid(0.0) == 0.5


def test_sigmoid_closed_form_point():
    # 1 / (1 + e^(-ln 3)) = 1 / (1 + 1/3) = 3/4
    assert _sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_sigmoid_stays_in_open_range_for_moderate_inputs():
    s = _sigmoid(np.linspace(-15, 15, 101))
    assert np.all((s > 0) & (s < 1))


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_sigmoid_symmetry(x):
    assert abs(_sigmoid(x) + _sigmoid(-x) - 1.0) <= 1e-12


# ---------------------------------------------------------------- forward


def test_lstm_zero_weights_outputs_zero():
    model = zeroed(ModelSpec(arch="lstm", hidden=3, input_dim=2))
    yhat, cache = forward(model, [[0.4, -1.2]])
    assert np.array_equal(yhat, [0.0])
    assert np.all(cache.steps["i"] == 0.5)
    assert np.all(cache.steps["f"] == 0.5)
    assert np.all(cache.steps["o"] == 0.5)
    assert np.all(cache.steps["cs"][1] == 0.0)


def test_lstm_seeded_cell_state_hand_value():
    # zero weights, c0 = 1: c1 = f*c0 + i*cand = 0.5, h1 = o*tanh(c1)
    model = zeroed(ModelSpec(arch="lstm", hidden=1, input_dim=2))
    _, cache = forward(model, [[0.3, 0.7]], c0=np.array([1.0]))
    assert cache.steps["cs"][1][0, 0] == pytest.approx(0.5, abs=1e-15)
    assert cache.hidden_final[0, 0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-15)


def test_gru_seeded_hidden_state_hand_value():
    # zero weights, h0 = 1: z = 0.5, cand = tanh(0) = 0, h1 = 0.5
    model = zeroed(ModelSpec(arch="gru", hidden=1, input_dim=2))
    _, cache = forward(model, [[0.3, 0.7]], h0=np.array([1.0]))
    assert cache.steps["z"][0][0, 0] == 0.5
    assert cache.steps["cand"][0][0, 0] == 0.0
    assert cache.hidden_final[0, 0] == 0.5


def test_srnn_zero_weights_hidden_zero():
    model = zeroed(ModelSpec(arch="srnn", hidden=2, input_dim=3))
    _, cache = forward(model, [[1.0, 2.0, 3.0]])
    assert np.all(cache.hidden_final == 0.0)


def test_forward_rejects_wrong_window_and_dim():
    model = init_model(ModelSpec(arch="srnn", hidden=2, input_dim=4, window=2), 0)
    with pytest.raises(ValueError, match="window length mismatch"):
        forward(model, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="input_dim mismatch"):
        forward(model, np.zeros((2, 5)))


def test_forward_rejects_c0_for_non_lstm():
    model = init_model(ModelSpec(arch="gru", hidden=2), 0)
    with pytest.raises(ValueError, match="c0 only applies to lstm"):
        forward(model, np.zeros((1, 4)), c0=np.zeros(2))


def test_forward_deterministic_and_matches_batch():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=4, window=1 if arch == "mlp" else 3)
        model = init_model(spec, 5)
        rng = np.random.default_rng(8)
        xb = rng.normal(size=(6, spec.window, 4))
        y_batch, _ = forward_batch(model, xb)
        again, _ = forward_batch(model, xb)
        assert np.array_equal(y_batch, again)
        for i in range(xb.shape[0]):
            y_one, _ = forward(model, xb[i])
            # the single-sample API is exactly a batch of one
            y_b1, _ = forward_batch(model, xb[i : i + 1])
            assert np.array_equal(y_one, y_b1[0])
            # within a larger batch BLAS may sum in a different order, so
            # agreement there is numeric rather than bitwise
            assert y_one[0] == pytest.approx(y_batch[i, 0], rel=1e-12, abs=1e-15)


def test_output_layer_is_linear_unbounded():
    model = zeroed(ModelSpec(arch="mlp", hidden=2, input_dim=1))
    model.params["W_out"][:] = 100.0
    model.params["b_out"][:] = 3.0
    yhat, _ = forward(model, [[0.0]])
    # hidden = sigmoid(0) = 0.5 twice, output = 100*0.5*2 + 3
    assert yhat[0] == pytest.approx(103.0, abs=1e-12)


# ---------------------------------------------------------------- backward


def test_backward_zero_cotangent_gives_zero_gradients():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 2)
        model = init_model(spec, 3)
        _, cache = forward_batch(model, np.random.default_rng(0).normal(size=(2, spec.window, 4)))
        grads = backward(model, cache, np.zeros((2, 1)))
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape
            assert np.all(g == 0.0)


def test_backward_fills_the_model_gradient_buffer():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 3)
        model = init_model(spec, 8)
        rng = np.random.default_rng(1)
        _, cache = forward_batch(model, rng.normal(size=(4, spec.window, 4)))
        grads = backward(model, cache, rng.normal(size=(4, 1)))
        assert grads is model.grads
        first = model.grad.copy()
        assert np.all(first != 0.0)
        # the next call overwrites every entry rather than accumulating
        again = backward(model, cache, rng.normal(size=(4, 1)))
        assert again is grads and not np.array_equal(model.grad, first)
        backward(model, cache, np.zeros((4, 1)))
        assert np.all(model.grad == 0.0)


def test_backward_mlp_hand_chain_rule():
    # 1-1-1 with all weights zero except W_out=1: d yhat / d W_out = hidden = sigmoid(0)
    model = zeroed(ModelSpec(arch="mlp", hidden=1, input_dim=1))
    model.params["W_out"][:] = 1.0
    _, cache = forward(model, [[1.0]])
    grads = backward(model, cache, np.array([1.0]))
    assert grads["W_out"][0, 0] == 0.5


def test_backward_rejects_foreign_cache():
    spec = ModelSpec(arch="srnn", hidden=2)
    a = init_model(spec, 1)
    b = init_model(spec, 2)
    _, cache = forward(a, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="different model"):
        backward(b, cache, np.array([1.0]))


def test_backward_rejects_bad_cotangent_shape():
    model = init_model(ModelSpec(arch="mlp", hidden=2), 0)
    _, cache = forward_batch(model, np.zeros((3, 1, 4)))
    with pytest.raises(ValueError, match="1-d cotangent"):
        backward(model, cache, np.array([1.0]))
    with pytest.raises(ValueError, match="cotangent shape"):
        backward(model, cache, np.zeros((2, 1)))


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("window", [1, 2])
def test_gradients_match_finite_differences_quick(arch, window):
    if arch == "mlp" and window != 1:
        pytest.skip("mlp has no recurrence to unroll")
    check_model_gradients(arch, hidden=3, window=window, seed=11)


# ---------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gru_next_hidden_interpolates_toward_candidate(seed):
    # each unit of h_t is a strict convex combination of h_{t-1} and a
    # value in (-1, 1), so it stays strictly inside the envelope
    # magnitudes kept moderate so no gate rounds to exactly 0.0/1.0 in
    # float64, which would collapse the strict inequality
    rng = np.random.default_rng(seed)
    spec = ModelSpec(arch="gru", hidden=4, input_dim=4)
    model = init_model(spec, seed)
    for arr in model.params.values():
        arr[:] = rng.normal(scale=0.5, size=arr.shape)
    h0 = rng.uniform(-2.0, 2.0, size=4)
    x = rng.uniform(-2.0, 2.0, size=(1, 4))
    _, cache = forward(model, x, h0=h0)
    h1 = cache.hidden_final[0]
    lower = np.minimum(h0, -1.0)
    upper = np.maximum(h0, 1.0)
    assert np.all(h1 > lower) and np.all(h1 < upper)
    assert np.max(np.abs(h1)) <= max(np.max(np.abs(h0)), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ARCHS), st.integers(0, 10**6))
def test_replaying_forward_reproduces_cached_outputs(arch, seed):
    spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 2)
    model = init_model(spec, seed)
    x = np.random.default_rng(seed).normal(size=(2, spec.window, 4))
    y1, cache = forward_batch(model, x)
    y2, _ = forward_batch(model, cache.x, h0=cache.h0, c0=cache.c0)
    assert np.array_equal(y1, y2)
    assert np.array_equal(cache.yhat, y2)
