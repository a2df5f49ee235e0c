import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ARCHS,
    ModelSpec,
    ModelStack,
    NetworkModel,
    backward,
    forward_batch,
    init_model,
    param_shapes,
    trial_model,
)
import fxbench.cells as cells
from fxbench.cells import CHUNK, _sigmoid, predict
from gradcheck import check_model_gradients


def zeroed(spec, seed=0):
    model = init_model(spec, seed)
    for arr in model.params.values():
        arr[:] = 0.0
    return model


def one(model):
    """A single model as the stack of one the kernels run."""
    return ModelStack([model])


def n_params(spec):
    return sum(a.size for a in init_model(spec, 0).params.values())


# ---------------------------------------------------------------- specs


def test_structure_string():
    assert ModelSpec(arch="lstm", hidden=5).structure == "4-5-1"
    assert ModelSpec(arch="mlp", hidden=6).structure == "4-6-1"


def test_spec_has_four_inputs_and_one_output():
    assert [f.name for f in dataclasses.fields(ModelSpec)] == ["arch", "hidden", "window"]
    assert (ModelSpec.input_dim, ModelSpec.output_dim) == (4, 1)
    for field in ("input_dim", "output_dim"):
        with pytest.raises(TypeError, match=field):
            ModelSpec(arch="lstm", hidden=3, **{field: 2})
    with pytest.raises(TypeError):  # the third argument once was input_dim
        ModelSpec("lstm", 3, 4)


def test_spec_validation():
    with pytest.raises(ValueError, match="hidden"):
        ModelSpec(arch="gru", hidden=0)
    with pytest.raises(ValueError, match="unknown architecture"):
        ModelSpec(arch="transformer", hidden=4)
    with pytest.raises(ValueError, match="window=1 only"):
        ModelSpec(arch="mlp", hidden=4, window=3)


def test_parameter_counts_match_closed_forms():
    # hand-expanded: weights + biases per block, plus the output layer
    assert n_params(ModelSpec(arch="mlp", hidden=6)) == 4 * 6 + 6 + 6 + 1
    assert n_params(ModelSpec(arch="lstm", hidden=5)) == 4 * (5 * (4 + 5) + 5) + 5 + 1
    assert n_params(ModelSpec(arch="gru", hidden=7)) == 3 * (7 * (4 + 7) + 7) + 7 + 1
    assert n_params(ModelSpec(arch="srnn", hidden=3)) == 3 * 4 + 3 * 3 + 3 + 3 + 1
    # a stack's buffer holds one model of its padded width per row
    stack = one(init_model(ModelSpec(arch="lstm", hidden=5), 0))
    assert stack.flat.shape == (1, n_params(ModelSpec(arch="lstm", hidden=8)))


@pytest.mark.parametrize("arch", ARCHS)
def test_param_shapes_consistent_with_spec(arch):
    spec = ModelSpec(arch=arch, hidden=5)
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
    stack = ModelStack([model, init_model(spec, 5)])
    assert list(model.params) == list(param_shapes(spec))
    assert list(stack.params) == list(param_shapes(stack.spec))
    assert stack.flat.shape == stack.grad.shape
    assert sum(a[0].size for a in stack.params.values()) == stack.flat.shape[1]
    for name, arr in stack.params.items():
        assert np.shares_memory(arr, stack.flat)
        assert np.shares_memory(stack.grads[name], stack.grad)
        before = stack.flat.copy()
        arr[1].flat[-1] = 1e6  # a write through the view shows in the flat buffer
        changed = np.argwhere(stack.flat != before)
        assert changed.tolist() == [[1, changed[0, 1]]] and stack.flat[1, changed[0, 1]] == 1e6
    stack.flat[:] = 0.0  # and a write to the flat buffer shows in every view
    assert all(np.all(arr == 0.0) for arr in stack.params.values())
    stack.store()  # and reaches the models only through store
    assert all(np.all(arr == 0.0) for arr in model.params.values())


@pytest.mark.parametrize("arch", ARCHS)
def test_stack_views_lie_end_to_end_in_param_shapes_order(arch):
    stack = one(init_model(ModelSpec(arch=arch, hidden=5, window=1 if arch == "mlp" else 2), 3))
    row = stack.flat[0]
    end = 0
    for name, shape in param_shapes(stack.spec).items():
        view = stack.params[name][0]
        assert view.shape == shape
        assert (view.ctypes.data - row.ctypes.data) // row.itemsize == end, name
        end += view.size
    assert end == stack.flat.shape[1]


@pytest.mark.parametrize("arch", ["lstm", "gru"])
def test_param_shapes_lists_every_gate_weight_before_any_gate_bias(arch):
    names = list(param_shapes(ModelSpec(arch=arch, hidden=3)))
    weights = [k for k, n in enumerate(names) if n.startswith("W_") and n != "W_out"]
    biases = [k for k, n in enumerate(names) if n.startswith("b_") and n != "b_out"]
    assert max(weights) < min(biases)
    assert names[-2:] == ["W_out", "b_out"]


# sha256 of ModelStack([init_model(ModelSpec(arch, hidden), 7)]).flat.tobytes(),
# recorded when the buffer order was computed apart from `param_shapes`: the
# buffer of one model padded (hidden 5, to width 8) and unpadded (hidden 8)
GOLDEN_STACK_SHA256 = {
    ("mlp", 5): "27954d1e38208b20cbb95d7e8621a85808fa8e305f66177083a1a195217e1ed7",
    ("mlp", 8): "7d0be75926d9a654dec35d3383f2fab1d18b8e4a8dc23448901ac886e3b3241d",
    ("srnn", 5): "d587adfc28b239d97d776cf84439bbb4ae2019aa440573e3f20f2212a4eec65e",
    ("srnn", 8): "de88dc36960b78ab5fe5b7b05721051fae48b3bd7c18d77b416551539b64a2bd",
    ("gru", 5): "23871e630eed0cfdcfee7d6747e9e46e1bf7b719f675778d574a57b93fab1cde",
    ("gru", 8): "a0023db778f4c13bd32630058aa91b03cd5fe69623199b064f705c1b5e227fbb",
    ("lstm", 5): "703cfa3eead96bea2a6a1d1eb7b13755504206b8cee941bd2a4e3299389f1cf8",
    ("lstm", 8): "9444ba54d6a02696605035c3e4b49dc3406b804f0a8f203250021ec5c1319d1c",
}


@pytest.mark.parametrize("arch,hidden", sorted(GOLDEN_STACK_SHA256))
def test_stack_buffer_matches_golden_hash(arch, hidden):
    flat = one(init_model(ModelSpec(arch=arch, hidden=hidden), 7)).flat
    assert hashlib.sha256(flat.tobytes()).hexdigest() == GOLDEN_STACK_SHA256[arch, hidden]


@pytest.mark.parametrize("arch,gates", [("lstm", "ifoc"), ("gru", "zrh")])
def test_gate_weights_form_one_block_then_biases(arch, gates):
    h, d = 8, 4  # a padded width, so the stack holds the model unpadded
    model = init_model(ModelSpec(arch=arch, hidden=h, window=2), 6)
    stack = one(model)
    flat = stack.flat[0]
    p = {name: arr[0] for name, arr in stack.params.items()}
    rows = len(gates) * h
    w = flat[: rows * (d + h)].reshape(rows, d + h)
    b = flat[rows * (d + h) : rows * (d + h + 1)]
    assert np.array_equal(w, np.vstack([model.params[f"W_{g}"] for g in gates]))
    for arr in p.values():
        arr[...] = np.arange(arr.size).reshape(arr.shape) + 1.0
    assert np.array_equal(b, np.concatenate([p[f"b_{g}"] for g in gates]))
    assert np.array_equal(flat[-h - 1 :], np.concatenate([p["W_out"].ravel(), p["b_out"]]))


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
    model = zeroed(ModelSpec(arch="lstm", hidden=3))
    yhat, cache = forward_batch(one(model), [[[0.4, -1.2, 0.9, 2.5]]])
    assert np.array_equal(yhat, [[[0.0]]])
    # a single model runs as a stack of one at the padded width 8, its
    # steps laid out as (step, unit, model, sample)
    assert cache.steps["gates"].shape == (1, 4 * 8, 1, 1)
    assert np.all(cache.steps["gates"][:, : 3 * 8] == 0.5)  # i, f, o
    assert np.all(cache.steps["cs"][1] == 0.0)


def test_lstm_seeded_cell_state_hand_value():
    # only the candidate's input weight is nonzero, so step 1 sets a cell
    # state c1 != 0; step 2 sees x2 = 0, hence i = f = o = 0.5 and
    # cand = tanh(0) = 0: c2 = f*c1 + i*cand = 0.5*c1, h2 = o*tanh(c2);
    # the last two inputs have zero weights
    model = zeroed(ModelSpec(arch="lstm", hidden=1, window=2))
    model.params["W_c"][0, 0] = 2.0
    _, cache = forward_batch(one(model), [[[0.3, 0.7, -1.5, 4.0], [0.0, 0.0, 0.0, 0.0]]])
    c1 = cache.steps["cs"][1, 0, 0, 0]
    assert c1 == pytest.approx(0.5 * math.tanh(0.6), abs=1e-15)
    assert cache.steps["hs"][1, 0, 0, 0] == pytest.approx(0.5 * math.tanh(c1), abs=1e-15)
    assert cache.steps["cs"][2, 0, 0, 0] == pytest.approx(0.5 * c1, abs=1e-15)
    assert cache.hidden_final[0, 0, 0] == pytest.approx(0.5 * math.tanh(0.5 * c1), abs=1e-15)


def test_gru_seeded_hidden_state_hand_value():
    # only the candidate's input weight is nonzero, so step 1 sets h1 != 0;
    # step 2 sees x2 = 0, hence z = 0.5 and cand = tanh(0) = 0: h2 = 0.5*h1;
    # the last two inputs have zero weights
    model = zeroed(ModelSpec(arch="gru", hidden=1, window=2))
    model.params["W_h"][0, 0] = 2.0
    _, cache = forward_batch(one(model), [[[0.3, 0.7, -1.5, 4.0], [0.0, 0.0, 0.0, 0.0]]])
    h1 = cache.steps["hs"][1, 0, 0, 0]
    assert h1 == pytest.approx(0.5 * math.tanh(0.6), abs=1e-15)
    assert cache.steps["zr"][1, 0, 0, 0] == 0.5
    assert cache.steps["cand"][1, 0, 0, 0] == 0.0
    assert cache.hidden_final[0, 0, 0] == 0.5 * h1


def test_srnn_zero_weights_hidden_zero():
    model = zeroed(ModelSpec(arch="srnn", hidden=2))
    _, cache = forward_batch(one(model), [[[1.0, 2.0, 3.0, 4.0]]])
    assert np.all(cache.hidden_final == 0.0)


def test_forward_rejects_wrong_window_and_dim():
    model = init_model(ModelSpec(arch="srnn", hidden=2, window=2), 0)
    for kernel in (forward_batch, predict):
        with pytest.raises(ValueError, match="window length mismatch"):
            kernel(one(model), np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="input_dim mismatch"):
            kernel(one(model), np.zeros((1, 2, 5)))
        with pytest.raises(ValueError, match="batched input"):
            kernel(one(model), np.zeros((2, 4)))
        with pytest.raises(TypeError, match="expected a ModelStack"):
            kernel(model, np.zeros((1, 2, 4)))


def test_forward_deterministic_and_matches_batch():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=4, window=1 if arch == "mlp" else 3)
        stack = one(init_model(spec, 5))
        rng = np.random.default_rng(8)
        xb = rng.normal(size=(6, spec.window, 4))
        y_batch, _ = forward_batch(stack, xb)
        again, _ = forward_batch(stack, xb)
        assert np.array_equal(y_batch, again)
        for i in range(xb.shape[0]):
            y_one, _ = forward_batch(stack, xb[i : i + 1])
            # within a larger batch BLAS may sum in a different order, so
            # row i agrees with a batch of one numerically, not bitwise
            assert y_one[0, 0, 0] == pytest.approx(y_batch[0, i, 0], rel=1e-12, abs=1e-15)


def test_output_layer_is_linear_unbounded():
    model = zeroed(ModelSpec(arch="mlp", hidden=2))
    model.params["W_out"][:] = 100.0
    model.params["b_out"][:] = 3.0
    yhat, _ = forward_batch(one(model), [[[0.0, 0.0, 0.0, 0.0]]])
    # hidden = sigmoid(0) = 0.5 twice, output = 100*0.5*2 + 3
    assert yhat[0, 0, 0] == pytest.approx(103.0, abs=1e-12)


# ---------------------------------------------------------------- predict

# one chunk, exact multiples, ragged tails; the absolute sizes keep the
# coverage of larger splits whatever CHUNK is
N_SAMPLES = sorted({1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 255, 256, 257, 515})


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("hiddens", [(5,), (2, 5, 8)], ids=["alone", "mixed"])
def test_predict_matches_forward_batch_bitwise(arch, window, hiddens):
    stack = ModelStack(trial_model(arch, h, window, 3) for h in hiddens)
    rng = np.random.default_rng(window)
    for n in N_SAMPLES:
        x = rng.uniform(0.0, 1.0, size=(n, stack.spec.window, 4))
        expected, _ = forward_batch(stack, x)
        got = predict(stack, x)
        assert got.shape == (len(hiddens), n, 1)
        assert np.array_equal(got, expected), f"n={n}"


@pytest.mark.parametrize("arch", ["srnn", "gru", "lstm"])
@pytest.mark.parametrize("window", [1, 8])
def test_a_mixed_stack_gives_each_model_its_results_alone_bitwise(arch, window):
    # ragged batch sizes, B = 1 included: there a product whose operand is
    # strided across the models can take another BLAS kernel than it does
    # for a stack of one
    models = [trial_model(arch, h, window, 7) for h in range(2, 9)]
    mixed = ModelStack(models)
    rng = np.random.default_rng(window)
    for b in (1, 7, 25, 32):
        x = rng.uniform(0.0, 1.0, size=(b, window, 4))
        dy = rng.normal(size=(len(models), b, 1))
        yhat, cache = forward_batch(mixed, x)
        backward(mixed, cache, dy)
        scored = predict(mixed, x)
        for k, model in enumerate(models):
            alone = one(model)
            yhat_alone, cache_alone = forward_batch(alone, x)
            backward(alone, cache_alone, dy[k : k + 1])
            where = f"hidden {model.spec.hidden}, batch {b}"
            assert np.array_equal(yhat[k], yhat_alone[0]), where
            assert np.array_equal(mixed.grad[k], alone.grad[0]), where
            assert np.array_equal(scored[k], predict(alone, x)[0]), where


@pytest.mark.parametrize("arch", ARCHS)
def test_predict_runs_in_chunks(arch, monkeypatch):
    # no forward pass sees more than 2*CHUNK - 1 samples (the last chunk
    # also takes the remainder), and every chunk starts at a multiple of CHUNK
    widths = []
    forward = cells.forward_batch

    def recording(stack, x):
        widths.append(len(x))
        return forward(stack, x)

    monkeypatch.setattr(cells, "forward_batch", recording)
    stack = one(trial_model(arch, 4, 2, 0))
    x = np.zeros((4 * CHUNK + 7, stack.spec.window, 4))
    predict(stack, x)
    assert widths == [CHUNK] * 3 + [CHUNK + 7]


# ---------------------------------------------------------------- backward


def test_backward_zero_cotangent_gives_zero_gradients():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 2)
        stack = one(init_model(spec, 3))
        _, cache = forward_batch(stack, np.random.default_rng(0).normal(size=(2, spec.window, 4)))
        grads = backward(stack, cache, np.zeros((1, 2, 1)))
        assert set(grads) == set(param_shapes(spec))
        for name, g in grads.items():
            assert g.shape == stack.params[name].shape
            assert np.all(g == 0.0)


def test_backward_fills_the_model_gradient_buffer():
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, hidden=3, window=1 if arch == "mlp" else 3)
        spec = dataclasses.replace(spec, hidden=8)  # a padded width: no padded entries
        stack = one(init_model(spec, 8))
        rng = np.random.default_rng(1)
        _, cache = forward_batch(stack, rng.normal(size=(4, spec.window, 4)))
        grads = backward(stack, cache, rng.normal(size=(1, 4, 1)))
        assert grads is stack.grads
        first = stack.grad.copy()
        assert np.all(first != 0.0)
        # the next call overwrites every entry rather than accumulating
        again = backward(stack, cache, rng.normal(size=(1, 4, 1)))
        assert again is grads and not np.array_equal(stack.grad, first)
        backward(stack, cache, np.zeros((1, 4, 1)))
        assert np.all(stack.grad == 0.0)


def test_backward_mlp_hand_chain_rule():
    # 4-1-1 with all weights zero except W_out=1: d yhat / d W_out = hidden = sigmoid(0)
    model = zeroed(ModelSpec(arch="mlp", hidden=1))
    model.params["W_out"][:] = 1.0
    stack = one(model)
    _, cache = forward_batch(stack, [[[1.0, 1.0, 1.0, 1.0]]])
    grads = backward(stack, cache, np.array([[[1.0]]]))
    assert grads["W_out"][0, 0, 0] == 0.5


def test_backward_rejects_foreign_cache():
    spec = ModelSpec(arch="srnn", hidden=2)
    a = one(init_model(spec, 1))
    b = one(init_model(spec, 2))
    _, cache = forward_batch(a, np.zeros((1, 1, 4)))
    with pytest.raises(ValueError, match="different model"):
        backward(b, cache, np.array([[[1.0]]]))


def test_backward_rejects_bad_cotangent_shape():
    stack = one(init_model(ModelSpec(arch="mlp", hidden=2), 0))
    _, cache = forward_batch(stack, np.zeros((3, 1, 4)))
    with pytest.raises(ValueError, match=r"cotangent shape \(3, 1\) does not match \(1, 3, 1\)"):
        backward(stack, cache, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="cotangent shape"):
        backward(stack, cache, np.zeros((1, 2, 1)))


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
    # each unit of h_2 is a strict convex combination of h_1 and a value
    # in (-1, 1), so it stays strictly inside the envelope; magnitudes are
    # kept moderate so no gate rounds to exactly 0.0/1.0 in float64, which
    # would collapse the strict inequality
    rng = np.random.default_rng(seed)
    spec = ModelSpec(arch="gru", hidden=4, window=2)
    model = init_model(spec, seed)
    for arr in model.params.values():
        arr[:] = rng.normal(scale=0.5, size=arr.shape)
    x = rng.uniform(-2.0, 2.0, size=(1, 2, 4))
    _, cache = forward_batch(one(model), x)
    h1 = cache.steps["hs"][1, :, 0, 0]  # the padded units stay at 0.0
    h2 = cache.hidden_final[0, :, 0]
    lower = np.minimum(h1, -1.0)
    upper = np.maximum(h1, 1.0)
    assert np.all(h2 > lower) and np.all(h2 < upper)
    assert np.max(np.abs(h2)) <= max(np.max(np.abs(h1)), 1.0)
