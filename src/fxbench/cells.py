"""The four forecasting architectures: MLP, SRNN, LSTM and GRU.

Every model is one hidden block of `hidden` units plus a linear output
layer. Recurrent cells consume a window of input vectors and predict from
the final hidden state; hidden (and cell) state starts at zero for each
sample, so samples are independent.

Parameters live in one contiguous float64 vector per model, `model.flat`.
`model.params[name]` is a reshaped view into it, keyed in `param_shapes`
order, so a write through either one shows in the other. The buffer holds
the arrays in `param_shapes` order, except that LSTM and GRU gate weights
sit adjacent as one (G*h, d+h) block (G = 4 for LSTM i, f, o, c; 3 for GRU
z, r, h), followed by the gate biases as one (G*h,) vector, then W_out and
b_out. The LSTM gates then run as one GEMM per step and the GRU z/r gates
as another; the model file and the weight draw order still follow
`param_shapes` and do not see the layout.

`model.grad` is a preallocated vector with the same layout, and
`model.grads` holds its named views. `backward` overwrites it on every call
and returns `model.grads`: the returned arrays are valid only until the
next `backward` on the same model, so copy them to keep them. Optimizers
step `model.flat` with `model.grad` as two flat vectors.

Cell equations, with x_t the input at step t and [a; b] concatenation:

  MLP   h = sig(W_h x + b_h)                          (window must be 1)
  SRNN  h_t = tanh(W_x x_t + W_h h_{t-1} + b)
  LSTM  i,f,o = sig(W_g [x_t; h_{t-1}] + b_g)   g in {i,f,o}
        cand  = tanh(W_c [x_t; h_{t-1}] + b_c)
        c_t   = f * c_{t-1} + i * cand
        h_t   = o * tanh(c_t)
  GRU   z,r   = sig(W_g [x_t; h_{t-1}] + b_g)   g in {z,r}
        cand  = tanh(W_h [x_t; r * h_{t-1}] + b_h)
        h_t   = (1 - z) * h_{t-1} + z * cand

  output (all) yhat = W_out h_T + b_out          (linear, unbounded)

sig is the logistic function 1/(1+e^-z) (`_sigmoid`), which saturates to
exactly 0 or 1 without an overflow warning.

`backward` is exact analytic backpropagation through the whole window
(untruncated BPTT); every gradient is checked against central finite
differences in the test suite.

Internally everything runs batched: inputs are (batch, window, input_dim)
arrays and the same code path serves single samples as a batch of one, so
training, evaluation and the single-sample API cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Canonical order: report sorting, selection tie-breaks and per-trial seed
# derivation all index architectures by position in this tuple.
ARCHS = ("mlp", "srnn", "gru", "lstm")


def _sigmoid(z):
    """Elementwise logistic 1/(1+e^-z); saturates to exactly 0/1 for huge |z|."""
    z = np.asarray(z, dtype=np.float64)
    # exp overflow for z << 0 still yields the correct limit (0.0); silence the warning
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def arch_id(arch: str) -> int:
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}, expected one of {ARCHS}")
    return ARCHS.index(arch)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus layer sizes; `window` is the sequence length per sample."""

    arch: str
    hidden: int
    input_dim: int = 4
    output_dim: int = 1
    window: int = 1

    def __post_init__(self):
        arch_id(self.arch)
        for name in ("hidden", "input_dim", "output_dim", "window"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.arch == "mlp" and self.window != 1:
            raise ValueError(f"mlp supports window=1 only, got window={self.window}")

    @property
    def structure(self) -> str:
        """Neuron counts as 'input-hidden-output', e.g. '4-5-1'."""
        return f"{self.input_dim}-{self.hidden}-{self.output_dim}"


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter array, in canonical order.

    The order is load-bearing: weight initialization draws matrices in this
    order, so it is part of the determinism contract.
    """
    d, h, out = spec.input_dim, spec.hidden, spec.output_dim
    shapes: dict[str, tuple[int, ...]] = {}
    if spec.arch == "mlp":
        shapes["W_h"] = (h, d)
        shapes["b_h"] = (h,)
    elif spec.arch == "srnn":
        shapes["W_x"] = (h, d)
        shapes["W_h"] = (h, h)
        shapes["b"] = (h,)
    elif spec.arch == "lstm":
        for g in ("i", "f", "o", "c"):
            shapes[f"W_{g}"] = (h, d + h)
            shapes[f"b_{g}"] = (h,)
    elif spec.arch == "gru":
        for g in ("z", "r", "h"):
            shapes[f"W_{g}"] = (h, d + h)
            shapes[f"b_{g}"] = (h,)
    shapes["W_out"] = (out, h)
    shapes["b_out"] = (out,)
    return shapes


def activation_names(spec: ModelSpec) -> dict[str, str]:
    """Named activation functions per role, as recorded in saved model files."""
    if spec.arch == "mlp":
        return {"hidden": "sigmoid", "output": "linear"}
    if spec.arch == "srnn":
        return {"hidden": "tanh", "output": "linear"}
    return {"gate": "sigmoid", "hidden": "tanh", "output": "linear"}


def _buffer_order(spec: ModelSpec) -> list[str]:
    """Parameter names in flat-buffer order: `param_shapes` order, with the
    LSTM/GRU gate weights pulled ahead of the gate biases."""
    names = list(param_shapes(spec))
    if spec.arch in ("lstm", "gru"):
        gates = names[:-2]  # W_g, b_g pairs
        names = gates[0::2] + gates[1::2] + names[-2:]
    return names


def _views(buf: np.ndarray, spec: ModelSpec) -> dict[str, np.ndarray]:
    """Named reshaped views into `buf`, keyed in `param_shapes` order."""
    shapes = param_shapes(spec)
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name in _buffer_order(spec):
        size = math.prod(shapes[name])
        views[name] = buf[offset : offset + size].reshape(shapes[name])
        offset += size
    return {name: views[name] for name in shapes}


def _gate_block(buf: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The fused gate weights (G*h, d+h) and biases (G*h,) at the head of `buf`."""
    rows = (4 if spec.arch == "lstm" else 3) * spec.hidden
    size = rows * (spec.input_dim + spec.hidden)
    return buf[:size].reshape(rows, -1), buf[size : size + rows]


@dataclass
class NetworkModel:
    """A spec plus its weights in one flat buffer (see the module docstring).

    `params` may be passed as any arrays of the `param_shapes` shapes; they
    are copied into `flat` and replaced by views into it.
    """

    spec: ModelSpec
    params: dict[str, np.ndarray]
    rng_seed: int
    epochs_trained: int = 0
    flat: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)
    # fused gate views (W, b, dW, db) for lstm/gru, else None
    _gates: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        shapes = param_shapes(self.spec)
        if set(self.params) != set(shapes):
            raise ValueError(
                f"parameter names {sorted(self.params)} do not match "
                f"{self.spec.arch} parameters {sorted(shapes)}"
            )
        size = sum(math.prod(shape) for shape in shapes.values())
        self.flat = np.empty(size)
        self.grad = np.zeros(size)
        views = _views(self.flat, self.spec)
        for name, view in views.items():
            arr = self.params[name]
            if np.shape(arr) != view.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {np.shape(arr)}, expected {view.shape}"
                )
            view[...] = arr
        self.params = views
        self.grads = _views(self.grad, self.spec)
        self._gates = None
        if self.spec.arch in ("lstm", "gru"):
            self._gates = _gate_block(self.flat, self.spec) + _gate_block(self.grad, self.spec)


def init_model(spec: ModelSpec, seed: int) -> NetworkModel:
    """Glorot-uniform weights (U[-r, r], r = sqrt(6/(fan_in+fan_out))), zero biases.

    Deterministic for a fixed (spec, seed): matrices are drawn in
    `param_shapes` order from a PCG64 generator seeded with `seed`.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if len(shape) == 2:
            fan_out, fan_in = shape
            r = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-r, r, size=shape)
        else:
            params[name] = np.zeros(shape)
    return NetworkModel(spec=spec, params=params, rng_seed=int(seed))


def parameter_count(model: NetworkModel) -> int:
    return model.flat.size


@dataclass
class ForwardCache:
    """Everything backward needs: inputs, initial state and per-step tensors.

    Stacked arrays are time-major: hs is (T+1, B, h) with hs[0] the initial
    state, fused gate activations (T, B, G*h) (LSTM i, f, o, cand; GRU z, r)
    with per-gate views under their own names, concat buffers (T, B, d+h).
    """

    model: NetworkModel
    x: np.ndarray  # (B, T, d)
    h0: np.ndarray  # (B, h)
    c0: np.ndarray | None
    steps: dict[str, np.ndarray] = field(default_factory=dict)
    hidden_final: np.ndarray | None = None
    yhat: np.ndarray | None = None


def _as_batch(x, spec: ModelSpec) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"batched input must be (batch, window, input_dim), got shape {x.shape}")
    _, t, d = x.shape
    if t != spec.window:
        raise ValueError(f"window length mismatch: model expects {spec.window}, got {t}")
    if d != spec.input_dim:
        raise ValueError(f"input_dim mismatch: model expects {spec.input_dim}, got {d}")
    return x


def _state(value, batch: int, hidden: int, name: str) -> np.ndarray:
    if value is None:
        return np.zeros((batch, hidden))
    s = np.asarray(value, dtype=np.float64)
    if s.ndim == 1:
        s = np.broadcast_to(s, (batch, hidden)).copy()
    if s.shape != (batch, hidden):
        raise ValueError(f"{name} must have shape ({batch}, {hidden}), got {s.shape}")
    return s


def forward_batch(model: NetworkModel, x, h0=None, c0=None) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through the cell; returns (yhat (B, out), cache).

    h0/c0 are test hooks for seeding the initial hidden/cell state; they
    default to zeros, which is what the training pipeline always uses.
    """
    spec = model.spec
    p = model.params
    x = _as_batch(x, spec)
    b, t, d = x.shape
    h = spec.hidden
    if c0 is not None and spec.arch != "lstm":
        raise ValueError(f"c0 only applies to lstm models, not {spec.arch}")

    cache = ForwardCache(model=model, x=x, h0=_state(h0, b, h, "h0"), c0=None)
    st = cache.steps

    if spec.arch == "mlp":
        hidden = _sigmoid(x[:, 0] @ p["W_h"].T + p["b_h"])
        st["hidden"] = hidden
        final = hidden
    elif spec.arch == "srnn":
        hs = np.empty((t + 1, b, h))
        hs[0] = cache.h0
        for k in range(t):
            hs[k + 1] = np.tanh(x[:, k] @ p["W_x"].T + hs[k] @ p["W_h"].T + p["b"])
        st["hs"] = hs
        final = hs[t]
    elif spec.arch == "lstm":
        cache.c0 = _state(c0, b, h, "c0")
        w, bias, _, _ = model._gates
        wt = w.T
        h2, h3 = 2 * h, 3 * h
        hs = np.empty((t + 1, b, h))
        cs = np.empty((t + 1, b, h))
        hs[0] = cache.h0
        cs[0] = cache.c0
        gates = np.empty((t, b, 4 * h))  # i, f, o (sigmoid) then cand (tanh)
        tanh_c = np.empty((t, b, h))
        xc = np.empty((t, b, d + h))
        xc[:, :, :d] = x.transpose(1, 0, 2)
        for k in range(t):
            xc[k, :, d:] = hs[k]
            z = xc[k] @ wt + bias
            g = gates[k]
            g[:, :h3] = _sigmoid(z[:, :h3])
            np.tanh(z[:, h3:], out=g[:, h3:])
            cs[k + 1] = g[:, h:h2] * cs[k] + g[:, :h] * g[:, h3:]
            np.tanh(cs[k + 1], out=tanh_c[k])
            np.multiply(g[:, h2:h3], tanh_c[k], out=hs[k + 1])
        st.update(
            hs=hs, cs=cs, gates=gates, tanh_c=tanh_c, xc=xc,
            i=gates[..., :h], f=gates[..., h:h2], o=gates[..., h2:h3], cand=gates[..., h3:],
        )
        final = hs[t]
    else:  # gru
        w, bias, _, _ = model._gates
        h2 = 2 * h
        wzr_t, wc_t = w[:h2].T, w[h2:].T
        bzr, bc = bias[:h2], bias[h2:]
        hs = np.empty((t + 1, b, h))
        hs[0] = cache.h0
        zr = np.empty((t, b, h2))
        cand = np.empty((t, b, h))
        xc = np.empty((t, b, d + h))  # [x_t; h_{t-1}] for the z/r gates
        xrc = np.empty((t, b, d + h))  # [x_t; r * h_{t-1}] for the candidate
        xc[:, :, :d] = x.transpose(1, 0, 2)
        xrc[:, :, :d] = xc[:, :, :d]
        for k in range(t):
            xc[k, :, d:] = hs[k]
            g = zr[k]
            g[...] = _sigmoid(xc[k] @ wzr_t + bzr)
            np.multiply(g[:, h:], hs[k], out=xrc[k, :, d:])
            np.tanh(xrc[k] @ wc_t + bc, out=cand[k])
            hs[k + 1] = (1.0 - g[:, :h]) * hs[k] + g[:, :h] * cand[k]
        st.update(hs=hs, zr=zr, z=zr[..., :h], r=zr[..., h:], cand=cand, xc=xc, xrc=xrc)
        final = hs[t]

    yhat = final @ p["W_out"].T + p["b_out"]
    cache.hidden_final = final
    cache.yhat = yhat
    return yhat, cache


def forward(model: NetworkModel, x_window, h0=None, c0=None) -> tuple[np.ndarray, ForwardCache]:
    """Single-sample forward: x_window is (window, input_dim) or a list of vectors."""
    x = np.asarray(x_window, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"x_window must be (window, input_dim), got shape {x.shape}")
    yhat, cache = forward_batch(model, x[None], h0=h0, c0=c0)
    return yhat[0], cache


def backward(model: NetworkModel, cache: ForwardCache, dl_dyhat) -> dict[str, np.ndarray]:
    """Exact gradients of L w.r.t. every parameter, given dL/dyhat.

    Accepts a (out,) cotangent for a batch-of-one cache or (B, out) for a
    batched one; batch contributions are summed, so the caller folds any
    1/B averaging into the cotangent. The gradients are written into
    `model.grad`; the returned dict is `model.grads`, its named views, which
    the next call overwrites.
    """
    if cache.model is not model:
        raise ValueError("cache was produced by a different model")
    spec = model.spec
    p = model.params
    grads = model.grads
    x = cache.x
    b, t, d = x.shape
    h = spec.hidden

    dy = np.asarray(dl_dyhat, dtype=np.float64)
    if dy.ndim == 1:
        if b != 1:
            raise ValueError(f"1-d cotangent given for a cache with batch size {b}")
        dy = dy[None, :]
    if dy.shape != (b, spec.output_dim):
        raise ValueError(f"cotangent shape {dy.shape} does not match ({b}, {spec.output_dim})")

    st = cache.steps
    np.matmul(dy.T, cache.hidden_final, out=grads["W_out"])
    np.add.reduce(dy, axis=0, out=grads["b_out"])
    dh = dy @ p["W_out"]  # (B, h)

    # Recurrent cells store each step's pre-activation gradients in one
    # (T, B, G*h) array, then form every weight gradient with one GEMM over
    # the T*B rows. dh of step 0 would flow into the zero initial state and
    # is not computed.
    if spec.arch == "mlp":
        hidden = st["hidden"]
        dpre = dh * hidden * (1.0 - hidden)
        np.matmul(dpre.T, x[:, 0], out=grads["W_h"])
        np.add.reduce(dpre, axis=0, out=grads["b_h"])
    elif spec.arch == "srnn":
        hs = st["hs"]
        w_h = p["W_h"]
        dpre = np.empty((t, b, h))
        for k in range(t - 1, -1, -1):
            np.multiply(dh, 1.0 - hs[k + 1] ** 2, out=dpre[k])
            if k:
                dh = dpre[k] @ w_h
        rows = dpre.reshape(t * b, h)
        np.matmul(rows.T, x.transpose(1, 0, 2).reshape(t * b, d), out=grads["W_x"])
        np.matmul(rows.T, hs[:t].reshape(t * b, h), out=grads["W_h"])
        np.add.reduce(rows, axis=0, out=grads["b"])
    elif spec.arch == "lstm":
        hs, cs, gates, tanh_c, xc = st["hs"], st["cs"], st["gates"], st["tanh_c"], st["xc"]
        w, _, gw, gb = model._gates
        w_h = w[:, d:]
        h2, h3 = 2 * h, 3 * h
        dz = np.empty((t, b, 4 * h))
        dc = np.zeros((b, h))
        for k in range(t - 1, -1, -1):
            g = gates[k]
            cand = g[:, h3:]
            tc = tanh_c[k]
            dzk = dz[k]
            # first the gradients w.r.t. the gate outputs, then through
            # their activations: sigmoid' = s(1-s), tanh' = 1-t^2
            np.multiply(dh, tc, out=dzk[:, h2:h3])  # o
            dc = dc + dh * g[:, h2:h3] * (1.0 - tc ** 2)
            np.multiply(dc, cand, out=dzk[:, :h])  # i
            np.multiply(dc, cs[k], out=dzk[:, h:h2])  # f
            np.multiply(dc, g[:, :h], out=dzk[:, h3:])  # cand
            dc = dc * g[:, h:h2]  # carried to c_{k-1}
            sig = g[:, :h3]
            dsig = dzk[:, :h3]
            dsig *= sig
            dsig *= 1.0 - sig
            dzk[:, h3:] *= 1.0 - cand ** 2
            if k:
                dh = dzk @ w_h
        rows = dz.reshape(t * b, 4 * h)
        np.matmul(rows.T, xc.reshape(t * b, d + h), out=gw)
        np.add.reduce(rows, axis=0, out=gb)
    else:  # gru
        hs, zr, cand, xc, xrc = st["hs"], st["zr"], st["cand"], st["xc"], st["xrc"]
        w, _, gw, gb = model._gates
        h2 = 2 * h
        wzr_h, wc_h = w[:h2, d:], w[h2:, d:]
        dz = np.empty((t, b, 3 * h))
        for k in range(t - 1, -1, -1):
            h_prev = hs[k]
            g = zr[k]
            gz = g[:, :h]
            ck = cand[k]
            dzk = dz[k]
            dzc = dzk[:, h2:]
            np.multiply(dh * gz, 1.0 - ck ** 2, out=dzc)
            dh_prev = dh * (1.0 - gz)
            drh = dzc @ wc_h  # gradient w.r.t. r * h_prev
            dh_prev = dh_prev + drh * g[:, h:]
            np.multiply(dh, ck - h_prev, out=dzk[:, :h])  # z
            np.multiply(drh, h_prev, out=dzk[:, h:h2])  # r
            dsig = dzk[:, :h2]
            dsig *= g
            dsig *= 1.0 - g
            if k:
                dh = dh_prev + dsig @ wzr_h
        rows = dz.reshape(t * b, 3 * h)
        np.matmul(rows[:, :h2].T, xc.reshape(t * b, d + h), out=gw[:h2])
        np.matmul(rows[:, h2:].T, xrc.reshape(t * b, d + h), out=gw[h2:])
        np.add.reduce(rows, axis=0, out=gb)

    return grads
