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
b_out; the model file and the weight draw order still follow
`param_shapes` and do not see the layout. `model.grad` is a vector with
the same layout, and `model.grads` holds its named views.

The kernels run on a `ModelStack`: S models of one architecture, each
zero-padded to the canonical width `padded_width(hidden)` (the next
multiple of PAD_MULTIPLE), with weights and gradients in (S, n) arrays
laid out as above for a model of that width. Every model of a stack takes
the same input batch. Each product is one 3-D matmul, which BLAS runs as
one GEMM per model: the input half of all gates, W[:, :d] x_t, for every
step at once before the time loop (Appleyard et al. 2016), then per step
the recurrent half, W[:, d:] h_{t-1} (all LSTM gates in one product, GRU
z/r in one and the candidate in another), which step 0 skips as h_0 = 0.
A model's arithmetic therefore depends on its own hidden size only, never
on the other models of its stack: a stack of one computes bit for bit
what the same model computes in any stack. Padded units carry zero
weights, compute h = 0 (recurrent cells) and get zero gradients; MLP
padded units output sigmoid(0) = 0.5, so their W_out gradient is masked
to zero. `forward_batch` and `backward` also take a single NetworkModel,
which they run as a stack of one.

`backward` overwrites the gradient buffer (`stack.grad`, or `model.grad`
for a single model) on every call and returns its named views: they are
valid only until the next `backward`, so copy them to keep them.
Optimizers step `flat` with `grad`, two arrays of one shape.

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

Everything runs batched: inputs are (batch, window, input_dim) arrays, and
one sample is a batch of one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Canonical order: report sorting, selection tie-breaks and per-trial seed
# derivation all index architectures by position in this tuple.
ARCHS = ("mlp", "srnn", "gru", "lstm")

# Stacked models are padded to a multiple of this many hidden units.
PAD_MULTIPLE = 8


def _sigmoid(z, out=None):
    """Elementwise logistic 1/(1+e^-z); saturates to exactly 0/1 for huge |z|.

    Written into `out` when given (which may be z itself)."""
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    np.negative(z, out=out)
    # exp overflow for z << 0 still yields the correct limit (0.0); silence the warning
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def arch_id(arch: str) -> int:
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}, expected one of {ARCHS}")
    return ARCHS.index(arch)


def padded_width(hidden: int) -> int:
    """The canonical width a model of `hidden` units is padded to in a stack:
    the next multiple of PAD_MULTIPLE at or above `hidden`. Fixed per hidden
    size, so the padding (and with it every product's bits) never depends
    on which other models share the stack."""
    return -(-hidden // PAD_MULTIPLE) * PAD_MULTIPLE


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


@functools.lru_cache(maxsize=64)
def _layout(spec: ModelSpec) -> tuple[int, tuple[tuple[str, int, int, tuple[int, ...]], ...]]:
    """(parameter count, (name, offset, size, shape) per parameter in
    `param_shapes` order) of the flat buffer, which holds the parameters in
    `param_shapes` order with the LSTM/GRU gate weights pulled ahead of the
    gate biases."""
    shapes = param_shapes(spec)
    order = list(shapes)
    if spec.arch in ("lstm", "gru"):
        gates = order[:-2]  # W_g, b_g pairs
        order = gates[0::2] + gates[1::2] + order[-2:]
    offsets = {}
    total = 0
    for name in order:
        offsets[name] = total
        total += math.prod(shapes[name])
    return total, tuple(
        (name, offsets[name], math.prod(shape), shape) for name, shape in shapes.items()
    )


def _buffer(spec: ModelSpec, *lead: int) -> np.ndarray:
    """A zeroed buffer of shape (*lead, number of parameters of `spec`)."""
    return np.zeros((*lead, _layout(spec)[0]))


def _views(buf: np.ndarray, spec: ModelSpec) -> dict[str, np.ndarray]:
    """Named reshaped views into the last axis of `buf`, keyed in
    `param_shapes` order; leading axes are kept."""
    lead = buf.shape[:-1]
    return {
        name: buf[..., offset : offset + size].reshape(lead + shape)
        for name, offset, size, shape in _layout(spec)[1]
    }


def _gate_block(buf: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The fused gate weights (..., G*h, d+h) and biases (..., G*h) at the
    head of the last axis of `buf`."""
    rows = (4 if spec.arch == "lstm" else 3) * spec.hidden
    size = rows * (spec.input_dim + spec.hidden)
    lead = buf.shape[:-1]
    return buf[..., :size].reshape(lead + (rows, -1)), buf[..., size : size + rows]


def _corner(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Where an array of `shape` sits inside the same parameter at a larger
    width: its leading block. Padding appends units after the real ones in
    every hidden axis, and the (d+h) axis holds the d inputs first."""
    return tuple(slice(n) for n in shape)


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

    def __post_init__(self):
        shapes = param_shapes(self.spec)
        if set(self.params) != set(shapes):
            raise ValueError(
                f"parameter names {sorted(self.params)} do not match "
                f"{self.spec.arch} parameters {sorted(shapes)}"
            )
        self.flat = _buffer(self.spec)
        self.grad = _buffer(self.spec)
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


class ModelStack:
    """S models of one architecture, input size, output size and window,
    whose hidden sizes pad to the same `padded_width`.

    `spec` is the spec of the padded model (hidden = the width); `flat` and
    `grad` are (S, n) arrays in that model's buffer layout, `params` and
    `grads` their named views with a leading model axis. The stack copies
    the models' weights in; `store` copies them back out.
    """

    def __init__(self, models):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("a model stack needs at least one model")
        first = self.models[0].spec
        self.spec = dataclasses.replace(first, hidden=padded_width(first.hidden))
        for model in self.models:
            if dataclasses.replace(model.spec, hidden=padded_width(model.spec.hidden)) != self.spec:
                raise ValueError(
                    f"cannot stack {model.spec} with {first}: stacked models share "
                    "architecture, input and output sizes, window and padded width"
                )
        self.flat = _buffer(self.spec, len(self.models))
        self.grad = _buffer(self.spec, len(self.models))
        self.params = _views(self.flat, self.spec)
        self.grads = _views(self.grad, self.spec)
        self._gates = None  # fused gate views (W, b, dW, db) for lstm/gru
        if self.spec.arch in ("lstm", "gru"):
            self._gates = _gate_block(self.flat, self.spec) + _gate_block(self.grad, self.spec)
        self._wout_mask = None  # zeroes the W_out gradient of MLP padded units
        if self.spec.arch == "mlp":
            hiddens = np.array([m.spec.hidden for m in self.models])
            self._wout_mask = (np.arange(self.spec.hidden) < hiddens[:, None, None]) * 1.0
        for k, model in enumerate(self.models):
            for name, arr in model.params.items():
                self.params[name][k][_corner(arr.shape)] = arr

    def __len__(self) -> int:
        return len(self.models)

    def store(self) -> None:
        """Copy every model's weights from the stack back into the model."""
        for k, model in enumerate(self.models):
            for name, arr in model.params.items():
                arr[...] = self.params[name][k][_corner(arr.shape)]


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


@dataclass
class ForwardCache:
    """Everything backward needs: the inputs and the per-step tensors.

    `model` is what `forward_batch` was given, `stack` the stack it ran
    (the same object, or a stack of one around a NetworkModel). Per-step
    arrays are (S, T, units, B), so each step is one contiguous (units, B)
    block per model and so is each gate's share of it: hs (and LSTM cs) is
    (S, T+1, W, B) with hs[:, 0] the zero initial state, fused gate
    activations (S, T, G*W, B) (LSTM i, f, o, cand; GRU z, r), GRU `cand`
    and `rh` (r * h_{t-1}) (S, T, W, B); W is the padded width. `xt` is
    the input as (T, d, B).
    """

    model: NetworkModel | ModelStack
    stack: ModelStack
    x: np.ndarray  # (B, T, d), shared by every model of the stack
    steps: dict[str, np.ndarray] = field(default_factory=dict)
    hidden_final: np.ndarray | None = None  # (S, W, B)


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


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (a view)."""
    return a.swapaxes(-1, -2)


def _columns(a: np.ndarray) -> np.ndarray:
    """Per-step arrays (..., T, n, B) as (..., n, T*B): one column per
    (step, sample), for the weight-gradient products (a copy unless T = 1)."""
    *lead, t, n, b = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, n, t * b)


def _input_half(w_x: np.ndarray, bias: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """W_x x_t + b for every model and step at once: (S, T, rows, B)."""
    pre = np.matmul(w_x[:, None], xt)
    pre += bias[:, None, :, None]
    return pre


def forward_batch(net: NetworkModel | ModelStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through every model of `net` from a zero
    initial state; returns (yhat, cache).

    `net` is a ModelStack, whose models all take the same x, and yhat is
    (S, B, out); or a NetworkModel, run as a stack of one, and yhat is
    (B, out).
    """
    stack = net if isinstance(net, ModelStack) else ModelStack([net])
    spec = stack.spec
    p = stack.params
    x = _as_batch(x, spec)
    b, t, d = x.shape
    s = len(stack)
    h = spec.hidden  # the padded width

    cache = ForwardCache(model=net, stack=stack, x=x)
    st = cache.steps
    xt = st["xt"] = np.ascontiguousarray(x.transpose(1, 2, 0))

    # The input half of every product runs for all steps before the time
    # loop, bias included; each step then adds the recurrent half, which
    # step 0 skips because h_0 = 0.
    if spec.arch == "mlp":
        hidden = p["W_h"] @ xt[0]
        hidden += p["b_h"][..., None]
        st["hidden"] = _sigmoid(hidden, out=hidden)
        final = hidden
    elif spec.arch == "srnn":
        pre = _input_half(p["W_x"], p["b"], xt)
        w_h = p["W_h"]
        hs = np.empty((s, t + 1, h, b))
        hs[:, 0] = 0.0
        for k in range(t):
            z = pre[:, k]
            if k:
                z += w_h @ hs[:, k]
            np.tanh(z, out=hs[:, k + 1])
        st["hs"] = hs
        final = hs[:, t]
    elif spec.arch == "lstm":
        w, bias, _, _ = stack._gates
        gates = _input_half(w[..., :d], bias, xt)  # i, f, o (sigmoid) then cand (tanh)
        w_h = w[..., d:]
        h2, h3 = 2 * h, 3 * h
        hs = np.empty((s, t + 1, h, b))
        cs = np.empty((s, t + 1, h, b))
        hs[:, 0] = 0.0
        cs[:, 0] = 0.0
        tanh_c = np.empty((s, t, h, b))
        for k in range(t):
            g = gates[:, k]
            if k:
                g += w_h @ hs[:, k]
            _sigmoid(g[:, :h3], out=g[:, :h3])
            np.tanh(g[:, h3:], out=g[:, h3:])
            cs[:, k + 1] = g[:, h:h2] * cs[:, k] + g[:, :h] * g[:, h3:]
            np.tanh(cs[:, k + 1], out=tanh_c[:, k])
            np.multiply(g[:, h2:h3], tanh_c[:, k], out=hs[:, k + 1])
        st.update(hs=hs, cs=cs, gates=gates, tanh_c=tanh_c)
        final = hs[:, t]
    else:  # gru
        w, bias, _, _ = stack._gates
        h2 = 2 * h
        pre = _input_half(w[..., :d], bias, xt)
        zr, cand = pre[:, :, :h2], pre[:, :, h2:]  # z, r (sigmoid), then cand (tanh)
        w_zr, w_c = w[:, :h2, d:], w[:, h2:, d:]
        hs = np.empty((s, t + 1, h, b))
        hs[:, 0] = 0.0
        rh = np.zeros((s, t, h, b))  # r * h_{t-1}; zero at step 0
        for k in range(t):
            h_prev = hs[:, k]
            g = zr[:, k]
            ck = cand[:, k]
            if k:
                g += w_zr @ h_prev
            _sigmoid(g, out=g)
            if k:
                np.multiply(g[:, h:], h_prev, out=rh[:, k])
                ck += w_c @ rh[:, k]
            np.tanh(ck, out=ck)
            hs[:, k + 1] = (1.0 - g[:, :h]) * h_prev + g[:, :h] * ck
        st.update(hs=hs, zr=zr, cand=cand, rh=rh)
        final = hs[:, t]

    cache.hidden_final = final
    yhat = _t(p["W_out"] @ final + p["b_out"][..., None])  # (S, B, out)
    return (yhat if net is stack else yhat[0]), cache


def backward(
    net: NetworkModel | ModelStack, cache: ForwardCache, dl_dyhat
) -> dict[str, np.ndarray]:
    """Exact gradients of L w.r.t. every parameter, given dL/dyhat.

    dl_dyhat has the shape of the forward output: (S, B, out) for a stack,
    (B, out) for a NetworkModel. Batch contributions are summed, so the
    caller folds any 1/B averaging into the cotangent. The gradients are
    written into `net.grad`; the returned dict is `net.grads`, its named
    views, which the next call overwrites.
    """
    if cache.model is not net:
        raise ValueError("cache was produced by a different model")
    stack = cache.stack
    spec = stack.spec
    p = stack.params
    grads = stack.grads
    b, t, d = cache.x.shape
    s = len(stack)
    h = spec.hidden

    dy = np.asarray(dl_dyhat, dtype=np.float64)
    want = (s, b, spec.output_dim) if net is stack else (b, spec.output_dim)
    if dy.shape != want:
        raise ValueError(f"cotangent shape {dy.shape} does not match {want}")
    dy = _t(dy.reshape(s, b, spec.output_dim))  # (S, out, B)

    st = cache.steps
    x_cols = _t(_columns(st["xt"]))  # (T*B, d)
    np.matmul(dy, _t(cache.hidden_final), out=grads["W_out"])
    if stack._wout_mask is not None:
        grads["W_out"] *= stack._wout_mask
    np.add.reduce(dy, axis=2, out=grads["b_out"])
    dh = _t(p["W_out"]) @ dy  # (S, W, B)

    # Recurrent cells store each step's pre-activation gradients in one
    # (S, T, G*W, B) array, then form each weight gradient with one GEMM
    # per model over its T*B columns: the input weights against every
    # step's input, the recurrent weights against h_1..h_{T-1} only
    # (h_0 = 0). dh of step 0 would flow into the zero initial state and
    # is not computed.
    if spec.arch == "mlp":
        hidden = st["hidden"]
        dpre = dh * hidden * (1.0 - hidden)
        np.matmul(dpre, x_cols, out=grads["W_h"])
        np.add.reduce(dpre, axis=2, out=grads["b_h"])
    elif spec.arch == "srnn":
        hs = st["hs"]
        w_h_t = _t(p["W_h"])
        dpre = np.empty((s, t, h, b))
        for k in range(t - 1, -1, -1):
            np.multiply(dh, 1.0 - hs[:, k + 1] ** 2, out=dpre[:, k])
            if k:
                dh = w_h_t @ dpre[:, k]
        cols = _columns(dpre)
        np.matmul(cols, x_cols, out=grads["W_x"])
        np.matmul(cols[..., b:], _t(_columns(hs[:, 1:t])), out=grads["W_h"])
        np.add.reduce(cols, axis=2, out=grads["b"])
    elif spec.arch == "lstm":
        hs, cs, gates, tanh_c = st["hs"], st["cs"], st["gates"], st["tanh_c"]
        w, _, gw, gb = stack._gates
        w_h_t = _t(w[..., d:])
        h2, h3 = 2 * h, 3 * h
        dz = np.empty((s, t, 4 * h, b))
        dc = np.zeros((s, h, b))
        for k in range(t - 1, -1, -1):
            g = gates[:, k]
            cand = g[:, h3:]
            tc = tanh_c[:, k]
            dzk = dz[:, k]
            # first the gradients w.r.t. the gate outputs, then through
            # their activations: sigmoid' = s(1-s), tanh' = 1-t^2
            np.multiply(dh, tc, out=dzk[:, h2:h3])  # o
            dc = dc + dh * g[:, h2:h3] * (1.0 - tc ** 2)
            np.multiply(dc, cand, out=dzk[:, :h])  # i
            np.multiply(dc, cs[:, k], out=dzk[:, h:h2])  # f
            np.multiply(dc, g[:, :h], out=dzk[:, h3:])  # cand
            dc = dc * g[:, h:h2]  # carried to c_{k-1}
            sig = g[:, :h3]
            dsig = dzk[:, :h3]
            dsig *= sig
            dsig *= 1.0 - sig
            dzk[:, h3:] *= 1.0 - cand ** 2
            if k:
                dh = w_h_t @ dzk
        cols = _columns(dz)
        np.matmul(cols, x_cols, out=gw[..., :d])
        np.matmul(cols[..., b:], _t(_columns(hs[:, 1:t])), out=gw[..., d:])
        np.add.reduce(cols, axis=2, out=gb)
    else:  # gru
        hs, zr, cand, rh = st["hs"], st["zr"], st["cand"], st["rh"]
        w, _, gw, gb = stack._gates
        h2 = 2 * h
        wzr_h_t, wc_h_t = _t(w[:, :h2, d:]), _t(w[:, h2:, d:])
        dz = np.empty((s, t, 3 * h, b))
        for k in range(t - 1, -1, -1):
            h_prev = hs[:, k]
            g = zr[:, k]
            gz = g[:, :h]
            ck = cand[:, k]
            dzk = dz[:, k]
            dzc = dzk[:, h2:]
            np.multiply(dh * gz, 1.0 - ck ** 2, out=dzc)
            np.multiply(dh, ck - h_prev, out=dzk[:, :h])  # z
            if k:
                drh = wc_h_t @ dzc  # gradient w.r.t. r * h_prev
                np.multiply(drh, h_prev, out=dzk[:, h:h2])  # r
            else:
                dzk[:, h:h2] = 0.0  # r acts on h_0 = 0
            dsig = dzk[:, :h2]
            dsig *= g
            dsig *= 1.0 - g
            if k:
                dh = dh * (1.0 - gz) + drh * g[:, h:] + wzr_h_t @ dsig
        cols = _columns(dz)
        np.matmul(cols, x_cols, out=gw[..., :d])
        np.matmul(cols[:, :h2, b:], _t(_columns(hs[:, 1:t])), out=gw[:, :h2, d:])
        np.matmul(cols[:, h2:, b:], _t(_columns(rh[:, 1:])), out=gw[:, h2:, d:])
        np.add.reduce(cols, axis=2, out=gb)

    if net is stack:
        return grads
    for name, g in net.grads.items():
        g[...] = grads[name][0][_corner(g.shape)]
    return net.grads
