"""The four forecasting architectures: MLP, SRNN, LSTM and GRU.

Every model is one hidden block of `hidden` units plus a linear output
layer. Recurrent cells consume a window of input vectors and predict from
the final hidden state; hidden (and cell) state starts at zero for each
sample, so samples are independent.

A `NetworkModel` is a spec plus its named weight arrays (`param_shapes`).
The kernels take only a `ModelStack`, a single model being a stack of
one: S models of one architecture, each zero-padded to the width
`padded_width(hidden)`, with their weights in one (S, n) float64 array
`stack.flat`. Each row is the buffer of one model of that width: its
arrays end to end in `param_shapes` order. LSTM and GRU list every gate
weight before any gate bias, so the gate weights form one (G*W, d+W)
block (G = 4 for LSTM i, f, o, c; 3 for GRU z, r, h) and the gate biases
one (G*W,) vector. `stack.grad` has the same layout; `params`/`grads`
are named views.

Every model of a stack takes the same input batch. Each product is one
3-D matmul, which BLAS runs as one GEMM per model: per step, the input
half of all gates, W[:, :d] x_t plus the bias, then the recurrent half,
W[:, d:] h_{t-1} (all LSTM gates in one product, GRU z/r in one and the
candidate in another), which step 0 skips as h_0 = 0. So a model's
arithmetic depends on its own hidden size only, never on the other
models of its stack. Padded units carry zero weights, compute h = 0
(recurrent cells) and get zero gradients; MLP padded units output
sigmoid(0) = 0.5, so their W_out gradient is masked to zero.

The per-step arrays of `forward_batch` and `backward` are unit-major,
(T, units, S, B): step, then unit or gate row, then model, then sample
(`ForwardCache` lists them). Each step is then one contiguous
(G*W, S, B) block and each gate's rows one contiguous block within it,
so every elementwise op of the time loops runs on contiguous memory,
numpy's fast path; with the model axis first, every gate slice was
strided across the models, and these ops, not the small products, set a
step's time. The products stay one GEMM per model: the input half writes
its (T, G*W, S, B) result through a transposed `out=` view, and
`_stack_matmul` takes each model's (n, B) block of a unit-major array
with a row stride of S*B. Two rules keep the bits those of the
model-major layout the results were first produced with. The output
layer reads a contiguous (S, W, B) copy of the final state: at B = 1
numpy runs that product as a matrix-vector one, which on a state
strided across the models can change the last bit, so a model's
prediction would depend on its stack. The weight-gradient products read
the inputs and the hidden states as transposed views of their
(n, T*B) columns, not as contiguous copies, which change gradient bits.
The MLP keeps its one (S, W, B) block.

`forward_batch` is the one forward kernel. It runs the input half of
every step before the time loop (Appleyard et al. 2016) and keeps every
per-step array for `backward`, which overwrites `stack.grad` on every
call and returns its named views (valid until the next call). `predict`,
for scoring, runs `forward_batch` on one chunk of samples at a time, so
it holds one chunk's forward cache and its memory does not grow with the
number of samples. Its predictions are those of `forward_batch` on all
samples bit for bit; the one caveat (see `predict`) concerns only such a
whole-split `forward_batch`, which nothing in the product calls.

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
differences in the test suite. Inputs are (batch, window, 4) arrays:
every model takes the four daily prices (`ModelSpec.input_dim`) and
predicts one value (`ModelSpec.output_dim`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import KW_ONLY, dataclass, field
from typing import ClassVar

import numpy as np

from .data import FEATURE_NAMES

# Canonical order: report sorting, selection tie-breaks and per-trial seed
# derivation all index architectures by position in this tuple.
ARCHS = ("mlp", "srnn", "gru", "lstm")

# Stacked models are padded to a multiple of this many hidden units.
PAD_MULTIPLE = 8

# Samples per pass of `predict`. Scoring holds one chunk's forward cache
# at a time, of at most 2*CHUNK - 1 samples whatever n is; that bounds its
# memory, which is above training's and sets a sweep's peak. The chunk
# bounds fix prediction bits, so the value is part of the results.
CHUNK = 64


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
    """Architecture plus hidden size; `window` is the sequence length per
    sample. Every model maps the four daily prices to one next-day close,
    so `input_dim` and `output_dim` are constants, not fields. `window`
    is keyword-only: a third positional argument used to be `input_dim`."""

    input_dim: ClassVar[int] = len(FEATURE_NAMES)
    output_dim: ClassVar[int] = 1

    arch: str
    hidden: int
    _: KW_ONLY
    window: int = 1

    def __post_init__(self):
        arch_id(self.arch)
        for name in ("hidden", "window"):
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
    """Name -> shape of every parameter array, in canonical order: LSTM
    and GRU list every gate weight, then every gate bias, in gate order.

    The order is load-bearing: weight initialization draws matrices in this
    order, so it is part of the determinism contract, and a stack's buffer
    holds the arrays in this order.
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
        shapes.update({f"W_{g}": (h, d + h) for g in "ifoc"})
        shapes.update({f"b_{g}": (h,) for g in "ifoc"})
    elif spec.arch == "gru":
        shapes.update({f"W_{g}": (h, d + h) for g in "zrh"})
        shapes.update({f"b_{g}": (h,) for g in "zrh"})
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


def _views(buf: np.ndarray, spec: ModelSpec) -> dict[str, np.ndarray]:
    """Named reshaped views into the last axis of `buf`, which holds the
    arrays end to end in `param_shapes` order; leading axes are kept."""
    lead = buf.shape[:-1]
    views, offset = {}, 0
    for name, shape in param_shapes(spec).items():
        size = math.prod(shape)
        views[name] = buf[..., offset : offset + size].reshape(lead + shape)
        offset += size
    return views


def _recurrent_views(buf: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, ...]:
    """The input weights (S, G*W, d), biases (S, G*W) and recurrent
    weights (S, G*W, W) of every gate of a recurrent stack, as views into
    its (S, n) buffer `buf` (G = 1 for SRNN)."""
    if spec.arch == "srnn":
        v = _views(buf, spec)
        return v["W_x"], v["b"], v["W_h"]
    d, h = spec.input_dim, spec.hidden
    rows = (4 if spec.arch == "lstm" else 3) * h
    w = buf[:, : rows * (d + h)].reshape(len(buf), rows, d + h)
    return w[..., :d], buf[:, rows * (d + h) : rows * (d + h + 1)], w[..., d:]


@dataclass
class NetworkModel:
    """A spec plus its weights: one float64 array per `param_shapes` name,
    in `param_shapes` order. The model holds copies of the arrays it is
    given."""

    spec: ModelSpec
    params: dict[str, np.ndarray]
    rng_seed: int
    epochs_trained: int = 0

    def __post_init__(self):
        shapes = param_shapes(self.spec)
        if set(self.params) != set(shapes):
            raise ValueError(
                f"parameter names {sorted(self.params)} do not match "
                f"{self.spec.arch} parameters {sorted(shapes)}"
            )
        for name, shape in shapes.items():
            if np.shape(self.params[name]) != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {np.shape(self.params[name])}, expected {shape}"
                )
        self.params = {name: np.array(self.params[name], dtype=np.float64) for name in shapes}


class ModelStack:
    """S models of one architecture and window whose hidden sizes pad to
    the same `padded_width`.

    `spec` is the spec of the padded model (hidden = the width); `flat` and
    `grad` are (S, n) arrays in that model's buffer layout, `params` and
    `grads` their named views with a leading model axis. The stack copies
    the models' weights in; `store` copies them back out. A model's array
    is the leading block of the padded one: padding appends units after
    the real ones in every hidden axis, and the (d+W) axis holds the d
    inputs first.
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
                    "architecture, window and padded width"
                )
        size = sum(math.prod(shape) for shape in param_shapes(self.spec).values())
        self.flat = np.zeros((len(self.models), size))
        self.grad = np.zeros_like(self.flat)
        self.params = _views(self.flat, self.spec)
        self.grads = _views(self.grad, self.spec)
        self._recurrent = self._wout_mask = None
        if self.spec.arch == "mlp":  # zero the W_out gradient of padded units
            hiddens = np.array([m.spec.hidden for m in self.models])
            self._wout_mask = (np.arange(self.spec.hidden) < hiddens[:, None, None]) * 1.0
        else:  # (weights, gradients) as `_recurrent_views`
            self._recurrent = tuple(_recurrent_views(a, self.spec) for a in (self.flat, self.grad))
        for k, model in enumerate(self.models):
            for name, arr in model.params.items():
                self.params[name][k][tuple(map(slice, arr.shape))] = arr

    def __len__(self) -> int:
        return len(self.models)

    def store(self) -> None:
        """Copy every model's weights from the stack back into the model."""
        for k, model in enumerate(self.models):
            for name, arr in model.params.items():
                arr[...] = self.params[name][k][tuple(map(slice, arr.shape))]


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
    """Everything backward needs: the stack run, its inputs and the
    per-step arrays of `steps`, laid out unit-major as (T, units, S, B):
    step, then unit or gate row, then model, then sample, so that each
    step, and each gate's rows within it, is one contiguous block for the
    elementwise ops. hs (and LSTM cs) are (T+1, W, S, B) with hs[0] the
    zero initial state; the fused gate activations are (T, G*W, S, B)
    (LSTM `gates` i, f, o, cand; GRU `zr` z, r); LSTM `tanh_c` and GRU
    `cand` and `rh` (r * h_{t-1}) are (T, W, S, B). W is the padded width.
    `xt` is the input as (T, d, B); the MLP's `hidden` is (S, W, B).
    `hidden_final` is a contiguous (S, W, B) copy of the final state, the
    operand of the output layer, since a state strided across the models
    can change the last bit of a B = 1 prediction; the weight-gradient
    products read `xt` and hs as transposed views of their columns, as
    contiguous copies change gradient bits (see the module docstring).
    """

    stack: ModelStack
    x: np.ndarray  # (B, T, d), shared by every model of the stack
    steps: dict[str, np.ndarray] = field(default_factory=dict)
    hidden_final: np.ndarray | None = None  # (S, W, B)


def _as_batch(stack: ModelStack, x) -> np.ndarray:
    if not isinstance(stack, ModelStack):
        raise TypeError(f"expected a ModelStack, got {type(stack).__name__}")
    spec = stack.spec
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
    """Per-step arrays (T, n, S, B) as (S, n, T*B): one column per (step,
    sample) of each model, for the weight-gradient products (a copy
    unless T = 1)."""
    t, n, s, b = a.shape
    return a.transpose(2, 1, 0, 3).reshape(s, n, t * b)


def _stack_matmul(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w (S, rows, n) times a (n, S, B), model by model: (rows, S, B)."""
    out = np.empty((w.shape[1],) + a.shape[1:])
    np.matmul(w, a.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return out


def _input_half(w_x: np.ndarray, bias: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """W_x x_t + b for every model and every step of xt (T, d, B): (T, rows, S, B)."""
    s, rows, _ = w_x.shape
    t, _, b = xt.shape
    pre = np.empty((t, rows, s, b))
    np.matmul(w_x[:, None], xt, out=pre.transpose(2, 0, 1, 3))
    pre += bias.T[:, :, None]
    return pre


def _output(p: dict, final: np.ndarray) -> np.ndarray:
    """yhat (S, B, out) from the final hidden state (S, W, B)."""
    return _t(p["W_out"] @ final + p["b_out"][..., None])


def forward_batch(stack: ModelStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through every model of `stack` from a zero
    initial state; returns (yhat (S, B, out), the cache for `backward`)."""
    x = _as_batch(stack, x)
    p = stack.params
    b, t, _ = x.shape
    s, h, arch = len(stack), stack.spec.hidden, stack.spec.arch

    cache = ForwardCache(stack=stack, x=x)
    st = cache.steps
    xt = st["xt"] = np.ascontiguousarray(x.transpose(1, 2, 0))
    if arch == "mlp":
        hidden = p["W_h"] @ xt[0]
        hidden += p["b_h"][..., None]
        final = cache.hidden_final = st["hidden"] = _sigmoid(hidden, out=hidden)
        return _output(p, final), cache

    # The input half of every product runs for all steps before the time
    # loop, bias included; each step then adds the recurrent half.
    w_x, bias, w_h = stack._recurrent[0]
    pre = _input_half(w_x, bias, xt)  # LSTM i, f, o, cand; GRU z, r, cand
    hs = st["hs"] = np.empty((t + 1, h, s, b))
    hs[0] = 0.0
    h2, h3 = 2 * h, 3 * h
    if arch == "srnn":
        for k in range(t):
            if k:
                pre[k] += _stack_matmul(w_h, hs[k])
            np.tanh(pre[k], out=hs[k + 1])
    elif arch == "lstm":
        cs = np.empty((t + 1, h, s, b))
        cs[0] = 0.0
        tanh_c = np.empty((t, h, s, b))
        for k in range(t):
            g = pre[k]
            if k:
                g += _stack_matmul(w_h, hs[k])
            _sigmoid(g[:h3], out=g[:h3])
            np.tanh(g[h3:], out=g[h3:])
            cs[k + 1] = g[h:h2] * cs[k] + g[:h] * g[h3:]
            np.tanh(cs[k + 1], out=tanh_c[k])
            np.multiply(g[h2:h3], tanh_c[k], out=hs[k + 1])
        st.update(cs=cs, gates=pre, tanh_c=tanh_c)
    else:  # gru
        rh = np.zeros((t, h, s, b))  # r * h_{t-1}; zero at step 0
        for k in range(t):
            zr, cand = pre[k, :h2], pre[k, h2:]
            if k:
                zr += _stack_matmul(w_h[:, :h2], hs[k])
            _sigmoid(zr, out=zr)
            if k:
                np.multiply(zr[h:], hs[k], out=rh[k])
                cand += _stack_matmul(w_h[:, h2:], rh[k])
            np.tanh(cand, out=cand)
            hs[k + 1] = (1.0 - zr[:h]) * hs[k] + zr[:h] * cand
        st.update(zr=pre[:, :h2], cand=pre[:, h2:], rh=rh)
    final = cache.hidden_final = np.ascontiguousarray(hs[t].transpose(1, 0, 2))  # (S, W, B)
    return _output(p, final), cache


def predict(stack: ModelStack, x) -> np.ndarray:
    """Forward-only predictions (S, n, out) of every model of `stack` for n
    windows: `forward_batch` per chunk of CHUNK samples, the last chunk
    also taking the remainder (up to 2*CHUNK - 1 samples).

    So scoring holds one chunk's forward cache at a time, and its memory
    does not grow with n. Every chunk starts at a multiple of CHUNK, so
    BLAS treats its samples as it treats them in one product over all n,
    and the predictions are those of `forward_batch` on all n bit for bit,
    unless BLAS picks another kernel for that larger product: OpenBLAS
    0.3.31 switches from its small-matrix kernel above 10^6 multiply-adds,
    which can change the last bit of the last n mod 8 predictions.
    """
    x = _as_batch(stack, x)
    n = len(x)
    yhat = np.empty((len(stack), n, stack.spec.output_dim))
    bounds = list(range(0, n, CHUNK))[: max(n // CHUNK, 1)] + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        yhat[:, lo:hi] = forward_batch(stack, x[lo:hi])[0]
    return yhat


def backward(stack: ModelStack, cache: ForwardCache, dl_dyhat) -> dict[str, np.ndarray]:
    """Exact gradients of L w.r.t. every parameter of every model, given
    dL/dyhat of shape (S, B, out).

    Batch contributions are summed, so the caller folds any 1/B averaging
    into the cotangent. The gradients are written into `stack.grad`; the
    returned dict is `stack.grads`, its named views, which the next call
    overwrites.
    """
    if cache.stack is not stack:
        raise ValueError("cache was produced by a different model stack")
    spec = stack.spec
    p = stack.params
    grads = stack.grads
    b, t, _ = cache.x.shape
    s, h = len(stack), spec.hidden

    dy = np.asarray(dl_dyhat, dtype=np.float64)
    if dy.shape != (s, b, spec.output_dim):
        raise ValueError(f"cotangent shape {dy.shape} does not match {(s, b, spec.output_dim)}")
    dy = _t(dy)  # (S, out, B)

    st = cache.steps
    x_cols = _t(st["xt"].transpose(1, 0, 2).reshape(-1, t * b))  # (T*B, d), shared by every model
    np.matmul(dy, _t(cache.hidden_final), out=grads["W_out"])
    if stack._wout_mask is not None:
        grads["W_out"] *= stack._wout_mask
    np.add.reduce(dy, axis=2, out=grads["b_out"])
    dh = _t(p["W_out"]) @ dy  # (S, W, B)

    # Recurrent cells store each step's pre-activation gradients in one
    # (T, G*W, S, B) array, then form each weight gradient with one GEMM
    # per model over its T*B columns: the input weights against every
    # step's input, the recurrent weights against h_1..h_{T-1} only
    # (h_0 = 0). dh of step 0 would flow into the zero initial state and
    # is not computed.
    if spec.arch == "mlp":
        hidden = st["hidden"]
        dpre = dh * hidden * (1.0 - hidden)
        np.matmul(dpre, x_cols, out=grads["W_h"])
        np.add.reduce(dpre, axis=2, out=grads["b_h"])
        return grads

    dh = dh.transpose(1, 0, 2)  # unit-major (W, S, B), as every step array
    hs = st["hs"]
    w_h_t = _t(stack._recurrent[0][2])
    h2, h3 = 2 * h, 3 * h
    dz = np.empty((t, w_h_t.shape[-1], s, b))  # (T, G*W, S, B)
    if spec.arch == "srnn":
        for k in range(t - 1, -1, -1):
            np.multiply(dh, 1.0 - hs[k + 1] ** 2, out=dz[k])
            if k:
                dh = _stack_matmul(w_h_t, dz[k])
    elif spec.arch == "lstm":
        cs, gates, tanh_c = st["cs"], st["gates"], st["tanh_c"]
        dc = np.zeros((h, s, b))
        for k in range(t - 1, -1, -1):
            g = gates[k]
            cand = g[h3:]
            tc = tanh_c[k]
            dzk = dz[k]
            # first the gradients w.r.t. the gate outputs, then through
            # their activations: sigmoid' = s(1-s), tanh' = 1-t^2
            np.multiply(dh, tc, out=dzk[h2:h3])  # o
            dc = dc + dh * g[h2:h3] * (1.0 - tc ** 2)
            np.multiply(dc, cand, out=dzk[:h])  # i
            np.multiply(dc, cs[k], out=dzk[h:h2])  # f
            np.multiply(dc, g[:h], out=dzk[h3:])  # cand
            dc = dc * g[h:h2]  # carried to c_{k-1}
            sig = g[:h3]
            dsig = dzk[:h3]
            dsig *= sig
            dsig *= 1.0 - sig
            dzk[h3:] *= 1.0 - cand ** 2
            if k:
                dh = _stack_matmul(w_h_t, dzk)
    else:  # gru
        zr, cand = st["zr"], st["cand"]
        wzr_h_t, wc_h_t = w_h_t[..., :h2], w_h_t[..., h2:]
        for k in range(t - 1, -1, -1):
            h_prev = hs[k]
            g = zr[k]
            gz = g[:h]
            ck = cand[k]
            dzk = dz[k]
            dzc = dzk[h2:]
            np.multiply(dh * gz, 1.0 - ck ** 2, out=dzc)
            np.multiply(dh, ck - h_prev, out=dzk[:h])  # z
            if k:
                drh = _stack_matmul(wc_h_t, dzc)  # gradient w.r.t. r * h_prev
                np.multiply(drh, h_prev, out=dzk[h:h2])  # r
            else:
                dzk[h:h2] = 0.0  # r acts on h_0 = 0
            dsig = dzk[:h2]
            dsig *= g
            dsig *= 1.0 - g
            if k:
                dh = dh * (1.0 - gz) + drh * g[h:] + _stack_matmul(wzr_h_t, dsig)
    gw_x, gb, gw_h = stack._recurrent[1]
    cols = _columns(dz)
    np.matmul(cols, x_cols, out=gw_x)
    np.add.reduce(cols, axis=2, out=gb)
    h_cols = _t(_columns(hs[1:t]))
    if spec.arch == "gru":  # the candidate's recurrent input is r * h_{t-1}
        np.matmul(cols[:, :h2, b:], h_cols, out=gw_h[:, :h2])
        np.matmul(cols[:, h2:, b:], _t(_columns(st["rh"][1:])), out=gw_h[:, h2:])
    else:
        np.matmul(cols[..., b:], h_cols, out=gw_h)
    return grads
