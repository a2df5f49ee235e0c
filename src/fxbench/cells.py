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
its (T, G*W, S, B) result through a transposed `out=` view, and each
step's recurrent product reads and writes each model's (n, B) block of a
unit-major array, with a row stride of S*B, through transposed views.
Two rules keep the bits those of the model-major layout the results
were first produced with. The output layer reads a contiguous (S, W, B)
copy of the final state: at B = 1 numpy runs that product as a
matrix-vector one, which on a state strided across the models can
change the last bit, so a model's prediction would depend on its stack.
The weight-gradient products read the inputs and the hidden states as
transposed views of their (n, T*B) columns, not as contiguous copies,
which change gradient bits.
The MLP keeps its one (S, W, B) block.

`forward_batch` is the one forward kernel. It runs the input half of
every step before the time loop (Appleyard et al. 2016) and keeps every
per-step array for `backward`, which overwrites `stack.grad` on every
call and returns its named views (valid until the next call). `predict`,
for scoring, runs `forward_batch` on one chunk of samples at a time, so
it holds one chunk's step arrays and its memory does not grow with the
number of samples. Its predictions are those of `forward_batch` on all
samples bit for bit; the one caveat (see `predict`) concerns only such a
whole-split `forward_batch`, which nothing in the product calls.

The step arrays belong to the stack. It keeps one set of them
(`_Steps`), for the batch size it last ran, with the views of them that
the time loops read, and both kernels write every op and product into
that set through `out=`, so a call allocates no per-step array. A batch
of another size replaces the set, the old one freed first: training
does so twice per epoch (the tail batch and back), scoring once or
twice per split. `forward_batch` returns a fresh yhat and a cache of the
set's arrays, which the next `forward_batch` of the stack overwrites: a
cache is valid until then, `backward` can run on it any number of times,
and `backward` refuses it after. Backward's arrays are made by its first
call at a size, so a stack that only scores never holds them. A
`forward_batch` call enters np.errstate once, for every sigmoid it runs.

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

sig is the logistic function 1/(1+e^-z) (`_logistic`), which saturates to
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
import weakref
from dataclasses import KW_ONLY, dataclass, field
from typing import ClassVar

import numpy as np

from ._pcg import PCG64
from .data import FEATURE_NAMES, _is_int, _quoted

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


def _logistic(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Elementwise logistic 1/(1+e^-z) of the array z into `out` (which may
    be z itself), for a caller that has entered np.errstate(over="ignore"):
    exp overflow for z << 0 still yields the correct limit (0.0), so the
    warning is silenced, and huge |z| saturates to exactly 0 or 1."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def arch_id(arch: str) -> int:
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {_quoted(arch)}, expected one of {ARCHS}")
    return ARCHS.index(arch)


def padded_width(hidden: int) -> int:
    """The canonical width a model of `hidden` units is padded to in a stack:
    the next multiple of PAD_MULTIPLE at or above `hidden`. Fixed per hidden
    size, so the padding (and with it every product's bits) never depends
    on which other models share the stack."""
    return -(-hidden // PAD_MULTIPLE) * PAD_MULTIPLE


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus hidden size; `window`, keyword-only, is the sequence
    length per sample. Every model maps the four daily prices to one next-day
    close, so `input_dim` and `output_dim` are constants, not fields.

    Building one refuses an `arch` not in ARCHS, a `hidden` or `window`
    that is not an int of at least 1 (a bool or numpy int too) and an mlp
    `window` other than 1, each with one message naming the field. It is
    the one rule for a trial: the sweep plan, stacks and report rows use it."""

    input_dim: ClassVar[int] = len(FEATURE_NAMES)
    output_dim: ClassVar[int] = 1

    arch: str
    hidden: int
    _: KW_ONLY
    window: int = 1

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"field 'arch' must be one of {ARCHS}, got {_quoted(self.arch)}")
        for name in ("hidden", "window"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 1):
                raise ValueError(f"field {name!r} must be a positive integer, got {_quoted(v)}")
        if self.arch == "mlp" and self.window != 1:
            raise ValueError(f"field 'window' must be 1 for arch 'mlp', got {_quoted(self.window)}")

    @property
    def structure(self) -> str:
        """Neuron counts as 'input-hidden-output', e.g. '4-5-1'."""
        return f"{self.input_dim}-{self.hidden}-{self.output_dim}"

    @property
    def padded(self) -> ModelSpec:
        """This spec at `padded_width(hidden)`; models with equal ones stack."""
        return dataclasses.replace(self, hidden=padded_width(self.hidden))


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
    given. Building one refuses a missing or unknown array, an array of
    another shape, and an `rng_seed` or `epochs_trained` that is not an
    int of at least 0, each with one message naming the array or field."""

    spec: ModelSpec
    params: dict[str, np.ndarray]
    rng_seed: int
    epochs_trained: int = 0

    def __post_init__(self):
        for name in ("rng_seed", "epochs_trained"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 0):
                raise ValueError(
                    f"field {name!r} must be an integer of at least 0, got {_quoted(v)}"
                )
        shapes = param_shapes(self.spec)
        odd = sorted(shapes.keys() ^ self.params.keys())
        if odd:
            what = "is missing" if odd[0] in shapes else f"is unknown to {self.spec.arch}"
            raise ValueError(f"parameter {_quoted(odd[0])} {what}")
        for name, shape in shapes.items():
            if np.shape(self.params[name]) != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {_quoted(np.shape(self.params[name]))}, "
                    f"expected {_quoted(shape)} for hidden {_quoted(self.spec.hidden)}"
                )
        self.params = {name: np.array(self.params[name], dtype=np.float64) for name in shapes}


class ModelStack:
    """S models of one architecture and window whose hidden sizes pad to
    the same `padded_width`: models whose `ModelSpec.padded` are equal.

    `spec` is that padded spec (hidden = the width); `flat` and
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
        self.spec = first.padded
        for model in self.models:
            if model.spec.padded != self.spec:
                raise ValueError(
                    f"cannot stack {model.spec} with {first}: stacked models share "
                    "architecture, window and padded width"
                )
        size = sum(math.prod(shape) for shape in param_shapes(self.spec).values())
        self.flat = np.zeros((len(self.models), size))
        self.grad = np.zeros_like(self.flat)
        self.params = _views(self.flat, self.spec)
        self.grads = _views(self.grad, self.spec)
        self._recurrent = self._wout_mask = self._steps = None  # _steps: see _Steps
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
    `param_shapes` order from one PCG64 stream seeded with `seed`, the
    values numpy's `default_rng(seed).uniform` gives (see `_pcg`).
    """
    rng = PCG64(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if len(shape) == 2:
            fan_out, fan_in = shape
            r = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-r, r, shape)
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

    The arrays belong to the stack, which writes them again on its next
    `forward_batch`: a cache is valid until then, and `backward` refuses
    it after.
    """

    stack: ModelStack
    x: np.ndarray  # (B, T, d), shared by every model of the stack
    steps: dict[str, np.ndarray] = field(default_factory=dict)
    hidden_final: np.ndarray | None = None  # (S, W, B)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (a view)."""
    return a.swapaxes(-1, -2)


def _gather(src: np.ndarray, shape: tuple, copies: list) -> np.ndarray:
    """`src.reshape(shape)`, made once: a view of src where numpy gives
    one, else an array that `(view of it, src)` in `copies` refills."""
    out = src.reshape(shape)
    if not np.may_share_memory(out, src):
        copies.append((out.reshape(src.shape), src))
    return out


class _Steps:
    """The arrays a stack's kernels write at one batch size `b`, and the
    views of them and of the stack's weights that the kernels read, all
    made once and written again by every call at that size.

    `steps` and `final` are the arrays a ForwardCache hands out, and
    `cache` weakly refers to the cache they belong to, the last one
    handed out. Backward's arrays are made by the first `backward`
    (`add_backward`), so a stack that only scores never holds them. The
    set keeps no reference to its stack, so the two are freed together.
    """

    def __init__(self, stack: ModelStack, b: int):
        spec = stack.spec
        s, h, t = len(stack), spec.hidden, spec.window
        self.b, self.cache, self.products = b, None, None  # products: see add_backward
        self.xt = np.empty((t, spec.input_dim, b))
        self.final = np.empty((s, h, b))
        self.steps = {"xt": self.xt}
        if spec.arch == "mlp":
            self.steps["hidden"] = self.final
            return
        w_x, bias, w_h = stack._recurrent[0]
        rows = w_h.shape[1]  # G*W
        h2, h3 = 2 * h, 3 * h
        self.w_x, self.bias, self.w_h = w_x[:, None], bias.T[:, :, None], w_h
        pre = self.pre = np.empty((t, rows, s, b))  # LSTM i, f, o, cand; GRU z, r, cand
        self.pre_out = pre.transpose(2, 0, 1, 3)  # the input half's product writes here
        hs = np.zeros((t + 1, h, s, b))  # hs[0] = 0 is never written
        hs_t = hs.transpose(0, 2, 1, 3)  # each state as a product operand, (S, W, B)
        self.last_t = hs_t[t]
        self.prod = np.empty((rows, s, b))  # the bias, then each recurrent product; scratch
        self.prod_t = self.prod.transpose(1, 0, 2)
        self.tmp = np.empty((h, s, b))
        self.steps["hs"] = hs
        if spec.arch == "srnn":
            self.loop = list(zip(pre, hs_t, hs[1:]))
        elif spec.arch == "lstm":
            cs = np.zeros((t + 1, h, s, b))
            tanh_c = np.empty((t, h, s, b))
            self.loop = list(zip(
                pre, pre[:, :h3], pre[:, h3:], pre[:, :h], pre[:, h:h2], pre[:, h2:h3],
                cs, cs[1:], tanh_c, hs_t, hs[1:],
            ))
            self.steps.update(cs=cs, gates=pre, tanh_c=tanh_c)
        else:  # gru
            rh = np.zeros((t, h, s, b))  # r * h_{t-1}; rh[0] = 0 is never written
            self.w_zr, self.w_c = w_h[:, :h2], w_h[:, h2:]
            self.prod_zr, self.prod_c = self.prod[:h2], self.prod[h2:]
            self.prod_zr_t, self.prod_c_t = self.prod_t[:, :h2], self.prod_t[:, h2:]
            self.loop = list(zip(
                pre[:, :h2], pre[:, :h], pre[:, h:h2], pre[:, h2:],
                hs, hs_t, hs[1:], rh, rh.transpose(0, 2, 1, 3),
            ))
            self.steps.update(zr=pre[:, :h2], cand=pre[:, h2:], rh=rh)

    def add_backward(self, stack: ModelStack) -> None:
        """Make backward's arrays and views, `products` last.

        Recurrent cells store each step's pre-activation gradients in one
        (T, G*W, S, B) array `dz`, then form each weight gradient with one
        GEMM per model over its T*B columns (`cols`): the input weights
        against every step's input, the recurrent weights against
        h_1..h_{T-1} only (h_0 = 0). The MLP's columns are its (S, W, B)
        pre-activation gradients."""
        spec, grads = stack.spec, stack.grads
        s, h, t, b = len(stack), spec.hidden, spec.window, self.b
        h2, h3 = 2 * h, 3 * h
        self.w_out_t = _t(stack.params["W_out"])
        self.dh_out = np.empty((s, h, b))  # dL/dh_T as the output layer gives it
        self.copies = []
        x_cols = _t(_gather(self.xt.transpose(1, 0, 2), (-1, t * b), self.copies))  # (T*B, d)
        if spec.arch == "mlp":
            self.tmp = np.empty((s, h, b))
            self.cols, self.bias_grad = self.dh_out, grads["b_h"]
            self.products = [(self.dh_out, x_cols, grads["W_h"])]
            return
        hs, pre, (gw_x, gb, gw_h) = self.steps["hs"], self.pre, stack._recurrent[1]
        w_h_t = self.w_h_t = _t(self.w_h)
        rows = w_h_t.shape[-1]
        dz = np.empty((t, rows, s, b))
        dz_t = dz.transpose(0, 2, 1, 3)
        self.dh_first = self.dh_out.transpose(1, 0, 2)  # unit-major, as every step array
        self.dh = np.empty((h, s, b))
        self.dh_t = self.dh.transpose(1, 0, 2)
        self.cols = _gather(dz.transpose(2, 1, 0, 3), (s, rows, t * b), self.copies)
        self.bias_grad = gb
        h_cols = _t(_gather(hs[1:t].transpose(2, 1, 0, 3), (s, h, (t - 1) * b), self.copies))
        products = [(self.cols, x_cols, gw_x), (self.cols[..., b:], h_cols, gw_h)]
        if spec.arch == "srnn":
            self.back = list(zip(dz, dz_t, hs[1:]))
        elif spec.arch == "lstm":
            self.dc = np.empty((h, s, b))
            self.tmp2 = np.empty((h, s, b))
            self.sig_tmp = self.prod[:h3]
            self.back = list(zip(
                dz_t, dz[:, :h3], dz[:, :h], dz[:, h:h2], dz[:, h2:h3], dz[:, h3:],
                pre[:, :h3], pre[:, :h], pre[:, h:h2], pre[:, h2:h3], pre[:, h3:],
                self.steps["cs"], self.steps["tanh_c"],
            ))
        else:  # gru; the candidate's recurrent input is r * h_{t-1}
            self.w_zr_t, self.w_c_t = w_h_t[..., :h2], w_h_t[..., h2:]
            self.drh = np.empty((h, s, b))  # gradient w.r.t. r * h_{t-1}
            self.drh_t = self.drh.transpose(1, 0, 2)
            self.zr_tmp = self.prod[:h2]
            self.back = list(zip(
                dz[:, :h2], dz[:, :h], dz[:, h:h2], dz[:, h2:], dz_t[:, :, :h2], dz_t[:, :, h2:],
                pre[:, :h2], pre[:, :h], pre[:, h:h2], pre[:, h2:], hs,
            ))
            rh = self.steps["rh"][1:].transpose(2, 1, 0, 3)
            rh_cols = _t(_gather(rh, (s, h, (t - 1) * b), self.copies))
            products[1:] = [
                (self.cols[:, :h2, b:], h_cols, gw_h[:, :h2]),
                (self.cols[:, h2:, b:], rh_cols, gw_h[:, h2:]),
            ]
        self.products = products


def _as_batch(stack: ModelStack, x) -> np.ndarray:
    if not isinstance(stack, ModelStack):
        raise TypeError(f"expected a ModelStack, got {type(stack).__name__}")
    spec = stack.spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"batched input must be (batch, window, input_dim), got shape {x.shape}")
    b, t, d = x.shape
    if not b:
        raise ValueError(f"batched input must hold at least one sample, got shape {x.shape}")
    if t != spec.window:
        raise ValueError(f"window length mismatch: model expects {spec.window}, got {t}")
    if d != spec.input_dim:
        raise ValueError(f"input_dim mismatch: model expects {spec.input_dim}, got {d}")
    return x


def _output(p: dict, final: np.ndarray) -> np.ndarray:
    """yhat (S, B, out) from the final hidden state (S, W, B)."""
    return _t(p["W_out"] @ final + p["b_out"][..., None])


def forward_batch(stack: ModelStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through every model of `stack` from a zero
    initial state; returns (yhat (S, B, out), the cache for `backward`).

    yhat is a fresh array; the cache's arrays are the stack's, valid until
    its next `forward_batch`."""
    x = _as_batch(stack, x)
    if stack._steps is None or stack._steps.b != len(x):
        stack._steps = None  # the old set is freed before the new one is made
        stack._steps = _Steps(stack, len(x))
    buf = stack._steps
    cache = ForwardCache(stack=stack, x=x, steps=buf.steps, hidden_final=buf.final)
    buf.cache = weakref.ref(cache)
    p, arch = stack.params, stack.spec.arch
    np.copyto(buf.xt, x.transpose(1, 2, 0))
    with np.errstate(over="ignore"):  # see _logistic
        if arch == "mlp":
            hidden = np.matmul(p["W_h"], buf.xt[0], out=buf.final)
            hidden += p["b_h"][..., None]
            _logistic(hidden, hidden)
            return _output(p, hidden), cache
        # The input half of every product runs for all steps before the
        # time loop, bias included; each step then adds the recurrent half.
        prod, tmp = buf.prod, buf.tmp
        np.matmul(buf.w_x, buf.xt, out=buf.pre_out)
        np.copyto(prod, buf.bias)  # a contiguous block adds in half the time of a broadcast view
        buf.pre += prod
        if arch == "srnn":
            for k, (pre, h_prev_t, h_next) in enumerate(buf.loop):
                if k:
                    np.matmul(buf.w_h, h_prev_t, out=buf.prod_t)
                    pre += prod
                np.tanh(pre, out=h_next)
        elif arch == "lstm":
            for k, step in enumerate(buf.loop):
                g, ifo, cand, i, f, o, c_prev, c, tanh_c, h_prev_t, h_next = step
                if k:
                    np.matmul(buf.w_h, h_prev_t, out=buf.prod_t)
                    g += prod
                _logistic(ifo, ifo)
                np.tanh(cand, out=cand)
                np.multiply(f, c_prev, out=c)
                np.multiply(i, cand, out=tmp)
                c += tmp
                np.tanh(c, out=tanh_c)
                np.multiply(o, tanh_c, out=h_next)
        else:  # gru
            for k, (zr, z, r, cand, h_prev, h_prev_t, h_next, rh, rh_t) in enumerate(buf.loop):
                if k:
                    np.matmul(buf.w_zr, h_prev_t, out=buf.prod_zr_t)
                    zr += buf.prod_zr
                _logistic(zr, zr)
                if k:
                    np.multiply(r, h_prev, out=rh)
                    np.matmul(buf.w_c, rh_t, out=buf.prod_c_t)
                    cand += buf.prod_c
                np.tanh(cand, out=cand)
                np.subtract(1.0, z, out=h_next)  # (1 - z) * h_{t-1} + z * cand
                h_next *= h_prev
                np.multiply(z, cand, out=tmp)
                h_next += tmp
    np.copyto(buf.final, buf.last_t)  # contiguous (S, W, B)
    return _output(p, buf.final), cache


def predict(stack: ModelStack, x) -> np.ndarray:
    """Forward-only predictions (S, n, out) of every model of `stack` for n
    windows: `forward_batch` per chunk of CHUNK samples, the last chunk
    also taking the remainder (up to 2*CHUNK - 1 samples).

    So scoring holds one chunk's step arrays at a time, and its memory
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
    overwrites. A cache can be run again until the next `forward_batch`
    of its stack, which makes it stale.
    """
    if cache.stack is not stack:
        raise ValueError("cache was produced by a different model stack")
    buf = stack._steps
    if buf is None or buf.cache() is not cache:
        raise ValueError("cache is stale: a later forward_batch of its stack overwrote it")
    spec, grads = stack.spec, stack.grads
    s, b = len(stack), buf.b
    dy = np.asarray(dl_dyhat, dtype=np.float64)
    if dy.shape != (s, b, spec.output_dim):
        raise ValueError(f"cotangent shape {dy.shape} does not match {(s, b, spec.output_dim)}")
    dy = _t(dy)  # (S, out, B)
    if buf.products is None:
        buf.add_backward(stack)

    np.matmul(dy, _t(buf.final), out=grads["W_out"])
    if stack._wout_mask is not None:
        grads["W_out"] *= stack._wout_mask
    np.add.reduce(dy, axis=2, out=grads["b_out"])
    dh = np.matmul(buf.w_out_t, dy, out=buf.dh_out)  # (S, W, B)

    # dh of step 0 would flow into the zero initial state and is not computed.
    arch, tmp = spec.arch, buf.tmp
    if arch == "mlp":
        hidden = buf.final  # the pre-activation gradient dh * s * (1 - s)
        dh *= hidden
        np.subtract(1.0, hidden, out=tmp)
        dh *= tmp
    elif arch == "srnn":
        dh = buf.dh_first
        for k in range(spec.window - 1, -1, -1):
            dz, dz_t, h_next = buf.back[k]
            np.square(h_next, out=tmp)  # tanh' = 1 - t^2
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dh, tmp, out=dz)
            if k:
                np.matmul(buf.w_h_t, dz_t, out=buf.dh_t)
                dh = buf.dh
    elif arch == "lstm":
        dh, dc, tmp2, sig_tmp = buf.dh_first, buf.dc, buf.tmp2, buf.sig_tmp
        dc.fill(0.0)
        for k in range(spec.window - 1, -1, -1):
            dz_t, dsig, dz_i, dz_f, dz_o, dz_c, sig, i, f, o, cand, c_prev, tanh_c = buf.back[k]
            # first the gradients w.r.t. the gate outputs, then through
            # their activations: sigmoid' = s(1-s), tanh' = 1-t^2
            np.multiply(dh, tanh_c, out=dz_o)
            np.multiply(dh, o, out=tmp)  # dc += dh * o * (1 - tanh_c^2)
            np.square(tanh_c, out=tmp2)
            np.subtract(1.0, tmp2, out=tmp2)
            tmp *= tmp2
            dc += tmp
            np.multiply(dc, cand, out=dz_i)
            np.multiply(dc, c_prev, out=dz_f)
            np.multiply(dc, i, out=dz_c)
            dc *= f  # carried to c_{k-1}
            dsig *= sig
            np.subtract(1.0, sig, out=sig_tmp)
            dsig *= sig_tmp
            np.square(cand, out=tmp2)
            np.subtract(1.0, tmp2, out=tmp2)
            dz_c *= tmp2
            if k:
                np.matmul(buf.w_h_t, dz_t, out=buf.dh_t)
                dh = buf.dh
    else:  # gru
        dh, drh, zr_tmp = buf.dh_first, buf.drh, buf.zr_tmp
        for k in range(spec.window - 1, -1, -1):
            dz_zr, dz_z, dz_r, dz_c, dz_zr_t, dz_c_t, zr, z, r, cand, h_prev = buf.back[k]
            np.multiply(dh, z, out=tmp)  # dz_c = dh * z * (1 - cand^2)
            np.square(cand, out=dz_c)
            np.subtract(1.0, dz_c, out=dz_c)
            np.multiply(tmp, dz_c, out=dz_c)
            np.subtract(cand, h_prev, out=dz_z)
            np.multiply(dh, dz_z, out=dz_z)
            if k:
                np.matmul(buf.w_c_t, dz_c_t, out=buf.drh_t)
                np.multiply(drh, h_prev, out=dz_r)
            else:
                dz_r[...] = 0.0  # r acts on h_0 = 0
            dz_zr *= zr
            np.subtract(1.0, zr, out=zr_tmp)
            dz_zr *= zr_tmp
            if k:  # dh = dh * (1 - z) + drh * r + W_zr^T dz_zr
                np.subtract(1.0, z, out=tmp)
                np.multiply(dh, tmp, out=tmp)
                drh *= r
                tmp += drh
                np.matmul(buf.w_zr_t, dz_zr_t, out=buf.dh_t)
                dh = np.add(tmp, buf.dh, out=buf.dh)
    for dst, src in buf.copies:
        np.copyto(dst, src)
    for cols, inputs, out in buf.products:
        np.matmul(cols, inputs, out=out)
    np.add.reduce(buf.cols, axis=2, out=buf.bias_grad)
    return grads
