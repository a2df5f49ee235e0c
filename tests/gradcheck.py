"""Central finite-difference gradient verification shared by the cell tests
and the acceptance suite.

The loss probed is the training loss (mean absolute error). Targets are
offset from the initial predictions by at least 0.5, so no residual can
change sign within the +/-1e-5 finite-difference neighborhood and the
absolute value is smooth everywhere it is evaluated.
"""

import dataclasses

import numpy as np

from fxbench import ModelSpec, ModelStack, NetworkModel, backward, forward_batch, init_model
from fxbench.cells import padded_width, param_shapes
from fxbench.optim import mae_grad, mae_loss

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-7
SMALL = 1e-6


def entry_ok(analytic: float, numeric: float) -> tuple[bool, float]:
    """Tolerance rule: absolute below SMALL, relative otherwise."""
    if abs(analytic) < SMALL:
        err = abs(analytic - numeric)
        return err <= ABS_TOL, err
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
    return err <= REL_TOL, err


def padding_mask(models) -> np.ndarray:
    """True at every entry of the stack of `models`' flat buffer that no
    model owns, i.e. its zero padding."""
    ones = ModelStack(
        NetworkModel(m.spec, {n: np.ones_like(a) for n, a in m.params.items()}, 0) for m in models
    )
    return ones.flat == 0.0


def check_model_gradients(arch: str, hidden: int, window: int, seed: int, batch: int = 3):
    """Compare every analytic partial of one model, run as a stack of one,
    against central differences of its entries of `stack.flat`; then check
    that in a stack of every hidden size of the same padded width the
    model gets the same gradient and every padded entry a zero one.

    Returns the worst error seen; raises AssertionError with the offending
    parameter entry on the first failure.
    """
    spec = ModelSpec(
        arch=arch,
        hidden=hidden,
        input_dim=4,
        output_dim=1,
        window=1 if arch == "mlp" else window,
    )
    stack = ModelStack([init_model(spec, seed)])
    rng = np.random.default_rng(seed ^ 0x5EED)
    x = rng.uniform(-1.0, 1.0, size=(batch, spec.window, spec.input_dim))

    yhat0, cache = forward_batch(stack, x)
    offsets = rng.uniform(0.5, 1.5, size=batch) * rng.choice([-1.0, 1.0], size=batch)
    y = yhat0[0, :, 0] - offsets
    grads = backward(stack, cache, mae_grad(yhat0, y[:, None]))

    def loss() -> float:
        out, _ = forward_batch(stack, x)
        return mae_loss(out[0, :, 0], y)

    worst = 0.0
    for name, shape in param_shapes(spec).items():
        block = (0, *map(slice, shape))  # the model's own entries, not its padding
        p = stack.params[name][block]
        g = grads[name][block]
        for idx in np.ndindex(shape):
            saved = p[idx]
            p[idx] = saved + FD_STEP
            lp = loss()
            p[idx] = saved - FD_STEP
            lm = loss()
            p[idx] = saved
            numeric = (lp - lm) / (2.0 * FD_STEP)
            analytic = g[idx]
            ok, err = entry_ok(analytic, numeric)
            worst = max(worst, err)
            assert ok, (
                f"gradient mismatch {arch} h={hidden} w={window} seed={seed} "
                f"{name}{list(idx)}: analytic={analytic!r} numeric={numeric!r} err={err:.3g}"
            )

    width = padded_width(hidden)
    models = [
        init_model(dataclasses.replace(spec, hidden=h), seed)
        for h in range(width - 7, width + 1)  # every hidden size of this padded width
    ]
    mixed = ModelStack(models)
    yhat, cache = forward_batch(mixed, x)
    backward(mixed, cache, mae_grad(yhat, y[:, None]))
    padded = padding_mask(models)
    assert padded.any() and np.all(mixed.grad[padded] == 0.0), (
        f"nonzero gradient of a padded entry {arch} h={hidden} w={window} seed={seed}"
    )
    assert np.array_equal(mixed.grad[hidden - width + 7], stack.grad[0]), (
        f"{arch} h={hidden} gets another gradient in a mixed-width stack"
    )
    return worst
