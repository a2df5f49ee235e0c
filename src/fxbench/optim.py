"""MAE loss with its subgradient, plus one SGD/RMSProp stepper.

`Optimizer` works on parameters and gradients as two float64 arrays of one
shape, updated in place elementwise: typically the (S, n) arrays of a
stack of S models (`stack.flat`, `stack.grad`; see `fxbench.cells`), where
each row steps exactly as it would alone. It owns its RMSProp accumulator, so each model
or stack needs its own instance (never shared across trainers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMIZERS = ("sgd", "rmsprop")

# Widely published values. The learning rates are defaults for when none is
# given; RMSProp's rho and eps are fixed.
SGD_LR = 0.01
RMSPROP_LR = 0.001
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    learning_rate: float

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZERS}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def default_config(kind: str, learning_rate: float | None = None) -> OptimizerConfig:
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}, expected one of {OPTIMIZERS}")
    if learning_rate is None:
        learning_rate = SGD_LR if kind == "sgd" else RMSPROP_LR
    return OptimizerConfig(kind=kind, learning_rate=learning_rate)


def mae_loss(yhat, y) -> float:
    """Mean absolute error sum(|yhat_i - y_i|)/n."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ValueError(f"mae_loss length mismatch: {yhat.shape} vs {y.shape}")
    if yhat.size == 0:
        raise ValueError("mae_loss of empty vectors is undefined")
    return float(np.mean(np.abs(yhat - y)))


def mae_grad(yhat, y) -> np.ndarray:
    """Subgradient of mae_loss w.r.t. yhat: sign(yhat_i - y_i)/n, sign(0) = 0.

    yhat may carry leading axes of stacked models that are each scored
    against the same y; n = y.size, the count one model's loss averages.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim > yhat.ndim or yhat.shape[yhat.ndim - y.ndim :] != y.shape:
        raise ValueError(f"mae_grad length mismatch: {yhat.shape} vs {y.shape}")
    if y.size == 0:
        raise ValueError("mae_grad of empty vectors is undefined")
    return np.sign(yhat - y) / y.size


class Optimizer:
    """In-place stepper over parameter arrays of `shape` (an int for a flat
    vector of that many parameters, or a tuple such as (S, n)).

    SGD:     theta <- theta - lr*g
    RMSProp: s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(s) + eps)
             with rho = RMSPROP_RHO and eps = RMSPROP_EPS

    eps is added after the square root; implementations disagree on this and
    it changes trajectories, so it is pinned here and covered by tests.
    Each step runs the elementwise operations in exactly this order, with
    preallocated temporaries. `acc` is the RMSProp accumulator s (None for
    SGD), starting at zero.
    """

    def __init__(self, shape: int | tuple[int, ...], config: OptimizerConfig):
        self._lr = config.learning_rate
        self._tmp = np.empty(shape)
        self._den = np.empty(shape)
        self.acc = np.zeros(shape) if config.kind == "rmsprop" else None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        tmp = self._tmp
        if theta.shape != tmp.shape or grad.shape != tmp.shape:
            raise ValueError(
                f"optimizer holds {tmp.size} parameters of shape {tmp.shape}, got "
                f"parameter shape {theta.shape} and gradient shape {grad.shape}"
            )
        s = self.acc
        if s is None:
            np.multiply(grad, self._lr, out=tmp)
            theta -= tmp
            return
        s *= RMSPROP_RHO
        np.multiply(grad, 1.0 - RMSPROP_RHO, out=tmp)
        tmp *= grad
        s += tmp
        den = self._den
        np.sqrt(s, out=den)
        den += RMSPROP_EPS
        np.multiply(grad, self._lr, out=tmp)
        tmp /= den
        theta -= tmp
