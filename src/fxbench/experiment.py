"""Training loop, denormalized evaluation, the arch x hidden-size sweep,
best-model selection and the persistence baseline.

A run's training settings are one `TrainConfig`. Every dataset is
scaled and carries its NormParams (`dataset.norm`); evaluation and the
baseline denormalize with them, and training refuses a validation split
scaled by another fit.

A sweep is a plan and one unit of work. The plan puts the hidden sizes
of one architecture that pad to the same width (`cells.padded_width`) in
one stack. The unit, `_run_stack`, trains a stack's models in lockstep,
one stacked forward, backward and optimizer step per batch for all of
them, then scores the models that did not diverge once per split; the
train command runs it on a stack of one. `train` and `evaluate` take a
ModelStack only and return one entry per model, so a divergence is a
returned value; `evaluate` scores a split in one forward-only pass.

Everything here is deterministic given (data, config, seeds): batches run in
chronological order, per-trial seeds are a stated function of (base seed,
arch, hidden), and a trial's arithmetic depends on its own hidden size only,
never on the trials stacked with it, so a sweep report is reproducible byte
for byte and any single trial reproduces its sweep row in isolation.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .cells import (
    ModelSpec,
    ModelStack,
    NetworkModel,
    arch_id,
    backward,
    forward_batch,
    init_model,
    padded_width,
    predict,
)
from .data import SplitDataset, SupervisedDataset, denormalize
from .optim import DEFAULT_LR, OPTIMIZERS, Optimizer, mae_grad, mae_loss

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1

CRITERIA = ("test_mae", "val_mae")  # what select_best can rank trials by
DEFAULT_PAIR = "UNKNOWN"  # a sweep report's pair label when none is given


def splitmix64(z: int) -> int:
    """One SplitMix64 scramble step; the standard 64-bit finalizer."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, arch: str, hidden: int) -> int:
    """Per-trial seed: splitmix64 chain over (base, arch index, hidden).

    Independent of sweep execution order, so any single trial can be
    reproduced in isolation.
    """
    s = splitmix64(base_seed & _MASK64)
    s = splitmix64(s ^ arch_id(arch))
    return splitmix64(s ^ hidden)


def trial_model(arch: str, hidden: int, window: int, base_seed: int) -> NetworkModel:
    """The freshly initialized model of one sweep trial.

    mlp has no recurrence, so it always runs at window 1. The sweep, the
    train command and any retrain of a sweep winner build trials here, so a
    single trial reproduces its sweep row exactly.
    """
    spec = ModelSpec(arch=arch, hidden=hidden, window=1 if arch == "mlp" else window)
    return init_model(spec, trial_seed(base_seed, arch, hidden))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the weights stop being finite."""

    def __init__(self, epoch: int, loss: float):
        if math.isfinite(loss):
            what = f"non-finite weights (training loss {loss})"
        else:
            what = f"non-finite training loss {loss}"
        super().__init__(f"{what} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class TrainConfig:
    """A run's training settings, checked once; a `learning_rate` of None
    becomes the optimizer's rate in `optim.DEFAULT_LR`."""

    optimizer: str = "rmsprop"
    learning_rate: float | None = None
    epochs: int = 1500
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate", DEFAULT_LR[self.optimizer])
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", -math.inf)):
            value = getattr(self, name)  # an int, not a bool; trial_seed masks any seed
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                kind = "a positive integer" if least == 1 else "an integer"
                raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass
class EvalResult:
    mae: float  # denormalized (original currency units)
    dates: tuple[dt.date, ...]  # one per prediction
    actual: np.ndarray  # denormalized targets
    predicted: np.ndarray  # denormalized predictions


@dataclass(frozen=True)
class TrialResult:
    pair: str
    arch: str
    structure: str
    hidden: int
    train_mae: float
    val_mae: float
    test_mae: float
    seed: int
    wall_time_s: float


@dataclass
class BestSelection:
    per_arch: dict[str, TrialResult]
    overall: TrialResult


def _windowed(dataset: SupervisedDataset, window: int):
    """Consecutive lag vectors as (n-w+1, w, 4) windows, a read-only view
    of the features.

    Window k covers samples k..k+w-1 and predicts the target of its last
    sample; the first w-1 samples have no full history and are dropped.
    """
    n = len(dataset)
    if n < window:
        raise ValueError(f"dataset has {n} samples, fewer than window={window}")
    x = np.lib.stride_tricks.sliding_window_view(dataset.features, window, axis=0)
    return x.transpose(0, 2, 1), dataset.targets[window - 1 :], dataset.dates[window - 1 :]


def _check_window(data: SplitDataset, window: int) -> None:
    """Refuse, before any training, a split too short for one window."""
    for name, split in zip(SplitDataset._fields, data):
        if len(split) < window:
            raise ValueError(f"{name} split has {len(split)} samples, fewer than window={window}")


def train(
    stack: ModelStack,
    train_set: SupervisedDataset,
    val_set: SupervisedDataset | None,
    config: TrainConfig,
) -> list:
    """Mini-batch MAE training of every model of `stack` in place, in
    lockstep, for exactly config.epochs epochs.

    Batches run in chronological order, the same every epoch; gradients are
    averaged within each batch, and each batch takes one stacked forward,
    backward and optimizer step for all the models. A model diverges at the
    first epoch whose loss, or whose weights after it, are not finite;
    numpy's overflow and invalid-value warnings are silenced in the loop
    because that check is what reports them. The other models go on (a
    diverged model's slice never reaches theirs), and training ends early
    once every model has diverged. Trained weights are stored back into
    the models.

    Returns one entry per model: its per-epoch training MAE on the
    normalized scale, or its TrainingDiverged. Divergence is returned,
    never raised; a single model trains as a stack of one.
    """
    if not isinstance(stack, ModelStack):
        raise TypeError(f"expected a ModelStack, got {type(stack).__name__}")
    spec = stack.spec
    if val_set is not None and val_set.norm != train_set.norm:
        raise ValueError("validation dataset was normalized with different NormParams")

    x, targets, _ = _windowed(train_set, spec.window)
    n = len(targets)
    y = targets[:, None]  # (n, 1) to match one model's yhat
    opt = Optimizer(stack.flat.shape, config)

    results: list = [[] for _ in stack.models]  # loss lists, then TrainingDiverged
    running = np.ones(len(stack), dtype=bool)
    n_batches = (n + config.batch_size - 1) // config.batch_size
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            abs_err = np.zeros(len(stack))
            for b in range(n_batches):
                lo = b * config.batch_size
                hi = min(lo + config.batch_size, n)
                yhat, cache = forward_batch(stack, x[lo:hi])
                y_batch = y[lo:hi]
                abs_err += np.abs(yhat - y_batch).sum(axis=(1, 2))
                # batch loss is the mean |err| over the batch entries, so the
                # cotangent carries the 1/(batch*out) factor
                backward(stack, cache, mae_grad(yhat, y_batch))
                opt.step(stack.flat, stack.grad)
            epoch_loss = abs_err / (n * spec.output_dim)
            finite = np.isfinite(epoch_loss) & np.isfinite(stack.flat).all(axis=1)
            for k in np.flatnonzero(running & ~finite):
                results[k] = TrainingDiverged(epoch, float(epoch_loss[k]))
            running &= finite
            if not running.any():
                break
            for k in np.flatnonzero(running):
                results[k].append(float(epoch_loss[k]))
            if val_set is not None and log.isEnabledFor(logging.DEBUG):
                every = max(1, config.epochs // 10)
                if (epoch + 1) % every == 0 or epoch == config.epochs - 1:
                    stack.store()
                    ks = np.flatnonzero(running)
                    scores = evaluate(ModelStack(stack.models[k] for k in ks), val_set)
                    scale = val_set.norm.target_max - val_set.norm.target_min
                    for k, score in zip(ks, scores):
                        model = stack.models[k]
                        log.debug(
                            "%s h=%d epoch %d/%d train_mae_norm=%.6g val_mae_norm=%.6g",
                            model.spec.arch, model.spec.hidden, epoch + 1, config.epochs,
                            epoch_loss[k], score.mae / scale,
                        )
    stack.store()
    for k in np.flatnonzero(running):
        stack.models[k].epochs_trained += config.epochs
    return results


def evaluate(stack: ModelStack, dataset: SupervisedDataset) -> list[EvalResult]:
    """One EvalResult per model of `stack`: its predictions of every sample
    and the targets, denormalized with the dataset's NormParams, and its
    MAE in original currency units.

    One forward-only pass (`cells.predict`) scores the whole stack. A
    model's predictions depend on its own weights only, so it scores the
    same in any stack as in a stack of one.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    norm = dataset.norm
    x, targets, dates = _windowed(dataset, stack.spec.window)
    actual = denormalize(targets, norm.target_min, norm.target_max)
    results = []
    for pred_norm in predict(stack, x)[:, :, 0]:
        predicted = denormalize(pred_norm, norm.target_min, norm.target_max)
        results.append(
            EvalResult(
                mae=mae_loss(predicted, actual),
                dates=dates,
                actual=actual,
                predicted=predicted,
            )
        )
    return results


def persistence_baseline(dataset: SupervisedDataset) -> float:
    """Denormalized MAE of the naive forecast 'today's close = yesterday's close'.

    Computed in original units (the dataset's NormParams undo its
    scaling), so the result does not depend on which NormParams were
    fitted.
    """
    if len(dataset) == 0:
        raise ValueError("cannot compute a baseline on an empty dataset")
    norm = dataset.norm
    close = denormalize(dataset.features[:, 3], norm.feature_min[3], norm.feature_max[3])
    target = denormalize(dataset.targets, norm.target_min, norm.target_max)
    return float(np.mean(np.abs(close - target)))


def _run_stack(models: list[NetworkModel], data: SplitDataset, config: TrainConfig):
    """A sweep's unit of work: train fresh `models` as one ModelStack and
    score each model that did not diverge on every split. Returns each
    model's outcome (its loss list or its TrainingDiverged), its (train,
    val, test) MAEs (NaN if it diverged) and the stack's seconds in all."""
    t0 = time.perf_counter()
    outcomes = train(ModelStack(models), data.train, data.validation, config)
    ok = [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, TrainingDiverged)]
    maes = [(math.nan,) * 3] * len(models)
    if ok:
        trained = ModelStack(models[k] for k in ok)
        for k, per_split in zip(ok, zip(*(evaluate(trained, split) for split in data))):
            maes[k] = tuple(r.mae for r in per_split)
    return outcomes, maes, time.perf_counter() - t0


def run_sweep(
    archs,
    hidden_range,
    data: SplitDataset,
    config: TrainConfig,
    pair: str = DEFAULT_PAIR,
    window: int = ModelSpec.window,
    measure_time: bool = False,
) -> list[TrialResult]:
    """Train one model per grid point; return the TrialResults in (arch, hidden) order.

    First the plan: one stack of fresh models per architecture and padded
    width, in report order, every model built before any training, and a
    split too short for the longest window among them refused then. Then
    one `_run_stack` per stack, which depends on no other stack, so the
    rows do not depend on the order the stacks run in. A diverging trial
    is recorded with NaN errors, is left out of the scoring and affects
    neither the sweep nor its stack. wall_time_s is 0.0 unless
    measure_time is set; then each trial records the seconds of its whole
    stack (training plus scoring). Measured times differ between runs and
    would break byte-identical reports.
    """
    archs = tuple(sorted(set(archs), key=arch_id))
    if not archs:
        raise ValueError("no architectures requested")
    hiddens = tuple(sorted(set(int(h) for h in hidden_range)))
    if not hiddens:
        raise ValueError("hidden_range is empty")
    if any(h < 1 for h in hiddens):
        raise ValueError(f"hidden sizes must be >= 1, got {hiddens}")

    # one stack per (arch, width); widths ascend and padded_width grows with
    # hidden, so rows come in (arch, hidden) order
    widths = sorted({padded_width(h) for h in hiddens})
    stacks = [
        [trial_model(arch, h, window, config.seed) for h in hiddens if padded_width(h) == width]
        for arch in archs
        for width in widths
    ]
    _check_window(data, max(models[0].spec.window for models in stacks))

    trials: list[TrialResult] = []
    for models in stacks:
        outcomes, maes, seconds = _run_stack(models, data, config)
        for model, outcome, (train_mae, val_mae, test_mae) in zip(models, outcomes, maes):
            spec = model.spec
            if isinstance(outcome, TrainingDiverged):
                log.warning("trial %s h=%d diverged: %s", spec.arch, spec.hidden, outcome)
            trials.append(
                TrialResult(
                    pair=pair,
                    arch=spec.arch,
                    structure=spec.structure,
                    hidden=spec.hidden,
                    train_mae=train_mae,
                    val_mae=val_mae,
                    test_mae=test_mae,
                    seed=model.rng_seed,
                    wall_time_s=seconds if measure_time else 0.0,
                )
            )
            log.info(
                "trial %s %s: train=%.6g val=%.6g test=%.6g (stack of %d: %.2fs)",
                spec.arch, spec.structure, train_mae, val_mae, test_mae, len(models), seconds,
            )
    return trials


def select_best(report: list[TrialResult], criterion: str = CRITERIA[0]) -> BestSelection:
    """Argmin by criterion; ties break to smaller hidden, then arch order.

    Trials with non-finite criterion values (diverged) are excluded.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    usable = [t for t in report if math.isfinite(getattr(t, criterion))]
    if not usable:
        raise ValueError("no successful trials to select from")

    def key(t: TrialResult):
        return (getattr(t, criterion), t.hidden, arch_id(t.arch))

    per_arch: dict[str, TrialResult] = {}
    for arch in sorted({t.arch for t in usable}, key=arch_id):
        per_arch[arch] = min((t for t in usable if t.arch == arch), key=key)
    overall = min(usable, key=key)
    return BestSelection(per_arch=per_arch, overall=overall)
