"""Training loop, denormalized evaluation, the arch x hidden-size sweep,
best-model selection and the persistence baseline.

Everything here is deterministic given (data, config, seeds): batches run in
chronological order, per-trial seeds are a stated function of (base seed,
arch, hidden), and trials never share state, so a sweep report is
reproducible byte for byte.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cells import ModelSpec, NetworkModel, arch_id, backward, forward_batch, init_model
from .data import NormParams, SplitDataset, SupervisedDataset, denormalize
from .optim import Optimizer, OptimizerConfig, mae_grad, mae_loss

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


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


def trial_model(
    arch: str, hidden: int, input_dim: int, window: int, base_seed: int
) -> NetworkModel:
    """The freshly initialized model of one sweep trial.

    mlp has no recurrence, so it always runs at window 1. The sweep, the
    train command and any retrain of a sweep winner build trials here, so a
    single trial reproduces its sweep row exactly.
    """
    spec = ModelSpec(
        arch=arch,
        hidden=hidden,
        input_dim=input_dim,
        output_dim=1,
        window=1 if arch == "mlp" else window,
    )
    return init_model(spec, trial_seed(base_seed, arch, hidden))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite training loss {loss} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class TrainConfig:
    optimizer: OptimizerConfig
    epochs: int = 1500
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {self.batch_size!r}")


@dataclass
class TrainHistory:
    """Per-epoch training MAE on the normalized scale; one entry per epoch."""

    losses: list[float] = field(default_factory=list)


@dataclass
class EvalResult:
    mae: float  # denormalized (original currency units)
    mae_norm: float  # same predictions on the normalized scale
    predictions: list[tuple[dt.date, float, float]]  # (date, actual, predicted)
    n: int


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

    def ok(self) -> bool:
        return math.isfinite(self.test_mae)


@dataclass
class SweepReport:
    trials: list[TrialResult]
    archs: tuple[str, ...]
    hiddens: tuple[int, ...]
    criterion: str = "test_mae"

    def __eq__(self, other):
        # criterion is a selection preference, not part of the recorded grid
        if not isinstance(other, SweepReport):
            return NotImplemented
        return (
            self.trials == other.trials
            and self.archs == other.archs
            and self.hiddens == other.hiddens
        )


@dataclass
class BestSelection:
    per_arch: dict[str, TrialResult]
    overall: TrialResult
    criterion: str


def _windowed(dataset: SupervisedDataset, window: int):
    """Stack consecutive lag vectors into (n-w+1, w, 4) windows.

    Window k covers samples k..k+w-1 and predicts the target of its last
    sample; the first w-1 samples have no full history and are dropped.
    """
    n = len(dataset)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if n < window:
        raise ValueError(f"dataset has {n} samples, fewer than window={window}")
    if window == 1:
        x = dataset.features[:, None, :]
    else:
        x = np.stack([dataset.features[k : n - window + 1 + k] for k in range(window)], axis=1)
    return x, dataset.targets[window - 1 :], dataset.dates[window - 1 :]


def _check_normalized(dataset: SupervisedDataset, name: str, norm: NormParams):
    if not dataset.normalized:
        raise ValueError(f"{name} dataset must be normalized before training/evaluation")
    if not dataset.norm.same_as(norm):
        raise ValueError(f"{name} dataset was normalized with different NormParams")


def train(
    model: NetworkModel,
    train_set: SupervisedDataset,
    val_set: SupervisedDataset | None,
    config: TrainConfig,
) -> tuple[NetworkModel, TrainHistory]:
    """Mini-batch MAE training for exactly config.epochs epochs.

    Batches run in chronological order, the same every epoch; gradients are
    averaged within each batch and one optimizer step is applied per batch.
    Aborts with TrainingDiverged on a non-finite epoch loss.
    """
    spec = model.spec
    _check_normalized(train_set, "train", train_set.norm)
    if val_set is not None:
        _check_normalized(val_set, "validation", train_set.norm)
    if train_set.features.shape[1] != spec.input_dim:
        raise ValueError(
            f"model input_dim {spec.input_dim} does not match "
            f"feature length {train_set.features.shape[1]}"
        )

    x, targets, _ = _windowed(train_set, spec.window)
    n = len(targets)
    y = targets[:, None]  # (n, 1) to match yhat
    opt = Optimizer(model.flat.size, config.optimizer)

    history = TrainHistory()
    n_batches = (n + config.batch_size - 1) // config.batch_size
    for epoch in range(config.epochs):
        abs_err_total = 0.0
        for b in range(n_batches):
            lo = b * config.batch_size
            hi = min(lo + config.batch_size, n)
            yhat, cache = forward_batch(model, x[lo:hi])
            y_batch = y[lo:hi]
            abs_err_total += float(np.abs(yhat - y_batch).sum())
            # batch loss is the mean |err| over the batch entries, so the
            # cotangent carries the 1/(batch*out) factor
            backward(model, cache, mae_grad(yhat, y_batch))
            opt.step(model.flat, model.grad)
        epoch_loss = abs_err_total / (n * spec.output_dim)
        if not math.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, epoch_loss)
        history.losses.append(epoch_loss)
        if val_set is not None and log.isEnabledFor(logging.DEBUG):
            every = max(1, config.epochs // 10)
            if (epoch + 1) % every == 0 or epoch == config.epochs - 1:
                val = evaluate(model, val_set, train_set.norm)
                log.debug(
                    "epoch %d/%d train_mae_norm=%.6g val_mae_norm=%.6g",
                    epoch + 1, config.epochs, epoch_loss, val.mae_norm,
                )
    model.epochs_trained += config.epochs
    return model, history


def evaluate(model: NetworkModel, dataset: SupervisedDataset, norm: NormParams) -> EvalResult:
    """Predict every sample, denormalize predictions and targets, report MAE
    in original currency units (and on the normalized scale)."""
    _check_normalized(dataset, "evaluation", norm)
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    x, targets, dates = _windowed(dataset, model.spec.window)
    yhat, _ = forward_batch(model, x)
    pred_norm = yhat[:, 0]
    mae_norm = mae_loss(pred_norm, targets)
    actual = denormalize(targets, norm.target_min, norm.target_max)
    predicted = denormalize(pred_norm, norm.target_min, norm.target_max)
    mae = mae_loss(predicted, actual)
    predictions = [
        (date, float(a), float(p)) for date, a, p in zip(dates, actual, predicted)
    ]
    return EvalResult(mae=mae, mae_norm=mae_norm, predictions=predictions, n=len(predictions))


def persistence_baseline(dataset: SupervisedDataset, norm: NormParams | None = None) -> float:
    """Denormalized MAE of the naive forecast 'today's close = yesterday's close'.

    Computed in original units, so the result does not depend on which
    NormParams were fitted.
    """
    if len(dataset) == 0:
        raise ValueError("cannot compute a baseline on an empty dataset")
    norm = norm if norm is not None else dataset.norm
    close = dataset.features[:, 3]
    target = dataset.targets
    if dataset.normalized:
        if norm is None:
            raise ValueError("normalized dataset requires NormParams to denormalize")
        close = denormalize(close, norm.feature_min[3], norm.feature_max[3])
        target = denormalize(target, norm.target_min, norm.target_max)
    return float(np.mean(np.abs(close - target)))


def run_sweep(
    archs,
    hidden_range,
    data: SplitDataset,
    config: TrainConfig,
    pair: str = "UNKNOWN",
    window: int = 1,
    measure_time: bool = False,
) -> SweepReport:
    """Train one model per (arch, hidden) grid point and record its MAEs.

    A diverging trial is recorded with NaN errors and does not abort the
    sweep. wall_time_s is 0.0 unless measure_time is set: measured times
    differ between runs and would break byte-identical reports.
    """
    archs = tuple(sorted(set(archs), key=arch_id))
    if not archs:
        raise ValueError("no architectures requested")
    hiddens = tuple(sorted(set(int(h) for h in hidden_range)))
    if not hiddens:
        raise ValueError("hidden_range is empty")
    if any(h < 1 for h in hiddens):
        raise ValueError(f"hidden sizes must be >= 1, got {hiddens}")
    norm = data.train.norm
    if norm is None:
        raise ValueError("sweep requires normalized splits (fit and apply NormParams first)")

    trials: list[TrialResult] = []
    for arch in archs:
        for h in hiddens:
            model = trial_model(arch, h, data.train.features.shape[1], window, config.seed)
            spec = model.spec
            t0 = time.perf_counter()
            try:
                train(model, data.train, data.validation, config)
                train_mae = evaluate(model, data.train, norm).mae
                val_mae = evaluate(model, data.validation, norm).mae
                test_mae = evaluate(model, data.test, norm).mae
            except TrainingDiverged as e:
                log.warning("trial %s h=%d diverged: %s", arch, h, e)
                train_mae = val_mae = test_mae = float("nan")
            elapsed = time.perf_counter() - t0
            trials.append(
                TrialResult(
                    pair=pair,
                    arch=arch,
                    structure=spec.structure,
                    hidden=h,
                    train_mae=train_mae,
                    val_mae=val_mae,
                    test_mae=test_mae,
                    seed=model.rng_seed,
                    wall_time_s=elapsed if measure_time else 0.0,
                )
            )
            log.info(
                "trial %s %s: train=%.6g val=%.6g test=%.6g (%.2fs)",
                arch, spec.structure, train_mae, val_mae, test_mae, elapsed,
            )
    trials.sort(key=lambda tr: (arch_id(tr.arch), tr.hidden))
    return SweepReport(trials=trials, archs=archs, hiddens=hiddens)


def select_best(report: SweepReport, criterion: str = "test_mae") -> BestSelection:
    """Argmin by criterion; ties break to smaller hidden, then arch order.

    Trials with non-finite criterion values (diverged) are excluded.
    """
    if criterion not in ("test_mae", "val_mae"):
        raise ValueError(f"criterion must be 'test_mae' or 'val_mae', got {criterion!r}")
    usable = [t for t in report.trials if math.isfinite(getattr(t, criterion))]
    if not usable:
        raise ValueError("no successful trials to select from")

    def key(t: TrialResult):
        return (getattr(t, criterion), t.hidden, arch_id(t.arch))

    per_arch: dict[str, TrialResult] = {}
    for arch in sorted({t.arch for t in usable}, key=arch_id):
        per_arch[arch] = min((t for t in usable if t.arch == arch), key=key)
    overall = min(usable, key=key)
    return BestSelection(per_arch=per_arch, overall=overall, criterion=criterion)
