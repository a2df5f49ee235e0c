"""Training loop, denormalized evaluation, the arch x hidden-size sweep,
best-model selection and the persistence baseline.

A run's training settings are one `TrainConfig`. Every dataset is
scaled and carries its NormParams (`dataset.norm`); evaluation and the
baseline map samples and predictions back to prices with its
`unscale_targets` and `unscale_features`, and training refuses a
validation split scaled by another fit.

A sweep is a plan and one unit of work. The plan, `_plan`, checked in
full before any model is built, is the set of the grid's ModelSpecs in
`_report_order`, the one order of plan entries and report rows, grouped
by `ModelSpec.padded`: one entry per stack, the tuple of its trials'
specs, which holds no arrays. The unit, `_run_stack`, builds an entry's
models with `trial_model`, trains them in lockstep, scores those that
did not diverge once per split, and returns one `_Trial` record per
trial, which `_Trial.row` makes a report row; the train command and a
winner's retrain read the record of a plan of one, `_run_trial`.

Everything here is deterministic given (data, config, seeds): batches run in
chronological order, per-trial seeds are a stated function of (base seed,
arch, hidden), and a trial's arithmetic depends on its own hidden size only,
never on the trials stacked with it, so a sweep report is reproducible byte
for byte and any single trial reproduces its sweep row in isolation.
"""

from __future__ import annotations

import datetime as dt
import itertools
import logging
import math
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .cells import (
    ModelSpec,
    ModelStack,
    NetworkModel,
    arch_id,
    backward,
    forward_batch,
    init_model,
    predict,
)
from .data import SplitDataset, SupervisedDataset, _is_int, _is_real, _quoted
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


def _trial_spec(arch: str, hidden: int, window: int) -> ModelSpec:
    """A trial's ModelSpec; mlp has no recurrence, so it runs at window 1."""
    if arch == "mlp":  # its window must still pass a recurrent trial's rule
        ModelSpec("srnn", hidden, window=window)
    return ModelSpec(arch=arch, hidden=hidden, window=1 if arch == "mlp" else window)


def trial_model(arch: str, hidden: int, window: int, base_seed: int) -> NetworkModel:
    """The freshly initialized model of one sweep trial, as `_run_stack` builds it."""
    return init_model(_trial_spec(arch, hidden, window), trial_seed(base_seed, arch, hidden))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or the weights stop being finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(epoch, loss)  # the args pickle rebuilds it from
        self.epoch = epoch
        self.loss = loss

    def __str__(self) -> str:
        if math.isfinite(self.loss):
            return f"non-finite weights (training loss {self.loss}) at epoch {self.epoch}"
        return f"non-finite training loss {self.loss} at epoch {self.epoch}"


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
            raise ValueError(
                f"unknown optimizer {_quoted(self.optimizer)}, expected one of {OPTIMIZERS}"
            )
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate", DEFAULT_LR[self.optimizer])
        lr = self.learning_rate
        if not (_is_real(lr) and lr > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {_quoted(lr)}")
        object.__setattr__(self, "learning_rate", float(lr))
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", -math.inf)):
            value = getattr(self, name)  # trial_seed masks any seed
            if not (_is_int(value) and value >= least):
                kind = "a positive integer" if least == 1 else "an integer"
                raise ValueError(f"{name} must be {kind}, got {_quoted(value)}")


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
        raise ValueError(f"dataset has {n} samples, fewer than window={_quoted(window)}")
    x = np.lib.stride_tricks.sliding_window_view(dataset.features, window, axis=0)
    return x.transpose(0, 2, 1), dataset.targets[window - 1 :], dataset.dates[window - 1 :]


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
                    for k, score in zip(ks, scores):
                        model = stack.models[k]
                        log.debug(
                            "%s h=%d epoch %d/%d train_mae_norm=%.6g val_mae_norm=%.6g",
                            model.spec.arch, model.spec.hidden, epoch + 1, config.epochs,
                            epoch_loss[k], score.mae / val_set.norm.target_span,
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
    x, targets, dates = _windowed(dataset, stack.spec.window)
    actual = dataset.norm.unscale_targets(targets)
    return [
        EvalResult(mae=mae_loss(predicted, actual), dates=dates, actual=actual, predicted=predicted)
        for predicted in dataset.norm.unscale_targets(predict(stack, x)[:, :, 0])
    ]


def persistence_baseline(dataset: SupervisedDataset) -> float:
    """Denormalized MAE of the naive forecast 'today's close = yesterday's close'.

    Computed in original units (the dataset's NormParams undo its
    scaling), so the result does not depend on which NormParams were
    fitted.
    """
    if len(dataset) == 0:
        raise ValueError("cannot compute a baseline on an empty dataset")
    close = dataset.norm.unscale_features(dataset.features)[:, 3]
    target = dataset.norm.unscale_targets(dataset.targets)
    return float(np.mean(np.abs(close - target)))


def _report_order(t):
    """Arch, then hidden, of a ModelSpec or a TrialResult: the one row order."""
    return arch_id(t.arch), t.hidden


def _plan(archs, hidden_range, data: SplitDataset, window: int) -> list[tuple[ModelSpec, ...]]:
    """A sweep's trial ModelSpecs, once each in report order, grouped by
    the padded spec of their stack. Every check that must come before a
    model is built runs here: each ModelSpec is valid, the grid is not
    empty, and no split is shorter than the longest window."""
    specs = sorted(
        {_trial_spec(a, h, window) for a, h in itertools.product(archs, hidden_range)},
        key=_report_order,
    )
    if not specs:
        raise ValueError("the grid of architectures and hidden sizes is empty")
    longest = max(spec.window for spec in specs)
    for name, split in zip(SplitDataset._fields, data):
        if len(split) < longest:
            raise ValueError(
                f"{name} split has {len(split)} samples, fewer than window={_quoted(longest)}"
            )
    # the padded width grows with hidden, so each stack's specs are adjacent
    return [tuple(g) for _, g in itertools.groupby(specs, key=attrgetter("padded"))]


class _Trial(NamedTuple):
    """What one trial of a plan entry produced."""

    model: NetworkModel  # trained
    outcome: list | TrainingDiverged  # per-epoch training losses, or the divergence
    scores: tuple[EvalResult, ...]  # one per split in SplitDataset order; () if diverged
    seconds: float  # its stack's training plus scoring

    def row(self, pair: str, measure_time: bool) -> TrialResult:
        """The report row; wall_time_s is 0.0 unless measure_time is set."""
        spec = self.model.spec
        maes = [score.mae for score in self.scores] or [math.nan] * 3
        seconds = self.seconds if measure_time else 0.0
        return TrialResult(
            pair, spec.arch, spec.structure, spec.hidden, *maes, self.model.rng_seed, seconds
        )


def _run_stack(entry: tuple[ModelSpec, ...], data: SplitDataset, config: TrainConfig):
    """A sweep's unit of work: build the fresh models of one plan entry with
    `trial_model`, train them as one ModelStack, score each that did not
    diverge on every split, and return one `_Trial` per spec, in entry order."""
    models = [trial_model(s.arch, s.hidden, s.window, config.seed) for s in entry]
    t0 = time.perf_counter()
    outcomes = train(ModelStack(models), data.train, data.validation, config)
    ok = [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, TrainingDiverged)]
    scores = [()] * len(models)
    if ok:
        trained = ModelStack(models[k] for k in ok)
        for k, per_split in zip(ok, zip(*(evaluate(trained, split) for split in data))):
            scores[k] = per_split
    seconds = time.perf_counter() - t0
    return [_Trial(*fields, seconds) for fields in zip(models, outcomes, scores)]


def _run_trial(arch: str, hidden: int, data: SplitDataset, config: TrainConfig, window: int):
    """The `_Trial` of a plan of one, so it reproduces its sweep row."""
    (entry,) = _plan([arch], [hidden], data, window)
    (trial,) = _run_stack(entry, data, config)
    return trial


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

    Each plan entry runs in one `_run_stack`, independent of the others,
    so the rows do not depend on their order. A diverging trial gets NaN
    errors, is not scored and affects neither the sweep nor its stack.
    wall_time_s is 0.0 unless measure_time is set; then each trial
    records its stack's seconds (training plus scoring), which differ
    between runs and would break byte-identical reports.
    """
    rows: list[TrialResult] = []
    for entry in _plan(archs, hidden_range, data, window):
        for trial in _run_stack(entry, data, config):
            row = trial.row(pair, measure_time)
            if isinstance(trial.outcome, TrainingDiverged):
                log.warning("trial %s h=%d diverged: %s", row.arch, row.hidden, trial.outcome)
            log.info(
                "trial %s %s: train=%.6g val=%.6g test=%.6g (stack of %d: %.2fs)", row.arch,
                row.structure, row.train_mae, row.val_mae, row.test_mae, len(entry), trial.seconds,
            )
            rows.append(row)
        del trial  # its scores must not stay alive through the next stack's scoring
    return rows


def select_best(report: list[TrialResult], criterion: str = CRITERIA[0]) -> BestSelection:
    """Argmin by criterion; ties break to smaller hidden, then arch order.

    Trials with non-finite criterion values (diverged) are excluded.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {_quoted(criterion)}")
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
