"""fxbench: from-scratch neural time-series forecasting on OHLC data.

Pipeline: lag features from daily open/high/low/close -> min-max
normalization -> {MLP, SRNN, LSTM, GRU} x hidden-size grid sweep ->
MAE-based model selection -> denormalized prediction reports. Everything
(cells, backprop through time, optimizers) is implemented directly on
numpy arrays; runs are deterministic given their seeds.
"""

from .cells import (
    ARCHS,
    ForwardCache,
    ModelSpec,
    ModelStack,
    NetworkModel,
    backward,
    forward_batch,
    init_model,
    padded_width,
    param_shapes,
)
from .data import (
    DEFAULT_FRACTIONS,
    NormParams,
    OhlcRecord,
    SplitDataset,
    SupervisedDataset,
    build_supervised,
    chrono_split,
    emit_ohlc_csv,
    fit_minmax,
    parse_ohlc_csv,
    prepare_splits,
    write_atomic,
)
from .experiment import (
    BestSelection,
    EvalResult,
    TrainConfig,
    TrainingDiverged,
    TrialResult,
    evaluate,
    persistence_baseline,
    run_sweep,
    select_best,
    train,
    trial_model,
    trial_seed,
)
from .optim import OPTIMIZERS, Optimizer, mae_grad, mae_loss
from .serialize import (
    emit_report_csv,
    emit_series_csv,
    load_model,
    parse_report_csv,
    render_report_table,
    save_model,
)
from .synthetic import ramp_ohlc, random_walk_ohlc

__version__ = "0.1.0"

__all__ = [
    "ARCHS",
    "BestSelection",
    "DEFAULT_FRACTIONS",
    "EvalResult",
    "ForwardCache",
    "ModelSpec",
    "ModelStack",
    "NetworkModel",
    "NormParams",
    "OPTIMIZERS",
    "OhlcRecord",
    "Optimizer",
    "SplitDataset",
    "SupervisedDataset",
    "TrainConfig",
    "TrainingDiverged",
    "TrialResult",
    "backward",
    "build_supervised",
    "chrono_split",
    "emit_ohlc_csv",
    "emit_report_csv",
    "emit_series_csv",
    "evaluate",
    "fit_minmax",
    "forward_batch",
    "init_model",
    "load_model",
    "mae_grad",
    "mae_loss",
    "padded_width",
    "param_shapes",
    "parse_ohlc_csv",
    "parse_report_csv",
    "persistence_baseline",
    "prepare_splits",
    "ramp_ohlc",
    "random_walk_ohlc",
    "render_report_table",
    "run_sweep",
    "save_model",
    "select_best",
    "train",
    "trial_model",
    "trial_seed",
    "write_atomic",
]
