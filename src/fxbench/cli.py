"""Command-line surface: ingest, sweep, train, predict, report.

Contract: exit 0 on success; on failure print exactly one line of the form
`fxbench: error: <message>` to stderr and exit nonzero (1 for runtime
failures, 2 for usage errors, 130 for an interrupt). All file outputs are
byte-identical across runs given identical inputs and seeds, and each
replaces its target atomically (`data.write_atomic`). FXBENCH_LOG in
{error, warn, info, debug} sets stderr log verbosity (default info).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys

from .cells import ARCHS, ModelSpec, ModelStack, arch_id
from .data import (
    FIT_NORMS,
    build_supervised,
    prepare_splits,
    read_ohlc_csv,
    write_atomic,
    write_ohlc_csv,
)
from .experiment import (
    CRITERIA,
    DEFAULT_PAIR,
    TrainConfig,
    TrainingDiverged,
    _check_window,
    _run_stack,
    evaluate,
    run_sweep,
    select_best,
    trial_model,
)
from .optim import DEFAULT_LR, OPTIMIZERS
from .serialize import (
    emit_report_csv,
    emit_series_csv,
    load_model,
    parse_report_csv,
    render_report_table,
    save_model,
)

log = logging.getLogger(__name__)

SELECT = tuple(c.removesuffix("_mae") for c in CRITERIA)  # --select names a criterion

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class UsageError(Exception):
    """Bad command-line arguments; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(kind):
    """argparse type: a finite `kind` above 0 (so not NaN or inf)."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def parse_hidden_sizes(text: str) -> tuple[int, ...]:
    """Parse a hidden-size grid: '2..10' (inclusive range), '5', or '2,5,7'."""

    def one(tok: str) -> int:
        try:
            return _positive(int)(tok)
        except (ValueError, argparse.ArgumentTypeError):
            raise UsageError(f"bad hidden size {tok!r}, expected an integer above 0") from None

    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = one(lo_s), one(hi_s)
        if hi < lo:
            raise UsageError(f"empty hidden range {text!r}")
        return tuple(range(lo, hi + 1))
    if "," in text:
        sizes = {one(tok) for tok in text.split(",") if tok.strip()}
        if not sizes:
            raise UsageError(f"no hidden sizes given in {text!r}")
        return tuple(sorted(sizes))
    return (one(text),)


def parse_arch(text: str) -> str:
    """One architecture name; surrounding spaces and case are ignored."""
    name = text.strip().lower()
    if name not in ARCHS:
        raise UsageError(f"unknown arch {name!r} (choose from {', '.join(ARCHS)})")
    return name


def parse_archs(text: str) -> tuple[str, ...]:
    names = [parse_arch(tok) for tok in text.split(",") if tok.strip()]
    if not names:
        raise UsageError("no architectures given")
    return tuple(sorted(set(names), key=arch_id))


@contextlib.contextmanager
def _logging_to_stderr():
    """Send the `fxbench` logs to the current sys.stderr at the FXBENCH_LOG
    level while the block runs, then remove the handler and restore the
    logger's level, so one call's settings never reach the next."""
    name = os.environ.get("FXBENCH_LOG", "info").strip().lower()
    if name not in LOG_LEVELS:
        raise UsageError(
            f"invalid FXBENCH_LOG {name!r} (choose from {', '.join(LOG_LEVELS)})"
        )
    logger = logging.getLogger("fxbench")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("fxbench %(levelname)s: %(message)s"))
    level = logger.level
    logger.setLevel(LOG_LEVELS[name])
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
    )


def _print_mae(label: str, mae: float, norm) -> None:
    scale = norm.target_max - norm.target_min
    print(f"{label} mae: denormalized {mae!r} | normalized {mae / scale!r}")


def _check_output(path: str) -> None:
    """Make sure `path` can be written before any input is read: create its
    missing parent directories, and fail naming `path` when its parent is
    not a directory or `path` itself is one."""
    parent = os.path.dirname(path)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise OSError(f"cannot write {path}: {parent} is not a directory") from None
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")


def cmd_ingest(args) -> int:
    _check_output(args.output)
    records = read_ohlc_csv(args.input, sort=True, validate="error" if args.strict else "warn")
    if not records:
        raise ValueError(f"no data rows in {args.input}")
    write_ohlc_csv(records, args.output)
    print(f"wrote {len(records)} records: {args.output}")
    return 0


def cmd_sweep(args) -> int:
    archs, hidden = parse_archs(args.archs), parse_hidden_sizes(args.hidden)
    config = _train_config(args)
    _check_output(args.report)
    data, norm = prepare_splits(read_ohlc_csv(args.data), args.fit_norm)
    report = run_sweep(
        archs,
        hidden,
        data,
        config,
        pair=args.pair,
        window=args.window,
        measure_time=args.timings,
    )
    criterion = f"{args.select}_mae"
    blob = emit_report_csv(report)
    with write_atomic(args.report) as fh:
        fh.write(blob)
    print(f"wrote report: {args.report} ({len(report)} trials)")
    o = select_best(report, criterion).overall
    value = getattr(o, criterion)
    scale = norm.target_max - norm.target_min
    print(
        f"overall best ({criterion}): {o.arch.upper()},{o.structure},{value!r}"
        f" | normalized {value / scale!r}"
    )
    return 0


def cmd_train(args) -> int:
    arch = parse_arch(args.arch)
    config = _train_config(args)
    _check_output(args.model_out)
    data, norm = prepare_splits(read_ohlc_csv(args.data), args.fit_norm)
    model = trial_model(arch, args.hidden, args.window, args.seed)
    spec = model.spec
    _check_window(data, spec.window)
    (outcome,), (maes,), _ = _run_stack([model], data, config)
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    blob = save_model(model, norm)
    with write_atomic(args.model_out) as fh:
        fh.write(blob)
    print(f"trained {spec.arch.upper()} {spec.structure} for {config.epochs} epochs")
    for label, mae in zip(("train", "val", "test"), maes):
        _print_mae(label, mae, norm)
    print(f"wrote model: {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    _check_output(args.series_out)
    with open(args.model, "rb") as fh:
        model, norm = load_model(fh.read())
    if norm is None:
        raise ValueError(
            f"model file {args.model} carries no normalization parameters; "
            "retrain with the train command to embed them"
        )
    dataset = build_supervised(read_ohlc_csv(args.data), norm)
    (result,) = evaluate(ModelStack([model]), dataset)
    blob = emit_series_csv(result)
    with write_atomic(args.series_out) as fh:
        fh.write(blob)
    print(f"predictions: {len(result.dates)}")
    _print_mae("series", result.mae, norm)
    print(f"wrote series: {args.series_out}")
    return 0


def cmd_report(args) -> int:
    with open(args.infile, "rb") as fh:
        report = parse_report_csv(fh.read())
    if args.format == "csv":
        sys.stdout.write(emit_report_csv(report).decode("utf-8"))
    else:
        sys.stdout.write(render_report_table(report, f"{args.select}_mae"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fxbench",
        description="OHLC time-series forecasting benchmark: ingest data, "
        "sweep architectures, train, predict, and format reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="validate and sort a raw OHLC CSV")
    p.add_argument("--input", required=True, help="raw OHLC CSV path")
    p.add_argument("--output", required=True, help="cleaned dataset CSV path")
    p.add_argument("--strict", action="store_true", help="treat OHLC sanity violations as errors")
    p.set_defaults(func=cmd_ingest)

    def add_training_flags(p):
        p.add_argument("--data", required=True, help="dataset CSV (date,open,high,low,close)")
        p.add_argument(
            "--epochs",
            type=_positive(int),
            default=TrainConfig.epochs,
            help="training epochs (default %(default)s)",
        )
        p.add_argument(
            "--batch",
            type=_positive(int),
            default=TrainConfig.batch_size,
            help="mini-batch size (default %(default)s)",
        )
        p.add_argument(
            "--optimizer",
            choices=OPTIMIZERS,
            default=TrainConfig.optimizer,
            help="training algorithm",
        )
        default_first = sorted(OPTIMIZERS, key=lambda name: name != TrainConfig.optimizer)
        p.add_argument(
            "--lr",
            type=_positive(float),
            default=TrainConfig.learning_rate,
            help="learning rate (default %s)"
            % ", ".join(f"{DEFAULT_LR[name]} {name}" for name in default_first),
        )
        p.add_argument(
            "--seed", type=int, default=TrainConfig.seed, help="base seed (default %(default)s)"
        )
        p.add_argument(
            "--fit-norm",
            choices=FIT_NORMS,
            default=FIT_NORMS[0],
            help="fit normalization on the train split only, or on all data",
        )
        p.add_argument(
            "--window",
            type=_positive(int),
            default=ModelSpec.window,
            help="lag vectors per sample for recurrent cells (default %(default)s); mlp always "
            "uses 1, so at window w it is scored on w-1 more days per split",
        )

    p = sub.add_parser("sweep", help="train the full architecture x hidden-size grid")
    add_training_flags(p)
    p.add_argument("--pair", default=DEFAULT_PAIR, help="currency pair label for the report")
    p.add_argument(
        "--archs", default=",".join(ARCHS), help=f"comma-separated subset of {','.join(ARCHS)}"
    )
    p.add_argument("--hidden", default="2..10", help="hidden sizes: '2..10', '5', or '2,5,7'")
    p.add_argument(
        "--select",
        choices=SELECT,
        default=SELECT[0],
        help="selection criterion (test or validation MAE)",
    )
    p.add_argument("--report", required=True, help="output report CSV path")
    p.add_argument(
        "--timings",
        action="store_true",
        help="record measured wall_time_s: each trial gets the wall time of its "
        "lockstep group (breaks byte-identical reruns)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a single model and save it")
    add_training_flags(p)
    p.add_argument("--arch", required=True, help=f"one of {','.join(ARCHS)}")
    p.add_argument("--hidden", type=_positive(int), required=True, help="hidden layer size")
    p.add_argument("--model-out", required=True, help="output model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit an actual-vs-predicted series from a saved model")
    p.add_argument("--model", required=True, help="model file from the train command")
    p.add_argument("--data", required=True, help="dataset CSV to predict over")
    p.add_argument("--series-out", required=True, help="output CSV (date,actual,predicted)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="format an existing sweep report (no retraining)")
    p.add_argument("--in", dest="infile", required=True, help="report CSV from the sweep command")
    p.add_argument("--format", choices=("table", "csv"), default="table", help="output format")
    p.add_argument(
        "--select", choices=SELECT, default=SELECT[0], help="criterion used for best-model marks"
    )
    p.set_defaults(func=cmd_report)

    return parser


def _fail(message: str, code: int) -> int:
    line = " ".join(str(message).split()) or "unknown error"
    print(f"fxbench: error: {line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with _logging_to_stderr():
            args = parser.parse_args(argv)
            return args.func(args)
    except UsageError as e:
        return _fail(str(e), 2)
    except (ValueError, OSError, TrainingDiverged) as e:
        return _fail(str(e), 1)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def entrypoint() -> None:
    """`main` for the console script and `python -m fxbench`: an interrupt
    exits 130 here, not in `main`, so Ctrl-C still stops in-process callers."""
    try:
        code = main()
    except KeyboardInterrupt:
        code = _fail("interrupted", 130)
    raise SystemExit(code)
