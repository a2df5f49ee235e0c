"""Command-line surface: ingest, sweep, train, predict, report.

Contract: exit 0 on success; on failure print exactly one line of the form
`fxbench: error: <message>` to stderr and exit nonzero (1 for runtime
failures, 2 for usage errors, 130 for an interrupt); argparse parses every value, and
every usage error, a bad FXBENCH_LOG included, leaves through `_Parser.error` in one short
line. Only this module names a path: one `read_bytes()` per input, and one atomic
`data.write_atomic(path, data)` per output, byte-identical given the same inputs and seeds.
FXBENCH_LOG in {error, warn, info, debug} sets stderr log verbosity (default info).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from pathlib import Path

from .cells import ARCHS, ModelSpec, ModelStack
from .data import (
    FIT_NORMS,
    _quoted,
    build_supervised,
    emit_ohlc_csv,
    parse_ohlc_csv,
    prepare_splits,
    write_atomic,
)
from .experiment import (
    CRITERIA,
    DEFAULT_PAIR,
    TrainConfig,
    TrainingDiverged,
    _run_trial,
    evaluate,
    run_sweep,
    select_best,
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
        """Every usage error, argparse's own included, in one short ASCII line: non-ASCII
        escaped, cut to 150 characters plus its size, so the flag at its head stays."""
        message = message.encode("ascii", "backslashreplace").decode("ascii")
        raise UsageError(_quoted(message, str, 150))

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:  # argparse makes `--flag=--` a []
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _positive(kind, most=math.inf):
    """argparse type: a finite `kind` above 0 (so not NaN or inf) and at most `most`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:  # argparse's own text, which would name `parse`, not `kind`
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text}")
        return value

    return parse


_MAX_HIDDEN = 1024  # the largest hidden size the CLI trains; the paper's grid is 2..10
_hidden = _positive(int, most=_MAX_HIDDEN)


def parse_hidden_sizes(text: str) -> tuple[int, ...]:
    """argparse type: a hidden-size grid, '2..10' (inclusive range), '5' or
    '2,5,7', each size read as `train --hidden` reads its one."""
    if ".." in text:
        lo, hi = map(_hidden, text.split("..", 1))
        sizes = tuple(range(lo, hi + 1))
    else:
        sizes = tuple(_hidden(tok) for tok in text.split(",") if tok.strip())
    if not sizes:
        raise argparse.ArgumentTypeError(f"no hidden sizes given in {text!r}")
    return sizes


def parse_arch(text: str) -> str:
    """argparse type: one architecture name; surrounding spaces and case are ignored."""
    name = text.strip().lower()
    if name not in ARCHS:
        raise argparse.ArgumentTypeError(f"unknown arch {name!r} (choose from {', '.join(ARCHS)})")
    return name


def parse_archs(text: str) -> tuple[str, ...]:
    """argparse type: a comma list of architecture names, in the order given."""
    names = tuple(parse_arch(tok) for tok in text.split(",") if tok.strip())
    if not names:
        raise argparse.ArgumentTypeError("no architectures given")
    return names


def _utf8(text: str) -> str:
    """argparse type: text that UTF-8 can encode, as the report it labels
    is written in UTF-8; argv holds an undecodable byte as a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not encodable as UTF-8: {text!r}") from None
    return text


@contextlib.contextmanager
def _logging_to_stderr(parser):
    """Send the `fxbench` logs to the current sys.stderr at the FXBENCH_LOG
    level while the block runs, then remove the handler and restore the
    logger's level, so one call's settings never reach the next."""
    name = os.environ.get("FXBENCH_LOG", "info").strip().lower()
    if name not in LOG_LEVELS:
        parser.error(f"invalid FXBENCH_LOG {name!r} (choose from {', '.join(LOG_LEVELS)})")
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
    print(f"{label} mae: denormalized {mae!r} | normalized {mae / norm.target_span!r}")


def _check_output(path: str) -> None:
    """Make sure `path` can be written before any input is read: refuse an
    empty path and one that names a directory (an existing one, or one that
    ends in a separator), then create its missing parent directories, and
    fail naming `path` when its parent is not a directory."""
    if not path:
        raise OSError("cannot write to an empty output path")
    if os.path.basename(path) in ("", os.curdir, os.pardir) or os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise OSError(f"cannot write {path}: {parent} is not a directory") from None


def cmd_ingest(args) -> int:
    _check_output(args.output)
    validate = "error" if args.strict else "warn"
    records = parse_ohlc_csv(Path(args.input).read_bytes(), sort=True, validate=validate)
    if not records:
        raise ValueError(f"no data rows in {args.input}")
    write_atomic(args.output, emit_ohlc_csv(records))
    print(f"wrote {len(records)} records: {args.output}")
    return 0


def cmd_sweep(args) -> int:
    config = _train_config(args)
    _check_output(args.report)
    data = prepare_splits(parse_ohlc_csv(Path(args.data).read_bytes()), args.fit_norm)
    report = run_sweep(
        args.archs,
        args.hidden,
        data,
        config,
        pair=args.pair,
        window=args.window,
        measure_time=args.timings,
    )
    criterion = f"{args.select}_mae"
    write_atomic(args.report, emit_report_csv(report))
    print(f"wrote report: {args.report} ({len(report)} trials)")
    o = select_best(report, criterion).overall
    value = getattr(o, criterion)
    print(
        f"overall best ({criterion}): {o.arch.upper()},{o.structure},{value!r}"
        f" | normalized {value / data.train.norm.target_span!r}"
    )
    return 0


def cmd_train(args) -> int:
    config = _train_config(args)
    _check_output(args.model_out)
    data = prepare_splits(parse_ohlc_csv(Path(args.data).read_bytes()), args.fit_norm)
    trial = _run_trial(args.arch, args.hidden, data, config, args.window)
    if isinstance(trial.outcome, TrainingDiverged):
        raise trial.outcome
    write_atomic(args.model_out, save_model(trial.model, data.train.norm))
    print(f"trained {args.arch.upper()} {trial.model.spec.structure} for {config.epochs} epochs")
    for label, score in zip(("train", "val", "test"), trial.scores):
        _print_mae(label, score.mae, data.train.norm)
    print(f"wrote model: {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    _check_output(args.series_out)
    model, norm = load_model(Path(args.model).read_bytes())
    dataset = build_supervised(parse_ohlc_csv(Path(args.data).read_bytes()), norm)
    (result,) = evaluate(ModelStack([model]), dataset)
    write_atomic(args.series_out, emit_series_csv(result))
    print(f"predictions: {len(result.dates)}")
    _print_mae("series", result.mae, norm)
    print(f"wrote series: {args.series_out}")
    return 0


def cmd_report(args) -> int:
    report = parse_report_csv(Path(args.infile).read_bytes())
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
    p.add_argument(
        "--pair", type=_utf8, default=DEFAULT_PAIR, help="currency pair label for the report"
    )
    p.add_argument(
        "--archs", type=parse_archs, default=",".join(ARCHS), help="comma list from %(default)s"
    )
    p.add_argument(
        "--hidden",
        type=parse_hidden_sizes,
        default="2..10",
        help=f"hidden sizes, each at most {_MAX_HIDDEN}: '2..10', '5', or '2,5,7'",
    )
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
        "stack, training plus scoring (breaks byte-identical reruns)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a single model and save it")
    add_training_flags(p)
    p.add_argument("--arch", type=parse_arch, required=True, help=f"one of {','.join(ARCHS)}")
    p.add_argument(
        "--hidden", type=_hidden, required=True, help=f"hidden layer size, at most {_MAX_HIDDEN}"
    )
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
        with _logging_to_stderr(parser):
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
