#!/usr/bin/env python3
"""End-to-end forecasting benchmark over three synthetic currency pairs.

For each pair this script generates a seeded random-walk OHLC series,
sweeps all four architectures over hidden sizes 2..10 (36 trials), writes
the per-pair report CSV plus a rendered table, then retrains the winning
configuration and emits its actual-vs-predicted test series. A final
summary compares every winner against the persistence baseline
(predicting tomorrow's close as today's).

Pass --quick for a 200-epoch version (it stands for --epochs 200, so
giving both is a usage error): it took 16.5, 17.1 and 18.5 s in
three runs on a 2-core x86-64 machine with OpenBLAS 0.3.31, numpy 2.4.6
and Python 3.11. Nearly all of that time is training, which grows with
the epoch count, so full scale (1500 epochs per trial) takes about 7.5
times as long: some 2 to 2.5 minutes there.

Errors and FXBENCH_LOG follow `fxbench`'s contract: at the default level
each trial logs one INFO line on stderr, and FXBENCH_LOG=warn quiets them.
Every output path passes `fxbench`'s output check before any work, and a
refused --epochs or --batch is named as `fxbench` names it.

Example:
    python3 scripts/run_benchmark.py --out results --quick
"""

import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fxbench import (
    ARCHS,
    TrainConfig,
    emit_ohlc_csv,
    emit_report_csv,
    emit_series_csv,
    persistence_baseline,
    prepare_splits,
    random_walk_ohlc,
    render_report_table,
    run_sweep,
    save_model,
    select_best,
    write_atomic,
)
from fxbench.cli import _check_output, _Parser, _positive, entrypoint, run
from fxbench.experiment import _run_trial

# label, noise seed, daily move as a fraction of the level
PAIRS = (
    ("SYN/ALPHA", 101, 0.001),
    ("SYN/BETA", 202, 0.002),
    ("SYN/GAMMA", 303, 0.0005),
)
WINDOW = 1  # input vectors per sample, for the sweep and the winner retrain
OUTPUTS = ("data.csv", "report.csv", "report.txt", "best_model.json", "best_test_series.csv")


def output_paths(out: str, pair: str) -> dict[str, str]:
    """A pair's output paths by suffix, each empty if `out` is, for `_check_output` to refuse."""
    slug = pair.replace("/", "_").lower()
    return {suffix: out and os.path.join(out, f"{slug}_{suffix}") for suffix in OUTPUTS}


def benchmark_pair(pair, seed, step_frac, out, config):
    paths = output_paths(out, pair)
    records = random_walk_ohlc(1500, seed=seed, step_frac=step_frac)
    write_atomic(paths["data.csv"], emit_ohlc_csv(records))
    data = prepare_splits(records)

    t0 = time.perf_counter()
    report = run_sweep(ARCHS, range(2, 11), data, config, pair=pair, window=WINDOW)
    elapsed = time.perf_counter() - t0
    write_atomic(paths["report.csv"], emit_report_csv(report))
    write_atomic(paths["report.txt"], render_report_table(report, "test_mae").encode())

    best = select_best(report, "test_mae").overall
    print(f"{pair}: swept 36 trials in {elapsed:.0f}s, "
          f"best {best.arch.upper()} {best.structure} test MAE {best.test_mae:.6g}")

    # retrain the winner as the sweep trained it, to save its weights and test series
    trial = _run_trial(best.arch, best.hidden, data, config, WINDOW)
    write_atomic(paths["best_model.json"], save_model(trial.model, data.train.norm))
    write_atomic(paths["best_test_series.csv"], emit_series_csv(trial.scores[2]))
    return pair, best, trial.scores[2].mae, persistence_baseline(data.test)


def run_benchmark(args) -> int:
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    for pair, _, _ in PAIRS:  # every output, before any work
        for path in output_paths(args.out, pair).values():
            _check_output(path)

    print(f"benchmark: 3 pairs x 36 trials at {args.epochs} epochs -> {pathlib.Path(args.out)}/")
    rows = [benchmark_pair(p, s, f, args.out, config) for p, s, f in PAIRS]

    print()
    print(f"{'pair':<10} {'best':<14} {'test MAE':>12} {'persistence':>12} {'ratio':>7}")
    for pair, best, mae, baseline in rows:
        label = f"{best.arch.upper()} {best.structure}"
        print(f"{pair:<10} {label:<14} {mae:>12.6g} {baseline:>12.6g} {mae / baseline:>7.3f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="run_benchmark.py", description=__doc__.splitlines()[0])
    parser.set_defaults(func=run_benchmark)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--batch", type=_positive(int), default=TrainConfig.batch_size,
                        help="mini-batch size")
    parser.add_argument("--seed", type=int, default=TrainConfig.seed, help="base seed for the grid")
    group = parser.add_mutually_exclusive_group()  # --quick sets the epochs itself
    group.add_argument("--epochs", type=_positive(int), default=TrainConfig.epochs,
                       help="epochs per trial")
    group.add_argument("--quick", dest="epochs", action="store_const", const=200,
                       help="use 200 epochs for a fast smoke run")
    return parser


def main(argv=None) -> int:
    return run(build_parser(), argv)


if __name__ == "__main__":
    entrypoint(build_parser())
