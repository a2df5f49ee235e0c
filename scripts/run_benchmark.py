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

Example:
    python3 scripts/run_benchmark.py --out results --quick
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fxbench import (
    ARCHS,
    ModelStack,
    TrainConfig,
    emit_report_csv,
    emit_series_csv,
    evaluate,
    persistence_baseline,
    prepare_splits,
    random_walk_ohlc,
    render_report_table,
    run_sweep,
    save_model,
    select_best,
    train,
    trial_model,
    write_atomic,
    write_ohlc_csv,
)

# label, noise seed, daily move as a fraction of the level
PAIRS = (
    ("SYN/ALPHA", 101, 0.001),
    ("SYN/BETA", 202, 0.002),
    ("SYN/GAMMA", 303, 0.0005),
)
WINDOW = 1  # input vectors per sample, for the sweep and the winner retrain


def write_file(path, blob: bytes):
    with write_atomic(path) as fh:
        fh.write(blob)


def benchmark_pair(pair, seed, step_frac, out_dir, config):
    slug = pair.replace("/", "_").lower()
    records = random_walk_ohlc(1500, seed=seed, step_frac=step_frac)
    write_ohlc_csv(records, out_dir / f"{slug}_data.csv")
    data, norm = prepare_splits(records)

    t0 = time.perf_counter()
    report = run_sweep(ARCHS, range(2, 11), data, config, pair=pair, window=WINDOW)
    elapsed = time.perf_counter() - t0
    write_file(out_dir / f"{slug}_report.csv", emit_report_csv(report))
    write_file(out_dir / f"{slug}_report.txt", render_report_table(report, "test_mae").encode())

    best = select_best(report, "test_mae").overall
    print(f"{pair}: swept 36 trials in {elapsed:.0f}s, "
          f"best {best.arch.upper()} {best.structure} test MAE {best.test_mae:.6g}")

    # retrain the winner (same per-trial seed, so the same model) to save
    # its weights and emit the test-set series for plotting
    model = trial_model(best.arch, best.hidden, WINDOW, config.seed)
    stack = ModelStack([model])
    train(stack, data.train, data.validation, config)
    write_file(out_dir / f"{slug}_best_model.json", save_model(model, norm))
    (result,) = evaluate(stack, data.test)
    write_file(out_dir / f"{slug}_best_test_series.csv", emit_series_csv(result))

    baseline = persistence_baseline(data.test)
    return pair, best, result.mae, baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--batch", type=int, default=TrainConfig.batch_size, help="mini-batch size")
    parser.add_argument("--seed", type=int, default=TrainConfig.seed, help="base seed for the grid")
    group = parser.add_mutually_exclusive_group()  # --quick sets the epochs itself
    group.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="epochs per trial")
    group.add_argument("--quick", action="store_true", help="use 200 epochs for a fast smoke run")
    args = parser.parse_args(argv)

    epochs = 200 if args.quick else args.epochs
    try:
        config = TrainConfig(epochs=epochs, batch_size=args.batch, seed=args.seed)
    except ValueError as e:  # TrainConfig's own range checks
        parser.error(str(e))
    out_dir = pathlib.Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        parser.exit(1, f"{parser.prog}: error: cannot create output directory {out_dir}: {e}\n")

    print(f"benchmark: 3 pairs x 36 trials at {epochs} epochs -> {out_dir}/")
    rows = [benchmark_pair(p, s, f, out_dir, config) for p, s, f in PAIRS]

    print()
    print(f"{'pair':<10} {'best':<14} {'test MAE':>12} {'persistence':>12} {'ratio':>7}")
    for pair, best, mae, baseline in rows:
        label = f"{best.arch.upper()} {best.structure}"
        print(f"{pair:<10} {label:<14} {mae:>12.6g} {baseline:>12.6g} {mae / baseline:>7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
