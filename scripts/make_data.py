#!/usr/bin/env python3
"""Generate synthetic OHLC benchmark datasets as CSV files.

Two generators are available: a multiplicative random walk that mimics the
noise profile of daily FX closes, and a noiseless constant-increment ramp
that any working model should fit almost exactly (useful as a smoke test
for the training loop).

Examples:
    python3 scripts/make_data.py --kind walk --n 1500 --seed 7 --out data/walk.csv
    python3 scripts/make_data.py --kind ramp --n 400 --increment 0.05 --out data/ramp.csv
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fxbench import emit_ohlc_csv, ramp_ohlc, random_walk_ohlc, write_atomic
from fxbench.synthetic import DEFAULT_INCREMENT, DEFAULT_START_PRICE, DEFAULT_STEP_FRAC


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Every usage error, argparse's own included, as one line, exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("walk", "ramp"), default="walk")
    parser.add_argument("--n", type=int, default=1500, help="number of daily records")
    parser.add_argument("--seed", type=int, default=7, help="walk noise seed")
    parser.add_argument(
        "--start", type=float, default=DEFAULT_START_PRICE, help="starting price level"
    )
    parser.add_argument(
        "--step-frac", type=float, default=DEFAULT_STEP_FRAC,
        help="walk: daily move is uniform within +/- this fraction of the level",
    )
    parser.add_argument(
        "--increment", type=float, default=DEFAULT_INCREMENT,
        help="ramp: constant daily close increase",
    )
    parser.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.kind == "walk":
            records = random_walk_ohlc(
                args.n, seed=args.seed, start=args.start, step_frac=args.step_frac
            )
        else:
            records = ramp_ohlc(args.n, increment=args.increment, start=args.start)
    except ValueError as e:  # the generator's own checks
        parser.error(str(e))

    out = pathlib.Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out, emit_ohlc_csv(records))
    except OSError as e:
        parser.exit(1, f"{parser.prog}: error: cannot write {out}: {e}\n")
    print(f"wrote {len(records)} {args.kind} records: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
