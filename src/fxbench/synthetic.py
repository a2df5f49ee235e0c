"""Synthetic OHLC series generators for benchmarks and sanity checks.

Two generators: a multiplicative random walk (close moves by a uniform
fraction of its level each day) and a noiseless constant-increment ramp.
Both emit records that satisfy the OHLC sanity constraints
low <= min(open, close) and high >= max(open, close), with strictly
increasing dates, so they pass strict ingestion: arguments that would
take a price out of the positive finite range, or a day past
`datetime.date.max`, are refused with one ValueError. Each computes its
series as float64 arrays and returns a list of `OhlcRecord` NamedTuples
holding builtin floats and `datetime.date`s. The walk draws its noise
from `_pcg.PCG64`, the stream of numpy's `default_rng(seed)`.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from ._pcg import PCG64
from .data import FEATURE_NAMES, OhlcRecord, _is_int, _is_real, _quoted

DEFAULT_START_DATE = dt.date(2018, 1, 1)
DEFAULT_START_PRICE = 100.0  # first price level of either generator
DEFAULT_STEP_FRAC = 0.001  # random walk: largest daily move, as a fraction of the level
DEFAULT_INCREMENT = 0.05  # ramp: daily close increase
_MAX_DAYS = (dt.date.max - DEFAULT_START_DATE).days + 1  # the last day is date.max


def _check(n, start) -> None:
    """Refuse, naming the argument, an `n` that is not an int of at least 1
    or whose last day would pass `datetime.date.max`, and a `start` that
    is not a positive finite real (a bool is neither)."""
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {_quoted(n)}")
    if n < 1:
        raise ValueError(f"need n >= 1 records, got {_quoted(n)}")
    if n > _MAX_DAYS:
        raise ValueError(
            f"need n <= {_MAX_DAYS} records, the days from {DEFAULT_START_DATE} to "
            f"{dt.date.max}, got {_quoted(n)}"
        )
    if not (_is_real(start) and start > 0):
        raise ValueError(f"start price must be positive and finite, got {_quoted(start)}")


def _records(opens, highs, lows, closes) -> list[OhlcRecord]:
    """One record per day from DEFAULT_START_DATE on, from (n,) price arrays;
    refuses, naming the first such day, a price that is not positive and
    finite, which strict ingestion would refuse."""
    dates = (np.datetime64(DEFAULT_START_DATE, "D") + np.arange(len(closes))).tolist()
    prices = np.stack((opens, highs, lows, closes), axis=1)
    bad = ~((prices > 0) & (prices < np.inf))  # NaN too
    if bad.any():
        day, column = divmod(int(bad.argmax()), len(FEATURE_NAMES))
        raise ValueError(
            f"day {day} ({dates[day]}): {FEATURE_NAMES[column]} must be a positive finite "
            f"price, got {float(prices[day, column])}"
        )
    return list(map(OhlcRecord, dates, *(a.tolist() for a in (opens, highs, lows, closes))))


def random_walk_ohlc(
    n: int, seed: int, start: float = DEFAULT_START_PRICE, step_frac: float = DEFAULT_STEP_FRAC
) -> list[OhlcRecord]:
    """Random-walk series: close_t = close_{t-1} * (1 + u_t), u_t ~ U(-s, s).

    Each day opens at the previous close; high/low pad the open/close
    envelope by a small random non-negative fraction of the level.
    """
    _check(n, start)
    if not (_is_real(step_frac) and 0 < step_frac < 1):
        raise ValueError(f"step_frac must be in (0, 1), got {_quoted(step_frac)}")
    if not (_is_int(seed) and seed >= 0):  # PCG64 seeds its stream with any such int
        raise ValueError(f"seed must be a non-negative integer, got {_quoted(seed)}")
    start, rng = float(start), PCG64(seed)  # an int past int64 would give an object path
    steps = rng.uniform(-step_frac, step_frac, (n,))
    pads = rng.uniform(0.0, step_frac / 2, (n, 2))
    with np.errstate(over="ignore"):  # a price past a float's range is refused by _records
        # start, then each close as the running product in day order
        path = np.multiply.accumulate(np.concatenate(([start], 1.0 + steps)))
        opens, closes = path[:-1], path[1:]
        highs = np.maximum(opens, closes) * (1.0 + pads[:, 0])
        lows = np.minimum(opens, closes) * (1.0 - pads[:, 1])
    return _records(opens, highs, lows, closes)


def ramp_ohlc(
    n: int, increment: float = DEFAULT_INCREMENT, start: float = DEFAULT_START_PRICE
) -> list[OhlcRecord]:
    """Noiseless ramp: close_t = start + t * increment, open at prior close.

    Deterministic by construction (no RNG). The high/low pad is a fixed
    quarter-increment so every feature column still has a nonzero range.
    """
    _check(n, start)
    if not (_is_real(increment) and increment > 0):
        raise ValueError(f"increment must be positive and finite, got {_quoted(increment)}")
    increment, start = float(increment), float(start)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused by _records
        closes = start + np.arange(n) * increment
        opens = closes - increment
        opens[0] = start
        pad = increment * 0.25
        highs = np.maximum(opens, closes) + pad
        lows = np.minimum(opens, closes) - pad
    return _records(opens, highs, lows, closes)
