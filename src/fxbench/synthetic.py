"""Synthetic OHLC series generators for benchmarks and sanity checks.

Two generators: a multiplicative random walk (close moves by a uniform
fraction of its level each day) and a noiseless constant-increment ramp.
Both emit records that satisfy the OHLC sanity constraints
low <= min(open, close) and high >= max(open, close), with strictly
increasing dates, so they pass strict ingestion. Each computes its
series as float64 arrays and returns a list of `OhlcRecord` NamedTuples
holding builtin floats and `datetime.date`s.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .data import OhlcRecord

DEFAULT_START_DATE = dt.date(2018, 1, 1)
DEFAULT_START_PRICE = 100.0  # first price level of either generator
DEFAULT_STEP_FRAC = 0.001  # random walk: largest daily move, as a fraction of the level
DEFAULT_INCREMENT = 0.05  # ramp: daily close increase


def _records(opens, highs, lows, closes) -> list[OhlcRecord]:
    """One record per day from DEFAULT_START_DATE on, from (n,) price arrays."""
    dates = (np.datetime64(DEFAULT_START_DATE, "D") + np.arange(len(closes))).tolist()
    prices = (a.tolist() for a in (opens, highs, lows, closes))
    return list(map(OhlcRecord, dates, *prices))


def random_walk_ohlc(
    n: int, seed: int, start: float = DEFAULT_START_PRICE, step_frac: float = DEFAULT_STEP_FRAC
) -> list[OhlcRecord]:
    """Random-walk series: close_t = close_{t-1} * (1 + u_t), u_t ~ U(-s, s).

    Each day opens at the previous close; high/low pad the open/close
    envelope by a small random non-negative fraction of the level.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 records, got {n}")
    if not (0 < step_frac < 1):
        raise ValueError(f"step_frac must be in (0, 1), got {step_frac}")
    if not 0 < start < np.inf:
        raise ValueError(f"start price must be positive and finite, got {start}")
    rng = np.random.default_rng(seed)
    steps = rng.uniform(-step_frac, step_frac, size=n)
    pads = rng.uniform(0.0, step_frac / 2, size=(n, 2))
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
    if n < 1:
        raise ValueError(f"need n >= 1 records, got {n}")
    if not 0 < increment < np.inf:
        raise ValueError(f"increment must be positive and finite, got {increment}")
    if not 0 < start < np.inf:
        raise ValueError(f"start price must be positive and finite, got {start}")
    increment, start = float(increment), float(start)
    closes = start + np.arange(n) * increment
    opens = closes - increment
    opens[0] = start
    pad = increment * 0.25
    highs = np.maximum(opens, closes) + pad
    lows = np.minimum(opens, closes) - pad
    return _records(opens, highs, lows, closes)
