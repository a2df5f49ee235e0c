import datetime as dt

import numpy as np
import pytest

from fxbench import OhlcRecord


def make_records(closes, start=dt.date(2018, 1, 1), spread=0.5):
    """OHLC records around a given close series, one calendar day apart."""
    records = []
    prev = closes[0]
    for k, close in enumerate(closes):
        open_ = prev
        records.append(
            OhlcRecord(
                date=start + dt.timedelta(days=k),
                open=open_,
                high=max(open_, close) + spread,
                low=min(open_, close) - spread,
                close=close,
            )
        )
        prev = close
    return records


def wavy_closes(n):
    """A bounded oscillating close series where every feature varies."""
    t = np.arange(n)
    return list(100.0 + 3.0 * np.sin(t / 5.0) + 0.02 * t)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def wavy_records():
    return make_records(wavy_closes(60))
