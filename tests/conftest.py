import datetime as dt

import numpy as np
import pytest
from hypothesis import strategies as st

from fxbench import NormParams, OhlcRecord

# the scaling that leaves every price as it is: (v - 0) / (1 - 0) == v
UNIT_NORM = NormParams(
    feature_min=(0.0,) * 4, feature_max=(1.0,) * 4, target_min=0.0, target_max=1.0
)


def price_array(records):
    """The (n, 4) raw prices of records, the array `fit_minmax` fits on."""
    return np.array([r[1:] for r in records], dtype=np.float64)


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


# the digits 0-9 in Arabic-Indic, fullwidth and Devanagari script, which
# int() and float() read as the ASCII digits
NON_ASCII_DIGITS = ("\u0660", "\uff10", "\u0966")


@st.composite
def mangled_numbers(draw, numbers):
    """(a number's text from `numbers`, that text with one to three `_`
    separators or spaces put in, or ASCII digits swapped for the same
    digits in another script): forms that int() or float() may still read
    but that no writer produces."""
    text = draw(numbers)
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        digits = [k for k, c in enumerate(chars) if "0" <= c <= "9"]
        how = draw(st.sampled_from(["_", " ", "digit"] if digits else ["_", " "]))
        if how == "digit":
            k = draw(st.sampled_from(digits))
            chars[k] = chr(ord(draw(st.sampled_from(NON_ASCII_DIGITS))) + int(chars[k]))
        else:
            chars.insert(draw(st.integers(0, len(chars))), how)
    return text, "".join(chars)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def wavy_records():
    return make_records(wavy_closes(60))
