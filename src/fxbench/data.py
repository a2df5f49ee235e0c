"""OHLC ingestion, lag features, min-max scaling and chronological splits.

Input CSV contract: header `date,open,high,low,close`, dates exactly
`YYYY-MM-DD` on every Python version, decimal-point floats in ASCII
without `_` digit separators (surrounding spaces are allowed), one
record per trading day, read as the report is by `_csv_rows` (UTF-8;
LF, CRLF or CR line ends). Each supervised sample pairs yesterday's four
prices [open, high, low, close] with today's close, so a series of n
records yields n-1 samples, and a model of them takes 4 inputs and gives
1 output: `fxbench predict` refuses a model file of other sizes.

A record is an `OhlcRecord`, a NamedTuple of the five CSV fields: the
header `CSV_HEADER` is its field names in order, and `FEATURE_NAMES` the
four prices after the date. It stores its prices as given;
`emit_ohlc_csv` returns a file's bytes, each real price (a numpy scalar
or an int too) as its float. Every CSV file is read by `_csv_rows` and
written by `_csv_bytes`, a cell being the `str` of its value.

Every sample is min-max scaled, and its `SupervisedDataset` carries the
`NormParams` as `.norm`, the one place the fit is handed out (the three
splits of `prepare_splits` share one): `build_supervised(records, norm)`
is the one path from records to samples, for `prepare_splits` and
`fxbench predict` alike.

The fitted scaling and the splits are immutable values: `NormParams`
holds floats and compares with `==`, and `SplitDataset` is a NamedTuple
that iterates train, validation, test. `NormParams` refuses an unusable
scaling when it is built, and it scales and unscales values itself.

Every layer's checks share three rules from here: `_is_real` (a finite
real number, not a bool), `_is_int` (an int, not a bool) and `_quoted`
(a refused value shown cut to QUOTE_CHARS characters plus its size).
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import logging
import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)


class OhlcRecord(NamedTuple):
    date: dt.date
    open: float
    high: float
    low: float
    close: float


CSV_HEADER = OhlcRecord._fields
FEATURE_NAMES = CSV_HEADER[1:]
QUOTE_CHARS = 32  # an error message quotes at most this much of a refused value


def _is_int(value) -> bool:
    """An int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number, not a bool; an int beyond the range of a float
    is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return real and math.isfinite(value)
    except OverflowError:
        return False


def _quoted(value, show=repr, limit=QUOTE_CHARS) -> str:
    """`show(value)` (its repr by default) for an error message, cut to its
    first `limit` characters plus its size, so the line stays short.

    An int is sized from its bits and cut by division, never converted
    whole: Python refuses to convert one of more than 4300 digits."""
    if _is_int(value):
        n = abs(value)
        digits = n.bit_length() * 30103 // 100000 + 1  # exact or one too many
        digits -= digits > 1 and n < 10 ** (digits - 1)
        text = "-" * (value < 0) + str(n // 10 ** max(digits - limit - 1, 0))
        size = f"{digits} digits"
    else:
        text = show(value)
        size = f"{len(text)} characters"
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({size})"


def _validate_record(rec: OhlcRecord, line: int, mode: str):
    # Real scraped feeds do contain low/high violations, hence warn-by-default.
    if rec.low > min(rec.open, rec.close) or rec.high < max(rec.open, rec.close):
        msg = (
            f"row {line}: OHLC sanity violated on {rec.date}: "
            f"low={rec.low} high={rec.high} open={rec.open} close={rec.close}"
        )
        if mode == "error":
            raise ValueError(msg)
        log.warning(msg)


def _price(cell: str) -> float:
    """float(cell), refusing the `_` separators and non-ASCII digits that
    float() also reads; surrounding ASCII spaces are allowed."""
    if "_" in cell or not cell.isascii():
        raise ValueError(cell)
    return float(cell)


def _csv_rows(data: bytes, label: str):
    """Yield (line, row), `line` the number of its last line, for the first
    row and each non-empty one after it of CSV bytes: UTF-8, lines ending at
    LF, CRLF or a lone CR (as with newline=""). A non-UTF-8 byte (refused
    before any row is read) or a csv.Error is one ValueError naming `{label} N`."""
    if not data.isascii():  # decode whole: the reader would give offsets in an 8 KiB chunk
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:  # bytes.splitlines ends lines by the same rule
            line, byte = len(data[: e.start + 1].splitlines()), data[e.start]
            raise ValueError(f"{label} {line}: not UTF-8: byte {byte:#04x} ({e.reason})") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        for row in reader:
            if row or reader.line_num == 1:  # the header, even when blank
                yield reader.line_num, row
    except csv.Error as e:  # the reader's own: a caller's error never enters at the yield
        raise ValueError(f"{label} {reader.line_num}: {e}") from None


def _csv_bytes(header, rows) -> bytes:
    """The one CSV writer, `_csv_rows`' inverse: UTF-8 bytes, each line ended
    by LF, each cell the `str` of its value (for a float, the shortest string
    that reads back to it), quoted only where CSV needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(str, row) for row in (header, *rows))
    return buf.getvalue().encode("utf-8")


def parse_ohlc_csv(data: bytes, *, sort: bool = False, validate: str = "warn") -> list[OhlcRecord]:
    """Parse the bytes of an OHLC CSV file into date-ascending records.

    By default the input must already be strictly ascending by date; with
    sort=True (the `ingest` path) rows are sorted first. Duplicate dates and
    non-positive prices are always rejected. validate in {'warn', 'error'}
    controls the low<=open,close<=high sanity check.
    """
    if validate not in ("warn", "error"):
        raise ValueError(f"validate must be 'warn' or 'error', got {_quoted(validate)}")
    rows_in = _csv_rows(data, "row")
    _, header = next(rows_in, (None, None))
    if header is None:
        raise ValueError(f"row 1: missing header, expected {','.join(CSV_HEADER)}")
    if tuple(c.strip().lower() for c in header) != CSV_HEADER:
        raise ValueError(
            f"row 1: bad header {_quoted(','.join(header))}, expected {','.join(CSV_HEADER)}"
        )

    rows: list[tuple[int, OhlcRecord]] = []
    for line, row in rows_in:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"row {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        cell = row[0].strip()
        try:
            # Python 3.11+ also reads forms such as 20180102 and 2018-W01-2
            if len(cell) != 10 or cell[4] != "-" or cell[7] != "-":
                raise ValueError(f"Invalid isoformat string: {_quoted(cell)}")
            date = dt.date.fromisoformat(cell)
        except ValueError as e:
            raise ValueError(f"row {line}: bad date {_quoted(row[0])}: {e}") from None
        prices = []
        for name, field in zip(FEATURE_NAMES, row[1:]):
            try:
                value = _price(field)
            except ValueError:
                raise ValueError(f"row {line}: bad {name} value {_quoted(field)}") from None
            if not 0 < value < np.inf:  # also false for NaN
                raise ValueError(
                    f"row {line}: {name} must be a positive finite price, got {_quoted(field, str)}"
                )
            prices.append(value)
        rows.append((line, OhlcRecord(date, *prices)))

    if sort:
        rows.sort(key=lambda item: item[1].date)
    prev: tuple[int, OhlcRecord] | None = None
    for line, rec in rows:
        if prev is not None:
            if rec.date == prev[1].date:
                raise ValueError(f"row {line}: duplicate date {rec.date}")
            if rec.date < prev[1].date:
                raise ValueError(
                    f"row {line}: dates not ascending ({rec.date} after {prev[1].date})"
                )
        _validate_record(rec, line, validate)
        prev = (line, rec)
    return [rec for _, rec in rows]


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with the bytes `data`, whole or not at all.

    They go to a temporary file in the target's directory, which
    `os.replace` then renames onto the target, so a reader (or a process
    killed part-way) never sees a truncated file. If the write or the
    rename raises, `KeyboardInterrupt` included, the temporary file is
    removed and `path` is left as it was. An error in creating, writing or
    renaming the temporary file names `path`.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        raise


def emit_ohlc_csv(records: list[OhlcRecord]) -> bytes:
    """Records as the bytes of the canonical CSV format, each price as its float."""
    return _csv_bytes(CSV_HEADER, ((r.date.isoformat(), *map(float, r[1:])) for r in records))


def _bound(value, field: str, column: str) -> float:
    """`value` as a float, refusing what is not a finite real number (a bool too)."""
    if not _is_real(value):
        raise ValueError(
            f"field {field!r} must be a finite number for column {column!r}, got {_quoted(value)}"
        )
    return float(value)


@dataclass(frozen=True)
class NormParams:
    """Fitted min/max per input feature (4) plus the close target (1): an
    immutable value of floats that compares and hashes by value, and is
    usable once built (each bound finite, each column's max above its
    min). It scales by (v - min) / (max - min) and unscales by
    v * (max - min) + min, elementwise and unclipped."""

    feature_min: tuple[float, ...]
    feature_max: tuple[float, ...]
    target_min: float
    target_max: float

    def __post_init__(self):
        for field in ("feature_min", "feature_max"):
            bounds = tuple(getattr(self, field))
            if len(bounds) != len(FEATURE_NAMES):
                raise ValueError(f"field {field!r} must hold 4 values, got {len(bounds)}")
            bounds = tuple(_bound(v, field, column) for v, column in zip(bounds, FEATURE_NAMES))
            object.__setattr__(self, field, bounds)
        for field in ("target_min", "target_max"):
            object.__setattr__(self, field, _bound(getattr(self, field), field, "close"))
        lows, highs = self.feature_min + (self.target_min,), self.feature_max + (self.target_max,)
        for i, (column, lo, hi) in enumerate(zip(FEATURE_NAMES + ("close",), lows, highs)):
            if not hi > lo:
                kind = "feature" if i < len(FEATURE_NAMES) else "target"
                raise ValueError(
                    f"field '{kind}_max' must exceed '{kind}_min' for column {column!r}, "
                    f"got min {lo!r}, max {hi!r}"
                )

    @property
    def target_span(self) -> float:
        """target_max - target_min, the close range that scales targets and
        turns an MAE in prices into a normalized one."""
        return self.target_max - self.target_min

    def scale(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The scaled samples of n consecutive days' (n, 4) raw prices: the
        features of days 0..n-2 and the close targets of days 1..n-1."""
        lo, hi = np.array(self.feature_min), np.array(self.feature_max)
        features = (prices[:-1] - lo) / (hi - lo)
        targets = (prices[1:, 3] - self.target_min) / self.target_span
        return features, targets

    def unscale_features(self, features) -> np.ndarray:
        """The raw prices of scaled features, an array of rows of 4."""
        lo, hi = np.array(self.feature_min), np.array(self.feature_max)
        return np.asarray(features, dtype=np.float64) * (hi - lo) + lo

    def unscale_targets(self, targets) -> np.ndarray:
        """The raw closes of scaled targets or predictions."""
        return np.asarray(targets, dtype=np.float64) * self.target_span + self.target_min


@dataclass(eq=False)
class SupervisedDataset:
    """Scaled lag features: features[k] is yesterday's OHLC, targets[k] today's close."""

    features: np.ndarray  # (n, 4)
    targets: np.ndarray  # (n,)
    dates: tuple[dt.date, ...]  # date of each target day
    norm: NormParams  # the scaling of features and targets

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.targets) != len(self.features):
            raise ValueError(
                f"inconsistent dataset shapes: features {self.features.shape}, "
                f"targets {self.targets.shape}"
            )
        if len(self.dates) != len(self.targets):
            raise ValueError("one date per sample required")

    def __len__(self) -> int:
        return len(self.targets)


def _price_array(records: list[OhlcRecord]) -> np.ndarray:
    """The (n, 4) raw prices of n >= 2 records, in FEATURE_NAMES order."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records to build samples, got {len(records)}")
    return np.array([r[1:] for r in records], dtype=np.float64)


def _scaled_samples(records: list[OhlcRecord], prices: np.ndarray, norm: NormParams):
    """The samples of `records`, whose raw prices are `prices`, scaled by `norm`."""
    return SupervisedDataset(*norm.scale(prices), tuple(r.date for r in records[1:]), norm)


def build_supervised(records: list[OhlcRecord], norm: NormParams) -> SupervisedDataset:
    """Pair each day's close with the previous day's [open, high, low, close],
    both scaled by `norm`."""
    return _scaled_samples(records, _price_array(records), norm)


def fit_minmax(prices: np.ndarray) -> NormParams:
    """Min/max of the samples that the (n, 4) raw prices of n consecutive
    days make: of each feature over days 0..n-2, of the close target over
    days 1..n-1.

    Pass the train days (the first n_train + 1) to avoid look-ahead
    leakage, or every day to mimic whole-series fitting. NormParams refuses
    a column that is constant over the days given.
    """
    if len(prices) < 2:
        raise ValueError(f"cannot fit normalization on fewer than 2 days, got {len(prices)}")
    features, closes = prices[:-1], prices[1:, 3]
    return NormParams(features.min(axis=0), features.max(axis=0), closes.min(), closes.max())


class SplitDataset(NamedTuple):
    """Chronologically contiguous train < validation < test views, in that order."""

    train: SupervisedDataset
    validation: SupervisedDataset
    test: SupervisedDataset


DEFAULT_FRACTIONS = (0.70, 0.15, 0.15)
FIT_NORMS = ("train", "all")


def _split_sizes(n: int) -> tuple[int, int, int]:
    """The split of n samples by DEFAULT_FRACTIONS, refusing an empty slice."""
    n_train = int(np.floor(DEFAULT_FRACTIONS[0] * n))
    n_val = int(np.floor(DEFAULT_FRACTIONS[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split of {n} samples as {DEFAULT_FRACTIONS} leaves an empty slice "
            f"({n_train}/{n_val}/{n_test})"
        )
    return n_train, n_val, n_test


def chrono_split(dataset: SupervisedDataset) -> SplitDataset:
    """Slice into train/validation/test of floor(0.70 n), floor(0.15 n) and
    the remainder (DEFAULT_FRACTIONS)."""
    n_train, n_val, _ = _split_sizes(len(dataset))

    def view(lo, hi):
        return SupervisedDataset(
            features=dataset.features[lo:hi],
            targets=dataset.targets[lo:hi],
            dates=dataset.dates[lo:hi],
            norm=dataset.norm,
        )

    return SplitDataset(
        train=view(0, n_train),
        validation=view(n_train, n_train + n_val),
        test=view(n_train + n_val, len(dataset)),
    )


def prepare_splits(records: list[OhlcRecord], fit_norm: str = FIT_NORMS[0]) -> SplitDataset:
    """The DEFAULT_FRACTIONS chronological split of
    `build_supervised(records, norm)`, with the NormParams fitted on the
    days of the train split (fit_norm="train", no look-ahead) or on the
    whole series ("all"); each split carries it as `.norm`. The fit and
    the samples read one price array."""
    if fit_norm not in FIT_NORMS:
        raise ValueError(f"fit_norm must be one of {FIT_NORMS}, got {_quoted(fit_norm)}")
    prices = _price_array(records)
    n_train = _split_sizes(len(prices) - 1)[0]
    norm = fit_minmax(prices if fit_norm == "all" else prices[: n_train + 1])
    return chrono_split(_scaled_samples(records, prices, norm))
