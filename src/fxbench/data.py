"""OHLC ingestion, lag features, min-max normalization and chronological splits.

Input CSV contract: header `date,open,high,low,close`, UTF-8, dates
exactly `YYYY-MM-DD` on every Python version, decimal-point floats in
ASCII without `_` digit separators (surrounding spaces are allowed), one
record per trading day. Each supervised sample pairs yesterday's four
prices [open, high, low, close] with today's close, so a series of n
records yields n-1 samples, and a model of them takes 4 inputs and gives
1 output: `fxbench predict` refuses a model file of other sizes.

A record is an `OhlcRecord`, a NamedTuple of the five CSV fields: the
header `CSV_HEADER` is its field names in order, and `FEATURE_NAMES` the
four prices after the date. It stores its prices as given;
`write_ohlc_csv` formats any real price (a numpy scalar or an int too) as
the `repr` of its float.

Every sample is min-max scaled, and its `SupervisedDataset` carries the
`NormParams`: `build_supervised(records, norm)` is the one path from
records to samples, for `prepare_splits` and `fxbench predict` alike.

The fitted scaling and the splits are immutable values: `NormParams`
holds tuples of floats and compares with `==`, and `SplitDataset` is a
NamedTuple that iterates train, validation, test.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import logging
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


def _csv_rows(reader, label: str):
    """Yield the rows of a csv.reader, turning csv.Error (such as an
    oversized field) into a ValueError that names the line."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise ValueError(f"{label} {reader.line_num}: {e}") from None
        yield row


def parse_ohlc_csv(stream, *, sort: bool = False, validate: str = "warn") -> list[OhlcRecord]:
    """Parse an OHLC CSV stream into date-ascending records.

    By default the input must already be strictly ascending by date; with
    sort=True (the `ingest` path) rows are sorted first. Duplicate dates and
    non-positive prices are always rejected. validate in {'warn', 'error'}
    controls the low<=open,close<=high sanity check.
    """
    if validate not in ("warn", "error"):
        raise ValueError(f"validate must be 'warn' or 'error', got {validate!r}")
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)

    reader = csv.reader(stream)
    rows_in = _csv_rows(reader, "row")
    header = next(rows_in, None)
    if header is None:
        raise ValueError(f"row 1: missing header, expected {','.join(CSV_HEADER)}")
    if tuple(c.strip().lower() for c in header) != CSV_HEADER:
        raise ValueError(
            f"row 1: bad header {','.join(header)!r}, expected {','.join(CSV_HEADER)}"
        )

    rows: list[tuple[int, OhlcRecord]] = []
    for row in rows_in:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"row {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        cell = row[0].strip()
        try:
            # Python 3.11+ also reads forms such as 20180102 and 2018-W01-2
            if len(cell) != 10 or cell[4] != "-" or cell[7] != "-":
                raise ValueError(f"Invalid isoformat string: {cell!r}")
            date = dt.date.fromisoformat(cell)
        except ValueError as e:
            raise ValueError(f"row {line}: bad date {row[0]!r}: {e}") from None
        prices = []
        for name, field in zip(FEATURE_NAMES, row[1:]):
            try:
                value = _price(field)
            except ValueError:
                raise ValueError(f"row {line}: bad {name} value {field!r}") from None
            if not 0 < value < np.inf:  # also false for NaN
                raise ValueError(f"row {line}: {name} must be a positive finite price, got {field}")
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


def read_ohlc_csv(path, **kwargs) -> list[OhlcRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_ohlc_csv(fh, **kwargs)


@contextlib.contextmanager
def write_atomic(path):
    """A binary file whose bytes replace `path` only once the with-block
    ends without an exception.

    They go to a temporary file in the target's directory, which
    `os.replace` then renames onto the target, so a reader (or a process
    killed part-way) never sees a truncated file. If the block raises,
    the temporary file is removed and `path` is left as it was. An error
    in creating or renaming the temporary file names `path`.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        raise


def write_ohlc_csv(records: list[OhlcRecord], path):
    """Write records in the canonical CSV format, each price as the `repr`
    of its float (exact round trip), replacing `path` atomically
    (`write_atomic`)."""
    with write_atomic(path) as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode())
        for r in records:
            prices = (repr(float(v)) for v in (r.open, r.high, r.low, r.close))
            fh.write(",".join((r.date.isoformat(), *prices)).encode() + b"\n")


@dataclass(frozen=True)
class NormParams:
    """Fitted min/max per input feature (4) plus the close target (1), an
    immutable value: the feature bounds become tuples of floats, so equal
    fits compare equal and hash alike."""

    feature_min: tuple[float, ...]
    feature_max: tuple[float, ...]
    target_min: float
    target_max: float

    def __post_init__(self):
        for name in ("feature_min", "feature_max"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))


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
    return SupervisedDataset(
        features=normalize(prices[:-1], norm.feature_min, norm.feature_max),
        targets=normalize(prices[1:, 3], norm.target_min, norm.target_max),
        dates=tuple(r.date for r in records[1:]),
        norm=norm,
    )


def build_supervised(records: list[OhlcRecord], norm: NormParams) -> SupervisedDataset:
    """Pair each day's close with the previous day's [open, high, low, close],
    both scaled by `norm`."""
    return _scaled_samples(records, _price_array(records), norm)


def fit_minmax(prices: np.ndarray) -> NormParams:
    """Min/max of the samples that the (n, 4) raw prices of n consecutive
    days make: of each feature over days 0..n-2, of the close target over
    days 1..n-1.

    Pass the train days (the first n_train + 1) to avoid look-ahead
    leakage, or every day to mimic whole-series fitting.
    """
    if len(prices) < 2:
        raise ValueError(f"cannot fit normalization on fewer than 2 days, got {len(prices)}")
    fmin = prices[:-1].min(axis=0)
    fmax = prices[:-1].max(axis=0)
    for i, name in enumerate(FEATURE_NAMES):
        if not fmax[i] > fmin[i]:
            raise ValueError(f"feature '{name}' is constant (min == max == {fmin[i]})")
    tmin = float(prices[1:, 3].min())
    tmax = float(prices[1:, 3].max())
    if not tmax > tmin:
        raise ValueError(f"target 'close' is constant (min == max == {tmin})")
    return NormParams(feature_min=fmin, feature_max=fmax, target_min=tmin, target_max=tmax)


def normalize(value, feature_min, feature_max):
    """(v - min) / (max - min); out-of-range values map outside [0, 1], unclipped."""
    lo = np.asarray(feature_min, dtype=np.float64)
    hi = np.asarray(feature_max, dtype=np.float64)
    if not np.all(hi > lo):
        raise ValueError(f"normalize requires max > min, got min={feature_min}, max={feature_max}")
    return (np.asarray(value, dtype=np.float64) - lo) / (hi - lo)


def denormalize(norm_value, feature_min, feature_max):
    """Inverse of normalize: v * (max - min) + min."""
    lo = np.asarray(feature_min, dtype=np.float64)
    hi = np.asarray(feature_max, dtype=np.float64)
    if not np.all(hi > lo):
        raise ValueError(
            f"denormalize requires max > min, got min={feature_min}, max={feature_max}"
        )
    return np.asarray(norm_value, dtype=np.float64) * (hi - lo) + lo


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


def prepare_splits(
    records: list[OhlcRecord], fit_norm: str = FIT_NORMS[0]
) -> tuple[SplitDataset, NormParams]:
    """The DEFAULT_FRACTIONS chronological split of
    `build_supervised(records, norm)`, with the NormParams fitted on the
    days of the train split (fit_norm="train", no look-ahead) or on the
    whole series ("all"). The fit and the samples read one price array."""
    if fit_norm not in FIT_NORMS:
        raise ValueError(f"fit_norm must be one of {FIT_NORMS}, got {fit_norm!r}")
    prices = _price_array(records)
    n_train = _split_sizes(len(prices) - 1)[0]
    norm = fit_minmax(prices if fit_norm == "all" else prices[: n_train + 1])
    return chrono_split(_scaled_samples(records, prices, norm)), norm
