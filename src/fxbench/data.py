"""OHLC ingestion, lag features, min-max normalization and chronological splits.

Input CSV contract: header `date,open,high,low,close`, UTF-8, ISO-8601
dates, decimal-point floats, one record per trading day. Each supervised
sample pairs yesterday's four prices [open, high, low, close] with today's
close, so a series of n records yields n-1 samples.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import logging
import os
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

CSV_HEADER = ("date", "open", "high", "low", "close")
FEATURE_NAMES = ("open", "high", "low", "close")


@dataclass(frozen=True)
class OhlcRecord:
    date: dt.date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        # pin the price fields to builtin floats so formatting (repr) and
        # equality behave identically regardless of what produced them
        for name in ("open", "high", "low", "close"):
            object.__setattr__(self, name, float(getattr(self, name)))


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
        raise ValueError("row 1: missing header, expected date,open,high,low,close")
    if tuple(c.strip().lower() for c in header) != CSV_HEADER:
        raise ValueError(
            f"row 1: bad header {','.join(header)!r}, expected date,open,high,low,close"
        )

    rows: list[tuple[int, OhlcRecord]] = []
    for row in rows_in:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"row {line}: expected 5 fields, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as e:
            raise ValueError(f"row {line}: bad date {row[0]!r}: {e}") from None
        prices = []
        for name, field in zip(CSV_HEADER[1:], row[1:]):
            try:
                value = float(field)
            except ValueError:
                raise ValueError(f"row {line}: bad {name} value {field!r}") from None
            if not np.isfinite(value) or value <= 0:
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
    """Write records in the canonical CSV format (exact float round trip),
    replacing `path` atomically (`write_atomic`)."""
    with write_atomic(path) as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode())
        for r in records:
            fh.write(f"{r.date.isoformat()},{r.open!r},{r.high!r},{r.low!r},{r.close!r}\n".encode())


@dataclass(frozen=True, eq=False)
class NormParams:
    """Fitted min/max per input feature (4) plus the close target (1)."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    def same_as(self, other: "NormParams") -> bool:
        return (
            np.array_equal(self.feature_min, other.feature_min)
            and np.array_equal(self.feature_max, other.feature_max)
            and self.target_min == other.target_min
            and self.target_max == other.target_max
        )


@dataclass(eq=False)
class SupervisedDataset:
    """Lag-feature windows: features[k] is yesterday's OHLC, targets[k] today's close."""

    features: np.ndarray  # (n, 4)
    targets: np.ndarray  # (n,)
    dates: tuple[dt.date, ...]  # date of each target day
    norm: NormParams | None = None  # set once the dataset is normalized

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.targets) != len(self.features):
            raise ValueError(
                f"inconsistent dataset shapes: features {self.features.shape}, "
                f"targets {self.targets.shape}"
            )
        if len(self.dates) != len(self.targets):
            raise ValueError("one date per sample required")

    @property
    def normalized(self) -> bool:
        return self.norm is not None

    def __len__(self) -> int:
        return len(self.targets)


def build_supervised(records: list[OhlcRecord]) -> SupervisedDataset:
    """Pair each day's close with the previous day's [open, high, low, close]."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records to build samples, got {len(records)}")
    feats = np.array([[r.open, r.high, r.low, r.close] for r in records[:-1]])
    targets = np.array([r.close for r in records[1:]])
    dates = tuple(r.date for r in records[1:])
    return SupervisedDataset(features=feats, targets=targets, dates=dates)


def fit_minmax(dataset: SupervisedDataset) -> NormParams:
    """Per-feature and target min/max over the given fit region.

    Pass the training split to avoid look-ahead leakage, or the whole
    dataset to mimic whole-series fitting.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    if dataset.normalized:
        raise ValueError("refusing to fit normalization on an already normalized dataset")
    fmin = dataset.features.min(axis=0)
    fmax = dataset.features.max(axis=0)
    for i, name in enumerate(FEATURE_NAMES):
        if not fmax[i] > fmin[i]:
            raise ValueError(f"feature '{name}' is constant (min == max == {fmin[i]})")
    tmin = float(dataset.targets.min())
    tmax = float(dataset.targets.max())
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


def normalize_dataset(dataset: SupervisedDataset, norm: NormParams) -> SupervisedDataset:
    if dataset.normalized:
        raise ValueError("dataset is already normalized")
    return SupervisedDataset(
        features=normalize(dataset.features, norm.feature_min, norm.feature_max),
        targets=normalize(dataset.targets, norm.target_min, norm.target_max),
        dates=dataset.dates,
        norm=norm,
    )


@dataclass(eq=False)
class SplitDataset:
    """Chronologically contiguous train < validation < test views."""

    train: SupervisedDataset
    validation: SupervisedDataset
    test: SupervisedDataset


DEFAULT_FRACTIONS = (0.70, 0.15, 0.15)
FIT_NORMS = ("train", "all")


def chrono_split(dataset: SupervisedDataset) -> SplitDataset:
    """Slice into train/validation/test of floor(0.70 n), floor(0.15 n) and
    the remainder (DEFAULT_FRACTIONS)."""
    n = len(dataset)
    n_train = int(np.floor(DEFAULT_FRACTIONS[0] * n))
    n_val = int(np.floor(DEFAULT_FRACTIONS[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split of {n} samples as {DEFAULT_FRACTIONS} leaves an empty slice "
            f"({n_train}/{n_val}/{n_test})"
        )

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
        test=view(n_train + n_val, n),
    )


def prepare_splits(
    records: list[OhlcRecord], fit_norm: str = "train"
) -> tuple[SplitDataset, NormParams]:
    """Records -> lag features -> DEFAULT_FRACTIONS chronological split ->
    normalized splits, with the NormParams fitted on the train split
    (fit_norm="train", no look-ahead) or on the whole series ("all")."""
    if fit_norm not in FIT_NORMS:
        raise ValueError(f"fit_norm must be one of {FIT_NORMS}, got {fit_norm!r}")
    dataset = build_supervised(records)
    split = chrono_split(dataset)
    norm = fit_minmax(dataset if fit_norm == "all" else split.train)
    normalized = SplitDataset(
        train=normalize_dataset(split.train, norm),
        validation=normalize_dataset(split.validation, norm),
        test=normalize_dataset(split.test, norm),
    )
    return normalized, norm
