import dataclasses
import datetime as dt
import hashlib
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fxbench import (
    DEFAULT_FRACTIONS,
    NormParams,
    OhlcRecord,
    SplitDataset,
    SupervisedDataset,
    build_supervised,
    chrono_split,
    fit_minmax,
    parse_ohlc_csv,
    prepare_splits,
    ramp_ohlc,
    random_walk_ohlc,
    read_ohlc_csv,
    write_atomic,
    write_ohlc_csv,
)
import fxbench.data
from fxbench.synthetic import DEFAULT_START_DATE, _MAX_DAYS, _records
from conftest import UNIT_NORM, make_records, mangled_numbers, price_array

HEADER = "date,open,high,low,close\n"


# ---------------------------------------------------------------- parsing


def test_parse_single_row():
    text = HEADER + "2018-01-02,115.0,115.6,114.8,115.2\n"
    records = parse_ohlc_csv(text)
    assert len(records) == 1
    r = records[0]
    assert r.date == dt.date(2018, 1, 2)
    assert (r.open, r.high, r.low, r.close) == (115.0, 115.6, 114.8, 115.2)


def test_parse_empty_body():
    assert parse_ohlc_csv(HEADER) == []


def test_parse_rejects_negative_price_naming_row():
    text = HEADER + "2018-01-02,115.0,115.6,114.8,-1\n"
    with pytest.raises(ValueError, match="row 2"):
        parse_ohlc_csv(text)


@pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf", "0", "-0", "-1", "1e309"])
def test_parse_rejects_non_positive_or_non_finite_price(field):
    text = HEADER + f"2018-01-02,115.0,115.6,114.8,{field}\n"
    with pytest.raises(ValueError) as err:
        parse_ohlc_csv(text)
    assert str(err.value) == f"row 2: close must be a positive finite price, got {field}"


@pytest.mark.parametrize("date", ["20180102", "2018W012", "2018-W01-2", "2018-W01"])
def test_parse_accepts_only_yyyy_mm_dd_dates(date):
    # Python 3.11+ `date.fromisoformat` reads these as 2018-01-02 or 2018-01-01
    with pytest.raises(ValueError) as err:
        parse_ohlc_csv(HEADER + f"{date},115.0,115.6,114.8,115.2\n")
    assert str(err.value) == f"row 2: bad date {date!r}: Invalid isoformat string: {date!r}"


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="row 1"):
        parse_ohlc_csv("date,open,high,close,low\n")
    with pytest.raises(ValueError, match="row 1"):
        parse_ohlc_csv("")


def test_parse_rejects_malformed_rows_with_line_numbers():
    base = HEADER + "2018-01-02,115.0,115.6,114.8,115.2\n"
    with pytest.raises(ValueError, match="row 3"):
        parse_ohlc_csv(base + "not-a-date,1,2,0.5,1\n")
    with pytest.raises(ValueError, match="row 3.*open"):
        parse_ohlc_csv(base + "2018-01-03,x,2,0.5,1\n")
    with pytest.raises(ValueError, match="row 3.*5 fields"):
        parse_ohlc_csv(base + "2018-01-03,1,2\n")


def test_parse_rejects_duplicate_and_descending_dates():
    rows = "2018-01-02,1,2,0.5,1\n"
    with pytest.raises(ValueError, match="duplicate date"):
        parse_ohlc_csv(HEADER + rows + "2018-01-02,1,2,0.5,1\n")
    with pytest.raises(ValueError, match="not ascending"):
        parse_ohlc_csv(HEADER + rows + "2018-01-01,1,2,0.5,1\n")


def test_parse_sort_option_orders_rows():
    text = HEADER + "2018-01-03,2,3,1.5,2\n2018-01-02,1,2,0.5,1\n"
    with pytest.raises(ValueError, match="not ascending"):
        parse_ohlc_csv(text)
    records = parse_ohlc_csv(text, sort=True)
    assert [r.date.day for r in records] == [2, 3]


def test_parse_sanity_violation_warns_by_default_errors_when_strict(caplog):
    # close above high
    text = HEADER + "2018-01-02,1.0,1.1,0.9,1.5\n"
    with caplog.at_level("WARNING", logger="fxbench"):
        records = parse_ohlc_csv(text)
    assert len(records) == 1
    assert any("sanity" in m for m in caplog.messages)
    with pytest.raises(ValueError, match="sanity"):
        parse_ohlc_csv(text, validate="error")


def test_parse_accepts_crlf_and_bytes():
    payload = (HEADER + "2018-01-02,115.0,115.6,114.8,115.2\n").replace("\n", "\r\n")
    records = parse_ohlc_csv(payload.encode("utf-8"))
    assert records[0].close == 115.2


@pytest.mark.parametrize(
    "row,message",
    [
        ("2018-01-02,1_15.0,115.6,114.8,115.2", "row 2: bad open value '1_15.0'"),
        (
            "2018-01-02,115.0,\u0661\u0662\u0660.0,114.8,115.2",
            "row 2: bad high value '\u0661\u0662\u0660.0'",
        ),
    ],
    ids=["underscore", "arabic-indic-digits"],
)
def test_parse_refuses_a_price_in_a_form_no_writer_produces(row, message):
    # float() reads both, as 115.0 and 120.0
    with pytest.raises(ValueError) as err:
        parse_ohlc_csv(HEADER + row + "\n")
    assert str(err.value) == message


def test_parse_accepts_a_price_with_surrounding_spaces():
    (record,) = parse_ohlc_csv(HEADER + "2018-01-02, 115.0 ,115.6,114.8,115.2\n")
    assert record.open == 115.0


@given(mangled_numbers(st.floats(min_value=1e-300, max_value=1e300).map(repr)))
def test_parse_reads_a_price_only_in_ascii_without_separators(case):
    number, cell = case
    try:
        (record,) = parse_ohlc_csv(HEADER + f"2018-01-02,{cell},{number},{number},{number}\n")
    except ValueError as err:
        assert str(err) == f"row 2: bad open value {cell!r}"
        assert cell.strip() != number
        return
    assert cell.strip() == number  # only spaces around it
    assert record.open == float(number)


CSV_LIKE = st.text(alphabet="0123456789-.,:eE+naif \"'\n\r\t\x00")


@given(st.one_of(st.text(), CSV_LIKE))
def test_parse_arbitrary_body_returns_records_or_raises_value_error(body):
    try:
        records = parse_ohlc_csv(HEADER + body)
    except ValueError:
        return
    assert all(isinstance(r, OhlcRecord) for r in records)


def test_csv_write_read_round_trip(tmp_path, wavy_records):
    path = tmp_path / "data.csv"
    write_ohlc_csv(wavy_records, path)
    back = read_ohlc_csv(path)
    assert back == wavy_records


@pytest.mark.parametrize(
    "prices",
    [
        tuple(np.float64(v) for v in (1.1, 1.2000000000000002, 0.3, 1.15)),
        (101, 103, 99, 102),
    ],
    ids=["float64", "int"],
)
def test_write_ohlc_csv_writes_any_real_price_as_its_float(tmp_path, prices):
    record = OhlcRecord(dt.date(2018, 1, 2), *prices)
    as_floats = OhlcRecord(record.date, *(float(v) for v in prices))
    write_ohlc_csv([record], tmp_path / "given.csv")
    write_ohlc_csv([as_floats], tmp_path / "floats.csv")
    assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "floats.csv").read_bytes()
    back = read_ohlc_csv(tmp_path / "given.csv")
    assert back == [record]
    assert all(type(v) is float for v in back[0][1:])


def test_write_atomic_replaces_the_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    real_replace = os.replace
    seen = []

    def replace(src, dst):
        # the new bytes are complete in the temporary file before the rename
        seen.append((pathlib.Path(src).read_bytes(), target.read_bytes()))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    write_atomic(target, b"new bytes")
    assert seen == [(b"new bytes", b"old")]  # not replaced before the rename
    assert target.read_bytes() == b"new bytes"
    assert list(tmp_path.iterdir()) == [target]


def test_write_atomic_errors_name_the_target_not_the_temp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    for target in (tmp_path / "missing" / "out.csv", taken):  # no directory; is a directory
        with pytest.raises(OSError) as info:
            write_atomic(target, b"bytes")
        assert info.value.filename == str(target) and ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())


class _HalfWriter:
    """A file whose write puts down half the bytes, then is interrupted."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise KeyboardInterrupt  # killed mid-write


def test_a_write_that_fails_part_way_leaves_the_old_file(tmp_path, wavy_records, monkeypatch):
    target = tmp_path / "data.csv"
    write_ohlc_csv(wavy_records[:5], target)
    old = target.read_bytes()
    real_replace = os.replace

    def interrupted_replace(src, dst):
        if dst == target:
            raise KeyboardInterrupt  # killed between the write and the rename
        real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(fxbench.data, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(target, b"new bytes")
    assert target.read_bytes() == old and list(tmp_path.iterdir()) == [target]
    with monkeypatch.context() as m:
        m.setattr(os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            write_ohlc_csv(wavy_records, target)
    assert target.read_bytes() == old and list(tmp_path.iterdir()) == [target]
    # a record that cannot be formatted stops write_ohlc_csv before any write
    with pytest.raises(AttributeError):
        write_ohlc_csv(wavy_records[:30] + [None] + wavy_records[30:], target)
    assert target.read_bytes() == old
    assert list(tmp_path.iterdir()) == [target]


# ---------------------------------------------------------------- lag features


def test_build_supervised_pairs_previous_day_with_next_close():
    records = make_records([10.0, 11.0, 12.0])
    ds = build_supervised(records, UNIT_NORM)
    assert len(ds) == 2
    r0, r1 = records[0], records[1]
    assert np.array_equal(ds.features[0], [r0.open, r0.high, r0.low, r0.close])
    assert ds.targets[0] == records[1].close
    assert np.array_equal(ds.features[1], [r1.open, r1.high, r1.low, r1.close])
    assert ds.targets[1] == records[2].close


def test_build_supervised_counts():
    assert len(build_supervised(make_records(list(range(100, 1600))), UNIT_NORM)) == 1499


def test_build_supervised_requires_two_records():
    with pytest.raises(ValueError, match="at least 2"):
        build_supervised(make_records([10.0]), UNIT_NORM)


def test_build_supervised_two_identical_records():
    r = OhlcRecord(dt.date(2018, 1, 1), 10.0, 10.5, 9.5, 10.0)
    r2 = OhlcRecord(dt.date(2018, 1, 2), 10.0, 10.5, 9.5, 10.0)
    ds = build_supervised([r, r2], UNIT_NORM)
    assert len(ds) == 1
    assert ds.targets[0] == ds.features[0][3] == 10.0


def test_feature_dates_strictly_before_target_dates(wavy_records):
    ds = build_supervised(wavy_records, UNIT_NORM)
    for k, target_date in enumerate(ds.dates):
        assert wavy_records[k].date < target_date


# ---------------------------------------------------------------- normalization


def constant_days(n, start=0, price=10.0):
    """Records of days start..start+n-1 that all trade at one price."""
    return [
        OhlcRecord(dt.date(2018, 1, 1) + dt.timedelta(days=k), price, price + 0.5, price - 0.5,
                   price)
        for k in range(start, start + n)
    ]


def test_fit_minmax_over_closes():
    norm = fit_minmax(price_array(make_records([110.0, 120.0, 112.0, 115.0])))
    assert norm.target_min == 112.0 and norm.target_max == 120.0
    assert norm.feature_min[3] == 110.0 and norm.feature_max[3] == 120.0


def test_fit_minmax_rejects_constant_feature():
    message = "'feature_max' must exceed 'feature_min' for column 'open'"
    with pytest.raises(ValueError, match=message):
        fit_minmax(price_array(constant_days(5)))


def test_norm_params_is_an_immutable_value(wavy_records):
    prices = price_array(wavy_records)
    norm, refit = fit_minmax(prices), fit_minmax(prices)
    assert norm is not refit and norm == refit and hash(norm) == hash(refit)
    assert norm.feature_min == tuple(prices[:-1].min(axis=0).tolist())
    assert all(type(v) is float for v in norm.feature_min + norm.feature_max)
    assert norm != dataclasses.replace(norm, target_max=norm.target_max + 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        norm.feature_min = (0.0,) * 4
    with pytest.raises(TypeError):
        norm.feature_min[0] = 0.0
    assert norm == refit


def scaling(lo, hi):
    """The NormParams that maps [lo, hi] onto [0, 1] in all five columns."""
    return NormParams(feature_min=(lo,) * 4, feature_max=(hi,) * 4, target_min=lo, target_max=hi)


def scaled_columns(norm, v):
    """The price `v` scaled as each of the four features and as the target."""
    features, targets = norm.scale(np.full((2, 4), v))
    return np.append(features[0], targets[0])


def unscaled_columns(norm, scaled):
    """Five scaled values, as scaled_columns returns them, back to prices."""
    return np.append(norm.unscale_features(scaled[:4]), norm.unscale_targets(scaled[4]))


def test_normalize_hand_value():
    norm = scaling(110.0, 120.0)
    assert scaled_columns(norm, 115.2) == pytest.approx([0.52] * 5, abs=1e-12)
    assert np.all(scaled_columns(norm, 110.0) == 0.0)
    assert np.all(scaled_columns(norm, 120.0) == 1.0)


def test_out_of_fit_range_values_are_not_clipped():
    norm = scaling(110.0, 120.0)
    assert scaled_columns(norm, 130.0) == pytest.approx([2.0] * 5, abs=1e-12)
    assert scaled_columns(norm, 100.0) == pytest.approx([-1.0] * 5, abs=1e-12)
    assert unscaled_columns(norm, np.full(5, 2.0)) == pytest.approx([130.0] * 5, abs=1e-12)


VALID_BOUNDS = {
    "feature_min": (1.0, 2.0, 0.5, 1.1),
    "feature_max": (2.0, 3.0, 1.5, 2.1),
    "target_min": 1.1,
    "target_max": 2.1,
}
# (kind, index in the feature tuples or None, column name) of the five columns
COLUMNS = [
    ("feature", 0, "open"),
    ("feature", 1, "high"),
    ("feature", 2, "low"),
    ("feature", 3, "close"),
    ("target", None, "close"),
]


def bounds_with(field, index, value):
    """VALID_BOUNDS with `value` in `field`, at `index` of a feature tuple."""
    bounds = VALID_BOUNDS[field]
    if index is not None:
        value = bounds[:index] + (value,) + bounds[index + 1 :]
    return {**VALID_BOUNDS, field: value}


def test_normalize_rejects_degenerate_range():
    # NormParams refuses each unusable column by its own error, naming the
    # column and the field
    for kind, index, column in COLUMNS:
        lo_field, hi_field = f"{kind}_min", f"{kind}_max"
        lo = VALID_BOUNDS[lo_field] if index is None else VALID_BOUNDS[lo_field][index]
        finite = f"must be a finite number for column {column!r}"
        order = f"field {hi_field!r} must exceed {lo_field!r} for column {column!r}"
        for field, value, message in [
            (lo_field, math.nan, f"field {lo_field!r} {finite}, got nan"),
            (hi_field, math.inf, f"field {hi_field!r} {finite}, got inf"),
            (hi_field, True, f"field {hi_field!r} {finite}, got True"),
            (hi_field, lo, f"{order}, got min {lo!r}, max {lo!r}"),
            (hi_field, lo - 1.0, f"{order}, got min {lo!r}, max {lo - 1.0!r}"),
        ]:
            with pytest.raises(ValueError) as err:
                NormParams(**bounds_with(field, index, value))
            assert str(err.value) == message


@pytest.mark.parametrize("field", ["feature_min", "feature_max"])
def test_norm_params_refuses_feature_bounds_that_are_not_four_long(field):
    for bounds in ((1.0, 2.0, 0.5), (1.0, 2.0, 0.5, 1.1, 1.2)):
        with pytest.raises(ValueError) as err:
            NormParams(**{**VALID_BOUNDS, field: bounds})
        assert str(err.value) == f"field {field!r} must hold 4 values, got {len(bounds)}"


def test_norm_params_holds_floats_of_any_real_bound():
    norm = NormParams(
        feature_min=np.array([1, 2, 0.5, 1.1]),
        feature_max=[np.float32(2.0), 3, 1.5, 2.1],
        target_min=np.int64(1),
        target_max=2.1,
    )
    assert all(type(v) is float for v in (*norm.feature_min, *norm.feature_max))
    assert type(norm.target_min) is float and type(norm.target_max) is float
    assert norm == NormParams(
        feature_min=(1.0, 2.0, 0.5, 1.1), feature_max=(2.0, 3.0, 1.5, 2.1),
        target_min=1.0, target_max=2.1,
    )


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_normalize_round_trip(v, lo, span):
    norm = scaling(lo, lo + span)
    back = unscaled_columns(norm, scaled_columns(norm, v))
    assert np.all(np.abs(back - v) <= 1e-9 * max(1.0, abs(v)))


def test_round_trip_far_outside_fit_range():
    lo, hi = 100.0, 120.0
    norm = scaling(lo, hi)
    for v in np.linspace(lo - 10 * (hi - lo), hi + 10 * (hi - lo), 41):
        back = unscaled_columns(norm, scaled_columns(norm, v))
        assert np.all(np.abs(back - v) <= 1e-9 * max(1.0, abs(v)))


@given(st.floats(min_value=-100, max_value=100), st.floats(min_value=1e-3, max_value=10))
def test_normalize_strictly_monotonic(v, step):
    norm = scaling(-200.0, 200.0)
    assert np.all(scaled_columns(norm, v + step) > scaled_columns(norm, v))


def test_build_supervised_scales_by_its_norm(wavy_records):
    prices = price_array(wavy_records)
    norm = fit_minmax(prices)
    nds = build_supervised(wavy_records, norm)
    assert nds.norm is norm
    assert np.all(nds.features >= 0.0) and np.all(nds.features <= 1.0)
    assert np.all(nds.targets >= 0.0) and np.all(nds.targets <= 1.0)
    lo, hi = np.array(norm.feature_min), np.array(norm.feature_max)
    assert np.array_equal(nds.features, (prices[:-1] - lo) / (hi - lo))
    span = norm.target_max - norm.target_min
    assert np.array_equal(nds.targets, (prices[1:, 3] - norm.target_min) / span)
    close = nds.norm.unscale_features(nds.features)[:, 3]
    assert np.allclose(close, prices[:-1, 3], rtol=1e-12, atol=0)
    assert np.allclose(nds.norm.unscale_targets(nds.targets), prices[1:, 3], rtol=1e-12, atol=0)


def test_a_dataset_requires_its_norm():
    with pytest.raises(TypeError, match="norm"):
        SupervisedDataset(
            features=np.zeros((1, 4)), targets=np.zeros(1), dates=(dt.date(2018, 1, 2),)
        )


def test_fit_minmax_needs_two_days():
    with pytest.raises(ValueError, match="fewer than 2 days, got 1"):
        fit_minmax(price_array(make_records([10.0])))


# ---------------------------------------------------------------- splitting


def scaled(records):
    """The samples of records, scaled by a fit on all of them."""
    return build_supervised(records, fit_minmax(price_array(records)))


def test_split_sizes_1500():
    ds = scaled(make_records(list(np.linspace(100, 200, 1501))))
    split = chrono_split(ds)
    assert (len(split.train), len(split.validation), len(split.test)) == (1050, 225, 225)


def test_split_sizes_small_remainder_to_test():
    ds = scaled(make_records(list(np.linspace(100, 110, 11))))
    split = chrono_split(ds)
    assert (len(split.train), len(split.validation), len(split.test)) == (7, 1, 2)


def test_split_is_a_contiguous_partition(wavy_records):
    ds = scaled(wavy_records)
    split = chrono_split(ds)
    rebuilt = np.concatenate(
        [split.train.features, split.validation.features, split.test.features]
    )
    assert np.array_equal(rebuilt, ds.features)
    rebuilt_t = np.concatenate([split.train.targets, split.validation.targets, split.test.targets])
    assert np.array_equal(rebuilt_t, ds.targets)
    assert split.train.dates + split.validation.dates + split.test.dates == ds.dates


def test_split_order_is_strictly_chronological(wavy_records):
    split = chrono_split(scaled(wavy_records))
    assert max(split.train.dates) < min(split.validation.dates)
    assert max(split.validation.dates) < min(split.test.dates)


def test_splits_iterate_in_train_validation_test_order(wavy_records):
    for data in (chrono_split(scaled(wavy_records)), prepare_splits(wavy_records)):
        assert isinstance(data, SplitDataset)
        assert tuple(data) == (data.train, data.validation, data.test)


def test_split_rejects_empty_slices():
    # 6 samples split 4/0/2: floor(0.15 * 6) leaves no validation sample
    ds = scaled(make_records([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(ValueError, match=r"empty slice \(4/0/2\)"):
        chrono_split(ds)


@pytest.mark.parametrize("fit_norm", ["train", "all"])
def test_prepare_splits_normalizes_every_split_with_one_fit(wavy_records, fit_norm):
    data = prepare_splits(wavy_records, fit_norm)
    norm = data.train.norm  # one object, shared by all three splits
    prices = price_array(wavy_records)
    n = len(prices) - 1
    n_train, n_val = int(0.70 * n), int(0.15 * n)
    assert norm == fit_minmax(prices if fit_norm == "all" else prices[: n_train + 1])
    bounds = (0, n_train, n_train + n_val, n)
    for part, lo, hi in zip(data, bounds, bounds[1:]):
        # sample k pairs the prices of day k with the close of day k + 1
        assert part.norm is norm and part.dates == tuple(
            r.date for r in wavy_records[lo + 1 : hi + 1]
        )
        features, targets = norm.scale(prices[lo : hi + 1])
        assert np.array_equal(part.features, features)
        assert np.array_equal(part.targets, targets)


@pytest.mark.parametrize("fit_norm", ["train", "all"])
def test_prepare_splits_builds_its_samples_as_build_supervised(wavy_records, fit_norm):
    data = prepare_splits(wavy_records, fit_norm)
    for part, built in zip(data, chrono_split(build_supervised(wavy_records, data.train.norm))):
        assert part.norm == built.norm
        assert part.features.tobytes() == built.features.tobytes()
        assert part.targets.tobytes() == built.targets.tobytes()
        assert part.dates == built.dates


@pytest.mark.parametrize("fit_norm", ["train", "all"])
@pytest.mark.parametrize(
    "n,message",
    [
        (0, "need at least 2 records to build samples, got 0"),
        (1, "need at least 2 records to build samples, got 1"),
        (2, "split of 1 samples as (0.7, 0.15, 0.15) leaves an empty slice (0/0/1)"),
        (3, "split of 2 samples as (0.7, 0.15, 0.15) leaves an empty slice (1/0/1)"),
        (5, "split of 4 samples as (0.7, 0.15, 0.15) leaves an empty slice (2/0/2)"),
        (7, "split of 6 samples as (0.7, 0.15, 0.15) leaves an empty slice (4/0/2)"),
    ],
)
def test_prepare_splits_refuses_too_few_records(wavy_records, fit_norm, n, message):
    with pytest.raises(ValueError) as err:
        prepare_splits(wavy_records[:n], fit_norm)
    assert str(err.value) == message


def test_prepare_splits_refuses_a_constant_fit_region():
    message = (
        "field 'feature_max' must exceed 'feature_min' for column 'open', got min 10.0, max 10.0"
    )
    for fit_norm in ("train", "all"):
        with pytest.raises(ValueError) as err:
            prepare_splits(constant_days(40), fit_norm)
        assert str(err.value) == message
    # constant over the 27 train samples (days 0..27) only
    records = constant_days(30) + constant_days(10, start=30, price=11.0)
    with pytest.raises(ValueError) as err:
        prepare_splits(records, "train")
    assert str(err.value) == message
    data = prepare_splits(records, "all")
    assert [len(part) for part in data] == [27, 5, 7]


def test_prepare_splits_rejects_unknown_fit_norm(wavy_records):
    with pytest.raises(ValueError, match="fit_norm.*'val'"):
        prepare_splits(wavy_records, "val")


def test_default_fractions_constant():
    assert DEFAULT_FRACTIONS == (0.70, 0.15, 0.15)


# ---------------------------------------------------------------- synthetic series

# sha256 of write_ohlc_csv's output, recorded when both generators still
# built each row in a Python loop. The walk's closes are a running product
# taken in day order; any other order changes their last bits.
GOLDEN_WALK_SHA256 = {
    (7, 1): "14555184eb9ab463f2b75119107182e5828cbb97f857fd4e5978f4cb5595ea90",
    (7, 2): "b4dfcfc8eb90b866c107abf66f2dcbdfc213f60b914a58359f1abe51afc511f1",
    (7, 1500): "5d258c9cd2d17297d4fb5838919edf60c8f53924952d98c87086b70560e87708",
    (101, 1): "3dbb026aab337e3767d10019db4e4e885a8f3a0251f4e1fa984aab39705874db",
    (101, 2): "01b79306ed23b45d822e5b409e5c25aca2fc83c538ac0f7c3f05a99f71a75e98",
    (101, 1500): "b20393c77646263ec5f18c6ad184ad5b9ffc24ae21b1d7beb49674caf81d41f7",
    (202, 1): "c85eee18213b7d374de61f5b6f9f577cad306d2e662651fc2f08f18c33764334",
    (202, 2): "7d49b21506bfa519f20635388a6f33459d8b8d7bd4edf08f7db3e2ab4aff691c",
    (202, 1500): "e1fe798dbc68c6a1a296f25aa587beb36aae42b47597d63f997cc2d5537d0054",
    (303, 1): "b9d9901f5a7598b8f04bc646990d55ba6bc21e3eab71cb9734a66dac48eaffe9",
    (303, 2): "a9d42ee4668f4609db727776dcabc6d6ca2a025cf0cd090acade7f3f763e78f4",
    (303, 1500): "696b73db5f58891752435d1e1f6ae62d7694cc7f27d39084cb9c1b014e3d992d",
}
RAMP_ARGS = {"defaults": {}, "int-args": {"increment": 2, "start": 100}}
GOLDEN_RAMP_SHA256 = {
    (1, "defaults"): "b217649142ed622229432344294ecead3d4f67baa61b9ea62e22db69745dcaaa",
    (2, "defaults"): "60fbeeb47366de02eb281b6a6f59df3dd985a656d5657bfd4151bc3408c420a2",
    (400, "defaults"): "345df41facfaf7932625822217ab015484290145c9413c5229df63db1273d687",
    (1, "int-args"): "0fb6b669b6a0ff91a5064b3498f1033344a3844fbafbeb77bb9accd45f8f3b08",
    (2, "int-args"): "424052a4662d5dc233920c929243c55e54ff1e16b34acacb8c9d791ebe18464b",
    (400, "int-args"): "aae16246d0834d3488ea6cbeedfe9298d7122945911562a3c47c569e580d79ef",
}


def written_sha256(records, path):
    """sha256 of the CSV write_ohlc_csv makes of records, which must hold
    builtin floats only: an int argument may not reach a record as an int."""
    for r in records:
        assert all(type(v) is float for v in r[1:]), r
    write_ohlc_csv(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,n", sorted(GOLDEN_WALK_SHA256))
def test_random_walk_bytes_are_pinned(tmp_path, seed, n):
    records = random_walk_ohlc(n, seed)
    assert len(records) == n
    assert written_sha256(records, tmp_path / "walk.csv") == GOLDEN_WALK_SHA256[seed, n]


@pytest.mark.parametrize("n,args", sorted(GOLDEN_RAMP_SHA256))
def test_ramp_bytes_are_pinned(tmp_path, n, args):
    records = ramp_ohlc(n, **RAMP_ARGS[args])
    assert len(records) == n
    assert written_sha256(records, tmp_path / "ramp.csv") == GOLDEN_RAMP_SHA256[n, args]


def test_an_int_walk_start_gives_the_float_start_records():
    for start in (100, 2**70):  # 2**70 is beyond int64
        records = random_walk_ohlc(3, seed=7, start=start)
        assert records == random_walk_ohlc(3, seed=7, start=float(start))
        assert all(type(v) is float for r in records for v in r[1:])


def test_a_walk_takes_any_non_negative_int_seed():
    # the PCG64 stream, as numpy's SeedSequence, takes an int of any size as its seed
    assert len(random_walk_ohlc(3, 10**5000)) == 3
    assert random_walk_ohlc(3, 0) != random_walk_ohlc(3, 10**5000)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: ramp_ohlc(2.5), "n must be an integer, got 2.5"),
        (lambda: ramp_ohlc(True), "n must be an integer, got True"),
        (
            lambda: random_walk_ohlc(3, 0, start=True),
            "start price must be positive and finite, got True",
        ),
        (
            lambda: random_walk_ohlc(-(10**5000), 0),
            "need n >= 1 records, got -1000000000000000000000000000000... (5001 digits)",
        ),
        (
            lambda: random_walk_ohlc(3, 0, step_frac=10**400),
            "step_frac must be in (0, 1), got 10000000000000000000000000000000... (401 digits)",
        ),
        (
            lambda: ramp_ohlc(3, increment=10**400),
            "increment must be positive and finite, "
            "got 10000000000000000000000000000000... (401 digits)",
        ),
        (lambda: ramp_ohlc(3, start="100"), "start price must be positive and finite, got '100'"),
        (lambda: random_walk_ohlc(3, -1), "seed must be a non-negative integer, got -1"),
        (lambda: random_walk_ohlc(3, 1.5), "seed must be a non-negative integer, got 1.5"),
        (lambda: random_walk_ohlc(3, True), "seed must be a non-negative integer, got True"),
        (
            lambda: random_walk_ohlc(3, -(10**5000)),
            "seed must be a non-negative integer, "
            "got -1000000000000000000000000000000... (5001 digits)",
        ),
        # the last day would be 10000-01-01, past datetime.date.max
        (
            lambda: random_walk_ohlc(2915366, 0),
            "need n <= 2915365 records, the days from 2018-01-01 to 9999-12-31, got 2915366",
        ),
        (
            lambda: ramp_ohlc(2915366),
            "need n <= 2915365 records, the days from 2018-01-01 to 9999-12-31, got 2915366",
        ),
        # arguments in range whose prices leave the positive finite range; a numpy
        # warning fails the test (pyproject's filterwarnings)
        (
            lambda: ramp_ohlc(3, increment=10, start=1),
            "day 0 (2018-01-01): low must be a positive finite price, got -1.5",
        ),
        (
            lambda: ramp_ohlc(3, increment=1e308),
            "day 0 (2018-01-01): low must be a positive finite price, got -2.5e+307",
        ),
        (
            lambda: ramp_ohlc(3, increment=1e308, start=1e308),
            "day 1 (2018-01-02): open must be a positive finite price, got inf",
        ),
        (
            lambda: random_walk_ohlc(5000, 1, step_frac=0.999),
            "day 2485 (2024-10-21): low must be a positive finite price, got 0.0",
        ),
    ],
    ids=["ramp-n-float", "ramp-n-bool", "walk-start-bool", "walk-n-huge", "walk-step-frac-huge",
         "ramp-increment-huge", "ramp-start-string", "walk-seed-negative", "walk-seed-float",
         "walk-seed-bool", "walk-seed-huge-negative", "walk-n-past-date-max",
         "ramp-n-past-date-max", "ramp-low-negative", "ramp-low-overflow", "ramp-open-inf",
         "walk-low-zero"],
)
def test_generators_refuse_a_bad_argument_naming_it(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_the_last_day_a_generator_takes_is_date_max():
    assert DEFAULT_START_DATE + dt.timedelta(days=_MAX_DAYS - 1) == dt.date.max
    assert _MAX_DAYS == 2915365


def test_a_nan_price_is_refused_naming_its_day():
    prices = np.array([1.0, 2.0, np.nan])
    with pytest.raises(ValueError, match=r"^day 2 \(2018-01-03\): open must be a positive "):
        _records(prices, prices + 1, prices, prices)
