import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fxbench import (
    DEFAULT_FRACTIONS,
    OhlcRecord,
    build_supervised,
    chrono_split,
    denormalize,
    fit_minmax,
    normalize,
    normalize_dataset,
    parse_ohlc_csv,
    prepare_splits,
    read_ohlc_csv,
    write_atomic,
    write_ohlc_csv,
)
from conftest import make_records

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


def test_write_atomic_replaces_the_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with write_atomic(target) as fh:
        fh.write(b"new ")
        assert target.read_bytes() == b"old"  # not replaced before the block ends
        fh.write(b"bytes")
    assert target.read_bytes() == b"new bytes"
    assert list(tmp_path.iterdir()) == [target]


def test_write_atomic_errors_name_the_target_not_the_temp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    for target in (tmp_path / "missing" / "out.csv", taken):  # no directory; is a directory
        with pytest.raises(OSError) as info:
            with write_atomic(target) as fh:
                fh.write(b"bytes")
        assert info.value.filename == str(target) and ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())


def test_a_write_that_fails_part_way_leaves_the_old_file(tmp_path, wavy_records):
    target = tmp_path / "data.csv"
    write_ohlc_csv(wavy_records[:5], target)
    old = target.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        with write_atomic(target) as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt  # killed mid-write
    # a record that cannot be formatted stops write_ohlc_csv after 30 rows
    with pytest.raises(AttributeError):
        write_ohlc_csv(wavy_records[:30] + [None] + wavy_records[30:], target)
    assert target.read_bytes() == old
    assert list(tmp_path.iterdir()) == [target]


# ---------------------------------------------------------------- lag features


def test_build_supervised_pairs_previous_day_with_next_close():
    records = make_records([10.0, 11.0, 12.0])
    ds = build_supervised(records)
    assert len(ds) == 2
    r0, r1 = records[0], records[1]
    assert np.array_equal(ds.features[0], [r0.open, r0.high, r0.low, r0.close])
    assert ds.targets[0] == records[1].close
    assert np.array_equal(ds.features[1], [r1.open, r1.high, r1.low, r1.close])
    assert ds.targets[1] == records[2].close


def test_build_supervised_counts():
    assert len(build_supervised(make_records(list(range(100, 1600))))) == 1499


def test_build_supervised_requires_two_records():
    with pytest.raises(ValueError, match="at least 2"):
        build_supervised(make_records([10.0]))


def test_build_supervised_two_identical_records():
    r = OhlcRecord(dt.date(2018, 1, 1), 10.0, 10.5, 9.5, 10.0)
    r2 = OhlcRecord(dt.date(2018, 1, 2), 10.0, 10.5, 9.5, 10.0)
    ds = build_supervised([r, r2])
    assert len(ds) == 1
    assert ds.targets[0] == ds.features[0][3] == 10.0


def test_feature_dates_strictly_before_target_dates(wavy_records):
    ds = build_supervised(wavy_records)
    for k, target_date in enumerate(ds.dates):
        assert wavy_records[k].date < target_date


# ---------------------------------------------------------------- normalization


def test_fit_minmax_over_closes():
    ds = build_supervised(make_records([110.0, 120.0, 112.0, 115.0]))
    norm = fit_minmax(ds)
    assert norm.target_min == 112.0 and norm.target_max == 120.0
    assert norm.feature_min[3] == 110.0 and norm.feature_max[3] == 120.0


def test_fit_minmax_rejects_constant_feature():
    records = [
        OhlcRecord(dt.date(2018, 1, 1) + dt.timedelta(days=k), 10.0, 10.5, 9.5, 10.0)
        for k in range(5)
    ]
    with pytest.raises(ValueError, match="constant"):
        fit_minmax(build_supervised(records))


def test_normalize_hand_value():
    assert normalize(115.2, 110.0, 120.0) == pytest.approx(0.52, abs=1e-12)
    assert normalize(110.0, 110.0, 120.0) == 0.0
    assert normalize(120.0, 110.0, 120.0) == 1.0


def test_out_of_fit_range_values_are_not_clipped():
    assert normalize(130.0, 110.0, 120.0) == pytest.approx(2.0, abs=1e-12)
    assert normalize(100.0, 110.0, 120.0) == pytest.approx(-1.0, abs=1e-12)
    assert denormalize(2.0, 110.0, 120.0) == pytest.approx(130.0, abs=1e-12)


def test_normalize_rejects_degenerate_range():
    with pytest.raises(ValueError, match="max > min"):
        normalize(1.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="max > min"):
        denormalize(1.0, 5.0, 3.0)


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_normalize_round_trip(v, lo, span):
    hi = lo + span
    back = denormalize(normalize(v, lo, hi), lo, hi)
    assert abs(back - v) <= 1e-9 * max(1.0, abs(v))


def test_round_trip_far_outside_fit_range():
    lo, hi = 100.0, 120.0
    for v in np.linspace(lo - 10 * (hi - lo), hi + 10 * (hi - lo), 41):
        assert abs(denormalize(normalize(v, lo, hi), lo, hi) - v) <= 1e-9 * max(1.0, abs(v))


@given(st.floats(min_value=-100, max_value=100), st.floats(min_value=1e-3, max_value=10))
def test_normalize_strictly_monotonic(v, step):
    assert normalize(v + step, -200.0, 200.0) > normalize(v, -200.0, 200.0)


def test_normalize_dataset_marks_and_scales(wavy_records):
    ds = build_supervised(wavy_records)
    assert not ds.normalized
    norm = fit_minmax(ds)
    nds = normalize_dataset(ds, norm)
    assert nds.normalized and nds.norm is norm
    assert np.all(nds.features >= 0.0) and np.all(nds.features <= 1.0)
    assert np.all(nds.targets >= 0.0) and np.all(nds.targets <= 1.0)
    with pytest.raises(ValueError, match="already normalized"):
        normalize_dataset(nds, norm)
    with pytest.raises(ValueError, match="already normalized"):
        fit_minmax(nds)


# ---------------------------------------------------------------- splitting


def test_split_sizes_1500():
    ds = build_supervised(make_records(list(np.linspace(100, 200, 1501))))
    split = chrono_split(ds)
    assert (len(split.train), len(split.validation), len(split.test)) == (1050, 225, 225)


def test_split_sizes_small_remainder_to_test():
    ds = build_supervised(make_records(list(np.linspace(100, 110, 11))))
    split = chrono_split(ds)
    assert (len(split.train), len(split.validation), len(split.test)) == (7, 1, 2)


def test_split_is_a_contiguous_partition(wavy_records):
    ds = build_supervised(wavy_records)
    split = chrono_split(ds)
    rebuilt = np.concatenate(
        [split.train.features, split.validation.features, split.test.features]
    )
    assert np.array_equal(rebuilt, ds.features)
    rebuilt_t = np.concatenate([split.train.targets, split.validation.targets, split.test.targets])
    assert np.array_equal(rebuilt_t, ds.targets)
    assert split.train.dates + split.validation.dates + split.test.dates == ds.dates


def test_split_order_is_strictly_chronological(wavy_records):
    split = chrono_split(build_supervised(wavy_records))
    assert max(split.train.dates) < min(split.validation.dates)
    assert max(split.validation.dates) < min(split.test.dates)


def test_split_rejects_empty_slices():
    # 6 samples split 4/0/2: floor(0.15 * 6) leaves no validation sample
    ds = build_supervised(make_records([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(ValueError, match=r"empty slice \(4/0/2\)"):
        chrono_split(ds)


@pytest.mark.parametrize("fit_norm", ["train", "all"])
def test_prepare_splits_normalizes_every_split_with_one_fit(wavy_records, fit_norm):
    data, norm = prepare_splits(wavy_records, fit_norm)
    raw = build_supervised(wavy_records)
    raw_split = chrono_split(raw)
    assert norm.same_as(fit_minmax(raw if fit_norm == "all" else raw_split.train))
    for part, raw_part in (
        (data.train, raw_split.train),
        (data.validation, raw_split.validation),
        (data.test, raw_split.test),
    ):
        assert part.norm is norm and part.dates == raw_part.dates
        assert np.array_equal(
            part.features, normalize(raw_part.features, norm.feature_min, norm.feature_max)
        )
        assert np.array_equal(
            part.targets, normalize(raw_part.targets, norm.target_min, norm.target_max)
        )


def test_prepare_splits_rejects_unknown_fit_norm(wavy_records):
    with pytest.raises(ValueError, match="fit_norm.*'val'"):
        prepare_splits(wavy_records, "val")


def test_default_fractions_constant():
    assert DEFAULT_FRACTIONS == (0.70, 0.15, 0.15)
