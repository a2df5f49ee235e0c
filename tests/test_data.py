import dataclasses
import datetime as dt
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fxbench import (
    DEFAULT_FRACTIONS,
    OhlcRecord,
    SplitDataset,
    SupervisedDataset,
    build_supervised,
    chrono_split,
    denormalize,
    fit_minmax,
    normalize,
    parse_ohlc_csv,
    prepare_splits,
    ramp_ohlc,
    random_walk_ohlc,
    read_ohlc_csv,
    write_atomic,
    write_ohlc_csv,
)
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
    with pytest.raises(ValueError, match="constant"):
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


def test_build_supervised_scales_by_its_norm(wavy_records):
    prices = price_array(wavy_records)
    norm = fit_minmax(prices)
    nds = build_supervised(wavy_records, norm)
    assert nds.norm is norm
    assert np.all(nds.features >= 0.0) and np.all(nds.features <= 1.0)
    assert np.all(nds.targets >= 0.0) and np.all(nds.targets <= 1.0)
    assert np.array_equal(
        nds.features, normalize(prices[:-1], norm.feature_min, norm.feature_max)
    )
    assert np.array_equal(nds.targets, normalize(prices[1:, 3], norm.target_min, norm.target_max))


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
    for data in (chrono_split(scaled(wavy_records)), prepare_splits(wavy_records)[0]):
        assert isinstance(data, SplitDataset)
        assert tuple(data) == (data.train, data.validation, data.test)


def test_split_rejects_empty_slices():
    # 6 samples split 4/0/2: floor(0.15 * 6) leaves no validation sample
    ds = scaled(make_records([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(ValueError, match=r"empty slice \(4/0/2\)"):
        chrono_split(ds)


@pytest.mark.parametrize("fit_norm", ["train", "all"])
def test_prepare_splits_normalizes_every_split_with_one_fit(wavy_records, fit_norm):
    data, norm = prepare_splits(wavy_records, fit_norm)
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
        assert np.array_equal(
            part.features, normalize(prices[lo:hi], norm.feature_min, norm.feature_max)
        )
        assert np.array_equal(
            part.targets, normalize(prices[lo + 1 : hi + 1, 3], norm.target_min, norm.target_max)
        )


@pytest.mark.parametrize("fit_norm", ["train", "all"])
def test_prepare_splits_builds_its_samples_as_build_supervised(wavy_records, fit_norm):
    data, norm = prepare_splits(wavy_records, fit_norm)
    for part, built in zip(data, chrono_split(build_supervised(wavy_records, norm))):
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
    message = "feature 'open' is constant (min == max == 10.0)"
    for fit_norm in ("train", "all"):
        with pytest.raises(ValueError) as err:
            prepare_splits(constant_days(40), fit_norm)
        assert str(err.value) == message
    # constant over the 27 train samples (days 0..27) only
    records = constant_days(30) + constant_days(10, start=30, price=11.0)
    with pytest.raises(ValueError) as err:
        prepare_splits(records, "train")
    assert str(err.value) == message
    data, _ = prepare_splits(records, "all")
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
    records = random_walk_ohlc(3, seed=7, start=100)
    assert records == random_walk_ohlc(3, seed=7, start=100.0)
    assert all(type(v) is float for r in records for v in r[1:])
