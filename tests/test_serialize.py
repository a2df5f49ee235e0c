import copy
import csv
import functools
import io
import hashlib
import json
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ARCHS,
    EvalResult,
    ModelSpec,
    ModelStack,
    NormParams,
    TrialResult,
    emit_report_csv,
    emit_series_csv,
    init_model,
    load_model,
    parse_report_csv,
    render_report_table,
    save_model,
)
from fxbench.serialize import FORMAT_VERSION, REPORT_COLUMNS
from conftest import mangled_numbers

import datetime as dt


def sample_norm():
    return NormParams(
        feature_min=np.array([1.0, 2.0, 0.5, 1.1]),
        feature_max=np.array([2.0, 3.0, 1.5, 2.1]),
        target_min=1.1,
        target_max=2.1,
    )


# ---------------------------------------------------------------- models


def test_save_load_save_is_a_byte_fixed_point():
    for arch in ARCHS:
        model = init_model(ModelSpec(arch=arch, hidden=5), 77)
        blob = save_model(model, sample_norm())
        loaded, norm = load_model(blob)
        assert save_model(loaded, norm) == blob


# sha256 of save_model(init_model(spec, 7)) for hidden 5, window 2 for the
# recurrent cells, as written before parameters moved into one flat buffer:
# pins both the Glorot draw order and the model-file bytes
GOLDEN_INIT_SHA256 = {
    "mlp": "d8c80f5ed6602ba1bda67dae37ad557e968610de635c7eb6884f295f537b08be",
    "srnn": "1e1b3105d06cc4915583b2beffd3e3ddb7fef763b443df4bc1d9c198a629ce33",
    "gru": "adc51a261de7890eabb1fe2be54714868390fbe7719bce01f6b2c3800b21bdee",
    "lstm": "6146d2cc7d0ce177845f17806108062c6e544069cbe9edd5ba59f460fa7a9207",
}


@pytest.mark.parametrize("arch", ARCHS)
def test_init_model_file_matches_golden_hash(arch):
    spec = ModelSpec(arch=arch, hidden=5, window=1 if arch == "mlp" else 2)
    blob = save_model(init_model(spec, 7))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_INIT_SHA256[arch]


def test_load_model_packs_arrays_into_the_flat_buffer():
    model = init_model(ModelSpec(arch="lstm", hidden=3, window=2), 5)
    loaded, _ = load_model(save_model(model))
    assert np.array_equal(ModelStack([loaded]).flat, ModelStack([model]).flat)
    loaded.params["W_c"][0, 0] = 123.0
    assert 123.0 in ModelStack([loaded]).flat


def test_loaded_model_is_bitwise_identical():
    model = init_model(ModelSpec(arch="gru", hidden=4, window=2), 3)
    model.epochs_trained = 12
    loaded, norm = load_model(save_model(model, sample_norm()))
    assert loaded.spec == model.spec
    assert loaded.epochs_trained == 12
    assert set(loaded.params) == set(model.params)
    for name, arr in model.params.items():
        assert np.array_equal(loaded.params[name], arr)
    assert norm is not None and norm == sample_norm()


def test_model_without_norm_round_trips():
    model = init_model(ModelSpec(arch="mlp", hidden=2), 1)
    loaded, norm = load_model(save_model(model, None))
    assert norm is None
    assert save_model(loaded, None) == save_model(model, None)


def test_lstm_file_declares_exactly_its_ten_arrays():
    model = init_model(ModelSpec(arch="lstm", hidden=5), 9)
    doc = json.loads(save_model(model, sample_norm()).decode("utf-8"))
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["arch"] == "lstm"
    assert sorted(doc["params"]) == sorted(
        ["W_i", "b_i", "W_f", "b_f", "W_o", "b_o", "W_c", "b_c", "W_out", "b_out"]
    )
    assert doc["params"]["W_i"]["shape"] == [5, 9]
    assert len(doc["params"]["W_i"]["data"]) == 45


def test_load_rejects_corrupted_shape_naming_the_array():
    model = init_model(ModelSpec(arch="srnn", hidden=3), 4)
    doc = json.loads(save_model(model, None).decode("utf-8"))
    doc["params"]["W_h"]["shape"] = [3, 99]
    with pytest.raises(ValueError, match="W_h"):
        load_model(json.dumps(doc).encode("utf-8"))
    doc = json.loads(save_model(model, None).decode("utf-8"))
    doc["params"]["b"]["data"] = doc["params"]["b"]["data"][:-1]
    with pytest.raises(ValueError, match="'b'"):
        load_model(json.dumps(doc).encode("utf-8"))


def test_load_rejects_missing_and_unknown_arrays():
    model = init_model(ModelSpec(arch="mlp", hidden=2), 4)
    doc = json.loads(save_model(model, None).decode("utf-8"))
    del doc["params"]["b_out"]
    with pytest.raises(ValueError, match="b_out"):
        load_model(json.dumps(doc).encode("utf-8"))
    doc = json.loads(save_model(model, None).decode("utf-8"))
    doc["params"]["W_extra"] = doc["params"]["W_out"]
    with pytest.raises(ValueError, match="W_extra"):
        load_model(json.dumps(doc).encode("utf-8"))


def test_load_rejects_future_format_version():
    model = init_model(ModelSpec(arch="mlp", hidden=2), 4)
    doc = json.loads(save_model(model, None).decode("utf-8"))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format_version"):
        load_model(json.dumps(doc).encode("utf-8"))


def test_load_rejects_truncated_and_non_json_bytes():
    model = init_model(ModelSpec(arch="mlp", hidden=2), 4)
    blob = save_model(model, None)
    with pytest.raises(ValueError, match="model file"):
        load_model(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="model file"):
        load_model(b"\x00\x01binary junk")


@pytest.mark.parametrize("key", ["arch", "hidden", "input_dim", "output_dim", "window", "params"])
def test_load_names_a_missing_required_field(key):
    doc = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 4), None))
    del doc[key]
    with pytest.raises(ValueError) as err:
        load_model(json.dumps(doc).encode("utf-8"))
    assert str(err.value) == f"model file is missing required field {key!r}"


@pytest.mark.parametrize("value", [True, "5"], ids=["true", "string"])
@pytest.mark.parametrize("key", ["hidden", "input_dim", "output_dim", "window"])
def test_load_rejects_a_spec_integer_of_another_type_naming_the_field(key, value):
    doc = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 4), None))
    doc[key] = value
    with pytest.raises(ValueError) as err:
        load_model(json.dumps(doc).encode("utf-8"))
    assert str(err.value) == f"model file field {key!r} must be an integer, got {value!r}"


@pytest.mark.parametrize("key, value, shape", [("input_dim", 5, 4), ("output_dim", 2, 1)])
def test_load_refuses_a_model_of_another_shape_naming_the_field(key, value, shape):
    doc = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 4), sample_norm()))
    doc[key] = value
    with pytest.raises(ValueError) as err:
        load_model(json.dumps(doc).encode("utf-8"))
    assert str(err.value) == f"model file field {key!r} must be {shape}, got {value!r}"


@pytest.mark.parametrize("key, value", [("rng_seed", -1), ("epochs_trained", -3)])
def test_load_refuses_a_negative_seed_or_epoch_count_naming_the_field(key, value):
    doc = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 4), sample_norm()))
    doc[key] = value
    with pytest.raises(ValueError) as err:
        load_model(json.dumps(doc).encode("utf-8"))
    assert str(err.value) == f"model file field {key!r} must be at least 0, got {value}"
    doc[key] = 0  # the bound itself loads, and saves to the same bytes
    blob = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert save_model(*load_model(blob)) == blob


def test_load_checks_feature_max_above_feature_min_in_every_feature():
    # the first feature is in order, so a lexicographic tuple `>` would pass
    doc = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 4), sample_norm()))
    doc["norm"]["feature_max"][2] = doc["norm"]["feature_min"][2] - 1.0
    with pytest.raises(ValueError) as err:
        load_model(json.dumps(doc).encode("utf-8"))
    assert str(err.value) == (
        "model file field 'feature_max' must exceed 'feature_min' for every feature"
    )


def _paths(node, prefix=()):
    """Every key/index path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


VALID_DOC = json.loads(
    save_model(init_model(ModelSpec(arch="gru", hidden=2, window=2), 3), sample_norm())
)
DELETE = object()
# JSON scalars, including non-finite floats and integers beyond the range of
# a float (JSON does not bound them), and nested JSON values built from them
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(309, 400).map(lambda e: 10**e)
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(_paths(VALID_DOC))),
            st.just(DELETE) | JSON_SCALARS | JSON_VALUES,
        ),
        min_size=1,
        max_size=2,
    )
)
def test_load_model_of_a_mutated_file_loads_or_raises_value_error(mutations):
    doc = copy.deepcopy(VALID_DOC)
    for path, value in mutations:
        try:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
    try:
        model, norm = load_model(json.dumps(doc).encode("utf-8"))
    except ValueError:
        return
    save_model(model, norm)  # what loads is finite, so it saves again


# ---------------------------------------------------------------- series csv


def test_series_csv_layout_and_reparse():
    result = EvalResult(
        mae=0.75,
        dates=(dt.date(2018, 1, 2), dt.date(2018, 1, 3)),
        actual=np.array([110.0, 112.0]),
        predicted=np.array([110.5, 111.0]),
    )
    text = emit_series_csv(result).decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "date,actual,predicted"
    assert len(lines) == 3
    assert lines[1].startswith("2018-01-02,")
    maes = []
    for line in lines[1:]:
        _, actual, predicted = line.split(",")
        maes.append(abs(float(actual) - float(predicted)))
    assert np.mean(maes) == pytest.approx(result.mae, abs=1e-9)


def test_series_csv_rejects_empty():
    nan = float("nan")
    empty = EvalResult(mae=nan, dates=(), actual=np.zeros(0), predicted=np.zeros(0))
    with pytest.raises(ValueError, match="empty"):
        emit_series_csv(empty)


# ---------------------------------------------------------------- report csv


def trial(arch, hidden, test_mae, pair="EUR/USD", seed=0):
    return TrialResult(
        pair=pair,
        arch=arch,
        structure=f"4-{hidden}-1",
        hidden=hidden,
        train_mae=test_mae / 2,
        val_mae=test_mae * 1.5,
        test_mae=test_mae,
        seed=seed,
        wall_time_s=0.0,
    )


def small_report():
    return [
        trial("mlp", 6, 0.0858),
        trial("srnn", 4, 0.019),
        trial("gru", 7, 0.084),
        trial("lstm", 5, 0.013),
    ]


def test_report_csv_header_is_exact():
    text = emit_report_csv(small_report()).decode("utf-8")
    assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)
    assert text.splitlines()[0] == (
        "pair,arch,structure,hidden,train_mae,val_mae,test_mae,seed,wall_time_s"
    )


def test_report_csv_round_trips_to_equal_report():
    report = small_report()
    blob = emit_report_csv(report)
    back = parse_report_csv(blob)
    assert back == report
    assert emit_report_csv(back) == blob


def test_report_csv_orders_rows_canonically():
    shuffled = list(reversed(small_report()))
    rows = emit_report_csv(shuffled).decode("utf-8").splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["mlp", "srnn", "gru", "lstm"]


def test_report_csv_of_numpy_scalars_matches_builtins_and_parses_to_builtins():
    # a float32 MAE is written as the repr of its float64 value: str() of a
    # numpy float32 would write its shorter float32 digits instead
    maes = (np.float32(0.1), np.float64(0.2), np.float32(1 / 3))
    numpy_row = TrialResult(
        pair="EUR/USD",
        arch="gru",
        structure="4-3-1",
        hidden=np.int64(3),
        train_mae=maes[0],
        val_mae=maes[1],
        test_mae=maes[2],
        seed=np.int64(11),
        wall_time_s=np.float64(0.0),
    )
    builtin_row = TrialResult("EUR/USD", "gru", "4-3-1", 3, *map(float, maes), 11, 0.0)
    blob = emit_report_csv([numpy_row])
    assert blob == emit_report_csv([builtin_row])
    assert "0.10000000149011612" in blob.decode("utf-8")
    (back,) = parse_report_csv(blob)
    assert back == builtin_row
    types = {"pair": str, "arch": str, "structure": str, "hidden": int, "seed": int}
    for name in REPORT_COLUMNS:
        assert type(getattr(back, name)) is types.get(name, float), name


def test_report_csv_keeps_float_precision():
    value = 0.1234567890123456789
    report = [trial("mlp", 2, value)]
    back = parse_report_csv(emit_report_csv(report))
    assert back[0].test_mae == report[0].test_mae


def test_report_csv_represents_failed_trials_as_nan():
    report = [trial("mlp", 2, float("nan"))]
    text = emit_report_csv(report).decode("utf-8")
    assert ",nan," in text.splitlines()[1] + ","
    back = parse_report_csv(emit_report_csv(report))
    assert math.isnan(back[0].test_mae)


def test_parse_report_rejects_bad_header_and_rows():
    with pytest.raises(ValueError, match="header"):
        parse_report_csv(b"pair,arch\nx,y\n")
    good = emit_report_csv(small_report()).decode("utf-8").splitlines()
    broken = "\n".join([good[0], good[1].replace("mlp", "dnn")]) + "\n"
    with pytest.raises(ValueError, match="line 2"):
        parse_report_csv(broken.encode("utf-8"))
    short = "\n".join([good[0], "only,three,fields"]) + "\n"
    with pytest.raises(ValueError, match="line 2"):
        parse_report_csv(short.encode("utf-8"))


MAE_RULE = "must be finite and not negative (or all three MAEs nan)"


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"hidden": 0, "structure": "4-0-1"}, "field 'hidden' must be at least 1, got 0"),
        ({"hidden": -3, "test_mae": -0.3}, "field 'hidden' must be at least 1, got -3"),
        ({"structure": "4-5-1"}, "field 'structure' must be '4-4-1' for hidden 4, got '4-5-1'"),
        ({"structure": "3-4-1"}, "field 'structure' must be '4-4-1' for hidden 4, got '3-4-1'"),
        ({"train_mae": math.inf, "val_mae": math.nan}, f"field 'train_mae' {MAE_RULE}, got inf"),
        ({"val_mae": math.nan}, f"field 'val_mae' {MAE_RULE}, got nan"),
        ({"test_mae": -0.3}, f"field 'test_mae' {MAE_RULE}, got -0.3"),
        ({"seed": -1}, "field 'seed' must lie in [0, 2**64), got -1"),
        ({"seed": 2**64}, "field 'seed' must lie in [0, 2**64), got 18446744073709551616"),
        ({"wall_time_s": -5.0}, "field 'wall_time_s' must be finite and not negative, got -5.0"),
        ({"wall_time_s": math.nan}, "field 'wall_time_s' must be finite and not negative, got nan"),
        ({"wall_time_s": math.inf}, "field 'wall_time_s' must be finite and not negative, got inf"),
    ],
    ids=["hidden-0", "hidden-negative", "structure-other-hidden", "structure-other-input",
         "mae-inf-beside-nan", "mae-one-nan", "mae-negative", "seed-negative", "seed-2**64",
         "wall-time-negative", "wall-time-nan", "wall-time-inf"],
)
def test_parse_report_refuses_a_row_the_sweep_cannot_write(changes, message):
    bad = replace(trial("gru", 4, 0.1), **changes)
    blob = emit_report_csv([trial("mlp", 2, 0.2), bad])
    with pytest.raises(ValueError) as err:
        parse_report_csv(blob)
    assert str(err.value) == f"report line 3: {message}"


def test_parse_report_accepts_the_bounds_of_every_rule():
    nan = math.nan
    rows = [
        replace(trial("gru", 1, 0.0), seed=2**64 - 1),
        replace(trial("gru", 2, nan), wall_time_s=12.5),
        trial("lstm", 1, 0.3, seed=0),
    ]
    assert emit_report_csv(parse_report_csv(emit_report_csv(rows))) == emit_report_csv(rows)


def test_parse_report_refuses_a_repeated_arch_and_hidden_naming_both_lines():
    rows = [trial("gru", 4, 0.1), trial("mlp", 2, 0.2), trial("gru", 4, 0.3, pair="GBP/USD")]
    lines = emit_report_csv(rows).decode("utf-8").splitlines()
    blob = "\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n"
    with pytest.raises(ValueError) as err:
        parse_report_csv(blob)
    assert str(err.value) == "report line 4: duplicate row for arch 'gru' hidden 4, first on line 2"


def report_with(**cells) -> str:
    """A one-row report whose cells are those of a valid row but `cells`."""
    header, line = emit_report_csv([trial("gru", 3, 0.25, seed=7)]).decode("utf-8").splitlines()
    row = dict(zip(REPORT_COLUMNS, line.split(",")))
    row.update(cells)
    return header + "\n" + ",".join(row.values()) + "\n"


@pytest.mark.parametrize(
    "cells,message",
    [
        (
            {"hidden": "1_0", "structure": "4-10-1"},
            "field 'hidden' must be written as '10', got '1_0'",
        ),
        ({"hidden": "\u0663"}, "field 'hidden' must be written as '3', got '\u0663'"),
        ({"seed": " 7 "}, "field 'seed' must be written as '7', got ' 7 '"),
        ({"hidden": "+8", "structure": "4-8-1"}, "field 'hidden' must be written as '8', got '+8'"),
        ({"train_mae": "1_0.5"}, "field 'train_mae' must be written as '10.5', got '1_0.5'"),
        ({"val_mae": "0.3750"}, "field 'val_mae' must be written as '0.375', got '0.3750'"),
        ({"test_mae": "NaN"}, "field 'test_mae' must be written as 'nan', got 'NaN'"),
        ({"hidden": "3.0"}, "field 'hidden' must be written as int, got '3.0'"),
        ({"wall_time_s": "x"}, "field 'wall_time_s' must be written as float, got 'x'"),
    ],
    ids=["underscore-int", "arabic-indic-digit", "spaces", "plus-sign", "underscore-float",
         "trailing-zero", "upper-case-nan", "float-in-int-field", "not-a-number"],
)
def test_parse_report_refuses_a_cell_the_sweep_does_not_write(cells, message):
    with pytest.raises(ValueError) as err:
        parse_report_csv(report_with(**cells))
    assert str(err.value) == f"report line 2: {message}"


NUMBER_CELLS = {
    "hidden": st.integers(1, 99).map(str),
    "train_mae": st.floats(0, 10).map(repr),
    "val_mae": st.floats(0, 10).map(repr),
    "test_mae": st.floats(0, 10).map(repr),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "wall_time_s": st.floats(0, 1e3).map(repr),
}


@given(st.sampled_from(sorted(NUMBER_CELLS)).flatmap(
    lambda name: mangled_numbers(NUMBER_CELLS[name]).map(lambda case: (name, case[1]))
))
def test_parse_report_refuses_a_number_in_any_other_form(case):
    name, cell = case
    with pytest.raises(ValueError) as err:
        parse_report_csv(report_with(**{name: cell}))
    assert str(err.value).startswith(f"report line 2: field {name!r} must be written as ")
    assert str(err.value).endswith(f", got {cell!r}")


REPORT_CELLS = (
    st.text(max_size=4),
    st.sampled_from(ARCHS + ("dnn",)),
    st.sampled_from(["4-1-1", "4-2-1", "4-3-1", "4--1-1"]),
    st.sampled_from(["1", "2", "3", "0", "-1", " 2", "1_0"]),
    *[st.floats().map(repr) | st.sampled_from(["nan", "1e3", "-0.0", "x"])] * 3,
    st.integers(-1, 2**64).map(str),
    st.floats().map(repr),
)


def _report_body(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.tuples(*REPORT_CELLS), max_size=4).map(_report_body)))
def test_parse_report_of_any_text_raises_value_error_or_re_emits_its_bytes(body):
    try:
        rows = parse_report_csv(",".join(REPORT_COLUMNS) + "\n" + body)
    except ValueError:
        return
    blob = emit_report_csv(rows)
    assert emit_report_csv(parse_report_csv(blob)) == blob
    # each accepted row is, cell for cell, the row emitted for it
    emitted = list(csv.reader(io.StringIO(blob.decode("utf-8"))))[1:]
    assert sorted(row for row in csv.reader(io.StringIO(body)) if row) == sorted(emitted)


# ---------------------------------------------------------------- table


def test_rendered_table_marks_per_arch_and_overall_best():
    table = render_report_table(small_report(), "test_mae")
    assert "LSTM,4-5-1,0.013" in table
    assert "Overall best: LSTM,4-5-1,0.013" in table
    lines = table.splitlines()
    starred = [ln for ln in lines if "**" in ln]
    assert len(starred) == 1 and "LSTM" in starred[0]
    single = [ln for ln in lines if "*" in ln and "**" not in ln]
    assert len(single) == 3  # the other three per-arch bests


def test_rendered_table_second_reference_grid():
    report = [
        trial("mlp", 9, 0.052, pair="GBP/NPR"),
        trial("srnn", 6, 0.214, pair="GBP/NPR"),
        trial("gru", 7, 0.0177, pair="GBP/NPR"),
        trial("lstm", 5, 0.0388, pair="GBP/NPR"),
    ]
    table = render_report_table(report, "test_mae")
    assert "Overall best: GRU,4-7-1,0.0177" in table


def test_rendered_table_handles_all_diverged():
    report = [trial("mlp", 2, float("nan"))]
    table = render_report_table(report, "test_mae")
    assert "No successful trials" in table


def test_rendered_table_marks_by_the_given_criterion():
    # hidden 2 has the lower test MAE, hidden 3 the lower validation MAE
    report = [replace(trial("mlp", 2, 0.1), val_mae=0.9), trial("mlp", 3, 0.5)]
    assert "Overall best: MLP,4-2-1,0.1\n" in render_report_table(report, "test_mae")
    by_val = render_report_table(report, "val_mae")
    assert "Best per architecture (by val_mae):" in by_val
    assert "Overall best: MLP,4-3-1,0.75\n" in by_val
    with pytest.raises(ValueError, match="criterion"):
        render_report_table(report, "train_mae")
