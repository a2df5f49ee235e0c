import csv
import io
import json

import pytest

from fxbench import (
    ModelSpec,
    init_model,
    load_model,
    prepare_splits,
    read_ohlc_csv,
    save_model,
    write_ohlc_csv,
)
from fxbench.cli import main, parse_archs, parse_hidden_sizes, UsageError
from fxbench.serialize import REPORT_COLUMNS
from conftest import make_records, wavy_closes


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "pair.csv"
    write_ohlc_csv(make_records(wavy_closes(60)), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_hidden_size_grammar():
    assert parse_hidden_sizes("2..10") == tuple(range(2, 11))
    assert parse_hidden_sizes("5") == (5,)
    assert parse_hidden_sizes("7,2,5") == (2, 5, 7)
    for bad in ("abc", "0", "5..2", "2..x"):
        with pytest.raises(UsageError):
            parse_hidden_sizes(bad)


def test_arch_list_grammar():
    assert parse_archs("lstm,mlp") == ("mlp", "lstm")
    assert parse_archs("GRU") == ("gru",)
    with pytest.raises(UsageError, match="cnn"):
        parse_archs("cnn")
    with pytest.raises(UsageError, match="no arch"):
        parse_archs(" , ")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "ingest" in out and "sweep" in out


# ---------------------------------------------------------------- ingest


def test_ingest_sorts_rows(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    records = make_records([100.0, 101.0, 102.0, 103.0])
    write_ohlc_csv([records[2], records[0], records[3], records[1]], raw)
    out = tmp_path / "clean.csv"
    code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
    assert code == 0
    assert "wrote 4 records" in stdout
    cleaned = read_ohlc_csv(out)
    assert [r.date for r in cleaned] == sorted(r.date for r in cleaned)


def test_ingest_strict_rejects_sanity_violation(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "date,open,high,low,close\n"
        "2018-01-01,100.0,100.5,99.5,100.0\n"
        "2018-01-02,100.0,99.0,99.5,100.0\n"
    )
    out = tmp_path / "clean.csv"
    code, _, err = run(capsys, "ingest", "--input", str(raw), "--output", str(out), "--strict")
    assert code == 1
    assert err.startswith("fxbench: error: ")
    assert not out.exists()
    # same file passes without --strict (warning only)
    code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
    assert code == 0 and out.exists()


def one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fxbench: error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "command,header",
    [("ingest", "date,open,high,low,close"), ("report", ",".join(REPORT_COLUMNS))],
)
def test_oversized_csv_field_is_a_single_line_error(tmp_path, capsys, command, header):
    big = tmp_path / "big.csv"
    big.write_text(header + "\n" + "9" * 200_000 + "\n")
    out = tmp_path / "out.csv"
    if command == "ingest":
        argv = ("ingest", "--input", str(big), "--output", str(out))
    else:
        argv = ("report", "--in", str(big))
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert "2: field larger than field limit" in one_error_line(err)
    assert stdout == "" and not out.exists()


def test_missing_input_is_a_single_line_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")
    )
    assert code == 1
    lines = [ln for ln in err.splitlines() if ln]
    assert len(lines) == 1 and lines[0].startswith("fxbench: error: ")


# ---------------------------------------------------------------- sweep


def test_sweep_writes_report_and_is_deterministic(tmp_path, data_csv, capsys):
    args = (
        "sweep", "--data", data_csv, "--archs", "mlp,gru", "--hidden", "2,3",
        "--epochs", "2", "--pair", "EUR/USD",
    )
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    code, stdout, _ = run(capsys, *args, "--report", str(r1))
    assert code == 0
    assert f"wrote report: {r1} (4 trials)" in stdout
    assert "overall best (test_mae):" in stdout
    code, _, _ = run(capsys, *args, "--report", str(r2))
    assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    header = r1.read_text().splitlines()[0]
    assert header == "pair,arch,structure,hidden,train_mae,val_mae,test_mae,seed,wall_time_s"
    assert len(r1.read_text().splitlines()) == 5


def test_sweep_can_select_on_validation(tmp_path, data_csv, capsys):
    report = tmp_path / "r.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp", "--hidden", "2",
        "--epochs", "2", "--select", "val", "--report", str(report),
    )
    assert code == 0
    assert "overall best (val_mae):" in stdout


def test_sweep_usage_errors_exit_two(tmp_path, data_csv, capsys):
    code, _, err = run(
        capsys, "sweep", "--data", data_csv, "--archs", "cnn", "--hidden", "2",
        "--report", str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert err.startswith("fxbench: error: ")
    code, _, err = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp", "--hidden", "9..2",
        "--report", str(tmp_path / "r.csv"),
    )
    assert code == 2


def test_sweep_missing_data_exits_one(tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", "--data", str(tmp_path / "missing.csv"),
        "--report", str(tmp_path / "r.csv"), "--epochs", "1",
    )
    assert code == 1
    assert err.startswith("fxbench: error: ")


# ---------------------------------------------------------------- train / predict


def test_train_then_predict_round_trip(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "train", "--data", data_csv, "--arch", "lstm", "--hidden", "3",
        "--epochs", "2", "--model-out", str(model_path),
    )
    assert code == 0
    assert "trained LSTM 4-3-1 for 2 epochs" in stdout
    assert stdout.count("mae: denormalized") == 3
    model, norm = load_model(model_path.read_bytes())
    assert model.spec.arch == "lstm" and model.spec.hidden == 3
    assert model.epochs_trained == 2
    assert norm is not None

    series = tmp_path / "series.csv"
    code, stdout, _ = run(
        capsys, "predict", "--model", str(model_path), "--data", data_csv,
        "--series-out", str(series),
    )
    assert code == 0
    lines = series.read_text().splitlines()
    assert lines[0] == "date,actual,predicted"
    assert len(lines) == 60  # 59 supervised pairs + header
    assert "predictions: 59" in stdout


@pytest.mark.parametrize("arch,window", [("mlp", 1), ("lstm", 2), ("gru", 2)])
def test_train_reproduces_its_sweep_row_exactly(tmp_path, data_csv, capsys, arch, window):
    # any single trial can be reproduced in isolation: the train command
    # prints the very MAEs the sweep recorded for that (arch, hidden)
    flags = ("--data", data_csv, "--epochs", "3", "--window", str(window), "--seed", "5")
    report = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "sweep", *flags, "--archs", arch, "--hidden", "2,3", "--report", str(report)
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(report.read_text())))
    row = next(r for r in rows if r["hidden"] == "3")
    code, stdout, _ = run(
        capsys, "train", *flags, "--arch", arch, "--hidden", "3",
        "--model-out", str(tmp_path / "m.json"),
    )
    assert code == 0
    printed = {
        line.split(" mae:")[0]: line.split("denormalized ")[1].split(" |")[0]
        for line in stdout.splitlines()
        if " mae: denormalized " in line
    }
    assert printed == {
        "train": row["train_mae"], "val": row["val_mae"], "test": row["test_mae"]
    }


def test_train_rejects_unknown_arch(tmp_path, data_csv, capsys):
    code, _, err = run(
        capsys, "train", "--data", data_csv, "--arch", "transformer", "--hidden", "3",
        "--epochs", "1", "--model-out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "unknown arch" in err


def test_predict_rejects_model_without_norm(tmp_path, data_csv, capsys):
    from fxbench import ModelSpec, init_model, save_model

    bare = tmp_path / "bare.json"
    bare.write_bytes(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), None))
    code, _, err = run(
        capsys, "predict", "--model", str(bare), "--data", data_csv,
        "--series-out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "normalization" in err


@pytest.mark.parametrize(
    "field,mutate",
    [
        ("hidden", lambda d: d.update(hidden=None)),
        ("norm", lambda d: d.update(norm=5)),
        ("shape", lambda d: d["params"]["W_h"].update(shape=3)),
        ("target_min", lambda d: d["norm"].update(target_min=[1])),
        ("feature_min", lambda d: d["norm"].update(feature_min=d["norm"]["feature_min"][:3])),
        ("feature_max", lambda d: d["norm"].update(feature_max=d["norm"]["feature_min"])),
    ],
    ids=["hidden-null", "norm-number", "shape-int", "target-min-list",
         "feature-min-3-long", "feature-max-equals-min"],
)
def test_predict_rejects_malformed_model_file_in_one_line(
    tmp_path, data_csv, capsys, field, mutate
):
    _, norm = prepare_splits(read_ohlc_csv(data_csv))
    doc = json.loads(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), norm))
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    series = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "predict", "--model", str(bad), "--data", data_csv,
        "--series-out", str(series),
    )
    assert code == 1
    assert field in one_error_line(err)
    assert not series.exists()


# ---------------------------------------------------------------- report


def test_report_table_and_csv_formats(tmp_path, data_csv, capsys):
    report = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp,srnn", "--hidden", "2",
        "--epochs", "2", "--report", str(report),
    )
    assert code == 0
    code, stdout, _ = run(capsys, "report", "--in", str(report), "--format", "table")
    assert code == 0
    assert "Overall best:" in stdout
    assert "structure" in stdout
    code, stdout, _ = run(capsys, "report", "--in", str(report), "--format", "csv")
    assert code == 0
    assert stdout.encode("utf-8") == report.read_bytes()


def test_report_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("pair,arch\nx,y\n")
    code, _, err = run(capsys, "report", "--in", str(bad))
    assert code == 1
    assert err.startswith("fxbench: error: ")


# ---------------------------------------------------------------- logging env


def test_invalid_log_level_is_a_usage_error(tmp_path, data_csv, capsys, monkeypatch):
    monkeypatch.setenv("FXBENCH_LOG", "chatty")
    code, _, err = run(capsys, "ingest", "--input", data_csv, "--output", str(tmp_path / "o.csv"))
    assert code == 2
    assert "FXBENCH_LOG" in err


def test_log_levels_accepted(tmp_path, data_csv, capsys, monkeypatch):
    for level in ("error", "warn", "info", "debug"):
        monkeypatch.setenv("FXBENCH_LOG", level)
        code, _, _ = run(
            capsys, "ingest", "--input", data_csv, "--output", str(tmp_path / f"{level}.csv")
        )
        assert code == 0
