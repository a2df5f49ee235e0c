import argparse
import csv
import inspect
import io
import json
import logging
import math
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ModelSpec,
    TrainConfig,
    TrialResult,
    emit_ohlc_csv,
    emit_report_csv,
    init_model,
    load_model,
    parse_ohlc_csv,
    parse_report_csv,
    prepare_splits,
    random_walk_ohlc,
    run_sweep,
    save_model,
    select_best,
    write_atomic,
)
import fxbench.cli
from fxbench.cli import build_parser, main, parse_archs, parse_hidden_sizes
from fxbench.serialize import REPORT_COLUMNS
from conftest import UNIT_NORM, make_records, wavy_closes


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "pair.csv"
    write_atomic(path, emit_ohlc_csv(make_records(wavy_closes(60))))
    return str(path)


@pytest.fixture()
def reads(monkeypatch):
    """The paths read with `Path.read_bytes`, the one way the CLI reads a file, in order."""
    paths = []
    read_bytes = pathlib.Path.read_bytes

    def spy(self):
        paths.append(str(self))
        return read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", spy)
    return paths


def read_records(path):
    return parse_ohlc_csv(pathlib.Path(path).read_bytes())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_hidden_size_grammar():
    assert parse_hidden_sizes("2..10") == tuple(range(2, 11))
    assert parse_hidden_sizes("5") == (5,)
    assert parse_hidden_sizes(" 1024 ") == (1024,)
    assert parse_hidden_sizes("7,2,5,2") == (7, 2, 5, 2)  # the sweep plan sorts and dedupes
    for bad in ("abc", "0", "5..2", "2..x", ",", ", ,", "1025", "1..1025", "1..1" + "0" * 22):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_hidden_sizes(bad)
    with pytest.raises(argparse.ArgumentTypeError, match="^must be at most 1024, got 1025$"):
        parse_hidden_sizes("2,1025")


def test_arch_list_grammar():
    assert parse_archs("lstm,mlp,LSTM") == ("lstm", "mlp", "lstm")
    assert parse_archs("GRU") == ("gru",)
    with pytest.raises(argparse.ArgumentTypeError, match="cnn"):
        parse_archs("cnn")
    with pytest.raises(argparse.ArgumentTypeError, match="no arch"):
        parse_archs(" , ")


LONG_ARG = 100_000  # characters
SWEEP = ("sweep", "--data", "d.csv", "--report", "out")
TRAIN = ("train", "--data", "d.csv", "--model-out", "out", "--arch", "mlp")


@pytest.mark.parametrize(
    "argv,head",
    [
        ((*SWEEP, "--archs", "x" * LONG_ARG), "argument --archs: unknown arch 'xxx"),
        ((*SWEEP, "--archs", "1" * LONG_ARG), "argument --archs: unknown arch '111"),
        ((*TRAIN, "--arch", "x" * LONG_ARG, "--hidden", "2"), "argument --arch: unknown arch"),
        ((*SWEEP, "--hidden", "x" * LONG_ARG), "argument --hidden: invalid int value: 'xxx"),
        ((*SWEEP, "--hidden", "1" * LONG_ARG), "argument --hidden: invalid int value: '111"),
        ((*SWEEP, "--hidden", "1.." + "1" * (LONG_ARG - 3)), "argument --hidden: invalid int"),
        ((*SWEEP, "--hidden", "," * LONG_ARG), "argument --hidden: no hidden sizes given in ',,,"),
        ((*TRAIN, "--hidden", "x" * LONG_ARG), "argument --hidden: invalid int value: 'xxx"),
        ((*TRAIN, "--hidden", "1" * LONG_ARG), "argument --hidden: invalid int value: '111"),
        ((*SWEEP, "--epochs", "-" + "1" * 4000), "argument --epochs: must be finite and above 0"),
        ((*SWEEP, "--optimizer", "x" * LONG_ARG), "argument --optimizer: invalid choice: 'xxx"),
        ((*SWEEP, "--fit-norm", "x" * LONG_ARG), "argument --fit-norm: invalid choice: 'xxx"),
        ((*SWEEP, "--select", "x" * LONG_ARG), "argument --select: invalid choice: 'xxx"),
        (("report", "--in", "r.csv", "--format", "x" * LONG_ARG), "argument --format: invalid"),
        (("x" * LONG_ARG,), "argument command: invalid choice: 'xxx"),
        ((*SWEEP, "--seed", "1" * 5000), "argument --seed: invalid int value: '111"),
        ((*SWEEP, "x" * LONG_ARG), "unrecognized arguments: xxx"),
        (
            (*SWEEP, "--optimizer", "\U0001f600" * LONG_ARG),
            r"argument --optimizer: invalid choice: '\U0001f600",
        ),
    ],
    ids=["archs-letters", "archs-digits", "train-arch", "hidden-letters", "hidden-digits",
         "hidden-range-digits", "hidden-commas", "train-hidden-letters", "train-hidden-digits",
         "epochs-4001-characters", "optimizer", "fit-norm", "select", "format", "command",
         "seed-5000-digits", "unrecognized", "optimizer-non-ascii"],
)
def test_a_long_argument_is_quoted_short_in_one_error_line(capsys, argv, head):
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    line = one_error_line(err)
    assert line.startswith(f"fxbench: error: {head}") and len(line) < 200 and line.isascii()


def test_a_long_log_level_is_quoted_short_in_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("FXBENCH_LOG", "x" * LONG_ARG)
    code, stdout, err = run(capsys, "report", "--in", "r.csv")
    assert (code, stdout) == (2, "")
    line = one_error_line(err)
    assert line.startswith("fxbench: error: invalid FXBENCH_LOG 'xxx") and len(line) < 200


def test_the_hidden_size_bound_is_accepted():
    parser = build_parser()
    assert parser.parse_args([*SWEEP, "--hidden", "1000..1024"]).hidden == tuple(range(1000, 1025))
    assert parser.parse_args([*TRAIN, "--hidden", "1024"]).hidden == 1024


def test_every_flag_default_is_the_library_default():
    """Each command parsed with no optional flag holds the defaults of the
    library functions and types it calls."""
    parser = build_parser()
    fit_norm = inspect.signature(prepare_splits).parameters["fit_norm"].default
    sweep = inspect.signature(run_sweep).parameters
    criterion = inspect.signature(select_best).parameters["criterion"].default
    commands = {
        "ingest": ["--input", "raw.csv", "--output", "clean.csv"],
        "sweep": ["--data", "d.csv", "--report", "r.csv"],
        "train": ["--data", "d.csv", "--arch", "mlp", "--hidden", "2", "--model-out", "m.json"],
        "predict": ["--model", "m.json", "--data", "d.csv", "--series-out", "s.csv"],
        "report": ["--in", "r.csv"],
    }
    for command, required in commands.items():
        args = parser.parse_args([command, *required])
        if command in ("sweep", "train"):
            assert fxbench.cli._train_config(args) == TrainConfig()
            assert args.fit_norm == fit_norm
            assert args.window == sweep["window"].default == ModelSpec("lstm", 1).window
        if command == "sweep":
            assert args.pair == sweep["pair"].default
        if command in ("sweep", "report"):
            assert f"{args.select}_mae" == criterion


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "ingest" in out and "sweep" in out


# ---------------------------------------------------------------- ingest


def test_ingest_sorts_rows(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    records = make_records([100.0, 101.0, 102.0, 103.0])
    write_atomic(raw, emit_ohlc_csv([records[2], records[0], records[3], records[1]]))
    out = tmp_path / "clean.csv"
    code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
    assert code == 0
    assert "wrote 4 records" in stdout
    cleaned = read_records(out)
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


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def test_ingest_writes_the_same_bytes_for_lf_crlf_and_cr_line_ends(tmp_path, capsys):
    records = random_walk_ohlc(400, seed=7)
    data = emit_ohlc_csv(records)
    for name, end in LINE_ENDS.items():
        raw, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_clean.csv"
        raw.write_bytes(data.replace(b"\n", end))
        code, stdout, err = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
        assert (code, err) == (0, ""), name
        assert stdout == f"wrote 400 records: {out}\n"
        assert out.read_bytes() == data, name


def test_report_prints_the_same_for_lf_crlf_and_cr_line_ends(tmp_path, data_csv, capsys):
    report = tmp_path / "lf.csv"
    code, _, _ = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp,srnn", "--hidden", "2,3",
        "--epochs", "1", "--report", str(report),
    )
    assert code == 0
    printed = {}
    for name, end in LINE_ENDS.items():
        copy = tmp_path / f"{name}_copy.csv"
        copy.write_bytes(report.read_bytes().replace(b"\n", end))
        for form in ("table", "csv"):
            code, stdout, err = run(capsys, "report", "--in", str(copy), "--format", form)
            assert (code, err) == (0, ""), (name, form)
            printed.setdefault(form, set()).add(stdout)
    assert {form: len(outs) for form, outs in printed.items()} == {"table": 1, "csv": 1}
    assert printed["csv"] == {report.read_text()}


@pytest.mark.parametrize("end", sorted(LINE_ENDS))
@pytest.mark.parametrize("command", ["ingest", "report"])
def test_a_byte_that_is_not_utf8_is_one_error_line_naming_its_line(
    tmp_path, capsys, command, end
):
    if command == "ingest":
        blob, where, bad = emit_ohlc_csv(random_walk_ohlc(700, seed=7)), "row", b"2"
    else:
        trials = [TrialResult("EUR/USD", "lstm", f"4-{h}-1", h, 0.1, 0.2, 0.3, 0, 0.0)
                  for h in range(1, 701)]
        blob, where, bad = emit_report_csv(trials), "report line", b"E"
    lines = blob.split(b"\n")
    lines[601] = lines[601].replace(bad, b"\xe9", 1)  # line 602, far past the first 8 KiB
    path, out = tmp_path / "bad.csv", tmp_path / "out.csv"
    path.write_bytes(LINE_ENDS[end].join(lines))
    if command == "ingest":
        argv = ("ingest", "--input", str(path), "--output", str(out))
    else:
        argv = ("report", "--in", str(path))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "") and not out.exists()
    assert one_error_line(err) == (
        f"fxbench: error: {where} 602: not UTF-8: byte 0xe9 (invalid continuation byte)"
    )


LONG_CELL = 100_000  # characters, under the csv module's field limit


@pytest.mark.parametrize(
    "command,row,where,field",
    [
        ("ingest", f"2018-01-02,{'1' * LONG_CELL},115.6,114.8,115.2", "row 2", "open"),
        ("ingest", f"{'2' * LONG_CELL},115.0,115.6,114.8,115.2", "row 2", "date"),
        ("report", f"EUR/USD,{'a' * LONG_CELL},4-5-1,5,0.1,0.2,0.3,7,0.0", "report line 2", "arch"),
    ],
    ids=["ingest-price", "ingest-date", "report-arch"],
)
def test_a_long_cell_is_quoted_short_in_one_error_line(
    tmp_path, capsys, command, row, where, field
):
    path = tmp_path / "in.csv"
    header = "date,open,high,low,close" if command == "ingest" else ",".join(REPORT_COLUMNS)
    path.write_text(header + "\n" + row + "\n")
    out = tmp_path / "out.csv"
    if command == "ingest":
        argv = ("ingest", "--input", str(path), "--output", str(out))
    else:
        argv = ("report", "--in", str(path))
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == "" and not out.exists()
    line = one_error_line(err)
    assert line.startswith(f"fxbench: error: {where}: ") and field in line and len(line) < 200


def test_ingest_refuses_a_price_in_a_form_no_writer_produces(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("date,open,high,low,close\n2018-01-02,1_15.0,115.6,114.8,115.2\n")
    out = tmp_path / "clean.csv"
    code, stdout, err = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
    assert code == 1 and stdout == ""
    assert one_error_line(err) == "fxbench: error: row 2: bad open value '1_15.0'"
    assert not out.exists()


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


def test_a_sweep_grid_given_out_of_order_or_twice_writes_the_same_report(
    tmp_path, data_csv, capsys
):
    reports = []
    for archs, hidden in (("lstm,MLP,lstm", "3,2,3"), ("mlp,lstm", "2,3")):
        reports.append(tmp_path / f"{len(reports)}.csv")
        code, stdout, _ = run(
            capsys, "sweep", "--data", data_csv, "--archs", archs, "--hidden", hidden,
            "--epochs", "1", "--report", str(reports[-1]),
        )
        assert code == 0 and "(4 trials)" in stdout
    assert reports[0].read_bytes() == reports[1].read_bytes()


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


def test_train_reads_its_arch_as_sweep_reads_archs(tmp_path, data_csv, capsys):
    blobs = []
    for arch in (" LSTM ", "lstm"):
        model_path = tmp_path / f"{arch.strip()}.json"
        code, _, _ = run(
            capsys, "train", "--data", data_csv, "--arch", arch, "--hidden", "3",
            "--epochs", "2", "--model-out", str(model_path),
        )
        assert code == 0
        blobs.append(model_path.read_bytes())
    assert blobs[0] == blobs[1]


def printed_maes(stdout):
    """{label: the repr printed after 'denormalized'} for every MAE line."""
    return {
        line.split(" mae:")[0]: line.split("denormalized ")[1].split(" |")[0]
        for line in stdout.splitlines()
        if " mae: denormalized " in line
    }


@pytest.mark.parametrize(
    "arch,window", [("mlp", 1)] + [(a, w) for a in ("srnn", "gru", "lstm") for w in (1, 2, 3)]
)
def test_train_reproduces_its_sweep_row_exactly(tmp_path, data_csv, capsys, arch, window):
    # any single trial can be reproduced in isolation: the train command
    # prints the very MAEs the sweep recorded for that (arch, hidden), on
    # both sides of the padded width 8, although the sweep trained it in a
    # stack with other hidden sizes; predict of the saved model over the
    # test rows prints its test MAE once more
    flags = ("--data", data_csv, "--epochs", "3", "--window", str(window), "--seed", "5")
    report = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "sweep", *flags, "--archs", arch, "--hidden", "2..10", "--report", str(report)
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(report.read_text())))
    records = read_records(data_csv)
    data = prepare_splits(records)
    test_csv = tmp_path / "test.csv"  # the records the test samples are built from
    write_atomic(test_csv, emit_ohlc_csv(records[-len(data.test) - 1 :]))
    for hidden in (8, 9):
        row = next(r for r in rows if r["hidden"] == str(hidden))
        model_path = tmp_path / f"m{hidden}.json"
        code, stdout, _ = run(
            capsys, "train", *flags, "--arch", arch, "--hidden", str(hidden),
            "--model-out", str(model_path),
        )
        assert code == 0
        printed = printed_maes(stdout)
        assert printed == {
            "train": row["train_mae"], "val": row["val_mae"], "test": row["test_mae"]
        }
        code, stdout, _ = run(
            capsys, "predict", "--model", str(model_path), "--data", str(test_csv),
            "--series-out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert f"predictions: {len(data.test) - window + 1}" in stdout
        assert printed_maes(stdout) == {"series": printed["test"]}


@pytest.mark.parametrize(
    "lr,exit_code,message",
    [
        ("1e308", 1, "non-finite weights (training loss"),
        ("inf", 2, "argument --lr: must be finite and above 0, got inf"),
    ],
    ids=["diverging", "infinite"],
)
def test_train_divergence_is_one_error_line_and_no_file(
    tmp_path, data_csv, capsys, lr, exit_code, message
):
    model_path = tmp_path / "m.json"
    code, _, err = run(
        capsys, "train", "--data", data_csv, "--arch", "lstm", "--hidden", "3",
        "--epochs", "1", "--batch", "1000", "--lr", lr, "--model-out", str(model_path),
    )
    assert code == exit_code
    assert message in one_error_line(err)
    assert not model_path.exists()


def test_an_all_diverged_sweep_says_it_wrote_its_report(tmp_path, data_csv, capsys, monkeypatch):
    monkeypatch.setenv("FXBENCH_LOG", "error")  # no per-trial divergence warnings
    report = tmp_path / "r.csv"
    code, out, err = run(
        capsys, "sweep", "--data", data_csv, "--archs", "lstm,gru", "--hidden", "2..3",
        "--epochs", "1", "--batch", "1000", "--lr", "1e308", "--report", str(report),
    )
    assert code == 1
    assert err == "fxbench: error: no successful trials to select from\n"
    assert out == f"wrote report: {report} (4 trials)\n"
    rows = parse_report_csv(report.read_bytes())
    assert [(t.arch, t.hidden) for t in rows] == [("gru", 2), ("gru", 3), ("lstm", 2), ("lstm", 3)]
    for t in rows:
        assert all(math.isnan(v) for v in (t.train_mae, t.val_mae, t.test_mae))


@pytest.mark.parametrize(
    "command,builder,flags",
    [
        ("sweep", "emit_report_csv", ("--archs", "mlp", "--hidden", "2", "--epochs", "1")),
        ("train", "save_model", ("--arch", "mlp", "--hidden", "2", "--epochs", "1")),
        ("predict", "emit_series_csv", ()),
    ],
    ids=["sweep", "train", "predict"],
)
def test_no_output_file_is_opened_before_its_bytes_exist(
    tmp_path, data_csv, capsys, monkeypatch, command, builder, flags
):
    norm = prepare_splits(read_records(data_csv)).train.norm
    model_path = tmp_path / "m.json"
    model_path.write_bytes(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), norm))
    out_flag = {"sweep": "--report", "train": "--model-out", "predict": "--series-out"}[command]
    if command == "predict":
        flags = ("--model", str(model_path))

    def refuse(*args):
        raise ValueError("cannot build these bytes")

    monkeypatch.setattr(f"fxbench.cli.{builder}", refuse)
    monkeypatch.setenv("FXBENCH_LOG", "error")  # no per-trial info lines
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--data", data_csv, *flags, out_flag, str(out))
    assert code == 1
    assert "cannot build these bytes" in one_error_line(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--arch", "lstm", "--hidden", "3", "--model-out"),
        ("sweep", "--hidden", "2,9", "--report"),
        ("sweep", "--archs", "mlp,gru", "--hidden", "2", "--report"),
    ],
    ids=["train", "sweep", "sweep-mlp-first"],
)
def test_a_window_longer_than_a_split_fails_before_any_training(
    tmp_path, data_csv, capsys, monkeypatch, argv
):
    data = prepare_splits(read_records(data_csv))
    assert len(data.train) > len(data.test) > len(data.validation)
    window = len(data.validation) + 1

    def refuse(*args):
        raise AssertionError("train was called")

    monkeypatch.setattr("fxbench.experiment.train", refuse)
    out_path = tmp_path / "out"
    code, out, err = run(
        capsys, *argv, str(out_path), "--data", data_csv, "--window", str(window)
    )
    assert (code, out) == (1, "")
    assert one_error_line(err) == (
        "fxbench: error: validation split has "
        f"{len(data.validation)} samples, fewer than window={window}"
    )
    assert not out_path.exists()


def test_train_scores_every_split_before_it_writes_the_model(
    tmp_path, data_csv, capsys, monkeypatch
):
    def refuse(model, split):
        raise ValueError("cannot score this split")

    monkeypatch.setattr("fxbench.experiment.evaluate", refuse)
    model_out = tmp_path / "m.json"
    code, out, err = run(
        capsys, "train", "--data", data_csv, "--arch", "mlp", "--hidden", "2",
        "--epochs", "1", "--model-out", str(model_out),
    )
    assert (code, out) == (1, "")
    assert one_error_line(err) == "fxbench: error: cannot score this split"
    assert not model_out.exists()


def test_an_mlp_only_run_ignores_a_window_longer_than_every_split(tmp_path, data_csv, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp", "--hidden", "2",
        "--epochs", "1", "--window", "5000", "--report", str(report),
    )
    assert code == 0
    assert "wrote report" in out and report.exists()
    model_out = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "train", "--data", data_csv, "--arch", "mlp", "--hidden", "2",
        "--epochs", "1", "--window", "5000", "--model-out", str(model_out),
    )
    assert code == 0
    assert "wrote model" in out and load_model(model_out.read_bytes())[0].spec.window == 1


def test_train_rejects_unknown_arch(tmp_path, data_csv, capsys):
    code, _, err = run(
        capsys, "train", "--data", data_csv, "--arch", "transformer", "--hidden", "3",
        "--epochs", "1", "--model-out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "unknown arch" in err


HUGE_INT = "<an int of 5000 digits>"  # json.dumps cannot write one, so it is put in after

# a gru model file, which takes a window above 1
GRU_DOC = json.loads(save_model(init_model(ModelSpec(arch="gru", hidden=2), 1), UNIT_NORM))


def test_predict_rejects_model_without_norm(tmp_path, data_csv, capsys, reads):
    series = tmp_path / "s.csv"
    doc = json.loads(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), UNIT_NORM))
    for how, message in (
        ("null", "model file 'norm' must be an object, got None"),
        ("deleted", "model file is missing required field 'norm'"),
    ):
        if how == "null":
            doc["norm"] = None
        else:
            del doc["norm"]
        bare = tmp_path / f"bare_{how}.json"
        bare.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "predict", "--model", str(bare), "--data", data_csv,
            "--series-out", str(series),
        )
        assert code == 1
        assert err == f"fxbench: error: {message}\n"
        assert out == "" and data_csv not in reads and not series.exists()


@pytest.mark.parametrize(
    "field,mutate",
    [
        ("hidden", lambda d: d.update(hidden=None)),
        ("norm", lambda d: d.update(norm=5)),
        ("shape", lambda d: d["params"]["W_h"].update(shape=3)),
        ("target_min", lambda d: d["norm"].update(target_min=[1])),
        ("feature_min", lambda d: d["norm"].update(feature_min=d["norm"]["feature_min"][:3])),
        ("feature_max", lambda d: d["norm"].update(feature_max=d["norm"]["feature_min"])),
        ("W_h", lambda d: d["params"]["W_h"]["data"].__setitem__(0, 10**400)),
        ("W_h", lambda d: d["params"]["W_h"]["data"].__setitem__(0, "1.5")),
        ("hidden", lambda d: d.update(hidden=10**400)),
        ("arch", lambda d: d.update(arch="x" * 500)),
        ("window", lambda d: d.update(window=10**400)),
        # json cannot read an int of more than 4300 digits (Python's limit)
        ("model file", lambda d: d.update(hidden=HUGE_INT)),
        # loads, and predict refuses it
        ("window", lambda d: d.update({**GRU_DOC, "norm": d["norm"], "window": 10**400})),
    ],
    ids=["hidden-null", "norm-number", "shape-int", "target-min-list",
         "feature-min-3-long", "feature-max-equals-min", "weight-beyond-float", "weight-string",
         "hidden-beyond-float", "arch-500-long", "mlp-window-beyond-float",
         "hidden-5000-digits", "gru-window-beyond-float"],
)
def test_predict_rejects_malformed_model_file_in_one_line(
    tmp_path, data_csv, capsys, field, mutate
):
    norm = prepare_splits(read_records(data_csv)).train.norm
    doc = json.loads(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), norm))
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace(json.dumps(HUGE_INT), "7" * 5000))
    series = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "predict", "--model", str(bad), "--data", data_csv,
        "--series-out", str(series),
    )
    assert code == 1
    line = one_error_line(err)
    assert field in line and len(line) < 200  # a 401-digit value is not quoted whole
    assert not series.exists()


@pytest.mark.parametrize("field", ["output_dim", "input_dim"])
def test_predict_refuses_a_model_it_would_misread(tmp_path, data_csv, capsys, reads, field):
    # a model file is the one way another shape reaches the program; it is
    # refused on load, before the data is read
    norm = prepare_splits(read_records(data_csv)).train.norm
    doc = json.loads(save_model(init_model(ModelSpec(arch="lstm", hidden=3), 1), norm))
    doc[field] = {"output_dim": 2, "input_dim": 5}[field]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    series = tmp_path / "s.csv"
    reads.clear()  # the set-up read the data to fit the norm
    code, stdout, err = run(
        capsys, "predict", "--model", str(model), "--data", data_csv, "--series-out", str(series)
    )
    assert code == 1 and stdout == ""
    shape = {"output_dim": 1, "input_dim": 4}[field]
    assert one_error_line(err) == (
        f"fxbench: error: model file field {field!r} must be {shape}, got {doc[field]}"
    )
    assert not series.exists() and reads == [str(model)]


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


def test_report_refuses_a_row_the_sweep_cannot_write(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        ",".join(REPORT_COLUMNS) + "\n"
        "EUR/USD,gru,4-5-1,-3,0.1,0.2,-0.3,7,0.0\n"
    )
    code, stdout, err = run(capsys, "report", "--in", str(bad))
    assert code == 1 and stdout == ""
    assert one_error_line(err) == (
        "fxbench: error: report line 2: field 'hidden' must be a positive integer, got -3"
    )


def test_report_refuses_a_number_in_a_form_the_sweep_does_not_write(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        ",".join(REPORT_COLUMNS) + "\n"
        "EUR/USD,gru,4-10-1,1_0,0.1,0.2,0.3,7,0.0\n"
    )
    code, stdout, err = run(capsys, "report", "--in", str(bad), "--format", "csv")
    assert code == 1 and stdout == ""
    assert one_error_line(err) == (
        "fxbench: error: report line 2: field 'hidden' must be written as '10', got '1_0'"
    )


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


def test_each_call_logs_to_its_own_stderr_then_restores_the_logger(
    tmp_path, data_csv, capsys, monkeypatch
):
    sweep = [
        "sweep", "--data", data_csv, "--archs", "mlp", "--hidden", "2", "--epochs", "1",
        "--report", str(tmp_path / "r.csv"),
    ]
    trial_line = "fxbench INFO: trial mlp 4-2-1"
    logger = logging.getLogger("fxbench")
    saved = logger.level
    logger.setLevel(logging.CRITICAL)
    try:
        monkeypatch.setenv("FXBENCH_LOG", "info")
        code, _, err = run(capsys, *sweep)
        assert code == 0 and trial_line in err
        assert not logger.handlers and logger.level == logging.CRITICAL

        for level, logged in (("info", True), ("error", False)):
            monkeypatch.setenv("FXBENCH_LOG", level)
            stream = io.StringIO()
            monkeypatch.setattr(sys, "stderr", stream)
            assert main(sweep) == 0
            assert (trial_line in stream.getvalue()) is logged
            assert not logger.handlers and logger.level == logging.CRITICAL
        assert capsys.readouterr().err == ""  # the first call's stream got nothing more
    finally:
        logger.setLevel(saved)


def test_an_unwritable_output_is_one_error_line_and_leaves_no_temp_file(
    tmp_path, data_csv, capsys, monkeypatch
):
    # the target is an existing directory
    monkeypatch.setenv("FXBENCH_LOG", "error")
    out = tmp_path / "taken"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    code, _, err = run(
        capsys, "sweep", "--data", data_csv, "--archs", "mlp", "--hidden", "2",
        "--epochs", "1", "--report", str(out),
    )
    assert code == 1
    assert "taken" in one_error_line(err)
    assert sorted(tmp_path.iterdir()) == before and not any(out.iterdir())


@pytest.mark.parametrize("command", ["sweep", "train"])
def test_an_interrupt_is_one_error_line_and_leaves_no_file(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    def interrupt(*args):
        raise KeyboardInterrupt

    # both commands run their trials through the sweep's unit of work
    monkeypatch.setattr("fxbench.experiment._run_stack", interrupt)
    out_dir = tmp_path / "out"
    argv = command_argv(command, data_csv, None, str(out_dir / "out"))
    monkeypatch.setattr(sys, "argv", ["fxbench", *argv])
    with pytest.raises(SystemExit) as exc:
        fxbench.cli.entrypoint()
    assert exc.value.code == 130
    assert capsys.readouterr() == ("", "fxbench: error: interrupted\n")
    assert list(out_dir.iterdir()) == []  # no output and no `.out.*.tmp`
    assert not logging.getLogger("fxbench").handlers
    # main lets the interrupt through, so it still stops an in-process caller
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert not logging.getLogger("fxbench").handlers


# ---------------------------------------------------------------- output paths


def command_argv(command, data, model, out):
    """The argument list of `command` with its one output at `out`."""
    return {
        "ingest": ["ingest", "--input", data, "--output", out],
        "sweep": [
            "sweep", "--data", data, "--archs", "mlp", "--hidden", "2", "--epochs", "1",
            "--report", out,
        ],
        "train": [
            "train", "--data", data, "--arch", "mlp", "--hidden", "2", "--epochs", "1",
            "--model-out", out,
        ],
        "predict": ["predict", "--model", model, "--data", data, "--series-out", out],
    }[command]


@pytest.mark.parametrize(
    "command,flag",
    [("ingest", "--input"), ("ingest", "--output"), ("sweep", "--data"), ("sweep", "--pair"),
     ("sweep", "--archs"), ("train", "--model-out"), ("predict", "--model")],
)
def test_a_flag_given_double_dash_as_its_value_is_a_usage_error(
    tmp_path, data_csv, capsys, reads, command, flag
):
    # argparse drops the `--` of `--flag=--` and gave the command an empty list
    out = str(tmp_path / "new" / "out")
    argv = command_argv(command, data_csv, str(tmp_path / "m.json"), out)
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    code, stdout, err = run(capsys, *argv, f"{flag}=--")
    assert (code, stdout) == (2, "") and reads == []
    assert one_error_line(err) == f"fxbench: error: argument {flag}: expected one argument"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["ingest", "sweep", "train", "predict"])
def test_an_output_under_a_regular_file_fails_before_any_work(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    # ingest and predict get inputs that do not exist, so an error naming
    # the output shows that no input was read; sweep and train would
    # raise here had training started
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("fxbench.experiment.train", refuse)
    monkeypatch.setenv("FXBENCH_LOG", "error")
    data = str(tmp_path / "missing.csv") if command == "ingest" else data_csv
    (tmp_path / "notadir").write_text("a regular file\n")
    for out in (tmp_path / "notadir" / "out", tmp_path / "notadir" / "sub" / "out"):
        argv = command_argv(command, data, str(tmp_path / "missing.json"), str(out))
        code, _, err = run(capsys, *argv)
        assert code == 1
        line = one_error_line(err)
        assert str(out) in line and "is not a directory" in line
        assert ".tmp" not in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notadir", "pair.csv"]


@pytest.mark.parametrize("command", ["ingest", "sweep", "train", "predict"])
def test_an_empty_output_path_fails_before_any_work(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    # as above: missing inputs for ingest and predict, and no training
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("fxbench.experiment.train", refuse)
    monkeypatch.setenv("FXBENCH_LOG", "error")
    monkeypatch.chdir(tmp_path)  # where a file for "" would go
    data = str(tmp_path / "missing.csv") if command == "ingest" else data_csv
    code, out, err = run(capsys, *command_argv(command, data, str(tmp_path / "missing.json"), ""))
    assert (code, out) == (1, "")
    assert one_error_line(err) == "fxbench: error: cannot write to an empty output path"
    assert [p.name for p in tmp_path.iterdir()] == ["pair.csv"]


@pytest.mark.parametrize("command", ["ingest", "sweep", "train", "predict"])
def test_an_output_path_that_names_a_directory_creates_no_directory(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    # as above: missing inputs for ingest and predict, and no training
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("fxbench.experiment.train", refuse)
    monkeypatch.setenv("FXBENCH_LOG", "error")
    data = str(tmp_path / "missing.csv") if command == "ingest" else data_csv
    for out in (os.path.join(tmp_path, "tdir", ""), os.path.join(tmp_path, "tdir", "sub", "")):
        argv = command_argv(command, data, str(tmp_path / "missing.json"), out)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert one_error_line(err) == f"fxbench: error: cannot write {out}: it is a directory"
        assert not (tmp_path / "tdir").exists()


@pytest.mark.parametrize("command", ["ingest", "sweep", "train", "predict"])
def test_a_missing_output_directory_is_created(tmp_path, data_csv, capsys, monkeypatch, command):
    norm = prepare_splits(read_records(data_csv)).train.norm
    model_path = tmp_path / "m.json"
    model_path.write_bytes(save_model(init_model(ModelSpec(arch="mlp", hidden=2), 1), norm))
    monkeypatch.setenv("FXBENCH_LOG", "error")
    out = tmp_path / "results" / "run 1" / "out"
    code, _, err = run(capsys, *command_argv(command, data_csv, str(model_path), str(out)))
    assert (code, err) == (0, "")
    assert out.is_file()
    assert list(out.parent.iterdir()) == [out]


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("sweep", "--epochs", "0"),
        ("sweep", "--batch", "0"),
        ("sweep", "--window", "0"),
        ("sweep", "--lr", "-1"),
        ("sweep", "--lr", "nan"),
        ("train", "--hidden", "0"),
        ("train", "--window", "0"),
        ("train", "--epochs", "-5"),
        ("sweep", "--hidden", "1..1" + "0" * 22),
        ("sweep", "--hidden", "1..1025"),
        ("sweep", "--hidden", "1025"),
        ("train", "--hidden", "100000000"),
        ("sweep", "--pair", "a\udcffb"),  # an undecodable argv byte, which UTF-8 cannot encode
    ],
)
def test_an_out_of_range_flag_is_a_usage_error_before_any_work(
    tmp_path, data_csv, capsys, reads, command, flag, value
):
    out = str(tmp_path / "new" / "out")
    argv = command_argv(command, data_csv, None, out)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {flag}:" in one_error_line(err)
    assert stdout == "" and reads == []
    assert not (tmp_path / "new").exists()


def test_an_infinite_learning_rate_fails_before_any_work(tmp_path, data_csv, capsys, reads):
    out = str(tmp_path / "new" / "out")
    code, _, err = run(capsys, *command_argv("sweep", data_csv, None, out), "--lr", "inf")
    assert code == 2 and reads == []
    assert "argument --lr: must be finite and above 0, got inf" in one_error_line(err)
    assert not (tmp_path / "new").exists()


def test_a_usage_error_creates_no_output_directory(tmp_path, data_csv, capsys):
    out = str(tmp_path / "new" / "out")
    for argv in (
        ["sweep", "--data", data_csv, "--archs", "cnn", "--report", out],
        ["sweep", "--data", data_csv, "--hidden", "9..2", "--report", out],
        ["sweep", "--data", data_csv, "--hidden", ",", "--report", out],
        ["sweep", "--data", data_csv, "--hidden", ", ,", "--report", out],
        ["train", "--data", data_csv, "--arch", "cnn", "--hidden", "2", "--model-out", out],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        one_error_line(err)
    assert not (tmp_path / "new").exists()


# ---------------------------------------------------------------- generative


# argv tokens: long runs of one character; numbers of 4000 digits, which int()
# reads, and of 5000, which it refuses; and short names (empty and non-ASCII
# included, argv's undecodable bytes too) that hold no path separator, so a
# name given as an output stays in the working directory
LONG_TOKENS = st.builds(
    lambda char, n: char * n,
    st.sampled_from(["x", "1", ",", " ", "-", "é", "\U0001f600", "\udcff"]),
    st.integers(150, LONG_ARG),
)
HUGE_NUMBERS = st.sampled_from(
    ["1" * 4000, "1.." + "1" * 4000, "1" * 5000, "-" + "1" * 5000, "0." + "1" * 5000,
     "1.." + "1" * 5000, "1" * 5000 + ",2"]
)
NAMES = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00/")
    | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    max_size=12,
)
TOKENS = LONG_TOKENS | HUGE_NUMBERS | NAMES
PATH_FLAGS = {"--input", "--output", "--data", "--report", "--model-out", "--model",
              "--series-out", "--in"}
PARSER = build_parser()


def command_flags(data, report, model):
    """Each command's flags, each with a value that keeps a run short (None
    for a switch); an output is named relative to the working directory."""
    training = {"--data": data, "--epochs": "1", "--batch": "8", "--optimizer": "sgd",
                "--lr": "0.05", "--seed": "7", "--fit-norm": "all", "--window": "2"}
    return {
        "ingest": {"--input": data, "--output": "out.csv", "--strict": None},
        "sweep": {**training, "--pair": "X/Y", "--archs": "gru, MLP", "--hidden": "1..2",
                  "--select": "val", "--report": "out.csv", "--timings": None},
        "train": {**training, "--arch": " LSTM", "--hidden": "2", "--model-out": "out.json"},
        "predict": {"--model": model, "--data": data, "--series-out": "out.csv"},
        "report": {"--in": report, "--format": "csv", "--select": "val"},
    }


def refused(flag, value):
    """Whether the sweep parser refuses `value` as the value of `flag`."""
    try:
        PARSER.parse_args(["sweep", "--data", "d", "--report", "r", f"{flag}={value}"])
    except fxbench.cli.UsageError:
        return True
    return False


@st.composite
def runs(draw, flags):
    """(argv, FXBENCH_LOG) for a command with up to two of its flags, its
    name, an extra token or FXBENCH_LOG spoiled: given a drawn token, or
    left out. A spoiled `--epochs` or `--hidden` is one the parser refuses,
    and `--epochs` (default 1500) is never left out, so no run trains long."""
    command = draw(st.sampled_from(sorted(flags)))
    spoil = ["command", "extra", "FXBENCH_LOG", *flags[command]]
    spoiled = draw(st.sets(st.sampled_from(spoil), max_size=2))
    argv = [draw(TOKENS) if "command" in spoiled else command]
    for flag, value in flags[command].items():
        if flag in spoiled:
            tokens = NAMES if flag in PATH_FLAGS else TOKENS
            if flag in ("--epochs", "--hidden"):
                tokens = tokens.filter(lambda token: refused(flag, token))
            value = draw(tokens if flag == "--epochs" else st.none() | tokens)
            if value is None:
                continue
        if value is None:  # a switch
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if "extra" in spoiled:
        argv.append(draw(TOKENS))
    levels = st.sampled_from([None, "error", " WARN ", "Debug"])
    return argv, draw(TOKENS if "FXBENCH_LOG" in spoiled else levels)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A 40-day walk, a report and a model made from it, and an empty
    working directory."""
    root = tmp_path_factory.mktemp("generative")
    data, report, model = (str(root / name) for name in ("d.csv", "r.csv", "m.json"))
    write_atomic(data, emit_ohlc_csv(random_walk_ohlc(40, seed=1)))
    common = ["--data", data, "--hidden", "2", "--epochs", "1"]
    assert main(["sweep", *common, "--archs", "mlp", "--report", report]) == 0
    assert main(["train", *common, "--arch", "gru", "--window", "2", "--model-out", model]) == 0
    (root / "work").mkdir()
    return command_flags(data, report, model), root / "work"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_and_log_level_end_in_an_exit_code_and_at_most_one_short_error_line(
    cli_inputs, data
):
    flags, work = cli_inputs
    argv, level = data.draw(runs(flags))
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("FXBENCH_LOG", None)
        if level is not None:
            os.environ["FXBENCH_LOG"] = level
        os.chdir(work)
        try:
            code = main(argv)  # an exception leaving main fails the test
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("fxbench: error: ")]
    assert code in (0, 1, 2)
    assert errors == (lines[-1:] if code else [])  # one error line, last, on failure only
    assert all(line.startswith("fxbench ") for line in lines[: len(lines) - len(errors)])
    assert all(len(line.encode("utf-8", "surrogateescape")) < 300 for line in errors)
