"""The scripts under scripts/, run in process through their main(argv), or as
programs where their command-line errors are checked."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from fxbench import (
    emit_series_csv,
    evaluate,
    load_model,
    parse_report_csv,
    prepare_splits,
    read_ohlc_csv,
    select_best,
)
from fxbench.cli import main as fxbench_main

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_writes_every_output_and_its_winner_matches_the_sweep(tmp_path, capsys):
    run_benchmark = load_script("run_benchmark")
    assert run_benchmark.main(["--epochs", "2", "--out", str(tmp_path)]) == 0
    again = tmp_path.parent / f"{tmp_path.name}_again"
    assert run_benchmark.main(["--epochs", "2", "--out", str(again)]) == 0
    capsys.readouterr()
    suffixes = ("data.csv", "report.csv", "report.txt", "best_model.json", "best_test_series.csv")
    slugs = [pair.replace("/", "_").lower() for pair, _, _ in run_benchmark.PAIRS]
    expected = {f"{slug}_{suffix}" for slug in slugs for suffix in suffixes}
    assert len(expected) == 15
    assert {p.name for p in tmp_path.iterdir()} == expected
    # a rerun writes the same bytes, reports included (they carry no timings)
    for name in sorted(expected):
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes(), name

    for slug in slugs:
        report = parse_report_csv((tmp_path / f"{slug}_report.csv").read_bytes())
        best = select_best(report, "test_mae").overall
        model, norm = load_model((tmp_path / f"{slug}_best_model.json").read_bytes())
        assert (model.spec.arch, model.spec.hidden) == (best.arch, best.hidden)
        data, _ = prepare_splits(read_ohlc_csv(tmp_path / f"{slug}_data.csv"))
        assert norm.same_as(data.test.norm)
        result = evaluate(model, data.test)
        # the retrained winner is the very model the sweep scored
        assert repr(result.mae) == repr(best.test_mae)
        assert (tmp_path / f"{slug}_best_test_series.csv").read_bytes() == emit_series_csv(result)


@pytest.mark.parametrize("kind", ["walk", "ramp"])
def test_make_data_writes_csvs_that_pass_strict_ingest(tmp_path, capsys, kind):
    make_data = load_script("make_data")
    raw = tmp_path / f"{kind}.csv"
    assert make_data.main(["--kind", kind, "--n", "200", "--out", str(raw)]) == 0
    clean = tmp_path / "clean.csv"
    assert fxbench_main(["ingest", "--strict", "--input", str(raw), "--output", str(clean)]) == 0
    assert f"wrote 200 records: {clean}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "0"], "need n >= 1 records, got 0"),
        (["--step-frac", "1"], "step_frac must be in (0, 1), got 1.0"),
        (["--start", "nan"], "start price must be positive and finite, got nan"),
        (["--kind", "ramp", "--start", "-1"], "start price must be positive and finite, got -1.0"),
        (["--kind", "ramp", "--increment", "inf"], "increment must be positive and finite, got inf"),
    ],
    ids=["n", "step-frac", "start-walk", "start-ramp", "increment"],
)
def test_make_data_reports_a_bad_value_in_one_error_line(tmp_path, flags, message):
    out = tmp_path / "new" / "data.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_data.py"), *flags, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"make_data.py: error: {message}"
    assert not out.parent.exists()
