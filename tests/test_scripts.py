"""The scripts under scripts/, run in process through their main(argv)."""

import importlib.util
import pathlib

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
    capsys.readouterr()
    suffixes = ("data.csv", "report.csv", "report.txt", "best_model.json", "best_test_series.csv")
    slugs = [pair.replace("/", "_").lower() for pair, _, _ in run_benchmark.PAIRS]
    expected = {f"{slug}_{suffix}" for slug in slugs for suffix in suffixes}
    assert len(expected) == 15
    assert {p.name for p in tmp_path.iterdir()} == expected

    for slug in slugs:
        report = parse_report_csv((tmp_path / f"{slug}_report.csv").read_bytes())
        best = select_best(report, "test_mae").overall
        model, norm = load_model((tmp_path / f"{slug}_best_model.json").read_bytes())
        assert (model.spec.arch, model.spec.hidden) == (best.arch, best.hidden)
        data, _ = prepare_splits(read_ohlc_csv(tmp_path / f"{slug}_data.csv"))
        result = evaluate(model, data.test, norm)
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
