"""The scripts under scripts/, run in process through their main(argv), or as
programs where their command-line errors are checked."""

import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

from fxbench import (
    ModelStack,
    emit_series_csv,
    evaluate,
    load_model,
    parse_ohlc_csv,
    parse_report_csv,
    prepare_splits,
    ramp_ohlc,
    random_walk_ohlc,
    select_best,
)
from fxbench.cli import main as fxbench_main
from fxbench.data import _quoted

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *args, **kwargs):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


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
        data = prepare_splits(parse_ohlc_csv((tmp_path / f"{slug}_data.csv").read_bytes()))
        assert norm == data.test.norm
        (result,) = evaluate(ModelStack([model]), data.test)
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
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (
            ["--kind", "ramp", "--n", "30", "--start", "1", "--increment", "10"],
            "day 0 (2018-01-01): low must be a positive finite price, got -1.5",
        ),
        (
            ["--kind", "ramp", "--n", "60", "--increment", "1e-20"],
            "increment 1e-20 moves no price: the close stays 100.0 on all 60 days",
        ),
        (["--n", "x"], "argument --n: invalid int value: 'x'"),
    ],
    ids=["n", "step-frac", "start-walk", "start-ramp", "increment", "seed", "ramp-low",
         "ramp-constant", "n-not-int"],
)
def test_make_data_reports_a_bad_value_in_one_error_line(tmp_path, flags, message):
    out = tmp_path / "new" / "data.csv"
    proc = run_script("make_data", *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"make_data.py: error: {message}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--epochs", "0"], "argument --epochs: must be finite and above 0, got 0"),
        (["--batch", "-1"], "argument --batch: must be finite and above 0, got -1"),
        (["--quick", "--epochs", "1"], "argument --epochs: not allowed with argument --quick"),
    ],
    ids=["epochs", "batch", "quick-with-epochs"],
)
def test_run_benchmark_reports_a_bad_value_in_one_error_line(tmp_path, flags, message):
    out = tmp_path / "new"
    proc = run_script("run_benchmark", *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"run_benchmark.py: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["the-file", "under-the-file"])
def test_run_benchmark_reports_an_output_directory_it_cannot_create_in_one_line(tmp_path, below):
    regular = tmp_path / "file"
    regular.write_text("keep\n")
    out = regular / below if below else regular
    proc = run_script("run_benchmark", "--epochs", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"run_benchmark.py: error: cannot write {out}/syn_alpha_data.csv: "
        f"{out} is not a directory\n"
    )
    assert regular.read_text() == "keep\n"


def test_run_benchmark_refuses_an_empty_out_and_writes_nothing(tmp_path):
    proc = run_script("run_benchmark", "--epochs", "1", "--out", "", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "run_benchmark.py: error: cannot write to an empty output path\n"
    assert list(tmp_path.iterdir()) == []


def test_run_benchmark_refuses_an_output_name_that_is_a_directory_before_any_work(tmp_path):
    out = tmp_path / "bench"
    (out / "syn_gamma_best_model.json").mkdir(parents=True)
    proc = run_script("run_benchmark", "--epochs", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"run_benchmark.py: error: cannot write {out}/syn_gamma_best_model.json: "
        "it is a directory\n"
    )
    assert [p.name for p in out.iterdir()] == ["syn_gamma_best_model.json"]


@pytest.mark.parametrize("below", ["data.csv", "new/data.csv"], ids=["in-file", "deeper"])
def test_make_data_reports_an_output_path_it_cannot_create_in_one_line(tmp_path, below):
    regular = tmp_path / "file"
    regular.write_text("keep\n")
    out = regular / below
    proc = run_script("make_data", "--n", "20", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"make_data.py: error: cannot write {out}: ")
    assert regular.read_text() == "keep\n"


def test_make_data_flag_defaults_are_the_generators_defaults():
    args = load_script("make_data").build_parser().parse_args(["--out", "walk.csv"])
    walk = inspect.signature(random_walk_ohlc).parameters
    ramp = inspect.signature(ramp_ohlc).parameters
    assert args.start == walk["start"].default == ramp["start"].default
    assert args.step_frac == walk["step_frac"].default
    assert args.increment == ramp["increment"].default


@pytest.mark.parametrize("name", ["make_data", "run_benchmark"])
def test_an_out_of_two_dashes_is_one_usage_line_and_writes_nothing(tmp_path, name):
    proc = run_script(name, "--out=--", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{name}.py: error: argument --out: expected one argument\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [False, True], ids=["ends-in-separator", "existing-dir"])
def test_make_data_refuses_an_output_that_names_a_directory(tmp_path, existing):
    target = tmp_path / "newdir"
    if existing:
        target.mkdir()
    out = str(target) if existing else f"{target}/"
    proc = run_script("make_data", "--n", "20", "--out", out)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"make_data.py: error: cannot write {out}: it is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == (["newdir"] if existing else [])
    assert not any(tmp_path.glob("newdir/*"))


@pytest.mark.parametrize(
    "name,flags,message",
    [
        ("make_data", ["--n", "9" * 5000], f"argument --n: invalid int value: '{'9' * 5000}'"),
        (
            "run_benchmark",
            ["--seed", "9" * 5000],
            f"argument --seed: invalid int value: '{'9' * 5000}'",
        ),
        (
            "make_data",
            ["--kind", "w\u00e4lk"],
            "argument --kind: invalid choice: 'w\\xe4lk' (choose from 'walk', 'ramp')",
        ),
    ],
    ids=["make_data-n", "run_benchmark-seed", "make_data-kind"],
)
def test_a_long_or_non_ascii_value_is_one_short_ascii_usage_line(tmp_path, name, flags, message):
    out = tmp_path / "new" / "out.csv"
    proc = run_script(name, *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{name}.py: error: {_quoted(message, str, 150)}\n"
    assert proc.stderr.isascii() and len(proc.stderr.encode()) < 300
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "name,work", [("make_data", "random_walk_ohlc"), ("run_benchmark", "benchmark_pair")]
)
def test_an_interrupted_script_exits_130_in_one_line(tmp_path, capsys, monkeypatch, name, work):
    script = load_script(name)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(script, work, interrupt)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--out", str(tmp_path / "out" / "x")])
    with pytest.raises(SystemExit) as exc:
        script.entrypoint(script.build_parser())
    assert exc.value.code == 130
    assert capsys.readouterr().err == f"{name}.py: error: interrupted\n"
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize(
    "name,flags", [("make_data", ["--n", "20"]), ("run_benchmark", ["--epochs", "1"])]
)
def test_a_bad_log_level_is_a_usage_error_before_any_write(tmp_path, monkeypatch, name, flags):
    monkeypatch.setenv("FXBENCH_LOG", "loud")
    out = tmp_path / "new" / "out.csv"
    proc = run_script(name, *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"{name}.py: error: invalid FXBENCH_LOG 'loud' (choose from error, warn, info, debug)\n"
    )
    assert list(tmp_path.iterdir()) == []
