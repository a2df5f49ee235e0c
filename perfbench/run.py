#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fxbench CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-w1 --seed 1 --seconds 45 --trace 0

Each workload drives `fxbench.cli.main` in this one process with the
argument lists a user would type. Its inputs are seeded random walks that
this script writes; the program sees only those files. After set-up the
workload's pass (its timed commands) repeats until --seconds have passed;
every pass's outputs are checked, and timings are medians over passes.

--trace 0 reports the end-to-end metrics, with no instrumentation present.
--trace 1 alternates untraced and traced passes (see tracer.py) and reports
the per-layer metrics; the traced outputs must equal the untraced ones byte
for byte and the traced call counts must repeat exactly.

Standard output ends with one JSON line: correct, attempted, failed and
metrics (the end-to-end or per-layer metrics named in BENCHMARK.json).
Attempted operations are commands, trials and output checks; a failed
command, a NaN trial or a failed check counts as failed. The lines before it
give every metric with its unit, the environment, and a `detail` JSON line
with all per-layer metrics, including those not in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import LAYERS, Tracer  # noqa: E402

ARCHS = ("mlp", "srnn", "gru", "lstm")  # fxbench's canonical order
SPLIT = (0.70, 0.15)  # train and validation fractions; test takes the rest
REPORT_HEADER = [
    "pair", "arch", "structure", "hidden", "train_mae", "val_mae", "test_mae", "seed", "wall_time_s",
]
OHLC_HEADER = ["date", "open", "high", "low", "close"]

# Sweeps: the paper grid on a 1500-day walk. Five epochs keep a pass near
# 1 s (window 1) and 3.5 s (window 8) on a 2-core machine, so a run holds
# enough passes for a steady median; per-batch work is the same at any
# epoch count.
SWEEP_DAYS = 1500
SWEEP_EPOCHS = 5
HIDDEN = range(2, 11)

# Scoring: one LSTM trained in set-up, then ingest + predict over four
# long series (40k rows in all), fed to ingest in shuffled row order.
SCORE_ROWS = (7000, 9000, 11000, 13000)
SCORE_HIDDEN = 10
SCORE_WINDOW = 5
SCORE_EPOCHS = 5

SETUP_REPEATS = 3
MIN_PASSES = 3  # untraced; a traced run makes at least 2 untraced/traced pairs
MAE_RTOL = 1e-6  # reference MAEs: allows last-bit changes in the arithmetic
SERIES_RTOL = 1e-9  # series file against the CLI's own printout and inputs

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


class Ledger:
    """Operations attempted and failed: commands, trials and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


def run_command(cli, argv: list[str], ledger: Ledger) -> tuple[float, str]:
    """Run one CLI command; returns (wall seconds, captured stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception as e:  # a traceback out of the CLI is a failed command, not a crash
        traceback.print_exc(file=sys.stderr)
        rc = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    ledger.op(rc == 0, f"fxbench {argv[0]} returned {rc!r}")
    return elapsed, out.getvalue()


def close_enough(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def write_ohlc(path: Path, records, order_seed: int | None = None):
    """Write records as an OHLC CSV; shuffle the rows when order_seed is given."""
    rows = list(records)
    if order_seed is not None:
        random.Random(order_seed).shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(OHLC_HEADER) + "\n")
        for r in rows:
            fh.write(f"{r.date.isoformat()},{r.open!r},{r.high!r},{r.low!r},{r.close!r}\n")


def split_sizes(days: int) -> tuple[int, int, int]:
    n = days - 1  # one sample per day after the first
    n_train = math.floor(SPLIT[0] * n)
    n_val = math.floor(SPLIT[1] * n)
    return n_train, n_val, n - n_train - n_val


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


class Sweep:
    """`fxbench sweep` over archs x hidden 2..10 on one seeded walk."""

    def __init__(self, name: str, window: int, archs: tuple[str, ...]):
        self.name = name
        self.window = window
        self.archs = archs
        self.grid = [(a, h) for a in archs for h in HIDDEN]
        self.first_report = None

    def setup(self, seed: int, workdir: Path, synthetic, cli, ledger: Ledger):
        self.data = workdir / "walk.csv"
        self.report = workdir / "report.csv"
        write_ohlc(self.data, synthetic.random_walk_ohlc(SWEEP_DAYS, seed=seed))
        self.argv = [
            "sweep", "--data", str(self.data), "--archs", ",".join(self.archs),
            "--hidden", f"{HIDDEN.start}..{HIDDEN.stop - 1}", "--window", str(self.window),
            "--epochs", str(SWEEP_EPOCHS), "--optimizer", "rmsprop", "--batch", "32",
            "--pair", "SYN/WALK", "--report", str(self.report),
        ]

    def work(self) -> dict:
        """Samples trained and rows scored by one pass (from split arithmetic)."""
        trained = scored = 0
        for arch, _ in self.grid:
            w = 1 if arch == "mlp" else self.window
            sizes = [s - w + 1 for s in split_sizes(SWEEP_DAYS)]
            trained += sizes[0] * SWEEP_EPOCHS
            scored += sum(sizes)
        return {"train_samples": trained, "rows_scored": scored, "commands": 1}

    def run_pass(self, cli, ledger: Ledger):
        self.report.unlink(missing_ok=True)
        return run_command(cli, self.argv, ledger)

    def check(self, out: str, ledger: Ledger, reference: dict | None) -> dict:
        if not ledger.op(self.report.is_file(), "sweep wrote no report"):
            return {}
        report = self.report.read_bytes()
        rows = list(csv.reader(io.StringIO(report.decode("utf-8"))))
        ledger.op(rows[:1] == [REPORT_HEADER], "report header")
        trials = {}
        for row in rows[1:]:
            try:
                if len(row) != len(REPORT_HEADER):
                    raise ValueError("wrong field count")
                key = (row[1], int(row[3]))
                maes = tuple(float(v) for v in row[4:7])
            except ValueError as e:
                ledger.op(False, f"report row {row!r}: {e}")
                continue
            trials[key] = maes
            ledger.op(all(math.isfinite(v) for v in maes), f"trial {key} has a NaN MAE")
        ledger.op(sorted(trials) == sorted(self.grid) and len(rows) - 1 == len(self.grid),
                  "report rows do not match the grid")
        usable = [k for k in trials if math.isfinite(trials[k][2])]
        if usable:
            best = min(usable, key=lambda k: (trials[k][2], k[1], ARCHS.index(k[0])))
            m = re.search(r"overall best \(test_mae\): (\w+),\d+-(\d+)-\d+,(\S+)", out)
            ledger.op(
                m is not None and (m.group(1).lower(), int(m.group(2))) == best
                and float(m.group(3)) == trials[best][2],
                f"printed best pick does not match the report's argmin {best}",
            )
        if self.first_report is None:
            self.first_report = report
        ledger.op(report == self.first_report, "report differs from the first pass")
        if reference is not None:
            ref = {}
            for key, maes in reference["trials"].items():
                arch, hidden = key.split(":")
                ref[(arch, int(hidden))] = maes
            ledger.op(
                ref.keys() == trials.keys()
                and all(close_enough(x, y, MAE_RTOL)
                        for k in ref for x, y in zip(ref[k], trials[k])),
                "trial MAEs differ from the reference",
            )
            ref_arch, ref_hidden = reference["best"]
            ref_best = (ref_arch, int(ref_hidden))
            ledger.op(
                not usable or best == ref_best
                or (best in ref and close_enough(ref[best][2], ref[ref_best][2], MAE_RTOL)),
                f"best pick differs from the reference {ref_best}",
            )
        return {
            "trials": {f"{a}:{h}": list(v) for (a, h), v in sorted(trials.items())},
            "best": list(best) if usable else None,
        }


class ScoreSeries:
    """`fxbench ingest` then `fxbench predict` over long series with one saved LSTM."""

    name = "score-series"

    def __init__(self):
        self.first_series = None

    def setup(self, seed: int, workdir: Path, synthetic, cli, ledger: Ledger):
        rng = random.Random(seed)
        train_csv = workdir / "train.csv"
        write_ohlc(train_csv, synthetic.random_walk_ohlc(SWEEP_DAYS, seed=seed))
        self.model = workdir / "model.json"
        self.series = []
        for k, rows in enumerate(SCORE_ROWS):
            records = synthetic.random_walk_ohlc(rows, seed=rng.randrange(2**32))
            raw = workdir / f"raw{k}.csv"
            write_ohlc(raw, records, order_seed=rng.randrange(2**32))
            self.series.append((records, raw, workdir / f"clean{k}.csv", workdir / f"series{k}.csv"))
        self.model.unlink(missing_ok=True)
        run_command(cli, [
            "train", "--data", str(train_csv), "--arch", "lstm", "--hidden", str(SCORE_HIDDEN),
            "--window", str(SCORE_WINDOW), "--epochs", str(SCORE_EPOCHS),
            "--model-out", str(self.model),
        ], ledger)

    def work(self) -> dict:
        scored = sum(rows - SCORE_WINDOW for rows in SCORE_ROWS)
        return {"train_samples": 0, "rows_scored": scored, "commands": 2 * len(SCORE_ROWS)}

    def run_pass(self, cli, ledger: Ledger):
        seconds = 0.0
        outs = []
        for _, raw, clean, series in self.series:
            clean.unlink(missing_ok=True)
            series.unlink(missing_ok=True)
            s1, _ = run_command(cli, ["ingest", "--input", str(raw), "--output", str(clean)], ledger)
            s2, out = run_command(cli, [
                "predict", "--model", str(self.model), "--data", str(clean),
                "--series-out", str(series),
            ], ledger)
            seconds += s1 + s2
            outs.append(out)
        return seconds, outs

    def check(self, outs, ledger: Ledger, reference: dict | None) -> dict:
        maes = []
        contents = []
        for (records, _, clean, series), out in zip(self.series, outs):
            expected = sorted(records, key=lambda r: r.date)
            try:
                rows = read_csv(clean)
                ok = rows[:1] == [OHLC_HEADER] and len(rows) == len(expected) + 1 and all(
                    dt.date.fromisoformat(row[0]) == r.date
                    and [float(v) for v in row[1:]] == [r.open, r.high, r.low, r.close]
                    for row, r in zip(rows[1:], expected)
                )
            except (OSError, ValueError, IndexError):
                ok = False
            ledger.op(ok, f"ingest output {clean.name} does not re-parse to its input")
            try:
                data = series.read_bytes()
                maes.append(self._check_series(data, expected, out, series.name, ledger))
            except (OSError, ValueError, IndexError) as e:
                ledger.op(False, f"{series.name} is missing or malformed: {e}")
                continue
            contents.append(data)
        if self.first_series is None:
            self.first_series = contents
        ledger.op(contents == self.first_series, "series files differ from the first pass")
        if reference is not None:
            ledger.op(
                len(maes) == len(reference["series_mae"])
                and all(close_enough(x, y, MAE_RTOL) for x, y in zip(maes, reference["series_mae"])),
                "series MAEs differ from the reference",
            )
        return {"series_mae": maes}

    @staticmethod
    def _check_series(data: bytes, expected, out: str, name: str, ledger: Ledger) -> float:
        """Check one predict output; returns its MAE. Raises ValueError when malformed."""
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        body = rows[1:]
        want = expected[SCORE_WINDOW:]  # the first window-1 samples have no full history
        ledger.op(rows[:1] == [["date", "actual", "predicted"]], f"{name} header")
        ledger.op(len(body) == len(want), f"{name} has {len(body)} rows, expected {len(want)}")
        actual = [float(r[1]) for r in body]
        predicted = [float(r[2]) for r in body]
        ledger.op(
            all(r[0] == w.date.isoformat() and close_enough(a, w.close, SERIES_RTOL)
                for r, a, w in zip(body, actual, want)),
            f"{name} dates or actuals do not match the input closes",
        )
        ledger.op(all(math.isfinite(p) for p in predicted), f"{name} has NaN predictions")
        mae = math.fsum(abs(a - p) for a, p in zip(actual, predicted)) / max(len(body), 1)
        m = re.search(r"series mae: denormalized (\S+)", out)
        ledger.op(m is not None and close_enough(float(m.group(1)), mae, SERIES_RTOL),
                  f"printed series MAE does not match {name}")
        return mae


def make_workload(name: str):
    if name == "sweep-w1":
        return Sweep(name, 1, ARCHS)
    if name == "sweep-w8":
        return Sweep(name, 8, ("srnn", "gru", "lstm"))
    return ScoreSeries()


WORKLOADS = ("sweep-w1", "sweep-w8", "score-series")


# ---------------------------------------------------------------- per layer

def _total(stats, layer, pred=lambda name: True, arch=None, outer=None):
    calls = incl = self_s = items = flops = unknown = 0
    for (lay, name, a, out), st in stats.items():
        if lay != layer or not pred(name):
            continue
        if arch is not None and a != arch:
            continue
        if outer is not None and out != outer:
            continue
        calls += st.calls
        incl += st.incl_s
        self_s += st.self_s
        items += st.items
        flops += st.flops
        unknown += st.flops_unknown
    return calls, incl, self_s, items, flops, unknown


def _is_forward(name):
    return name.startswith("forward")


def _is_backward(name):
    return name.startswith("backward")


def _is_step(name):
    return name.split(".")[-1].endswith("step")


def _is_csv_io(name):
    return name.startswith(("read_", "parse_", "write_"))


PER_LAYER_UNITS = {
    **{f"cells.forward_us.{a}": "us" for a in ARCHS},
    **{f"cells.backward_us.{a}": "us" for a in ARCHS},
    **{f"optim.step_us.{a}": "us" for a in ARCHS},
    "cells.forward_calls": "count",
    "cells.backward_calls": "count",
    "optim.step_calls": "count",
    "cells.forward_gflop": "GFLOP",
    "cells.backward_gflop": "GFLOP",
    "cells.gflops": "GFLOP/s",
    "experiment.train_self_s": "s",
    "experiment.evaluate_ms": "ms",
    "data.parse_us_per_row": "us/row",
    "data.prep_ms": "ms",
    "serialize.emit_series_us_per_row": "us/row",
    "serialize.load_model_ms": "ms",
    "serialize.emit_report_ms": "ms",
    "cli.self_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "optim.step_share": "fraction",
    "trace.overhead_s": "s",
}


def layer_metrics(stats, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A metric whose functions were
    never called is absent (reported as missing), never zero."""
    m: dict[str, float] = {}
    fw_all = _total(stats, "cells", _is_forward, outer=True)
    bw_all = _total(stats, "cells", _is_backward, outer=True)
    st_all = _total(stats, "optim", _is_step, outer=True)
    for arch in ARCHS:
        for metric, tot in (
            ("cells.forward_us", _total(stats, "cells", _is_forward, arch, True)),
            ("cells.backward_us", _total(stats, "cells", _is_backward, arch, True)),
            ("optim.step_us", _total(stats, "optim", _is_step, arch, True)),
        ):
            if tot[0]:
                m[f"{metric}.{arch}"] = tot[1] / tot[0] * 1e6
    for metric, tot in (("cells.forward", fw_all), ("cells.backward", bw_all), ("optim.step", st_all)):
        if tot[0]:
            m[f"{metric}_calls"] = tot[0]
    if fw_all[0] and not fw_all[5]:
        m["cells.forward_gflop"] = fw_all[4] / 1e9
    if bw_all[0] and not bw_all[5]:
        m["cells.backward_gflop"] = bw_all[4] / 1e9
    if "cells.forward_gflop" in m and (bw_all[0] == 0 or "cells.backward_gflop" in m):
        m["cells.gflops"] = (fw_all[4] + bw_all[4]) / (fw_all[1] + bw_all[1]) / 1e9
    if st_all[0]:
        m["optim.step_share"] = st_all[1] / run_s

    train = _total(stats, "experiment", lambda n: n == "train")
    if train[0]:
        m["experiment.train_self_s"] = train[2]
    ev = _total(stats, "experiment", lambda n: n == "evaluate")
    if ev[0]:
        m["experiment.evaluate_ms"] = ev[1] / ev[0] * 1e3
    parse = _total(stats, "data", lambda n: n.startswith(("read_", "parse_")), outer=True)
    if parse[3]:
        m["data.parse_us_per_row"] = parse[1] / parse[3] * 1e6
    prep = _total(stats, "data", lambda n: not _is_csv_io(n))
    if prep[0]:
        m["data.prep_ms"] = prep[2] * 1e3
    series = _total(stats, "serialize", lambda n: n == "emit_series_csv")
    if series[3]:
        m["serialize.emit_series_us_per_row"] = series[1] / series[3] * 1e6
    for metric, fn in (("serialize.load_model_ms", "load_model"),
                       ("serialize.emit_report_ms", "emit_report_csv")):
        tot = _total(stats, "serialize", lambda n, fn=fn: n == fn)
        if tot[0]:
            m[metric] = tot[1] / tot[0] * 1e3
    for layer in LAYERS:
        tot = _total(stats, layer)
        if tot[0]:
            m[f"{layer}.self_s"] = tot[2]
            m[f"{layer}.share"] = tot[2] / run_s
    if "cli.self_s" in m:
        m["cli.self_ms"] = m["cli.self_s"] * 1e3
    return m


def call_counts(stats) -> dict[str, int]:
    return {f"{lay}.{name}[{arch}]{'' if out else ':inner'}": st.calls
            for (lay, name, arch, out), st in sorted(stats.items(), key=str)}


# -------------------------------------------------------------- environment

def _blas_runtime():
    """(config string, thread count) of the OpenBLAS loaded in this process, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = threads = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and threads is None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    threads = getter()
                if conf is not None and config is None:
                    conf.restype = ctypes.c_char_p
                    conf.argtypes = []
                    config = conf().decode()
        if threads is not None or config is not None:
            return config, threads
    return None, None


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    config, threads = _blas_runtime()
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "blas_threads": threads,
        "threads_within_nproc": None if threads is None or nproc is None else threads <= nproc,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- main

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values):
    """(p, value) of the highest whole percentile with at least ten samples
    above it, or None when there are too few samples."""
    p = math.floor(100 * (len(values) - 10) / len(values))
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_fxbench():
    """Import fxbench from this checkout's sources; (cli, synthetic, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("fxbench.cli")
    synthetic = importlib.import_module("fxbench.synthetic")
    seconds = time.perf_counter() - t0
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: error: imported fxbench from {origin}, not from {SRC}")
    return cli, synthetic, seconds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="fxbench end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    return p.parse_args(argv)


def measure(workload, cli, ledger, seconds, trace, reference):
    """Repeat the workload's pass; returns (untraced seconds, traced seconds,
    per-layer metrics of each traced pass, results of the last check)."""
    untraced, traced, layers = [], [], []
    counts = None
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    checked = {}
    while True:
        s, out = workload.run_pass(cli, ledger)
        untraced.append(s)
        checked = workload.check(out, ledger, reference)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                s, out = workload.run_pass(cli, ledger)
            finally:
                ledger.op(tracer.uninstall(), "tracer wrappers left installed")
            traced.append(s)
            checked = workload.check(out, ledger, reference)
            layers.append(layer_metrics(tracer.stats, s))
            c = call_counts(tracer.stats)
            if counts is None:
                counts = c
            else:
                ledger.op(c == counts, "traced call counts differ between passes")
        passes = len(traced) if trace else len(untraced)
        if time.perf_counter() >= deadline and passes >= (2 if trace else MIN_PASSES):
            break
    return untraced, traced, layers, counts, checked


def run_all(args) -> int:
    """Run every workload in its own process; sum their operation counts."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fxbench" / "cli.py").is_file():
        print(f"perfbench: error: no fxbench sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = load_json(ROOT / "BENCHMARK.json")
    # per-trial info lines would flood stderr; warnings (diverged trials) still show
    os.environ.setdefault("FXBENCH_LOG", "warn")
    # numpy's own import costs the same for every version of fxbench and, as it
    # maps and faults in tens of MB of shared libraries, swings by half between
    # runs on a shared host; load it before the set-up clock starts
    importlib.import_module("numpy")
    cli, synthetic, import_s = import_fxbench()
    ledger = Ledger()
    workload = make_workload(args.workload)
    ref_path = HERE / "reference.json"
    references = load_json(ref_path) if ref_path.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir, synthetic, cli, ledger)
            setup_times.append(time.perf_counter() - t0)
        untraced, traced, layers, counts, checked = measure(
            workload, cli, ledger, args.seconds, args.trace, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    work = workload.work()
    run_s = statistics.median(untraced)
    e2e = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "rows_per_s": (work["rows_scored"] / run_s, "rows/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    if work["train_samples"]:
        e2e["train_samples_per_s"] = (work["train_samples"] / run_s, "samples/s")

    per_layer = {}
    if args.trace:
        for name in sorted({k for pass_metrics in layers for k in pass_metrics}):
            values = [pm[name] for pm in layers if name in pm]
            exact = all(isinstance(v, int) for v in values)  # counts repeat exactly
            per_layer[name] = (statistics.median_low if exact else statistics.median)(values)
        per_layer["trace.overhead_s"] = statistics.median(traced) - run_s
    missing = sorted(set(PER_LAYER_UNITS) - set(per_layer)) if args.trace else []

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer if args.trace else {k: v for k, (v, _) in e2e.items()}
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in wanted
        if spec["name"] in values
    }
    e2e["error_rate"] = (ledger.failed / ledger.attempted, "fraction")

    env = environment()
    lo, hi = quartiles(untraced)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced" + (f" + {len(traced)} traced" if args.trace else ""))
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"  {'run_s quartiles':<34} {lo:.6g} .. {hi:.6g} s over {len(untraced)} passes")
    tail = tail_percentile(untraced)
    if tail is not None:
        print(f"  {f'run_s p{tail[0]}':<34} {tail[1]:.6g} s")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    for name in sorted(PER_LAYER_UNITS) if args.trace else []:
        shown = f"{per_layer[name]:.6g}" if name in per_layer else "missing"
        print(f"  {name:<34} {shown} {PER_LAYER_UNITS[name]}")
    print(f"  operations attempted {ledger.attempted}, failed {ledger.failed}")
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "work_per_pass": work,
        "import_s": import_s,
        "setup_pass_s": setup_times,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": per_layer,
        "per_layer_missing": missing,
        "call_counts": counts,
        "reference_checked": reference is not None,
        "outputs": checked,
        "failures": ledger.failures,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
