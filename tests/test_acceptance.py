"""Acceptance gate: one test per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py`. Every test prints
`acceptance N (<label>): PASS/FAIL ...` directly to the real stdout so the
checklist is visible even under capture. The sweep-based criteria train at
epochs=FXBENCH_ACCEPT_EPOCHS (default 200, full-scale 1500) with the runtime
bound adjusted to match.
"""

import functools
import math
import os
import sys
import time

import numpy as np
import pytest

from fxbench import (
    ARCHS,
    DEFAULT_FRACTIONS,
    TrainConfig,
    TrialResult,
    build_supervised,
    chrono_split,
    denormalize,
    load_model,
    mae_loss,
    normalize,
    persistence_baseline,
    prepare_splits,
    ramp_ohlc,
    random_walk_ohlc,
    run_sweep,
    save_model,
    select_best,
    write_ohlc_csv,
)
from fxbench.cli import main
from fxbench.optim import RMSPROP_EPS, RMSPROP_RHO, Optimizer
from gradcheck import check_model_gradients

ACCEPT_EPOCHS = int(os.environ.get("FXBENCH_ACCEPT_EPOCHS", "200"))


def criterion(num, label):
    """Print one PASS/FAIL line per criterion, bypassing pytest capture."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(
                    f"acceptance {num} ({label}): FAIL [{type(exc).__name__}: {exc}]",
                    file=sys.__stdout__,
                )
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"acceptance {num} ({label}): PASS{suffix}", file=sys.__stdout__)

        return inner

    return wrap


# ------------------------------------------------------------------ shared


@pytest.fixture(scope="module")
def walk_sweep():
    """One full 36-trial sweep over a noisy random-walk series.

    Shared by the pipeline-shape and learnability criteria; both examine
    the same sweep from different angles.
    """
    records = random_walk_ohlc(1500, seed=20180102)
    data, _ = prepare_splits(records, "train")
    config = TrainConfig(epochs=ACCEPT_EPOCHS, batch_size=32, seed=42)
    t0 = time.perf_counter()
    report = run_sweep(ARCHS, range(2, 11), data, config, pair="WALK/SYN")
    elapsed = time.perf_counter() - t0
    return report, data, elapsed


# ------------------------------------------------------------------ criteria


@criterion(1, "analytic gradients match finite differences")
def test_gradients_against_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for arch in ARCHS:
        for hidden in (2, 5, 10):
            for window in (1, 3):
                if arch == "mlp" and window != 1:
                    continue  # the feed-forward net has no sequence axis
                for seed in range(5):
                    worst = max(worst, check_model_gradients(arch, hidden, window, seed))
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s, budget is 60s"
    return f"{checked} configs, worst err {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "normalization round trip at 1e-9 precision")
def test_normalization_round_trip_bulk():
    rng = np.random.default_rng(20260818)
    n = 100_000
    lo = rng.uniform(-1e3, 1e3, size=n)
    hi = lo + rng.uniform(1e-6, 2e3, size=n)
    v = rng.uniform(lo - 500.0, hi + 500.0)
    back = denormalize(normalize(v, lo, hi), lo, hi)
    err = np.abs(back - v)
    bound = 1e-9 * np.maximum(1.0, np.abs(v))
    worst = float((err / bound).max())
    assert np.all(err <= bound), f"worst round-trip error ratio {worst:.3g}"
    return f"{n} triples, worst err ratio {worst:.3g}"


@criterion(3, "MAE oracle and best-model selection examples")
def test_mae_oracle_and_selection_examples():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        yhat = rng.uniform(-10, 10, size=size)
        y = rng.uniform(-10, 10, size=size)
        oracle = math.fsum(abs(a - b) for a, b in zip(yhat, y)) / size
        worst = max(worst, abs(mae_loss(yhat, y) - oracle))
    assert worst <= 1e-12, f"mae_loss deviates from direct summation by {worst:.3g}"

    def grid(maes_by_arch, hiddens):
        return [
            TrialResult(
                pair="REF", arch=a, structure=f"4-{h}-1", hidden=h,
                train_mae=m, val_mae=m, test_mae=m, seed=0, wall_time_s=0.0,
            )
            for (a, m), h in zip(maes_by_arch.items(), hiddens)
        ]

    best = select_best(grid({"mlp": 0.0858, "srnn": 0.019, "gru": 0.084, "lstm": 0.013},
                            (6, 4, 7, 5)))
    assert (best.overall.arch, best.overall.test_mae) == ("lstm", 0.013)
    best = select_best(grid({"mlp": 0.052, "srnn": 0.214, "gru": 0.0177, "lstm": 0.0388},
                            (9, 6, 7, 5)))
    assert (best.overall.arch, best.overall.test_mae) == ("gru", 0.0177)
    return f"1000 pairs, worst mae err {worst:.3g}; both selection grids"


@criterion(4, "chronological 70/15/15 split arithmetic")
def test_split_sizes_on_1500_samples():
    records = random_walk_ohlc(1501, seed=4)
    dataset = build_supervised(records, prepare_splits(records, "all")[1])
    assert len(dataset) == 1500
    assert DEFAULT_FRACTIONS == (0.70, 0.15, 0.15)
    split = chrono_split(dataset)
    sizes = (len(split.train), len(split.validation), len(split.test))
    assert sizes == (1050, 225, 225), f"got {sizes}"
    dates = list(split.train.dates) + list(split.validation.dates) + list(split.test.dates)
    assert dates == list(dataset.dates), "splits are not a contiguous partition"
    assert all(a < b for a, b in zip(dates, dates[1:])), "dates are not strictly ascending"
    return "1500 -> 1050/225/225, contiguous and chronological"


@criterion(5, "full architecture sweep completes in budget")
def test_sweep_shape_and_runtime(walk_sweep):
    report, _, elapsed = walk_sweep
    budget = 120.0 if ACCEPT_EPOCHS <= 200 else 600.0
    assert len(report) == 36, f"expected 36 trials, got {len(report)}"
    assert all(t.structure == f"4-{t.hidden}-1" for t in report)
    assert {t.arch for t in report} == set(ARCHS)
    assert sorted({t.hidden for t in report}) == list(range(2, 11))
    finite = [t for t in report if math.isfinite(t.test_mae)]
    assert finite, "every trial diverged"
    assert elapsed < budget, f"sweep took {elapsed:.0f}s, budget {budget:.0f}s"
    return f"36 trials at epochs={ACCEPT_EPOCHS}, {elapsed:.0f}s < {budget:.0f}s"


@criterion(6, "learnability: beats-noise bound and noiseless ramp")
def test_learnability_on_walk_and_ramp(walk_sweep):
    report, data, _ = walk_sweep
    best = select_best(report, "test_mae").overall
    baseline = persistence_baseline(data.test)
    ratio = best.test_mae / baseline
    assert ratio <= 1.25, f"best test MAE is {ratio:.3f}x persistence (bound 1.25)"

    ramp_records = ramp_ohlc(400, increment=0.05, start=100.0)
    ramp_data, ramp_norm = prepare_splits(ramp_records, "all")
    config = TrainConfig(epochs=6000, batch_size=64, seed=42)
    ramp_report = run_sweep(ARCHS, range(2, 11), ramp_data, config, pair="RAMP/SYN")
    scale = ramp_norm.target_max - ramp_norm.target_min
    ramp_best = select_best(ramp_report, "test_mae").overall
    ramp_norm_mae = ramp_best.test_mae / scale
    assert ramp_norm_mae <= 1e-2, f"normalized ramp test MAE {ramp_norm_mae:.4g} > 1e-2"
    return f"walk {ratio:.3f}x persistence; ramp normalized MAE {ramp_norm_mae:.2e}"


@criterion(7, "byte-identical reports and model save fixed point")
def test_determinism_end_to_end(tmp_path):
    data_path = tmp_path / "walk.csv"
    write_ohlc_csv(random_walk_ohlc(80, seed=7), data_path)
    sweep_args = [
        "sweep", "--data", str(data_path), "--archs", "srnn,lstm", "--hidden", "2,3",
        "--epochs", "3", "--pair", "DET/SYN",
    ]
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(sweep_args + ["--report", str(r1)]) == 0
    assert main(sweep_args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes(), "repeated sweeps differ byte-for-byte"

    model_path = tmp_path / "model.json"
    code = main([
        "train", "--data", str(data_path), "--arch", "gru", "--hidden", "2",
        "--epochs", "2", "--model-out", str(model_path),
    ])
    assert code == 0
    blob = model_path.read_bytes()
    assert save_model(*load_model(blob)) == blob, "save/load/save is not a fixed point"
    return "2 identical sweep reports; model file is a save/load fixed point"


# Twenty steps of s = 0.9 s + 0.1 g^2, theta -= 0.001 g / (sqrt(s) + 1e-8)
# with g = theta (quadratic loss), theta0 = 1, evaluated independently with
# the decimal module at 50-digit precision and rounded to float64:
#
#   from decimal import Decimal, getcontext
#   getcontext().prec = 50
#   theta, s = Decimal(1), Decimal(0)
#   for _ in range(20):
#       g = theta
#       s = Decimal("0.9") * s + Decimal("0.1") * g * g
#       theta -= Decimal("0.001") * g / (s.sqrt() + Decimal("1e-8"))
#       print(float(theta))
RMSPROP_REFERENCE = [
    0.9968377224398316,
    0.9945470102141313,
    0.9926306744616785,
    0.9909306783583535,
    0.989373660744392,
    0.987918736220067,
    0.9865404706934705,
    0.9852218298319658,
    0.9839507833173052,
    0.9827184886054023,
    0.981518240910992,
    0.9803448285219438,
    0.9791941175014621,
    0.9780627734378103,
    0.9769480688037533,
    0.9758477458277103,
    0.9747599165214881,
    0.9736829882686131,
    0.9726156074205716,
    0.9715566158490069,
]


@criterion(8, "20-step rmsprop trajectory matches scalar oracle")
def test_rmsprop_trajectory_oracle():
    config = TrainConfig()
    assert (config.learning_rate, RMSPROP_RHO, RMSPROP_EPS) == (0.001, 0.9, 1e-8)
    theta = np.array([1.0])
    opt = Optimizer(1, config)
    worst = 0.0
    for step, expected in enumerate(RMSPROP_REFERENCE):
        opt.step(theta, theta.copy())
        err = abs(float(theta[0]) - expected)
        worst = max(worst, err)
        assert err <= 1e-10, f"step {step + 1} deviates by {err:.3g}"
    return f"20 steps, worst deviation {worst:.2e}"
