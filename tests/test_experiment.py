import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ARCHS,
    ModelSpec,
    NormParams,
    OhlcRecord,
    SupervisedDataset,
    SweepReport,
    TrainConfig,
    TrainingDiverged,
    TrialResult,
    build_supervised,
    chrono_split,
    default_config,
    evaluate,
    init_model,
    persistence_baseline,
    prepare_splits,
    run_sweep,
    select_best,
    train,
    trial_seed,
)
from fxbench.experiment import splitmix64
import fxbench.experiment
from conftest import make_records


def quick_config(epochs=3, **kw):
    kw.setdefault("optimizer", default_config("rmsprop"))
    kw.setdefault("batch_size", 8)
    kw.setdefault("seed", 42)
    return TrainConfig(epochs=epochs, **kw)


# ---------------------------------------------------------------- seeds


def test_splitmix64_known_vector():
    # first output of the SplitMix64 stream seeded with 0, a published value
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(0)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_trial_seeds_distinct_and_order_free():
    seeds = {(a, h): trial_seed(42, a, h) for a in ARCHS for h in range(2, 11)}
    assert len(set(seeds.values())) == len(seeds)
    assert trial_seed(42, "lstm", 5) == seeds[("lstm", 5)]
    assert trial_seed(43, "lstm", 5) != seeds[("lstm", 5)]


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        quick_config(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        quick_config(batch_size=0)


# ---------------------------------------------------------------- train


def test_history_has_one_finite_entry_per_epoch(wavy_records):
    data, _ = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="srnn", hidden=3), 1)
    model, history = train(model, data.train, data.validation, quick_config(epochs=7))
    assert len(history.losses) == 7
    assert all(math.isfinite(v) for v in history.losses)
    assert model.epochs_trained == 7


def test_training_is_bitwise_deterministic(wavy_records):
    data, _ = prepare_splits(wavy_records)
    cfg = quick_config(epochs=5)
    runs = []
    for _ in range(2):
        model = init_model(ModelSpec(arch="lstm", hidden=3), 9)
        model, _ = train(model, data.train, data.validation, cfg)
        runs.append({k: v.copy() for k, v in model.params.items()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_training_loss_decreases_on_learnable_series(wavy_records):
    data, _ = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="srnn", hidden=4), 3)
    _, history = train(model, data.train, None, quick_config(epochs=150))
    assert history.losses[-1] < history.losses[0]


def test_train_requires_normalized_data(wavy_records):
    raw = build_supervised(wavy_records)
    model = init_model(ModelSpec(arch="mlp", hidden=2), 0)
    with pytest.raises(ValueError, match="normalized"):
        train(model, raw, None, quick_config())


def test_train_rejects_feature_width_mismatch(wavy_records):
    data, _ = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="mlp", hidden=2, input_dim=3), 0)
    with pytest.raises(ValueError, match="input_dim"):
        train(model, data.train, None, quick_config())


def test_non_finite_loss_aborts_with_epoch_index():
    norm = NormParams(
        feature_min=np.zeros(4), feature_max=np.ones(4), target_min=0.0, target_max=1.0
    )
    bad = SupervisedDataset(
        features=np.random.default_rng(0).uniform(size=(8, 4)),
        targets=np.array([0.5] * 7 + [np.nan]),
        dates=tuple(dt.date(2018, 1, 1) + dt.timedelta(days=k) for k in range(8)),
        norm=norm,
    )
    model = init_model(ModelSpec(arch="mlp", hidden=2), 0)
    with pytest.raises(TrainingDiverged) as exc:
        train(model, bad, None, quick_config(epochs=3))
    assert exc.value.epoch == 0
    assert "epoch 0" in str(exc.value)


def test_windowed_training_and_prediction_counts(wavy_records):
    data, norm = prepare_splits(wavy_records)
    spec = ModelSpec(arch="gru", hidden=3, window=3)
    model = init_model(spec, 4)
    model, _ = train(model, data.train, None, quick_config(epochs=2))
    result = evaluate(model, data.test, norm)
    assert result.n == len(data.test) - 2
    assert [p[0] for p in result.predictions] == list(data.test.dates[2:])


# ---------------------------------------------------------------- evaluate


def constant_predictor(value):
    spec = ModelSpec(arch="mlp", hidden=1, input_dim=4)
    model = init_model(spec, 0)
    for arr in model.params.values():
        arr[:] = 0.0
    model.params["b_out"][:] = value
    return model


def test_evaluate_constant_predictor_hand_value():
    # constant 0.5 against normalized targets {0.4, 0.6} on a 100..120 scale:
    # denormalized |110-108| = |110-112| = 2
    norm = NormParams(
        feature_min=np.full(4, 100.0),
        feature_max=np.full(4, 120.0),
        target_min=100.0,
        target_max=120.0,
    )
    ds = SupervisedDataset(
        features=np.full((2, 4), 0.5),
        targets=np.array([0.4, 0.6]),
        dates=(dt.date(2018, 1, 2), dt.date(2018, 1, 3)),
        norm=norm,
    )
    result = evaluate(constant_predictor(0.5), ds, norm)
    assert result.mae == pytest.approx(2.0, abs=1e-12)
    assert result.mae_norm == pytest.approx(0.1, abs=1e-12)
    assert result.n == 2
    assert result.predictions[0][1] == pytest.approx(108.0, abs=1e-12)
    assert result.predictions[0][2] == pytest.approx(110.0, abs=1e-12)


def test_evaluate_mae_matches_prediction_list(wavy_records):
    data, norm = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="lstm", hidden=3), 5)
    result = evaluate(model, data.validation, norm)
    recomputed = np.mean([abs(a - p) for _, a, p in result.predictions])
    assert result.mae == pytest.approx(recomputed, abs=1e-12)
    assert result.n == len(result.predictions) == len(data.validation)


def test_evaluate_rejects_empty_and_unnormalized(wavy_records):
    data, norm = prepare_splits(wavy_records)
    empty = SupervisedDataset(features=np.zeros((0, 4)), targets=np.zeros(0), dates=(), norm=norm)
    with pytest.raises(ValueError, match="empty"):
        evaluate(constant_predictor(0.5), empty, norm)
    raw = build_supervised(wavy_records)
    with pytest.raises(ValueError, match="normalized"):
        evaluate(constant_predictor(0.5), raw, norm)


# ---------------------------------------------------------------- baseline


def test_persistence_baseline_hand_value():
    ds = build_supervised(make_records([1.0, 2.0, 3.0]))
    # predicts [1, 2] against actual [2, 3]
    assert persistence_baseline(ds) == pytest.approx(1.0, abs=1e-15)


def test_persistence_baseline_constant_close_is_zero():
    records = [
        OhlcRecord(dt.date(2018, 1, 1) + dt.timedelta(days=k), 10.0, 10.6 + 0.1 * k, 9.5, 10.0)
        for k in range(4)
    ]
    assert persistence_baseline(build_supervised(records)) == 0.0


def test_persistence_baseline_invariant_to_normalization(wavy_records):
    raw = build_supervised(wavy_records)
    data, norm = prepare_splits(wavy_records, "all")
    raw_split = chrono_split(raw)
    assert persistence_baseline(data.test, norm) == pytest.approx(
        persistence_baseline(raw_split.test), rel=1e-12
    )


def test_persistence_baseline_empty_dataset():
    empty = SupervisedDataset(features=np.zeros((0, 4)), targets=np.zeros(0), dates=())
    with pytest.raises(ValueError, match="empty"):
        persistence_baseline(empty)


# ---------------------------------------------------------------- sweep


def test_sweep_single_point_grid(wavy_records):
    data, _ = prepare_splits(wavy_records)
    report = run_sweep(["lstm"], [5], data, quick_config(epochs=2), pair="X/Y")
    assert len(report.trials) == 1
    t = report.trials[0]
    assert (t.pair, t.arch, t.hidden, t.structure) == ("X/Y", "lstm", 5, "4-5-1")
    assert t.seed == trial_seed(42, "lstm", 5)
    assert t.wall_time_s == 0.0
    assert math.isfinite(t.test_mae)


def test_sweep_grid_is_complete_and_sorted(wavy_records):
    data, _ = prepare_splits(wavy_records)
    report = run_sweep(["lstm", "mlp"], [3, 2], data, quick_config(epochs=2))
    assert [(t.arch, t.hidden) for t in report.trials] == [
        ("mlp", 2),
        ("mlp", 3),
        ("lstm", 2),
        ("lstm", 3),
    ]
    assert report.archs == ("mlp", "lstm")
    assert report.hiddens == (2, 3)


def test_sweep_is_deterministic(wavy_records):
    data, _ = prepare_splits(wavy_records)
    cfg = quick_config(epochs=3)
    a = run_sweep(["srnn", "gru"], [2, 4], data, cfg, pair="Z")
    b = run_sweep(["srnn", "gru"], [2, 4], data, cfg, pair="Z")
    assert a == b


def test_sweep_records_failures_without_aborting(wavy_records, monkeypatch):
    data, _ = prepare_splits(wavy_records)
    real_train = fxbench.experiment.train

    def sometimes_diverge(model, train_set, val_set, config):
        if model.spec.arch == "gru" and model.spec.hidden == 3:
            raise TrainingDiverged(7, float("nan"))
        return real_train(model, train_set, val_set, config)

    monkeypatch.setattr(fxbench.experiment, "train", sometimes_diverge)
    report = run_sweep(["gru"], [2, 3], data, quick_config(epochs=2))
    assert len(report.trials) == 2
    ok, failed = report.trials
    assert math.isfinite(ok.test_mae)
    assert math.isnan(failed.test_mae) and math.isnan(failed.train_mae)
    best = select_best(report)
    assert best.overall == ok


def test_sweep_validates_inputs(wavy_records):
    data, _ = prepare_splits(wavy_records)
    with pytest.raises(ValueError, match="unknown arch"):
        run_sweep(["cnn"], [2], data, quick_config())
    with pytest.raises(ValueError, match="empty"):
        run_sweep(["mlp"], [], data, quick_config())
    with pytest.raises(ValueError, match=">= 1"):
        run_sweep(["mlp"], [0], data, quick_config())


# ---------------------------------------------------------------- selection


def trial(arch, hidden, test_mae, val_mae=None, pair="USD/NPR"):
    return TrialResult(
        pair=pair,
        arch=arch,
        structure=f"4-{hidden}-1",
        hidden=hidden,
        train_mae=test_mae,
        val_mae=test_mae if val_mae is None else val_mae,
        test_mae=test_mae,
        seed=0,
        wall_time_s=0.0,
    )


def report_from(trials):
    return SweepReport(
        trials=trials,
        archs=tuple(sorted({t.arch for t in trials}, key=ARCHS.index)),
        hiddens=tuple(sorted({t.hidden for t in trials})),
    )


def test_select_best_reference_grid_one():
    report = report_from(
        [
            trial("mlp", 6, 0.0858),
            trial("srnn", 4, 0.019),
            trial("gru", 7, 0.084),
            trial("lstm", 5, 0.013),
        ]
    )
    best = select_best(report, "test_mae")
    assert best.overall.arch == "lstm"
    assert best.overall.structure == "4-5-1"
    assert best.overall.test_mae == 0.013
    assert best.per_arch["mlp"].test_mae == 0.0858


def test_select_best_reference_grid_two():
    report = report_from(
        [
            trial("mlp", 9, 0.052, pair="GBP/NPR"),
            trial("srnn", 6, 0.214, pair="GBP/NPR"),
            trial("gru", 7, 0.0177, pair="GBP/NPR"),
            trial("lstm", 5, 0.0388, pair="GBP/NPR"),
        ]
    )
    best = select_best(report, "test_mae")
    assert best.overall.arch == "gru"
    assert best.overall.structure == "4-7-1"
    assert best.overall.test_mae == 0.0177


def test_select_best_single_trial():
    report = report_from([trial("srnn", 3, 0.5)])
    assert select_best(report).overall == report.trials[0]


def test_select_best_tie_breaks():
    # equal criterion: smaller hidden wins
    report = report_from([trial("lstm", 7, 0.1), trial("lstm", 4, 0.1)])
    assert select_best(report).overall.hidden == 4
    # equal criterion and hidden: earlier architecture in canonical order wins
    report = report_from([trial("lstm", 4, 0.1), trial("srnn", 4, 0.1)])
    assert select_best(report).overall.arch == "srnn"
    report = report_from([trial("gru", 4, 0.1), trial("mlp", 4, 0.1)])
    assert select_best(report).overall.arch == "mlp"


def test_select_best_by_validation_criterion():
    report = report_from(
        [trial("mlp", 2, 0.5, val_mae=0.1), trial("mlp", 3, 0.1, val_mae=0.5)]
    )
    assert select_best(report, "test_mae").overall.hidden == 3
    assert select_best(report, "val_mae").overall.hidden == 2


def test_select_best_rejects_bad_criterion_and_all_failed():
    report = report_from([trial("mlp", 2, 0.5)])
    with pytest.raises(ValueError, match="criterion"):
        select_best(report, "train_mae")
    failed = report_from([trial("mlp", 2, float("nan"))])
    with pytest.raises(ValueError, match="no successful trials"):
        select_best(failed)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(ARCHS),
            st.integers(2, 10),
            st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda t: (t[0], t[1]),
    )
)
def test_select_best_is_argmin_by_brute_force(grid):
    report = report_from([trial(a, h, m) for a, h, m in grid])
    best = select_best(report, "test_mae")
    assert best.overall.test_mae == min(t.test_mae for t in report.trials)
    for arch, t in best.per_arch.items():
        others = [u.test_mae for u in report.trials if u.arch == arch]
        assert t.test_mae == min(others)
