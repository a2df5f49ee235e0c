import dataclasses
import datetime as dt
import logging
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import (
    ARCHS,
    ModelSpec,
    ModelStack,
    NetworkModel,
    Optimizer,
    NormParams,
    OhlcRecord,
    SupervisedDataset,
    TrainConfig,
    TrainingDiverged,
    TrialResult,
    build_supervised,
    emit_report_csv,
    evaluate,
    init_model,
    padded_width,
    parse_ohlc_csv,
    parse_report_csv,
    persistence_baseline,
    prepare_splits,
    run_sweep,
    select_best,
    save_model,
    train,
    trial_model,
    trial_seed,
)
from fxbench.experiment import DEFAULT_PAIR, _plan, _report_order, splitmix64
import fxbench.cells
import fxbench.experiment
from conftest import make_records, wavy_closes


def quick_config(epochs=3, **kw):
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
    for kw, message in (
        ({"epochs": 0}, "epochs must be a positive integer, got 0"),
        ({"epochs": 2.0}, "epochs must be a positive integer, got 2.0"),
        ({"batch_size": 0}, "batch_size must be a positive integer, got 0"),
        ({"batch_size": None}, "batch_size must be a positive integer, got None"),
    ):
        with pytest.raises(ValueError) as e:
            quick_config(**kw)
        assert str(e.value) == message
    # trial_seed masks any seed to 64 bits
    assert [TrainConfig(seed=s).seed for s in (-1, 2**70)] == [-1, 2**70]


def test_train_config_is_one_flat_frozen_value():
    config = TrainConfig(optimizer="sgd", epochs=3)
    assert dataclasses.asdict(config) == {
        "optimizer": "sgd",
        "learning_rate": 0.01,
        "epochs": 3,
        "batch_size": 32,
        "seed": 42,
    }
    assert config == TrainConfig("sgd", 0.01, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.learning_rate = 0.5


@pytest.mark.parametrize(
    "field,value",
    [
        ("epochs", True),
        ("batch_size", True),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", None),
        ("seed", True),
    ],
)
def test_train_config_refuses_a_count_or_seed_that_is_not_an_int(field, value):
    kind = "an integer" if field == "seed" else "a positive integer"
    with pytest.raises(ValueError) as e:
        TrainConfig(**{field: value})
    assert str(e.value) == f"{field} must be {kind}, got {value!r}"


def test_train_config_quotes_an_int_too_long_for_a_string():
    # Python refuses to convert an int of more than 4300 digits to a string
    with pytest.raises(ValueError) as e:
        TrainConfig(epochs=-(10**5000))
    assert str(e.value) == f"epochs must be a positive integer, got -1{'0' * 30}... (5001 digits)"


LONG_VALUE = "x" * 100_000


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: fxbench.cells.arch_id(LONG_VALUE),
        lambda: parse_ohlc_csv(b"", validate=LONG_VALUE),
        lambda: prepare_splits([], fit_norm=LONG_VALUE),
        lambda: TrainConfig(optimizer=LONG_VALUE),
        lambda: run_sweep(["mlp"], [LONG_VALUE], None, quick_config()),
        lambda: select_best([], criterion=LONG_VALUE),
    ],
    ids=["arch_id", "validate", "fit_norm", "optimizer", "hidden", "criterion"],
)
def test_a_library_refusal_quotes_a_long_value_short(refuse):
    with pytest.raises(ValueError) as e:
        refuse()
    assert "xxx..." in str(e.value) and len(str(e.value)) < 200


BEYOND_FLOAT = 10**400  # an int that math.isfinite cannot convert


@pytest.mark.parametrize(
    "value",
    [
        True, False, "0.1", [0.1], 1j, np.True_,
        pytest.param(BEYOND_FLOAT, id="10**400"),
        pytest.param(-BEYOND_FLOAT, id="-10**400"),
    ],
    ids=repr,
)
def test_train_config_refuses_a_learning_rate_that_is_not_a_real_number(value):
    with pytest.raises(ValueError) as e:
        TrainConfig(learning_rate=value)
    got = repr(value)
    if len(got) > 32:  # quoted short
        got = f"{got[:32]}... (401 digits)"
    assert str(e.value) == f"learning_rate must be finite and > 0, got {got}"


@pytest.mark.parametrize("value", [1, 0.05, np.float64(0.05), np.float32(0.25)], ids=repr)
def test_train_config_takes_any_real_learning_rate(value):
    lr = TrainConfig(learning_rate=value).learning_rate
    assert lr == value and type(lr) is float


# ---------------------------------------------------------------- train


def test_history_has_one_finite_entry_per_epoch(wavy_records):
    data = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="srnn", hidden=3), 1)
    (losses,) = train(ModelStack([model]), data.train, data.validation, quick_config(epochs=7))
    assert len(losses) == 7
    assert all(math.isfinite(v) for v in losses)
    assert model.epochs_trained == 7


def test_training_is_bitwise_deterministic(wavy_records):
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=5)
    runs = []
    for _ in range(2):
        model = init_model(ModelSpec(arch="lstm", hidden=3), 9)
        train(ModelStack([model]), data.train, data.validation, cfg)
        runs.append({k: v.copy() for k, v in model.params.items()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_training_loss_decreases_on_learnable_series(wavy_records):
    data = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="srnn", hidden=4), 3)
    (losses,) = train(ModelStack([model]), data.train, None, quick_config(epochs=150))
    assert losses[-1] < losses[0]


def test_train_rejects_feature_width_mismatch(wavy_records):
    data = prepare_splits(wavy_records)
    narrow = dataclasses.replace(data.train, features=data.train.features[:, :3])
    model = init_model(ModelSpec(arch="mlp", hidden=2), 0)
    with pytest.raises(ValueError, match="input_dim mismatch: model expects 4, got 3"):
        train(ModelStack([model]), narrow, None, quick_config())


def test_train_refuses_a_validation_split_normalized_with_another_fit():
    records = make_records(list(np.linspace(100.0, 120.0, 60)))  # later days fit wider
    data = prepare_splits(records)
    whole = prepare_splits(records, "all")
    refit = prepare_splits(records)
    norm, whole_norm, refit_norm = data.train.norm, whole.train.norm, refit.train.norm
    assert whole_norm != norm and refit_norm == norm and refit_norm is not norm
    stack = ModelStack([init_model(ModelSpec(arch="mlp", hidden=2), 0)])
    with pytest.raises(ValueError) as err:
        train(stack, data.train, whole.validation, quick_config(epochs=1))
    assert str(err.value) == "validation dataset was normalized with different NormParams"
    (losses,) = train(stack, data.train, refit.validation, quick_config(epochs=1))
    assert len(losses) == 1


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
    (outcome,) = train(ModelStack([model]), bad, None, quick_config(epochs=3))
    assert isinstance(outcome, TrainingDiverged)
    assert outcome.epoch == 0
    assert "epoch 0" in str(outcome)


@pytest.mark.parametrize(
    "loss,text",
    [
        (math.nan, "non-finite training loss nan at epoch 3"),
        (0.25, "non-finite weights (training loss 0.25) at epoch 3"),
    ],
    ids=["loss", "weights"],
)
def test_training_diverged_survives_a_pickle_round_trip(loss, text):
    # a plan entry's outcomes cross a process boundary whole
    back = pickle.loads(pickle.dumps(TrainingDiverged(3, loss)))
    assert type(back) is TrainingDiverged
    assert back.epoch == 3 and repr(back.loss) == repr(loss)
    assert str(back) == str(TrainingDiverged(3, loss)) == text


def test_train_and_evaluate_refuse_a_bare_model_before_any_work(wavy_records, monkeypatch):
    data = prepare_splits(wavy_records)
    model = trial_model("gru", 3, 2, 42)
    weights = save_model(model, data.train.norm)

    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(fxbench.experiment, "_windowed", refuse)  # train's first step
    with pytest.raises(TypeError, match="^expected a ModelStack, got NetworkModel$"):
        train(model, data.train, data.validation, quick_config())
    monkeypatch.undo()
    monkeypatch.setattr(fxbench.cells, "forward_batch", refuse)  # the scoring kernel
    with pytest.raises(TypeError, match="^expected a ModelStack, got NetworkModel$"):
        evaluate(model, data.test)
    assert save_model(model, data.train.norm) == weights and model.epochs_trained == 0


def test_windowed_training_and_prediction_counts(wavy_records):
    data = prepare_splits(wavy_records)
    spec = ModelSpec(arch="gru", hidden=3, window=3)
    stack = ModelStack([init_model(spec, 4)])
    train(stack, data.train, None, quick_config(epochs=2))
    (result,) = evaluate(stack, data.test)
    assert result.dates == data.test.dates[2:]
    assert len(result.actual) == len(result.predicted) == len(data.test) - 2


# ---------------------------------------------------------------- evaluate


def constant_predictor(value):
    spec = ModelSpec(arch="mlp", hidden=1)
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
    (result,) = evaluate(ModelStack([constant_predictor(0.5)]), ds)
    assert result.mae == pytest.approx(2.0, abs=1e-12)
    assert result.dates == ds.dates
    assert result.actual == pytest.approx([108.0, 112.0], abs=1e-12)
    assert result.predicted == pytest.approx([110.0, 110.0], abs=1e-12)


def test_evaluate_mae_matches_prediction_list(wavy_records):
    data = prepare_splits(wavy_records)
    model = init_model(ModelSpec(arch="lstm", hidden=3), 5)
    (result,) = evaluate(ModelStack([model]), data.validation)
    recomputed = np.mean([abs(a - p) for a, p in zip(result.actual, result.predicted)])
    assert result.mae == pytest.approx(recomputed, abs=1e-12)
    assert len(result.dates) == len(result.actual) == len(data.validation)


def test_evaluate_rejects_empty_dataset(wavy_records):
    norm = prepare_splits(wavy_records).train.norm
    empty = SupervisedDataset(features=np.zeros((0, 4)), targets=np.zeros(0), dates=(), norm=norm)
    with pytest.raises(ValueError, match="empty"):
        evaluate(ModelStack([constant_predictor(0.5)]), empty)


# ---------------------------------------------------------------- baseline


# scales every price by 1/4, which maps and maps back the prices here exactly
QUARTER_NORM = NormParams(
    feature_min=(0.0,) * 4, feature_max=(4.0,) * 4, target_min=0.0, target_max=4.0
)


def test_persistence_baseline_hand_value():
    ds = build_supervised(make_records([1.0, 2.0, 3.0]), QUARTER_NORM)
    # predicts [1, 2] against actual [2, 3]
    assert persistence_baseline(ds) == pytest.approx(1.0, abs=1e-15)


def test_persistence_baseline_constant_close_is_zero():
    records = [
        OhlcRecord(dt.date(2018, 1, 1) + dt.timedelta(days=k), 10.0, 10.6 + 0.1 * k, 9.5, 10.0)
        for k in range(4)
    ]
    assert persistence_baseline(build_supervised(records, QUARTER_NORM)) == 0.0


def test_persistence_baseline_invariant_to_normalization():
    # the same baseline under the train and the all fit, which the later,
    # higher days of this series widen
    records = make_records(wavy_closes(200))
    data = prepare_splits(records, "train")
    whole = prepare_splits(records, "all")
    assert data.train.norm != whole.train.norm
    assert persistence_baseline(data.test) == pytest.approx(
        persistence_baseline(whole.test), rel=1e-12
    )


def test_persistence_baseline_empty_dataset():
    empty = SupervisedDataset(
        features=np.zeros((0, 4)), targets=np.zeros(0), dates=(), norm=QUARTER_NORM
    )
    with pytest.raises(ValueError, match="empty"):
        persistence_baseline(empty)


# ---------------------------------------------------------------- sweep


def test_sweep_single_point_grid(wavy_records):
    data = prepare_splits(wavy_records)
    report = run_sweep(["lstm"], [5], data, quick_config(epochs=2), pair="X/Y")
    assert len(report) == 1
    t = report[0]
    assert (t.pair, t.arch, t.hidden, t.structure) == ("X/Y", "lstm", 5, "4-5-1")
    assert t.seed == trial_seed(42, "lstm", 5)
    assert t.wall_time_s == 0.0
    assert math.isfinite(t.test_mae)


@pytest.mark.parametrize("bad", [True, 2.7, "3", np.float64(4.0), np.int64(3)], ids=repr)
def test_sweep_refuses_a_hidden_size_that_is_not_an_int_before_any_model(
    wavy_records, monkeypatch, bad
):
    def refuse(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(fxbench.experiment, "trial_model", refuse)
    data = prepare_splits(wavy_records)
    with pytest.raises(ValueError) as e:
        run_sweep(["mlp"], [2, bad], data, quick_config(epochs=1))
    assert str(e.value) == f"field 'hidden' must be a positive integer, got {bad!r}"


@pytest.mark.parametrize("bad", ["x", 0, True], ids=repr)
def test_an_mlp_trial_refuses_a_bad_window_before_any_model(wavy_records, monkeypatch, bad):
    # mlp runs at window 1, but the window it is given must still be one
    # a recurrent trial would take, whoever builds it
    def refuse(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(fxbench.experiment, "init_model", refuse)
    data = prepare_splits(wavy_records)
    message = f"field 'window' must be a positive integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(["mlp"], [2], data, quick_config(epochs=1), window=bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trial_model("mlp", 2, bad, 42)


def test_sweep_grid_is_complete_and_sorted(wavy_records):
    data = prepare_splits(wavy_records)
    report = run_sweep(["lstm", "mlp"], [3, 2], data, quick_config(epochs=2))
    assert [(t.arch, t.hidden) for t in report] == [
        ("mlp", 2),
        ("mlp", 3),
        ("lstm", 2),
        ("lstm", 3),
    ]


def test_sweep_rows_come_in_arch_then_hidden_order_across_widths(wavy_records):
    data = prepare_splits(wavy_records)
    report = run_sweep(["gru", "srnn"], [17, 9, 2], data, quick_config(epochs=1))
    assert len({padded_width(h) for h in (2, 9, 17)}) == 3
    assert [(t.arch, t.hidden) for t in report] == [
        ("srnn", 2), ("srnn", 9), ("srnn", 17), ("gru", 2), ("gru", 9), ("gru", 17),
    ]


# 41, 8 and 10 samples: every split holds the longest window drawn below
PLAN_DATA = prepare_splits(make_records(wavy_closes(60)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ARCHS), min_size=1, max_size=8),
    st.lists(st.integers(1, 40), min_size=1, max_size=12),
    st.sampled_from([1, 2, 3, 8]),
)
def test_the_plan_is_the_sorted_trial_specs_grouped_by_their_padded_spec(
    archs, hiddens, window
):
    plan = _plan(archs, hiddens, PLAN_DATA, window)
    specs = [ModelSpec(a, h, window=1 if a == "mlp" else window) for a in archs for h in hiddens]
    assert [spec for entry in plan for spec in entry] == sorted(set(specs), key=_report_order)
    for entry in plan:
        assert len({spec.padded for spec in entry}) == 1
        assert ModelStack(init_model(spec, 0) for spec in entry).spec == entry[0].padded
    assert all(a[0].padded != b[0].padded for a, b in zip(plan, plan[1:]))
    assert _plan(iter(archs), iter(hiddens), PLAN_DATA, window) == plan  # one-shot iterators


def test_sweep_is_deterministic(wavy_records):
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=3)
    a = run_sweep(["srnn", "gru"], [2, 4], data, cfg, pair="Z")
    b = run_sweep(["srnn", "gru"], [2, 4], data, cfg, pair="Z")
    assert a == b


def test_a_sweep_row_does_not_depend_on_the_other_hidden_sizes(wavy_records):
    # hidden 8 trains at width 8 beside 17 (width 24), as it does alone;
    # with OpenBLAS 0.3.31, padding it to 24 units instead changes the
    # LSTM window-3 row within these 30 epochs
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=30, batch_size=32)
    alone = run_sweep(["lstm"], [8], data, cfg, window=3)
    beside = run_sweep(["lstm"], [8, 17], data, cfg, window=3)
    assert repr(beside[0]) == repr(alone[0])


@pytest.mark.parametrize("arch", ARCHS)
def test_stacked_scoring_equals_each_model_scored_alone(arch):
    # the train split (489 samples) spans a full chunk and a ragged one
    data = prepare_splits(make_records(wavy_closes(700)))
    models = [trial_model(arch, h, 3, 9) for h in (2, 5, 8)]
    train(ModelStack(models), data.train, None, quick_config(epochs=2, batch_size=32))
    stack = ModelStack(models)
    for split in (data.train, data.validation, data.test):
        stacked = evaluate(stack, split)
        assert len(stacked) == len(models)
        for model, result in zip(models, stacked):
            (alone,) = evaluate(ModelStack([model]), split)
            assert repr(result.mae) == repr(alone.mae)
            assert np.array_equal(result.predicted, alone.predicted)
            assert np.array_equal(result.actual, alone.actual)
            assert result.dates == alone.dates


def spy_on_evaluate(monkeypatch, caplog):
    """Record (hidden sizes of the models scored, samples scored) per
    evaluate call that run_sweep makes."""
    caplog.set_level(logging.INFO, logger="fxbench")  # no DEBUG validation scores
    calls = []
    real_evaluate = fxbench.experiment.evaluate

    def spy(net, dataset):
        results = real_evaluate(net, dataset)
        calls.append(([m.spec.hidden for m in net.models], len(results[0].dates)))
        return results

    monkeypatch.setattr(fxbench.experiment, "evaluate", spy)
    return calls


def test_a_sweep_scores_each_stack_once_per_split(wavy_records, monkeypatch, caplog):
    data = prepare_splits(wavy_records)
    calls = spy_on_evaluate(monkeypatch, caplog)
    run_sweep(["gru", "lstm"], range(2, 11), data, quick_config(epochs=1))
    sizes = [len(data.train), len(data.validation), len(data.test)]
    stacks = [list(range(2, 9)), [9, 10]] * 2
    assert calls == [(hs, n) for hs in stacks for n in sizes]


def test_mlp_at_window_3_is_scored_on_two_more_samples_per_split(
    wavy_records, monkeypatch, caplog
):
    # mlp runs at window 1, so at window w it keeps the w-1 first samples
    # of each split that the recurrent trials drop: the report compares
    # MAEs over different sets of days (documented in the README)
    data = prepare_splits(wavy_records)
    calls = spy_on_evaluate(monkeypatch, caplog)
    stacks = record_stacks(monkeypatch)
    run_sweep(["mlp", "lstm"], [2], data, quick_config(epochs=1), window=3)
    mlp, lstm = calls[:3], calls[3:]
    assert [n for _, n in mlp] == [len(s) for s in (data.train, data.validation, data.test)]
    assert [n for _, n in mlp] == [n + 2 for _, n in lstm]
    # the records hold the same days: the mlp trial's first scored date is
    # 2 days earlier (the walk has one record a day), then both agree
    (_, _, (mlp_trial,)), (_, _, (lstm_trial,)) = stacks
    assert len(mlp_trial.scores) == len(lstm_trial.scores) == 3
    for m, r in zip(mlp_trial.scores, lstm_trial.scores):
        assert len(m.dates) == len(r.dates) + 2
        assert r.dates[0] - m.dates[0] == dt.timedelta(days=2)
        assert m.dates[2:] == r.dates


def poison_trial(monkeypatch, arch, hidden):
    """Make run_sweep's (arch, hidden) trial start from a NaN weight."""
    real_trial_model = fxbench.experiment.trial_model

    def poisoned(*args):
        model = real_trial_model(*args)
        if (model.spec.arch, model.spec.hidden) == (arch, hidden):
            model.params["W_out"][0, 0] = float("nan")
        return model

    monkeypatch.setattr(fxbench.experiment, "trial_model", poisoned)


def test_sweep_records_failures_without_aborting(wavy_records, monkeypatch, caplog):
    data = prepare_splits(wavy_records)
    poison_trial(monkeypatch, "gru", 3)
    calls = spy_on_evaluate(monkeypatch, caplog)
    report = run_sweep(["gru"], [2, 3], data, quick_config(epochs=2))
    assert [hs for hs, _ in calls] == [[2]] * 3  # the diverged trial is not scored
    assert len(report) == 2
    ok, failed = report
    assert math.isfinite(ok.test_mae)
    assert math.isnan(failed.test_mae) and math.isnan(failed.train_mae)
    best = select_best(report)
    assert best.overall == ok


@pytest.mark.parametrize(
    "window,poisoned,timings",
    [(1, False, False), (3, False, False), (1, True, False), (1, False, True)],
    ids=["window-1", "window-3", "one-diverged", "timings"],
)
def test_a_sweep_report_parses_and_re_emits_its_bytes(
    wavy_records, monkeypatch, window, poisoned, timings
):
    data = prepare_splits(wavy_records)
    if poisoned:
        poison_trial(monkeypatch, "gru", 3)
    report = run_sweep(
        ARCHS, range(1, 5), data, quick_config(epochs=2), window=window, measure_time=timings
    )
    blob = emit_report_csv(report)
    back = parse_report_csv(blob)
    assert emit_report_csv(back) == blob
    assert [math.isnan(t.test_mae) for t in back].count(True) == poisoned
    assert all(t.wall_time_s > 0.0 for t in back) == timings


def record_stacks(monkeypatch):
    """Record, per `_run_stack` call that run_sweep makes, its plan entry,
    the entry's (arch, hidden) keys and the records it returned, one per
    trial."""
    calls = []
    real_run_stack = fxbench.experiment._run_stack

    def recording(entry, data, config):
        result = real_run_stack(entry, data, config)
        calls.append((entry, [(s.arch, s.hidden) for s in entry], result))
        return result

    monkeypatch.setattr(fxbench.experiment, "_run_stack", recording)
    return calls


@pytest.mark.parametrize("window", [1, 3])
def test_a_sweep_row_does_not_depend_on_the_order_its_stacks_run_in(
    wavy_records, monkeypatch, window
):
    # each entry builds, trains and scores its own models, so the plan's
    # entries can run in any order, or apart after a pickle round trip (as
    # a worker would get them), and give the sweep's rows bit for bit
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=2)
    calls = record_stacks(monkeypatch)
    rows = run_sweep(ARCHS, range(2, 11), data, cfg, window=window)
    plan = [(entry, keys) for entry, keys, _ in calls]
    assert len(plan) == 8 and sum(len(keys) for _, keys in plan) == len(rows) == 36
    by_key = {(t.arch, t.hidden): t for t in rows}
    for entry, keys in reversed(plan):
        blob = pickle.dumps(entry)
        assert b"numpy" not in blob  # the entry holds no array
        trials = fxbench.experiment._run_stack(pickle.loads(blob), data, cfg)
        assert repr([tuple(score.mae for score in t.scores) for t in trials]) == repr([
            (by_key[key].train_mae, by_key[key].val_mae, by_key[key].test_mae) for key in keys
        ])
        assert [t.model.rng_seed for t in trials] == [by_key[key].seed for key in keys]


def test_timings_record_each_stacks_seconds(wavy_records, monkeypatch):
    # a fake clock that advances `step` per call: each stack reads it once
    # before training and once after scoring
    step = 0.25
    clock = iter(step * k for k in range(1000))
    monkeypatch.setattr("fxbench.experiment.time.perf_counter", lambda: next(clock))
    data = prepare_splits(wavy_records)
    calls = record_stacks(monkeypatch)
    rows = iter(run_sweep(["srnn", "lstm"], range(6, 11), data, quick_config(), measure_time=True))
    assert [len(keys) for _, keys, _ in calls] == [3, 2, 3, 2]
    for _, keys, trials in calls:
        assert {t.seconds for t in trials} == {step}
        stack_rows = [next(rows) for _ in keys]
        assert [(t.arch, t.hidden) for t in stack_rows] == keys
        assert {t.wall_time_s for t in stack_rows} == {step}
    assert next(rows, None) is None


def test_a_stacks_records_are_freed_before_the_next_stack_runs(wavy_records, monkeypatch):
    # scoring sets a sweep's peak memory, so no EvalResult of a finished
    # stack may stay alive while the next stack trains and scores
    real_run_stack = fxbench.experiment._run_stack
    scores = []  # a weak reference to each EvalResult returned so far

    def spy(entry, data, config):
        assert all(ref() is None for ref in scores)
        trials = real_run_stack(entry, data, config)
        scores.extend(weakref.ref(score) for t in trials for score in t.scores)
        return trials

    monkeypatch.setattr(fxbench.experiment, "_run_stack", spy)
    run_sweep(["gru", "lstm"], range(2, 11), prepare_splits(wavy_records), quick_config(epochs=1))
    assert len(scores) == 18 * 3


@pytest.mark.parametrize("arch,hidden", [("mlp", 9), ("srnn", 2), ("gru", 10), ("lstm", 5)])
def test_a_diverged_trial_leaves_its_stack_untouched(wavy_records, monkeypatch, arch, hidden):
    # a trial's arithmetic never reads the other trials of its stack: with
    # one trial poisoned, every other row is bit for bit the clean sweep's
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=2)
    clean = run_sweep(ARCHS, range(2, 11), data, cfg)
    poison_trial(monkeypatch, arch, hidden)
    calls = record_stacks(monkeypatch)
    poisoned = run_sweep(ARCHS, range(2, 11), data, cfg)
    assert len(poisoned) == 36
    for a, b in zip(clean, poisoned):
        if (b.arch, b.hidden) == (arch, hidden):
            assert all(math.isnan(v) for v in (b.train_mae, b.val_mae, b.test_mae))
        else:
            assert repr(a) == repr(b)
    # its record holds the divergence and no scores; the records of its
    # stack survive a pickle round trip, as a worker would return them,
    # and give the sweep's rows
    group = [h for h in range(2, 11) if padded_width(h) == padded_width(hidden)]
    (trials,) = [trials for _, keys, trials in calls if (arch, hidden) in keys]
    (bad,) = [t for t in trials if t.model.spec.hidden == hidden]
    assert isinstance(bad.outcome, TrainingDiverged) and bad.scores == ()
    assert all(len(t.scores) == 3 for t in trials if t is not bad)
    stack_rows = [t for t in poisoned if t.arch == arch and t.hidden in group]
    for record in (trials, pickle.loads(pickle.dumps(trials))):
        assert repr([t.row(DEFAULT_PAIR, False) for t in record]) == repr(stack_rows)
    # trained alone, the poisoned trial diverges at the epoch its stack
    # recorded for it
    poisoned_models = [fxbench.experiment.trial_model(arch, h, 1, cfg.seed) for h in group]
    outcome = train(ModelStack(poisoned_models), data.train, data.validation, cfg)[
        group.index(hidden)
    ]
    alone = fxbench.experiment.trial_model(arch, hidden, 1, cfg.seed)
    (alone_outcome,) = train(ModelStack([alone]), data.train, data.validation, cfg)
    assert isinstance(outcome, TrainingDiverged)
    assert isinstance(alone_outcome, TrainingDiverged)
    assert alone_outcome.epoch == outcome.epoch


def test_train_of_a_stack_returns_each_models_outcome(wavy_records):
    data = prepare_splits(wavy_records)
    cfg = quick_config(epochs=3)
    models = [trial_model("lstm", h, 2, 42) for h in (3, 5, 8)]
    models[1].params["b_out"][0] = float("inf")
    outcomes = train(ModelStack(models), data.train, None, cfg)
    assert isinstance(outcomes[1], TrainingDiverged) and outcomes[1].epoch == 0
    assert models[1].epochs_trained == 0
    for k in (0, 2):
        alone = trial_model("lstm", models[k].spec.hidden, 2, 42)
        assert outcomes[k] == train(ModelStack([alone]), data.train, None, cfg)[0]
        assert models[k].epochs_trained == alone.epochs_trained == 3
        assert save_model(models[k], data.train.norm) == save_model(alone, data.train.norm)


def test_debug_log_scores_the_running_models_on_validation(wavy_records, caplog):
    data = prepare_splits(wavy_records)
    models = [trial_model("gru", h, 2, 42) for h in (3, 5)]
    models[1].params["b_out"][0] = float("inf")  # diverges at epoch 0
    caplog.set_level(logging.DEBUG, logger="fxbench")
    train(ModelStack(models), data.train, data.validation, quick_config(epochs=1))
    lines = [r.getMessage() for r in caplog.records if "val_mae_norm" in r.getMessage()]
    (score,) = evaluate(ModelStack(models[:1]), data.validation)
    val = score.mae / (data.validation.norm.target_max - data.validation.norm.target_min)
    assert len(lines) == 1
    assert lines[0].startswith("gru h=3 epoch 1/1 ")
    assert lines[0].endswith(f" val_mae_norm={val:.6g}")


def test_stack_rejects_models_of_another_shape():
    with pytest.raises(ValueError, match="padded width"):
        ModelStack([trial_model("gru", 8, 1, 0), trial_model("gru", 9, 1, 0)])
    with pytest.raises(ValueError, match="cannot stack"):
        ModelStack([trial_model("gru", 3, 1, 0), trial_model("gru", 4, 2, 0)])
    with pytest.raises(ValueError, match="cannot stack"):
        ModelStack([trial_model("gru", 3, 1, 0), trial_model("lstm", 3, 1, 0)])
    with pytest.raises(ValueError, match="at least one"):
        ModelStack([])


@pytest.mark.parametrize("arch", ARCHS)
def test_padding_stays_zero_and_stacked_training_saves_like_training_alone(
    wavy_records, monkeypatch, arch
):
    data = prepare_splits(wavy_records)
    window = 1 if arch == "mlp" else 2
    cfg = quick_config(epochs=3)
    models = [trial_model(arch, h, window, 7) for h in (2, 5, 8)]
    stack = ModelStack(models)
    opts = []

    def kept_optimizer(*args):  # the optimizer the training loop builds
        opts.append(Optimizer(*args))
        return opts[-1]

    monkeypatch.setattr(fxbench.experiment, "Optimizer", kept_optimizer)
    assert all(isinstance(o, list) for o in train(stack, data.train, None, cfg))
    # a stack of all-ones models marks every real entry; the rest is padding
    ones = ModelStack(
        NetworkModel(m.spec, {n: np.ones_like(a) for n, a in m.params.items()}, 0)
        for m in models
    )
    padded = ones.flat == 0.0
    assert stack.spec.hidden == padded_width(8) == 8 and padded.sum() > 0
    for buf in (stack.flat, stack.grad, opts[0].acc):
        assert np.all(buf[padded] == 0.0)
    monkeypatch.undo()
    for model in models:
        alone = trial_model(arch, model.spec.hidden, window, 7)
        train(ModelStack([alone]), data.train, None, cfg)
        assert save_model(model, data.train.norm) == save_model(alone, data.train.norm)


def test_sweep_validates_inputs(wavy_records):
    data = prepare_splits(wavy_records)
    with pytest.raises(ValueError, match="field 'arch' must be one of .*, got 'cnn'"):
        run_sweep(["cnn"], [2], data, quick_config())
    with pytest.raises(ValueError, match="empty"):
        run_sweep(["mlp"], [], data, quick_config())
    with pytest.raises(ValueError, match="empty"):
        run_sweep([], [2], data, quick_config())
    with pytest.raises(ValueError, match="field 'hidden' must be a positive integer, got 0"):
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


def test_select_best_reference_grid_one():
    report = [
        trial("mlp", 6, 0.0858),
        trial("srnn", 4, 0.019),
        trial("gru", 7, 0.084),
        trial("lstm", 5, 0.013),
    ]
    best = select_best(report, "test_mae")
    assert best.overall.arch == "lstm"
    assert best.overall.structure == "4-5-1"
    assert best.overall.test_mae == 0.013
    assert best.per_arch["mlp"].test_mae == 0.0858


def test_select_best_reference_grid_two():
    report = [
        trial("mlp", 9, 0.052, pair="GBP/NPR"),
        trial("srnn", 6, 0.214, pair="GBP/NPR"),
        trial("gru", 7, 0.0177, pair="GBP/NPR"),
        trial("lstm", 5, 0.0388, pair="GBP/NPR"),
    ]
    best = select_best(report, "test_mae")
    assert best.overall.arch == "gru"
    assert best.overall.structure == "4-7-1"
    assert best.overall.test_mae == 0.0177


def test_select_best_single_trial():
    report = [trial("srnn", 3, 0.5)]
    assert select_best(report).overall == report[0]


def test_select_best_tie_breaks():
    # equal criterion: smaller hidden wins
    report = [trial("lstm", 7, 0.1), trial("lstm", 4, 0.1)]
    assert select_best(report).overall.hidden == 4
    # equal criterion and hidden: earlier architecture in canonical order wins
    report = [trial("lstm", 4, 0.1), trial("srnn", 4, 0.1)]
    assert select_best(report).overall.arch == "srnn"
    report = [trial("gru", 4, 0.1), trial("mlp", 4, 0.1)]
    assert select_best(report).overall.arch == "mlp"


def test_select_best_by_validation_criterion():
    report = [trial("mlp", 2, 0.5, val_mae=0.1), trial("mlp", 3, 0.1, val_mae=0.5)]
    assert select_best(report, "test_mae").overall.hidden == 3
    assert select_best(report, "val_mae").overall.hidden == 2


def test_select_best_rejects_bad_criterion_and_all_failed():
    report = [trial("mlp", 2, 0.5)]
    with pytest.raises(ValueError, match="criterion"):
        select_best(report, "train_mae")
    failed = [trial("mlp", 2, float("nan"))]
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
    report = [trial(a, h, m) for a, h, m in grid]
    best = select_best(report, "test_mae")
    assert best.overall.test_mae == min(t.test_mae for t in report)
    for arch, t in best.per_arch.items():
        others = [u.test_mae for u in report if u.arch == arch]
        assert t.test_mae == min(others)
