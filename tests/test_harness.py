import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast import harness
from simplexcast import substitution
from simplexcast.bounds import bound_reports
from simplexcast.core import DimensionMismatch, InvariantViolation
from simplexcast.harness import (
    DEFAULT_RIDGE_GRID,
    ExperimentReport,
    InputError,
    LabeledStream,
    SimpleBaseline,
    emit_report,
    label_stream,
    load_series,
    make_forecaster,
    median_epsilon,
    mse_amse,
    normalize_series,
    prepare_stream,
    random_stream,
    run_benchmark,
    run_online,
    split_train_test,
    synth_series,
    verify_run,
)
from simplexcast.kaar import Kernel
from simplexcast.caar import CaarForecaster
from simplexcast.maar import REFRESH_EVERY, MaarForecaster
from simplexcast.substitution import solve_substitution, substitute_rows

from oracle import brier_loss, literal_label_stream, parse_report


# ---------------------------------------------------------------------------
# series preparation

def test_normalize_basic():
    out, mean, scale = normalize_series([1.0, 2.0, 3.0])
    np.testing.assert_allclose(out, [-1.0, 0.0, 1.0])
    assert mean == 2.0 and scale == 1.0


def test_normalize_centered_unit_series_unchanged():
    series = np.array([-1.0, 0.5, 1.0, -0.5])
    out, mean, scale = normalize_series(series)
    np.testing.assert_allclose(out, series)
    assert mean == 0.0 and scale == 1.0


def test_normalize_constant_series_errors():
    with pytest.raises(InputError):
        normalize_series([2.0, 2.0, 2.0])


def test_median_epsilon():
    assert median_epsilon([0.0, 1.0, 1.0, 3.0]) == 1.0
    # arithmetic progression: every |change| is the step
    assert median_epsilon(np.arange(0.0, 5.0, 0.5)) == pytest.approx(0.5)
    assert median_epsilon([0.0, 0.0, 0.0, 0.0]) == 0.0
    # even count of changes: mean of the central pair
    assert median_epsilon([0.0, 1.0, 1.0, 4.0, 4.0]) == pytest.approx(0.5)
    with pytest.raises(InputError):
        median_epsilon([1.0])


def test_label_stream_classes():
    # strictly increasing with steps above epsilon: all class 1
    up = label_stream(np.linspace(0, 1, 20), window=5, epsilon=0.01)
    assert np.all(up.labels[:, 0] == 1.0)
    # constant series with positive epsilon: all tube
    tube = label_stream(np.zeros(20), window=5, epsilon=0.1)
    assert np.all(tube.labels[:, 2] == 1.0)
    # threshold case: a step of 1.5 epsilon is labeled up
    eps = 0.2
    series = np.concatenate([np.full(11, 0.5), [0.5 + 1.5 * eps]])
    stream = label_stream(series, window=10, epsilon=eps)
    assert stream.labels[-1, 0] == 1.0
    # exact tie lands in the tube
    series_tie = np.concatenate([np.full(11, 0.5), [0.5 + eps]])
    assert label_stream(series_tie, window=10, epsilon=eps).labels[-1, 2] == 1.0


def test_label_stream_signals_are_previous_window():
    series = np.arange(14.0)
    stream = label_stream(series, window=10, epsilon=0.5)
    assert len(stream) == 4
    np.testing.assert_array_equal(stream.signals[0], np.arange(10.0))
    np.testing.assert_array_equal(stream.signals[-1], np.arange(3.0, 13.0))
    assert stream.n == 10 and stream.d == 3


def test_label_stream_too_short():
    with pytest.raises(InputError):
        label_stream(np.arange(10.0), window=10, epsilon=0.1)


def test_label_stream_zero_epsilon_warns():
    with pytest.warns(UserWarning):
        label_stream(np.arange(12.0), window=10, epsilon=0.0)


@settings(max_examples=300, deadline=None)
@given(window=st.integers(1, 12), extra=st.integers(1, 40), on_grid=st.booleans(), data=st.data())
def test_label_stream_equals_the_per_row_loop_bit_for_bit(window, extra, on_grid, data):
    size = window + extra
    if on_grid:   # multiples of 1/8: every step is exact, so steps of exactly +-epsilon occur
        epsilon = data.draw(st.sampled_from([0.0, 0.125, 0.25, 1.0]))
        series = 0.125 * np.array(data.draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size)))
    else:
        epsilon = data.draw(st.floats(0.0, 1.0))
        series = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = label_stream(series, window, epsilon)
    assert [str(w.message) for w in caught] == (
        ["epsilon = 0 degenerates the tube class to exact ties"] if epsilon == 0.0 else [])
    signals, labels = literal_label_stream(series, window, epsilon)
    assert stream.signals.shape == signals.shape and stream.signals.tobytes() == signals.tobytes()
    assert stream.labels.shape == labels.shape and stream.labels.tobytes() == labels.tobytes()
    ties = np.abs(np.diff(series)[window - 1:]) == epsilon
    assert (stream.labels[ties, 2] == 1.0).all()


def test_split_train_test_boundaries():
    def stream_of(length):
        return LabeledStream(np.zeros((length, 2)), np.tile([1.0, 0, 0], (length, 1)), 2, 0.1, 0.25, 3.0)

    for length, expected in ((9, 3), (10, 3), (3, 1)):
        train, test = split_train_test(stream_of(length))
        assert len(train) == expected and len(test) == length - expected
        for part in (train, test):
            assert (part.window, part.epsilon, part.mean, part.scale) == (2, 0.1, 0.25, 3.0)


# ---------------------------------------------------------------------------
# online loop and metrics

def test_run_online_empty_stream():
    for name, make in _run_models().items():
        lanes = (len(DEFAULT_RIDGE_GRID),) if name.endswith("-lanes") else ()
        losses, forecasts = run_online([], make())
        assert losses.shape == (0,) + lanes and forecasts.shape == (0,) + lanes + (3,), name


def test_run_online_replay_identical():
    stream = harness.random_stream(2, 3, 20, seed=3)
    losses1, f1 = run_online(stream, MaarForecaster(2, 3, 1.0))
    losses2, f2 = run_online(stream, MaarForecaster(2, 3, 1.0))
    np.testing.assert_array_equal(losses1, losses2)
    for a, b in zip(f1, f2):
        np.testing.assert_array_equal(a, b)


def test_run_online_ledger_matches_recomputation():
    stream = harness.random_stream(2, 3, 25, seed=4)
    losses, forecasts = run_online(stream, MaarForecaster(2, 3, 1.0))
    assert losses.shape == (25,) and forecasts.shape == (25, 3)
    recomputed = [brier_loss(y, g) for (x, y), g in zip(stream, forecasts)]
    np.testing.assert_allclose(losses, recomputed, atol=1e-12)


def _replay_models():
    return {
        "caar": lambda: CaarForecaster(3, 3, 0.5),
        "maar": lambda: MaarForecaster(3, 3, 0.5),
        "kaar-dot": lambda: harness.make_forecaster("kaar", 3, 3, 0.5, Kernel("dot")),
        "kaar-rbf": lambda: harness.make_forecaster("kaar", 3, 3, 0.5, Kernel("rbf", sigma=0.8)),
        "simple": lambda: SimpleBaseline(3),
    }


@pytest.mark.parametrize("name", sorted(_replay_models()))
def test_replay_forecasts_equal_predict_bit_for_bit(name):
    data = random_stream(3, 3, 2 * REFRESH_EVERY + 40, seed=17)
    losses, forecasts = run_online(data, _replay_models()[name]())
    model = _replay_models()[name]()
    announced = []
    for x, y in data:
        announced.append(model.predict(x).p)
        model.update(x, y)
    np.testing.assert_array_equal(forecasts, np.array(announced))
    np.testing.assert_array_equal(losses, ((np.array(announced) - [y for _, y in data]) ** 2).sum(axis=1))


@pytest.mark.parametrize("name", sorted(_replay_models()))
def test_predict_equals_the_substitution_of_generalized_bit_for_bit(name):
    model = _replay_models()[name]()
    for x, y in random_stream(3, 3, REFRESH_EVERY + 10, seed=31):
        gamma = model.predict(x)
        np.testing.assert_array_equal(gamma.p, solve_substitution(model.generalized(x)).p)
        assert gamma.p.dtype == np.float64 and not gamma.p.flags.writeable
        model.update(x, y)


@pytest.mark.parametrize("name", sorted(_replay_models()))
def test_predict_of_a_broken_row_or_scan_is_invariant_violation(name, monkeypatch):
    model = _replay_models()[name]()
    x = np.array([0.3, -0.2, 0.9])
    monkeypatch.setattr(substitution, "_threshold", lambda ordered: 1.0)
    with pytest.raises(InvariantViolation, match="left the simplex"):
        model.predict(x)
    monkeypatch.undo()
    nan_row = [0.0, float("nan"), 0.0]
    if name == "simple":
        monkeypatch.setattr(SimpleBaseline, "generalized", lambda self, x: np.array(nan_row))
    else:
        monkeypatch.setattr(type(model), "_row", lambda self, trial: [list(nan_row)])
    with pytest.raises(InvariantViolation, match="not finite"):
        model.predict(x)


def _run_models():
    grid = list(DEFAULT_RIDGE_GRID)
    return dict(_replay_models(), **{
        "maar-lanes": lambda: MaarForecaster(3, 3, grid),
        "kaar-lanes": lambda: harness.make_forecaster("kaar", 3, 3, grid, Kernel("rbf", sigma=0.8)),
    })


@pytest.mark.parametrize("name", sorted(_run_models()))
def test_run_equals_the_generalized_update_loop_bit_for_bit(name):
    data = random_stream(3, 3, 2 * REFRESH_EVERY + 40, seed=19)
    xs, ys = np.array([x for x, _ in data]), np.array([y for _, y in data])
    looped = _run_models()[name]()
    want = []
    for x, y in data:
        want.append(looped.generalized(x))
        looped.update(x, y)
    np.testing.assert_array_equal(_run_models()[name]().run(xs, ys), np.array(want))
    # runs in pieces carry on from the state the last one left, as the loop does
    model = _run_models()[name]()
    pieces = [model.run(xs[a:b], ys[a:b]) for a, b in ((0, 5), (5, 5), (5, 300), (300, len(xs)))]
    np.testing.assert_array_equal(np.concatenate(pieces), np.array(want))
    x = np.array([0.3, -0.2, 0.9])
    np.testing.assert_array_equal(model.generalized(x), looped.generalized(x))


@pytest.mark.parametrize("lanes", [False, True], ids=["one-ridge", "lanes"])
@pytest.mark.parametrize("name", ["caar", "maar", "kaar-dot", "kaar-rbf"])
def test_update_after_other_or_no_predict_equals_cold_update(name, lanes):
    kind, _, kernel = name.partition("-")
    ridge = [0.1, 0.7, 5.0] if lanes else 0.7

    def make():
        return make_forecaster(kind, 2, 4, ridge, Kernel(kernel) if kernel else None)

    cold, predicted, other, rewritten = make(), make(), make(), make()
    for x, y in random_stream(2, 4, REFRESH_EVERY + 4, seed=49):
        cold.update(x, y)
        predicted.generalized(x)
        predicted.update(x, y)
        other.generalized(x + 0.5)
        other.update(x, y)
        buf = x + 0.5
        rewritten.generalized(buf)
        buf[:] = x   # the caller reuses its array: the update must see the new values
        rewritten.update(buf, y)
    probes = [np.array([0.3, -0.8]), np.array([-0.1, 0.05])]
    for model in (predicted, other, rewritten):
        assert model.t == cold.t
        for x in probes:
            np.testing.assert_array_equal(model.generalized(x), cold.generalized(x))


_FAULTS = {
    "nan signal": ("signal", np.array([0.1, np.nan, 0.2]), ValueError),
    "wide signal": ("signal", np.ones(4), DimensionMismatch),
    "short outcome": ("outcome", np.array([1.0, 0.0]), DimensionMismatch),
    "outcome off the simplex": ("outcome", np.array([0.5, 0.5, 0.5]), ValueError),
}


@pytest.mark.parametrize("name, fault", [(name, fault) for name in sorted(_run_models()) for fault in _FAULTS
                                         if name != "simple" or _FAULTS[fault][0] == "outcome"])
def test_run_rejects_a_bad_trial_by_number_before_any_state_changes(name, fault):
    data = random_stream(3, 3, 30, seed=23)
    xs, ys = [x for x, _ in data], [y for _, y in data]
    which, bad, error = _FAULTS[fault]
    (xs if which == "signal" else ys)[16] = bad
    model = _run_models()[name]()
    with pytest.raises(error, match=r"^trial 17: "):
        model.run(np.array(xs) if fault == "nan signal" else xs, ys)
    assert getattr(model, "t", 0) == 0
    good = random_stream(3, 3, 40, seed=24)
    good_xs, good_ys = np.array([x for x, _ in good]), np.array([y for _, y in good])
    np.testing.assert_array_equal(model.run(good_xs, good_ys), _run_models()[name]().run(good_xs, good_ys))


def test_run_online_rejects_an_outcome_too_large_to_square_naming_the_trial():
    # such an outcome is off the simplex, which every run checks before its first trial
    data = random_stream(2, 3, 4, seed=5)
    data[2] = (data[2][0], np.array([1e200, 0.0, 0.0]))
    for model in (MaarForecaster(2, 3, 1.0), CaarForecaster(2, 3, [0.1, 1.0])):
        with pytest.raises(ValueError, match=r"^trial 3: outcome \[1e\+200, 0\.0, 0\.0\] is not on the simplex"):
            run_online(data, model)
        assert model.t == 0


def test_update_and_verify_run_reject_an_outcome_off_the_simplex():
    for y in ([3.0, 0.0, 0.0], [1.5, -0.5, 0.0], [0.0, 1.0 + 2e-9, 0.0]):
        for name, make in sorted(_run_models().items()):
            model = make()
            with pytest.raises(ValueError, match=r"^outcome .* is not on the simplex"):
                model.update(np.zeros(3), y)
            assert model.t == 0, name
    # 3 times the one-hot outcomes once gave verify_run a slack of -19.3, an internal fault
    data = [(x, 3.0 * y) for x, y in random_stream(2, 3, 60, seed=6)]
    for kind, kernel in (("caar", None), ("maar", None), ("kaar", Kernel("dot"))):
        with pytest.raises(ValueError, match=r"^trial \d+: outcome .* is not on the simplex"):
            verify_run(data, kind, 1.0, kernel)


def test_mse_amse_worked_example():
    mse, amse = mse_amse([2.0, 0.0])
    assert mse == 1.0 and amse == 1.5


def test_mse_amse_constant_losses():
    mse, amse = mse_amse([0.3] * 7)
    assert mse == pytest.approx(0.3) and amse == pytest.approx(0.3)


def test_mse_amse_single_step_and_ledger_input():
    # the first forecast of the baseline is uniform, so a one-hot outcome costs 1 - 1/5
    losses, _ = run_online([(None, np.eye(5)[0])], SimpleBaseline(5))
    mse, amse = mse_amse(losses)
    assert mse == amse == pytest.approx(0.8)
    with pytest.raises(InputError):
        mse_amse([])


# ---------------------------------------------------------------------------
# baseline

def test_baseline_first_step_uniform():
    model = SimpleBaseline(3)
    np.testing.assert_allclose(model.predict(None).p, [1 / 3, 1 / 3, 1 / 3])


def test_baseline_after_ten_identical_outcomes():
    model = SimpleBaseline(3)
    for _ in range(10):
        model.update(None, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(model.predict(None).p, [0.0, 1.0, 0.0])


def test_baseline_alternating_two_classes():
    model = SimpleBaseline(3)
    for i in range(10):
        model.update(None, [1.0, 0.0, 0.0] if i % 2 == 0 else [0.0, 1.0, 0.0])
    np.testing.assert_allclose(model.predict(None).p, [0.5, 0.5, 0.0])


def test_baseline_window_slides():
    model = SimpleBaseline(2, window=3)
    for y in ([1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
        model.update(None, y)
    np.testing.assert_allclose(model.predict(None).p, [2 / 3, 1 / 3])


def test_baseline_keeps_a_copy_and_checks_the_outcome_length():
    model = SimpleBaseline(3)
    y = np.array([1.0, 0.0, 0.0])
    model.update(None, y)
    y[:] = [0.0, 0.0, 1.0]   # the caller reuses its array
    np.testing.assert_allclose(model.predict(None).p, [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        model.update(None, [1.0, 0.0])
    np.testing.assert_allclose(model.predict(None).p, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="window must be at least 1"):
        SimpleBaseline(3, window=0)


def test_simple_baseline_functional_form():
    stream = label_stream(synth_series("sine", 60, 1), window=10, epsilon=0.05)
    _, forecasts = run_online(stream, SimpleBaseline(stream.d))
    assert len(forecasts) == len(stream)
    np.testing.assert_allclose(forecasts[0], [1 / 3, 1 / 3, 1 / 3])


# ---------------------------------------------------------------------------
# ridge search

def _selected(stream, kind, grid, kernel=None):
    """The ridge ``run_benchmark`` selects for ``kind`` on the train third, and its grid record."""
    _, log = run_benchmark(stream, [kind], grid, kernel)
    return log["ridge"][kind], log["ridge_grid"][kind]


def test_grid_search_single_element():
    stream = label_stream(synth_series("sine", 80, 2), window=10, epsilon=0.05)
    assert _selected(stream, "caar", [0.7])[0] == 0.7


def test_grid_search_deterministic_and_positive():
    stream = label_stream(synth_series("ar1", 120, 3), window=10, epsilon=0.05)
    first, record = _selected(stream, "maar", harness.DEFAULT_RIDGE_GRID)
    second, again = _selected(stream, "maar", harness.DEFAULT_RIDGE_GRID)
    assert first == second and first > 0 and record["train_mse"] == again["train_mse"]


def test_grid_search_zero_signals_ties_to_smallest():
    stream = LabeledStream(np.zeros((12, 2)), np.tile([1.0, 0.0, 0.0], (12, 1)), 2, 0.1)
    ridge, record = _selected(stream, "caar", [10.0, 0.1, 1.0])
    assert ridge == 0.1 and record["ridges"] == [0.1, 1.0, 10.0] and len(set(record["train_mse"])) == 1


def test_grid_search_of_the_ridgeless_baseline_scores_every_value_alike():
    # the baseline has no ridge: every grid, or a fixed ridge, gives it the same report and no grid record
    stream = label_stream(synth_series("sine", 80, 2), window=10, epsilon=0.05)
    runs = [run_benchmark(stream, ["simple"], spec) for spec in ([10.0, 0.1, 1.0], [0.5], 2.0)]
    (first,), _ = runs[0]
    for (rep,), log in runs:
        assert (rep.mse, rep.amse, rep.ridge, rep.bound_slack) == (first.mse, first.amse, None, None)
        assert log["ridge"] == {"simple": None} and log["ridge_grid"] == {}


def test_grid_search_rejects_bad_grid():
    stream = label_stream(synth_series("sine", 40, 2), window=10, epsilon=0.05)
    with pytest.raises(InputError):
        run_benchmark(stream, ["caar"], [])
    with pytest.raises(InputError):
        run_benchmark(stream, ["caar"], [0.0, 1.0])


_LANE_KINDS = {"caar": ("caar", None), "maar": ("maar", None),
               "kaar-dot": ("kaar", Kernel("dot")), "kaar-rbf": ("kaar", Kernel("rbf", sigma=0.8))}


def _per_ridge_mse(train, kind, ridges, kernel=None):
    """The old protocol, kept as the oracle: one fresh forecaster per grid value."""
    out = []
    for a in ridges:
        losses, _ = run_online(train, make_forecaster(kind, train.n, train.d, a, kernel))
        out.append(losses.sum() / losses.size)
    return out


@pytest.mark.parametrize("name", sorted(_LANE_KINDS))
@pytest.mark.parametrize("n,d", [(3, 2), (10, 3), (4, 5)])
def test_lane_losses_match_per_ridge_ledgers(name, n, d):
    kind, kernel = _LANE_KINDS[name]
    data = random_stream(n, d, 2 * REFRESH_EVERY + 88, seed=n * d)
    ridges = list(DEFAULT_RIDGE_GRID)
    model = make_forecaster(kind, n, d, ridges, kernel)
    rows, losses = [], []
    for x, y in data:
        rows.append(substitute_rows(model.generalized(x)))
        losses.append(((rows[-1] - y) ** 2).sum(axis=1))
        model.update(x, y)
    losses = np.array(losses)
    stream = LabeledStream(np.array([x for x, _ in data]), np.array([y for _, y in data]), n, 0.0)
    lane_losses, lane_rows = run_online(stream, make_forecaster(kind, n, d, ridges, kernel))
    np.testing.assert_array_equal(lane_rows, np.array(rows))
    # a lane of MAAR or KAAR takes the arithmetic of its one ridge; CAAR's single factor takes
    # another BLAS kernel than its stack of lanes (measured here: 3.1e-13 per loss, 1.7e-15 in MSE)
    loss_tol, mse_tol = (5e-13, 5e-15) if kind == "caar" else (0.0, 0.0)
    singles = np.stack([run_online(data, make_forecaster(kind, n, d, a, kernel))[0] for a in ridges], axis=1)
    np.testing.assert_allclose(losses, singles, rtol=0, atol=loss_tol)
    np.testing.assert_allclose(lane_losses.mean(axis=0), singles.mean(axis=0), rtol=0, atol=mse_tol)


@pytest.mark.parametrize("name", sorted(_LANE_KINDS))
def test_grid_search_picks_the_ridge_of_the_per_ridge_loop(name):
    kind, kernel = _LANE_KINDS[name]
    for synth, seed in (("ar1", 7), ("ar1", 11), ("sine", 3), ("walk", 5)):
        stream = prepare_stream(synth_series(synth, 900, seed), 10, "auto")
        train, _ = split_train_test(stream)
        chosen, record = _selected(stream, kind, DEFAULT_RIDGE_GRID, kernel)
        oracle = _per_ridge_mse(train, kind, sorted(DEFAULT_RIDGE_GRID), kernel)
        assert chosen == sorted(DEFAULT_RIDGE_GRID)[int(np.argmin(oracle))]
        np.testing.assert_allclose(record["train_mse"], oracle, rtol=0, atol=1e-12)


def test_lane_pass_rejects_a_row_off_the_simplex_naming_trial_and_ridge(monkeypatch):
    stream = label_stream(synth_series("sine", 80, 2), window=10, epsilon=0.05)
    thresholds = substitution._row_thresholds

    def bad_threshold_at(row):
        def patched(arr):
            s = thresholds(arr)
            s[row] += 1e-6   # that row's sum leaves SUM_TOL
            return s
        return patched

    # the scan rejects a row of the (trials x lanes, d) stack: the run names its trial and ridge
    for kind, row, where in (("maar", 2, r"trial 1 at ridge 0\.1"), ("caar", 9, r"trial 3 at ridge 0\.01")):
        monkeypatch.setattr(substitution, "_row_thresholds", bad_threshold_at(row))
        with pytest.raises(InvariantViolation, match=rf"^{where}: substitution left the simplex at row {row}"):
            run_benchmark(stream, [kind], [0.001, 0.01, 0.1, 1.0])


def _trials(n, d, t_len, seed):
    data = random_stream(n, d, t_len, seed)
    return np.array([x for x, _ in data]), np.array([y for _, y in data])


@pytest.mark.parametrize("name", sorted(_LANE_KINDS))
def test_a_one_lane_forecaster_equals_the_single_ridge_forecaster_bit_for_bit(name):
    kind, kernel = _LANE_KINDS[name]
    xs, ys = _trials(4, 3, 2 * REFRESH_EVERY + 20, seed=41)
    for a in (0.01, 1.0, 30.0):
        one = make_forecaster(kind, 4, 3, [a], kernel)
        rows = one.run(xs, ys)
        assert rows.shape == (len(xs), 1, 3)
        np.testing.assert_array_equal(rows[:, 0], make_forecaster(kind, 4, 3, a, kernel).run(xs, ys))


@pytest.mark.parametrize("name", sorted(_LANE_KINDS))
def test_a_lane_split_off_runs_on_as_the_forecaster_of_its_ridge(name):
    kind, kernel = _LANE_KINDS[name]
    # CAAR and MAAR split off on either side of a refresh; KAAR has none, and costs O(T^2)
    splits = (0, 7, 60) if kind == "kaar" else (0, 7, REFRESH_EVERY - 1, REFRESH_EVERY + 3)
    xs, ys = _trials(4, 3, splits[-1] + REFRESH_EVERY + 30, seed=43)
    ridges = list(DEFAULT_RIDGE_GRID)
    singles = {g: make_forecaster(kind, 4, 3, ridges[g], kernel).run(xs, ys) for g in (0, 3, len(ridges) - 1)}
    for k in splits:
        lanes = make_forecaster(kind, 4, 3, ridges, kernel)
        lanes.run(xs[:k], ys[:k])
        for g, want in singles.items():
            twin = lanes.lane(g)
            assert twin.t == k and twin.a == ridges[g]
            got = twin.run(xs[k:], ys[k:])
            if kind == "kaar":
                np.testing.assert_array_equal(got, want[k:])
            else:
                np.testing.assert_allclose(got, want[k:], rtol=1e-12, atol=1e-12)
        # the lanes share no state with what was split off: they run on as before
        rest = make_forecaster(kind, 4, 3, ridges, kernel)
        rest.run(xs[:k], ys[:k])
        np.testing.assert_array_equal(lanes.run(xs[k:], ys[k:]), rest.run(xs[k:], ys[k:]))
    with pytest.raises(ValueError, match="ridge lanes"):
        make_forecaster(kind, 4, 3, 1.0, kernel).lane(0)


def _fresh_protocol(stream, kind, ridge, kernel):
    """The old protocol at a known ridge: one fresh forecaster over the whole stream."""
    model = make_forecaster(kind, stream.n, stream.d, ridge, kernel)
    losses, _ = run_online(stream, model)
    mse, amse = mse_amse(losses[stream.split_index:])
    checks = bound_reports(stream, kind, ridge, float(losses.sum()), getattr(model, "kernel", None))
    return mse, amse, min(check.slack for check in checks)


@pytest.mark.parametrize("name", ["caar", "maar", "kaar-rbf"])
def test_run_benchmark_equals_a_fresh_run_at_the_chosen_ridge(name):
    kind, kernel = _LANE_KINDS[name]
    for synth, seed, length in (("ar1", 7, 900), ("sine", 3, 400), ("walk", 5, 600)):
        stream = prepare_stream(synth_series(synth, length, seed), 10, "auto")
        (report,), log = run_benchmark(stream, [kind], DEFAULT_RIDGE_GRID, kernel)
        train, _ = split_train_test(stream)
        oracle = _per_ridge_mse(train, kind, sorted(DEFAULT_RIDGE_GRID), kernel)
        assert report.ridge == sorted(DEFAULT_RIDGE_GRID)[int(np.argmin(oracle))] == log["ridge"][kind]
        want = _fresh_protocol(stream, kind, report.ridge, kernel)
        got = (report.mse, report.amse, report.bound_slack)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        (fixed,), _ = run_benchmark(stream, [kind], report.ridge, kernel)
        np.testing.assert_allclose((fixed.mse, fixed.amse, fixed.bound_slack), want, rtol=1e-12, atol=0)


def test_run_benchmark_reads_caar_and_maar_off_one_maar_pass(monkeypatch):
    # asked for both, run_benchmark runs one MAAR lane pass over the train third and reads CAAR's
    # rows off it too, then one pass over the rest holding the chosen ridges: ar1 seed 4 is a
    # stream where the two kinds choose apart, so that pass holds two lanes
    def refuse(*args):
        raise AssertionError("CAAR ran its own pass")

    grid, apart = sorted(DEFAULT_RIDGE_GRID), 0
    for synth, seed, length in (("ar1", 7, 900), ("sine", 3, 400), ("walk", 5, 600), ("ar1", 4, 1000)):
        stream = prepare_stream(synth_series(synth, length, seed), 10, "auto")
        train, _ = split_train_test(stream)
        monkeypatch.setattr(CaarForecaster, "_steps", refuse)
        both, log = run_benchmark(stream, ["caar", "maar"], DEFAULT_RIDGE_GRID)
        fixed = {ridge: run_benchmark(stream, ["maar", "caar"], ridge)[0] for ridge in {rep.ridge for rep in both}}
        monkeypatch.undo()
        apart += both[0].ridge != both[1].ridge
        for report in both:
            kind = report.algorithm
            assert report.ridge == grid[int(np.argmin(_per_ridge_mse(train, kind, grid)))] == log["ridge"][kind]
            want = _fresh_protocol(stream, kind, report.ridge, None)
            np.testing.assert_allclose((report.mse, report.amse, report.bound_slack), want, rtol=1e-12, atol=0)
            for ridge, reports in fixed.items():   # a fixed ridge: both kinds at it
                (rep,) = [r for r in reports if r.algorithm == kind]
                assert rep.ridge == ridge
                np.testing.assert_allclose((rep.mse, rep.amse, rep.bound_slack),
                                           _fresh_protocol(stream, kind, ridge, None), rtol=1e-12, atol=0)
        (alone,), alone_log = run_benchmark(stream, ["maar"], DEFAULT_RIDGE_GRID)
        shared = both[1]
        assert (shared.mse, shared.amse, shared.ridge, shared.bound_slack) == \
            (alone.mse, alone.amse, alone.ridge, alone.bound_slack)
        assert log["ridge_grid"]["maar"]["train_mse"] == alone_log["ridge_grid"]["maar"]["train_mse"]
        for ridge, reports in fixed.items():
            (single,), _ = run_benchmark(stream, ["maar"], ridge)
            assert (reports[0].mse, reports[0].amse, reports[0].bound_slack) == \
                (single.mse, single.amse, single.bound_slack)
    assert apart == 1


def test_the_shared_pass_names_a_caar_row_off_the_simplex_by_trial_and_ridge(monkeypatch):
    stream = label_stream(synth_series("sine", 80, 2), window=10, epsilon=0.05)
    thresholds = substitution._row_thresholds

    def bad_row_9_in_call(number):   # the shared pass substitutes each kind's stack in the order asked
        calls = []

        def patched(arr):
            s = thresholds(arr)
            calls.append(None)
            if len(calls) == number:
                s[9] += 1e-6   # that row's sum leaves SUM_TOL
            return s
        return patched

    for algos, number in ((["caar", "maar"], 1), (["maar", "caar"], 2)):   # CAAR's stack of the train third
        monkeypatch.setattr(substitution, "_row_thresholds", bad_row_9_in_call(number))
        with pytest.raises(InvariantViolation,
                           match=r"^trial 3 at ridge 0\.01: substitution left the simplex at row 9"):
            run_benchmark(stream, algos, [0.001, 0.01, 0.1, 1.0])


@pytest.mark.parametrize("kernel", [Kernel("rbf", sigma=0.8), Kernel("dot"), Kernel("poly", degree=3)],
                         ids=["rbf", "dot", "poly"])
def test_run_benchmark_checks_kaar_s_guarantee_without_a_gram_matrix(kernel, monkeypatch):
    stream = prepare_stream(synth_series("sine", 300, 3), 10, "auto")

    def refuse(*args, **kwargs):
        raise AssertionError("bench built a Gram matrix")

    monkeypatch.setattr(Kernel, "gram", refuse)
    monkeypatch.setattr("simplexcast.bounds._kernel_systems", refuse)
    reports = []
    for spec in (DEFAULT_RIDGE_GRID, 1.0):
        (report,), log = run_benchmark(stream, ["kaar"], spec, kernel)
        ratios = log["pivot_ratio"]["kaar"]   # recorded, not gated on
        assert set(ratios) == {"aI+dK", "aI+K"} and all(1.0 <= v < np.inf for v in ratios.values())
        reports.append(report)
    monkeypatch.undo()
    for report in reports:   # the independent path: a fresh run, and the guarantee from the Gram matrix
        np.testing.assert_allclose(report.bound_slack, _fresh_protocol(stream, "kaar", report.ridge, kernel)[2],
                                   rtol=1e-9, atol=0)


def _holding_ten(name, data):
    model = _replay_models()[name]()
    run_online(data[:10], model)
    assert model.t == 10
    return model


@pytest.mark.parametrize("name", sorted(_replay_models()))
def test_run_online_names_a_failure_by_the_model_s_own_trial_count(name, monkeypatch):
    data = random_stream(3, 3, 14, seed=31)
    model = _holding_ten(name, data)
    thresholds = substitution._row_thresholds

    def off_at_first_row(arr):
        s = thresholds(arr)
        s[0] += 1e-6   # that row's sum leaves SUM_TOL
        return s

    monkeypatch.setattr(substitution, "_row_thresholds", off_at_first_row)
    with pytest.raises(InvariantViolation, match=r"^trial 11: substitution left the simplex at row 0"):
        run_online(data[10:], model)
    monkeypatch.undo()
    bad = data[10:]
    bad[0] = (bad[0][0], 3.0 * np.eye(3)[0])
    with pytest.raises(ValueError, match=r"^trial 11: outcome \[3\.0, 0\.0, 0\.0\] is not on the simplex"):
        run_online(bad, _holding_ten(name, data))


def test_baseline_counts_its_trials_as_the_forecasters_do():
    baseline = SimpleBaseline(3)
    baseline.update(None, [1.0, 0.0, 0.0])
    baseline.run(np.zeros((4, 2)), np.eye(3)[[0, 1, 2, 0]])
    assert baseline.t == 5
    with pytest.raises(DimensionMismatch, match=r"^trial 7: "):
        baseline.run(np.zeros((2, 2)), [[1.0, 0.0, 0.0], [1.0, 0.0]])


def test_verify_run_kaar_without_kernel_raises_before_any_forecaster_runs():
    # the first signal overflows the dot kernel, so a forecaster built for this
    # stream would fail with InvariantViolation on its first trial
    data = [(np.array([1e200, 1e200]), np.array([1.0, 0.0]))] + random_stream(2, 2, 5, seed=1)
    with pytest.raises(ValueError, match="kernel required"):
        verify_run(data, "kaar", 1.0)
    with np.errstate(over="ignore"), pytest.raises(InvariantViolation, match="trial 1: kernel row"):
        verify_run(data, "kaar", 1.0, Kernel("dot"))


# ---------------------------------------------------------------------------
# synthetic series

def test_synth_deterministic():
    for kind in ("ar1", "sine", "walk"):
        np.testing.assert_array_equal(synth_series(kind, 50, 9), synth_series(kind, 50, 9))


def test_synth_ar1_has_its_stationary_std():
    # y_t = 0.8 y_{t-1} + 0.1 e_t has std 0.1 / sqrt(1 - 0.8^2) = 0.1667
    for seed in (10, 11, 12):
        assert abs(synth_series("ar1", 5000, seed).std() - 0.1 / np.sqrt(0.36)) < 0.01


def test_synth_sine_amplitude_bounds():
    # less its noise, redrawn from the same seed, the series is the unit sine of period 60
    t = np.arange(200)
    signal = synth_series("sine", 200, 11) - 0.1 * np.random.default_rng(11).standard_normal(200)
    np.testing.assert_allclose(signal, np.sin(2.0 * np.pi * t / 60), rtol=0, atol=1e-12)
    assert signal.min() >= -1.0 and signal.max() <= 1.0


def test_synth_unknown_kind():
    with pytest.raises(InputError):
        synth_series("brownian", 10, 0)


# ---------------------------------------------------------------------------
# reports

def test_emit_and_parse_round_trip(tmp_path):
    reports = [
        ExperimentReport("caar", 0.4321, 0.4333, 1.25, 0.1, 3.5),
        ExperimentReport("simple", 0.58, 0.579, 0.001, None, None),
    ]
    paths = emit_report(reports, tmp_path, {"seed": 1})
    back = parse_report(paths["csv"])
    assert back == reports
    header = paths["csv"].read_text().splitlines()[0]
    assert header == "algorithm,mse,amse,time_seconds,ridge,bound_slack"
    assert (tmp_path / "run_log.json").exists()
    assert "caar" in paths["table"].read_text()


def test_emit_empty_reports(tmp_path):
    paths = emit_report([], tmp_path, {})
    assert parse_report(paths["csv"]) == []
    assert json.loads(paths["log"].read_text()) == {}


def test_parse_rejects_wrong_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        parse_report(bad)


# ---------------------------------------------------------------------------
# file loading and the full protocol

def test_load_series_with_and_without_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("1.0\n2.0\n3.5\n")
    np.testing.assert_array_equal(load_series(plain), [1.0, 2.0, 3.5])
    headed = tmp_path / "headed.csv"
    headed.write_text("value\n1.0\n2.0\n")
    np.testing.assert_array_equal(load_series(headed), [1.0, 2.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\noops\n")
    with pytest.raises(InputError):
        load_series(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(InputError):
        load_series(empty)


def test_prepare_stream_auto_epsilon():
    series = synth_series("sine", 120, 5)
    stream = prepare_stream(series, 10, "auto")
    normalized, _, _ = normalize_series(series)
    assert stream.epsilon == pytest.approx(median_epsilon(normalized))
    assert stream.d == 3 and stream.n == 10


def test_prepare_stream_takes_auto_or_any_float_spec():
    series = synth_series("sine", 120, 5)
    for spec in ("0.05", 0.05, np.float64(0.05)):
        assert prepare_stream(series, 10, spec).epsilon == 0.05
    for bad in ("wide", "", None, [0.05, 0.1], np.array([0.05, 0.1])):
        with pytest.raises(InputError, match="epsilon must be a number or 'auto'"):
            prepare_stream(series, 10, bad)


def test_run_benchmark_protocol():
    stream = prepare_stream(synth_series("sine", 400, 6), 10, "auto")
    reports, log = run_benchmark(stream, ["caar", "maar", "simple"], 1.0)
    by_name = {r.algorithm: r for r in reports}
    assert set(by_name) == {"caar", "maar", "simple"}
    assert by_name["caar"].ridge == 1.0 and by_name["simple"].ridge is None
    assert by_name["caar"].bound_slack >= -1e-6
    assert by_name["simple"].bound_slack is None
    assert log["split_index"] == len(stream) // 3
    for rep in reports:
        assert rep.mse >= 0 and rep.amse >= 0


def test_run_benchmark_logs_the_train_mse_of_every_grid_value():
    stream = prepare_stream(synth_series("ar1", 400, 6), 10, "auto")
    reports, log = run_benchmark(stream, ["caar", "maar", "simple"], DEFAULT_RIDGE_GRID)
    assert set(log["ridge_grid"]) == {"caar", "maar"}
    for rep in reports:
        if rep.algorithm == "simple":
            continue
        grid = log["ridge_grid"][rep.algorithm]
        assert set(grid) == {"ridges", "train_mse", "seconds"}
        assert grid["ridges"] == sorted(DEFAULT_RIDGE_GRID)
        assert len(grid["train_mse"]) == len(grid["ridges"]) and grid["seconds"] >= 0
        best = grid["ridges"][int(np.argmin(grid["train_mse"]))]
        assert best == rep.ridge == log["ridge"][rep.algorithm]
    json.loads(json.dumps(log, allow_nan=False))
    _, fixed = run_benchmark(stream, ["caar"], 1.0)
    assert fixed["ridge_grid"] == {} and fixed["pivot_ratio"] == {} == log["pivot_ratio"]   # KAAR's alone


def test_every_ridge_of_the_spec_is_checked_whatever_the_algorithms():
    stream = prepare_stream(synth_series("sine", 120, 6), 10, "auto")
    for algos in (["simple"], ["simple", "caar"]):
        for spec in ((1.0, -1.0), (1.0, float("nan")), -1.0, ()):
            with pytest.raises(InputError, match="positive and finite|empty"):
                run_benchmark(stream, algos, spec)
    # a grid needs a train third only when an algorithm scores it
    short = label_stream(synth_series("sine", 12, 6), 10, 0.05)
    assert short.split_index == 0
    (report,), log = run_benchmark(short, ["simple"], DEFAULT_RIDGE_GRID)
    assert report.algorithm == "simple" and log["ridge_grid"] == {}
    with pytest.raises(InputError, match="too short for ridge selection"):
        run_benchmark(short, ["simple", "caar"], DEFAULT_RIDGE_GRID)


def test_run_benchmark_with_kernel_algo():
    stream = prepare_stream(synth_series("sine", 150, 8), 10, "auto")
    reports, _ = run_benchmark(stream, ["kaar"], 1.0, Kernel("rbf", sigma=1.0))
    assert reports[0].algorithm == "kaar"
    assert reports[0].bound_slack >= -1e-6


def test_run_benchmark_kernel_algo_requires_a_kernel():
    stream = prepare_stream(synth_series("sine", 90, 8), 10, "auto")
    with pytest.raises(ValueError, match=r"^kernel required for kind='kaar'"):
        run_benchmark(stream, ["kaar"], 1.0)
    with pytest.raises(ValueError, match=r"^kernel required for kind='kaar'"):
        make_forecaster("kaar", 3, 3, 1.0, None)
