import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast import kaar
from simplexcast.core import DimensionMismatch, InvariantViolation, trial_name
from simplexcast.harness import DEFAULT_RIDGE_GRID, random_stream, run_online
from simplexcast.kaar import KaarForecaster, Kernel
from simplexcast.maar import MaarForecaster
from simplexcast.substitution import solve_substitution

from oracle import _literal_gram, dense_kaar_r


def _stream(rng, n, d, trials):
    return [(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)]) for _ in range(trials)]


def _state(model):
    """Every committed entry of the forecaster's buffers, and its trial count."""
    t = model.t
    return (t, model._x[:t].copy(),
            model._packed[:, :t * (t + 1) // 2].copy(), model._g[:, :t].copy())


def _assert_same_state(left, right):
    assert left[0] == right[0]
    for a, b in zip(left[1:], right[1:]):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# kernels

def test_kernel_eval_examples():
    assert Kernel("dot")([1.0, 2.0], [1.0, 2.0]) == 5.0
    assert Kernel("rbf", sigma=1.0)([0.3, -0.2], [0.3, -0.2]) == 1.0
    assert Kernel("poly", degree=2, offset=1.0)([1.0], [2.0]) == 9.0


def test_kernel_symmetry_and_gram_psd():
    rng = np.random.default_rng(40)
    for kernel in (Kernel("dot"), Kernel("rbf", sigma=0.7), Kernel("poly", degree=3)):
        pts = rng.uniform(-1, 1, size=(8, 3))
        gram = kernel.gram(pts)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram).min() >= -1e-9
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert kernel(x, y) == pytest.approx(kernel(y, x))


@pytest.mark.parametrize("n", range(1, 21))
def test_the_tiled_rbf_gram_equals_the_row_by_row_gram_bit_for_bit(n):
    # T around one tile side (as gram sizes its tiles) and at the bound check's 390
    side = max(1, math.isqrt(kaar._TILE_BYTES // 8 // n))
    rng = np.random.default_rng(n)
    for t_len in (0, 1, side - 1, side, side + 1, 390):
        for scale in (1e-3, 1.0, 1e3):
            kernel = Kernel("rbf", sigma=scale * rng.uniform(0.5, 2.0))
            xs = scale * rng.uniform(-1, 1, (t_len, n))
            gram = kernel.gram(xs)
            assert gram.shape == (t_len, t_len)
            np.testing.assert_array_equal(gram, np.array([kernel._row(xs, x) for x in xs]).reshape(t_len, t_len))
            np.testing.assert_array_equal(gram, gram.T)
            np.testing.assert_array_equal(np.diagonal(gram), 1.0)


@pytest.mark.parametrize("norm", [1e2, 1e4, 1e6])
def test_rbf_values_at_large_norms_match_kernel_eval(norm):
    # |x|^2 + |y|^2 - 2x.y cancels here: at norm 1e5 it was 2.3e-6 off.  The reference is
    # the oracle's Gram matrix from pairwise differences, which shares no code with Kernel.
    rng = np.random.default_rng(41)
    kernel = Kernel("rbf", sigma=0.5)
    base = norm * np.ones(3) / np.sqrt(3)
    pts = base + rng.uniform(-0.4, 0.4, size=(6, 3))
    direct = _literal_gram(kernel, pts)
    np.testing.assert_allclose(kernel.gram(pts), direct, rtol=0, atol=1e-12)
    np.testing.assert_allclose([[kernel(p, q) for q in pts] for p in pts], direct, rtol=0, atol=1e-12)
    model = KaarForecaster(3, kernel, 1.0)
    for p in pts[:-1]:
        model.update(p, [1.0, 0.0, 0.0])
    row, kxx = model._extended_gram(pts[-1])
    np.testing.assert_allclose(row, direct[-1, :-1], rtol=0, atol=1e-12)
    assert kxx == 1.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("rbf", sigma=0.0)
    with pytest.raises(ValueError):
        Kernel("poly", degree=0)
    with pytest.raises(ValueError):
        Kernel("sigmoid")
    # (x.y + c)^p is positive semidefinite only for c >= 0
    for offset in (-1.0, -1e-12, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="polynomial offset must be finite and >= 0"):
            Kernel("poly", degree=2, offset=offset)
    assert Kernel("poly", degree=2, offset=0.0)([1.0], [2.0]) == 4.0
    with pytest.raises(DimensionMismatch):
        Kernel("dot")([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="signal contains NaN"):
        Kernel("rbf")([1.0], [np.nan])


# ---------------------------------------------------------------------------
# forecaster

def test_a_ridge_must_be_positive_and_finite():
    for bad in (float("inf"), 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            KaarForecaster(3, Kernel("dot"), bad)


def test_first_trial_leading_classes_tie():
    # With no history the label blocks are identical across classes, so all
    # leading forecast components agree; with two classes that means uniform.
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        model = KaarForecaster(d, Kernel("rbf", sigma=1.2), 0.9)
        gamma = model.predict(rng.uniform(-1, 1, 3)).p
        np.testing.assert_allclose(gamma[:-1], gamma[0], atol=1e-12)
        if d == 2:
            np.testing.assert_allclose(gamma, [0.5, 0.5], atol=1e-12)


def test_matches_dense_assembly():
    rng = np.random.default_rng(42)
    for kernel in (Kernel("dot"), Kernel("rbf", sigma=0.8), Kernel("poly", degree=2)):
        model = KaarForecaster(3, kernel, 0.6)
        history = []
        for _ in range(6):
            y = np.zeros(3)
            y[rng.integers(3)] = 1.0
            x = rng.uniform(-1, 1, 2)
            model.update(x, y)
            history.append((x, y))
        x = rng.uniform(-1, 1, 2)
        np.testing.assert_allclose(
            model.generalized(x), dense_kaar_r(history, x, kernel, 3, 0.6), atol=1e-9
        )


def test_dot_kernel_reproduces_linear_forecaster():
    rng = np.random.default_rng(43)
    for n, d in ((2, 2), (3, 3), (5, 4)):
        linear = MaarForecaster(n, d, 1.3)
        kernelized = KaarForecaster(d, Kernel("dot"), 1.3)
        for _ in range(40):
            x = rng.uniform(-1, 1, n)
            y = np.eye(d)[rng.integers(d)]
            np.testing.assert_allclose(
                kernelized.predict(x).p, linear.predict(x).p, atol=1e-8
            )
            linear.update(x, y)
            kernelized.update(x, y)


def test_repeated_signal_concentrates_on_its_class():
    # tight kernel, tiny prior: predicting at a stored one-hot signal should
    # put the largest mass on that signal's class
    x_seen = np.array([0.4, -0.6])
    model = KaarForecaster(2, Kernel("rbf", sigma=0.3), 0.05)
    model.update(x_seen, np.array([1.0, 0.0]))
    model.update(np.array([-0.8, 0.9]), np.array([0.0, 1.0]))
    gamma = model.predict(x_seen).p
    assert gamma[0] == gamma.max() and gamma[0] > 0.5


def test_update_appends_and_replay_is_deterministic():
    rng = np.random.default_rng(44)
    stream = _stream(rng, 2, 3, 15)
    model = KaarForecaster(3, Kernel("rbf"), 1.0)
    for x, y in stream:
        before = model.t
        model.update(x, y)
        assert model.t == before + 1
    replay = KaarForecaster(3, Kernel("rbf"), 1.0)
    for x, y in stream:
        replay.update(x, y)
    x_probe = rng.uniform(-1, 1, 2)
    np.testing.assert_array_equal(model.predict(x_probe).p, replay.predict(x_probe).p)
    assert model.t == 15


def test_forecaster_gram_cache_matches_functional_path():
    # the buffered forecaster against the dense assembly, forecast by forecast
    rng = np.random.default_rng(45)
    kernel = Kernel("poly", degree=2)
    model = KaarForecaster(3, kernel, 0.8)
    history = []
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        y = np.eye(3)[rng.integers(3)]
        dense = solve_substitution(dense_kaar_r(history, x, kernel, 3, 0.8))
        np.testing.assert_allclose(model.predict(x).p, dense.p, atol=1e-12)
        model.update(x, y)
        history.append((x, y))


def test_incremental_cholesky_matches_direct():
    rng = np.random.default_rng(46)
    kernel = Kernel("rbf", sigma=0.9)
    model = KaarForecaster(4, kernel, 0.5)
    history = []
    for _ in range(30):
        x = rng.uniform(-1, 1, 3)
        y = np.eye(4)[rng.integers(4)]
        dense = solve_substitution(dense_kaar_r(history, x, kernel, 4, 0.5))
        np.testing.assert_allclose(model.predict(x).p, dense.p, atol=1e-9)
        model.update(x, y)
        history.append((x, y))


@pytest.mark.parametrize("kernel", [Kernel("dot"), Kernel("rbf", sigma=0.8), Kernel("poly", degree=3)],
                         ids=["dot", "rbf", "poly"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_matches_dense_oracle_across_buffer_growth(kernel, d, a):
    # 72 trials: the buffers double at 16, 32 and 64 stored signals
    rng = np.random.default_rng(47)
    model = KaarForecaster(d, kernel, a)
    history = []
    for step, (x, y) in enumerate(_stream(rng, 3, d, 72)):
        np.testing.assert_allclose(model.generalized(x), dense_kaar_r(history, x, kernel, d, a), atol=1e-9)
        if step % 5 == 0:
            # a predict on another signal must not leak into the update for x
            model.predict(rng.uniform(-1, 1, 3))
        model.update(list(x) if step % 2 else x, y)
        history.append((x, y))
    assert model.t == 72


def test_predict_leaves_factors_and_t_unchanged():
    rng = np.random.default_rng(48)
    model = KaarForecaster(3, Kernel("rbf", sigma=0.7), 0.4)
    for x, y in _stream(rng, 2, 3, 20):
        model.update(x, y)
    before = _state(model)
    for _ in range(3):
        model.predict(rng.uniform(-1, 1, 2))
    _assert_same_state(_state(model), before)


def test_kernel_overflow_raises_invariant_violation():
    model = KaarForecaster(3, Kernel("poly", degree=3), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the typed error alone: no numpy overflow warning first
        with pytest.raises(InvariantViolation, match="trial 1: kernel row is not finite"):
            model.predict([1e110, 1e110])
        model.update([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(InvariantViolation, match="trial 2: kernel row is not finite"):
            model.update([1e110, 1e110], [1.0, 0.0, 0.0])
    assert model.t == 1


def test_non_positive_definite_pivot_raises_naming_the_trial():
    rng = np.random.default_rng(50)
    model = KaarForecaster(3, Kernel("rbf", sigma=0.7), 0.1)
    for x, y in _stream(rng, 2, 3, 10):
        model.update(x, y)
    x = rng.uniform(-1, 1, 2)
    model._packed[0] *= 1e-3   # border rows 1e3 times too long: the aI+dK pivot goes negative
    with pytest.raises(InvariantViolation, match=r"trial 11: aI\+dK has pivot -"):
        model.predict(x)
    model._packed[0] *= 1e3
    model._packed[1, 0] = np.nan
    with pytest.raises(InvariantViolation, match=r"trial 11: aI\+K has pivot nan"):
        model.predict(x)


def test_dimension_errors():
    model = KaarForecaster(3, Kernel("dot"), 1.0)
    model.update([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        model.predict([1.0])
    with pytest.raises(DimensionMismatch):
        model.update([1.0], [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        model.update([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        KaarForecaster(1, Kernel("dot"), 1.0)
    with pytest.raises(ValueError):
        KaarForecaster(3, Kernel("dot"), 0.0)


# ---------------------------------------------------------------------------
# ridge lanes

@pytest.mark.parametrize("kernel", [Kernel("dot"), Kernel("rbf", sigma=0.8), Kernel("poly", degree=3)],
                         ids=["dot", "rbf", "poly"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_every_lane_equals_its_single_ridge_forecaster_bit_for_bit(kernel, d):
    data = random_stream(3, d, 70, seed=d)   # the buffers of update double at 16, 32 and 64
    xs, ys = np.array([x for x, _ in data]), np.array([y for _, y in data])
    grid = list(DEFAULT_RIDGE_GRID)
    lanes = KaarForecaster(d, kernel, grid)
    assert lanes.a == tuple(grid)
    looped = KaarForecaster(d, kernel, grid)
    rows = []
    for x, y in data:
        rows.append(looped.generalized(x))
        looped.update(x, y)
    run = lanes.run(xs, ys)
    assert run.shape == (70, len(grid), d)
    np.testing.assert_array_equal(np.array(rows), run)
    for g, a in enumerate(grid):
        np.testing.assert_array_equal(run[:, g], KaarForecaster(d, kernel, a).run(xs, ys))
    lanes.generalized(xs[0])
    last = lanes._last
    with pytest.raises(ValueError, match=r"^predict takes one ridge; .*generalized.*lane\(g\)"):
        lanes.predict(xs[1])
    assert lanes._last is last   # raised before the trial ran


def test_a_ridge_sequence_is_validated_as_maar_validates_it():
    assert KaarForecaster(3, Kernel("dot"), np.array([2.0])).a == (2.0,)
    for bad in ([1.0, 0.0], [0.5, float("nan")], [1.0, float("inf")], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            KaarForecaster(3, Kernel("dot"), bad)


def test_run_reserves_exactly_the_rows_it_needs():
    data = random_stream(2, 3, 130, seed=3)
    xs, ys = np.array([x for x, _ in data]), np.array([y for _, y in data])
    model = KaarForecaster(3, Kernel("rbf"), [0.1, 1.0])
    model.run(xs[:100], ys[:100])
    assert model._x.shape[0] == 100 and model._g.shape == (2 * 2, 100, 2)   # lanes x systems
    model.run(xs[100:], ys[100:])
    assert model._x.shape[0] == 130 and model._packed.shape == (2 * 2, 130 * 131 // 2)


def test_a_failing_lane_names_the_trial_the_system_and_its_ridge(monkeypatch):
    grid = list(DEFAULT_RIDGE_GRID)
    data = random_stream(2, 3, 30, seed=51)
    # K(x, x) = -1 at trial 17 leaves aI+dK without a positive pivot in the smallest-ridge lane first
    extended = KaarForecaster._extended_gram

    def bad_diagonal_at_17(self, xa):
        row, kxx = extended(self, xa)
        return row, -1.0 if self.t == 16 else kxx

    monkeypatch.setattr(KaarForecaster, "_extended_gram", bad_diagonal_at_17)
    model = KaarForecaster(3, Kernel("rbf", sigma=0.8), grid)
    with pytest.raises(InvariantViolation, match=r"^trial 17 at ridge 0\.001: aI\+dK has pivot -"):
        run_online(data, model)
    assert model.t == 16
    monkeypatch.undo()

    # one lane's factor corrupted: only that lane fails, and the error names its ridge
    model = KaarForecaster(3, Kernel("rbf", sigma=0.8), grid)
    run_online(data[:10], model)
    model._packed[3 * 2, 0] *= 1e-3   # border rows 1e3 times too long in lane a = 1, system aI+dK
    with pytest.raises(InvariantViolation, match=r"^trial 11 at ridge 1\.0: aI\+dK has pivot -"):
        model.generalized(data[10][0])
    with pytest.raises(InvariantViolation, match=r"^trial 11 at ridge 1\.0: aI\+dK has pivot -"):
        run_online(data[10:], model)
    assert model.t == 10


@st.composite
def _kaar_cases(draw):
    """d = 2..6 classes (m = 1 and m > 1), a kernel, one ridge or three lanes, and 17..40
    trials, past the 16 -> 32 doubling of update's buffers."""
    d = draw(st.integers(2, 6))
    kernel = draw(st.sampled_from([Kernel("dot"), Kernel("rbf", sigma=0.8), Kernel("poly", degree=3)]))
    ridges = [10.0 ** e for e in draw(st.lists(st.floats(-3, 3), min_size=3, max_size=3))]
    a = ridges if draw(st.booleans()) else ridges[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_len, n = draw(st.integers(17, 40)), draw(st.integers(1, 4))
    return d, kernel, a, rng.uniform(-1, 1, (t_len, n)), np.eye(d)[rng.integers(d, size=t_len)]


@settings(max_examples=100, deadline=None)
@given(_kaar_cases(), st.data())
def test_the_float_trial_step_keeps_run_loop_and_lanes_bit_identical(case, data):
    d, kernel, a, xs, ys = case
    run = KaarForecaster(d, kernel, a).run(xs, ys)
    loop = KaarForecaster(d, kernel, a)
    rows = []
    for x, y in zip(xs, ys):
        rows.append(loop.generalized(x))
        if np.ndim(a) == 0:
            np.testing.assert_array_equal(loop.predict(x).p, solve_substitution(rows[-1]).p)
        loop.update(x, y)
    np.testing.assert_array_equal(np.array(rows), run)
    lanes = [(None, a, run)] if np.ndim(a) == 0 else list(zip(a, a, np.moveaxis(run, 1, 0)))
    for _, ridge, lane_run in lanes:
        np.testing.assert_array_equal(lane_run, KaarForecaster(d, kernel, ridge).run(xs, ys))
        if kernel.kind == "dot":
            history = list(zip(xs, ys))
            for t in range(0, len(xs), 5):
                np.testing.assert_allclose(lane_run[t], dense_kaar_r(history[:t], xs[t], kernel, d, ridge), atol=1e-9)

    # a pivot that is not positive fails in the first factor, named with its system and ridge,
    # the pivot printed as a plain float
    systems = 1 if d == 2 else 2
    t, x = loop.t, xs[0]
    loop._extended_gram = lambda xa: (np.zeros(t), -1e9)
    pivot = lanes[0][1] + d * -1e9 - 0.0
    with pytest.raises(InvariantViolation, match="^" + re.escape(
            f"{trial_name(t + 1, lanes[0][0])}: aI+dK has pivot {pivot!r}, not positive definite") + "$"):
        loop.generalized(x)
    del loop._extended_gram
    k = data.draw(st.integers(0, systems * len(lanes) - 1))
    loop._packed[k, 0] = np.nan
    g, j = divmod(k, systems)
    with pytest.raises(InvariantViolation, match="^" + re.escape(
            f"{trial_name(t + 1, lanes[g][0])}: {kaar._SYSTEMS[j]} has pivot nan, not positive definite") + "$"):
        loop.generalized(x)
    assert loop.t == t
