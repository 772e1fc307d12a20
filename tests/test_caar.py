import numpy as np
import pytest

from simplexcast.caar import CaarForecaster
from simplexcast.core import DimensionMismatch, InvariantViolation
from simplexcast.maar import REFRESH_EVERY
from simplexcast.projection import project_to_simplex
from simplexcast.substitution import substitute_rows

from oracle import quadrature_component_forecast


def test_zero_signal_gives_uniform():
    out = CaarForecaster(2, 4, 1.0).predict(np.zeros(2))
    np.testing.assert_allclose(out.p, np.full(4, 0.25))


def test_two_classes_empty_history_is_half_half_for_any_signal():
    # with two classes the signal correction carries the factor (d-2) = 0
    model = CaarForecaster(3, 2, 1.0)
    rng = np.random.default_rng(30)
    for _ in range(10):
        out = -0.5 * model.generalized(rng.uniform(-2, 2, 3))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-14)


def test_worked_three_class_instance():
    # n=1, d=3, a=1; history x=1, y=(1,0,0); predict at x=1.
    # E = (2/3, -1/3, -1/3), shared factor 1/3, raw = (11/18, 5/18, 5/18);
    # the raw components sum to 7/6, and projection lands on (5/9, 2/9, 2/9).
    model = CaarForecaster(1, 3, 1.0)
    model.update([1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(model.e.ravel(), [2 / 3, -1 / 3, -1 / 3])
    raw = -0.5 * model.generalized([1.0])
    np.testing.assert_allclose(raw, [11 / 18, 5 / 18, 5 / 18], atol=1e-12)
    assert raw.sum() == pytest.approx(7 / 6)
    np.testing.assert_allclose(model.predict([1.0]).p, [5 / 9, 2 / 9, 2 / 9], atol=1e-12)


def test_raw_sum_identity():
    # sum of the raw components is 1 + ((d-2)/2) x'(aI+B+xx')^{-1}x
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 6))
        a = float(rng.uniform(0.2, 3.0))
        model = CaarForecaster(n, d, a)
        for _ in range(int(rng.integers(0, 6))):
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            model.update(rng.uniform(-1, 1, n), y)
        x = rng.uniform(-1, 1, n)
        raw = -0.5 * model.generalized(x)
        quad = x @ np.linalg.solve(a * np.eye(n) + model.c + np.outer(x, x), x)
        assert raw.sum() == pytest.approx(1.0 + (d - 2) / 2.0 * quad, abs=1e-9)


def test_update_formulas_and_accumulator_balance():
    model = CaarForecaster(1, 3, 1.0)
    model.update([1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(model.e.ravel(), [2 / 3, -1 / 3, -1 / 3])
    # uniform outcome leaves E untouched
    before = model.e.copy()
    model.update([0.5], np.full(3, 1 / 3))
    np.testing.assert_allclose(model.e, before)
    # the accumulators always balance to zero across classes
    rng = np.random.default_rng(32)
    other = CaarForecaster(1, 3, 1.0)
    for _ in range(25):
        y = np.zeros(3)
        y[rng.integers(3)] = 1.0
        other.update(rng.uniform(-1, 1, 1), y)
        np.testing.assert_allclose(other.e.sum(axis=0), 0.0, atol=1e-12)


def test_dimension_mismatch():
    model = CaarForecaster(2, 3, 1.0)
    with pytest.raises(DimensionMismatch):
        model.generalized([1.0])
    with pytest.raises(DimensionMismatch):
        model.update([1.0, 0.0], [1.0, 0.0])


def test_incremental_inverse_tracks_direct():
    rng = np.random.default_rng(33)
    n, d = 3, 3
    model = CaarForecaster(n, d, 0.7)
    for step in range(300):
        x = rng.uniform(-1, 1, n)
        y = np.eye(d)[rng.integers(d)]
        model.update(x, y)
        if step % 50 == 0:
            direct = np.linalg.inv(0.7 * np.eye(n) + model.c)
            rel = np.linalg.norm(model._inv[0] - direct) / np.linalg.norm(direct)
            assert rel <= 1e-9


def test_corrupted_inverse_raises_naming_the_trial():
    rng = np.random.default_rng(36)
    n, d = 3, 3
    model = CaarForecaster(n, d, 1.0)
    for _ in range(REFRESH_EVERY - 1):
        model.update(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)])
    model._inv *= 1.01
    x = rng.uniform(-1, 1, n)
    model.predict(x)   # the denominator still looks healthy
    with pytest.raises(InvariantViolation, match=f"trial {REFRESH_EVERY}: inverse drift"):
        model.update(x, np.eye(d)[0])
    model._inv *= -1.0
    with pytest.raises(InvariantViolation, match=f"trial {REFRESH_EVERY}: Sherman-Morrison denominator"):
        model.predict(x)

    # three ridge lanes, the middle one corrupted: the error also names its ridge
    rng = np.random.default_rng(36)
    model = CaarForecaster(n, d, (0.1, 1.0, 10.0))
    for _ in range(REFRESH_EVERY - 1):
        model.update(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)])
    model._inv[1] *= 1.01
    x = rng.uniform(-1, 1, n)
    model.generalized(x)
    with pytest.raises(InvariantViolation, match=rf"trial {REFRESH_EVERY} at ridge 1\.0: inverse drift "):
        model.update(x, np.eye(d)[0])
    model._inv[1] *= -1.0
    with pytest.raises(InvariantViolation,
                       match=rf"trial {REFRESH_EVERY} at ridge 1\.0: Sherman-Morrison denominator "):
        model.generalized(x)


def test_matches_scalar_quadrature_per_component():
    rng = np.random.default_rng(34)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(2, 5))
        a = float(rng.choice([0.5, 1.0, 2.0]))
        history = []
        model = CaarForecaster(n, d, a)
        for _ in range(int(rng.integers(1, 4))):
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            x = rng.uniform(-1, 1, n)
            history.append((x, y))
            model.update(x, y)
        x_t = rng.uniform(-1, 1, n)
        raw = -0.5 * model.generalized(x_t)
        for i in range(d):
            quad = quadrature_component_forecast(history, x_t, i, d=d, a=a)
            assert raw[i] == pytest.approx(quad, abs=1e-5)


def test_forecaster_wrapper_round_trip():
    rng = np.random.default_rng(35)
    model = CaarForecaster(2, 3, 1.0)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        gamma = model.predict(x)
        assert abs(gamma.p.sum() - 1.0) < 1e-9
        model.update(x, np.eye(3)[rng.integers(3)])
    assert model.t == 20


def test_forecast_is_the_projection_of_the_raw_forecast_bit_for_bit():
    # predict substitutes r = -2 * raw, which is the raw forecast's projection exactly
    rng = np.random.default_rng(37)
    n, d, ridges = 3, 4, [0.1, 1.0, 10.0]
    single, lanes = CaarForecaster(n, d, 1.0), CaarForecaster(n, d, ridges)
    for _ in range(REFRESH_EVERY + 20):
        x = rng.uniform(-1, 1, n)
        y = np.eye(d)[rng.integers(d)]
        np.testing.assert_array_equal(single.predict(x).p, project_to_simplex(-0.5 * single.generalized(x)).p)
        rows = substitute_rows(lanes.generalized(x))
        for row, raw in zip(rows, -0.5 * lanes.generalized(x)):
            np.testing.assert_array_equal(row, project_to_simplex(raw).p)
        single.update(x, y)
        lanes.update(x, y)
