import numpy as np
import pytest

from simplexcast.caar import CaarForecaster
from simplexcast.core import DimensionMismatch, InvariantViolation
from simplexcast.kaar import KaarForecaster, Kernel
from simplexcast.maar import REFRESH_EVERY, MaarForecaster, refresh_inverse, solve_structured
from simplexcast.substitution import solve_substitution

from oracle import dense_maar_r, quadrature_r


def dense_system(a, d, c):
    """Reference assembly of aI + (I+J) kron C."""
    m = d - 1
    return a * np.eye(m * c.shape[0]) + np.kron(np.eye(m) + np.ones((m, m)), c)


LANES = (0.1, 1.0, 10.0)


def _construct(cls, n, d, a):
    """The forecaster ``cls`` of n-long signals (which KAAR does not fix), d classes and ridge a."""
    return KaarForecaster(d, Kernel("dot"), a) if cls is KaarForecaster else cls(n, d, a)


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster, KaarForecaster])
def test_constructor_validates_the_game_and_the_ridge_lanes(cls):
    if cls is not KaarForecaster:
        with pytest.raises(ValueError, match="signal dimension must be >= 1, got 0"):
            _construct(cls, 0, 3, 1.0)
        assert _construct(cls, 2, 3, 1.0).n == 2
    with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
        _construct(cls, 2, 1, 1.0)
    with pytest.raises(ValueError, match="positive and finite, got 0.0"):
        _construct(cls, 2, 3, 0.0)
    model = _construct(cls, 2, 3, 1.0)
    assert (model.d, model.a) == (3, 1.0)
    assert _construct(cls, 2, 3, [0.1, 1.0]).a == (0.1, 1.0)
    assert _construct(cls, 2, 3, np.array([2.0])).a == (2.0,)
    for bad in ([1.0, 0.0], [1.0, -2.0], [0.5, float("nan")], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            _construct(cls, 2, 3, bad)
    for bad in (float("inf"), [1.0, float("inf")]):
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            _construct(cls, 2, 3, bad)


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
def test_lane_rows_have_the_ridge_shape_and_match_single_ridges(cls):
    rng = np.random.default_rng(29)
    n, d = 3, 4
    lanes = cls(n, d, LANES)
    singles = [cls(n, d, a) for a in LANES]
    for step in range(2 * REFRESH_EVERY + 5):
        x = rng.uniform(-1, 1, n)
        y = np.eye(d)[rng.integers(d)]
        rows = lanes.generalized(x)
        assert rows.shape == (len(LANES), d)
        for row, single in zip(rows, singles):
            want = single.generalized(x)
            assert want.shape == (d,)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
            single.update(x, y)
        lanes.update(x, y)
    assert cls(n, d, [1.0]).generalized(np.ones(n)).shape == (1, d)
    with pytest.raises(ValueError):
        lanes.predict(np.ones(n))   # predict takes one ridge


def test_first_trial_zero_signal_is_uniform():
    for d in (2, 3, 5):
        out = MaarForecaster(3, d, 1.0).predict(np.zeros(3))
        np.testing.assert_allclose(out.p, np.full(d, 1.0 / d))


def test_hand_traced_two_class_instance():
    # n=1, d=2, a=1; one past trial (x=1, y=(1,0)); predict at x=1.
    # Sufficient statistics: C=2 (with the new signal), A=5, b=-2, z=-2,
    # so r_1 = -(-2)(1/5)(-2) = -4/5 and the forecast is (0.7, 0.3).
    model = MaarForecaster(1, 2, 1.0)
    model.update([1.0], [1.0, 0.0])
    assert model.c[0, 0] == 1.0
    assert model.h[0, 0] == -2.0
    r = model.generalized([1.0])
    np.testing.assert_allclose(r, [-0.8, 0.0], atol=1e-14)
    np.testing.assert_allclose(model.predict([1.0]).p, [0.7, 0.3], atol=1e-14)


def test_predict_does_not_mutate_state():
    model = MaarForecaster(2, 3, 1.0)
    model.update([1.0, -0.5], [0.0, 1.0, 0.0])
    before = (model.c, model.h.copy(), model._inv.copy())
    t_before = model.t
    model.predict([0.3, 0.7])
    for was, now in zip(before, (model.c, model.h, model._inv)):
        np.testing.assert_array_equal(now, was)
    assert model.t == t_before


def test_update_formulas():
    model = MaarForecaster(1, 2, 1.0)
    model.update([1.0], [1.0, 0.0])
    assert model.h[0, 0] == -2.0 and model.c[0, 0] == 1.0 and model.t == 1


def test_update_with_uniform_outcome_leaves_h():
    model = MaarForecaster(2, 4, 1.0)
    x = np.array([0.5, -1.0])
    model.update(x, np.full(4, 0.25))
    np.testing.assert_array_equal(model.h, np.zeros((3, 2)))
    np.testing.assert_allclose(model.c, np.outer(x, x))


def test_two_identical_updates_double_increments():
    x = np.array([0.3, 0.9])
    y = np.array([0.0, 1.0, 0.0])
    once = MaarForecaster(2, 3, 1.0)
    once.update(x, y)
    twice = MaarForecaster(2, 3, 1.0)
    twice.update(x, y)
    twice.update(x, y)
    np.testing.assert_allclose(twice.c, 2 * once.c)
    np.testing.assert_allclose(twice.h, 2 * once.h)


def test_dimension_mismatch_errors():
    model = MaarForecaster(2, 3, 1.0)
    with pytest.raises(DimensionMismatch):
        model.predict([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        model.update([1.0, 2.0], [1.0, 0.0])


def test_permutation_equivariance_over_leading_classes():
    # The remainder class is parameterized differently from the others (its
    # implied coefficient block is minus the sum of the rest), so only
    # relabelings of the first d-1 classes leave the forecaster equivariant.
    rng = np.random.default_rng(20)
    n, d = 2, 4
    stream = [(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)]) for _ in range(12)]
    x_query = rng.uniform(-1, 1, n)
    perm = np.append(rng.permutation(d - 1), d - 1)

    model = MaarForecaster(n, d, 1.0)
    model_p = MaarForecaster(n, d, 1.0)
    for x, y in stream:
        model.update(x, y)
        model_p.update(x, y[perm])
    base = model.predict(x_query).p
    permuted = model_p.predict(x_query).p
    np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# structured solve

def test_structured_solve_two_classes_reduces_to_single_block():
    rng = np.random.default_rng(21)
    n = 3
    x = rng.normal(size=(5, n))
    c = x.T @ x
    rhs = rng.normal(size=n)
    out = solve_structured(2.0, 2, c, rhs)
    expected = np.linalg.solve(2.0 * np.eye(n) + 2.0 * c, rhs)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_structured_solve_zero_c_scales_by_a():
    rhs = np.arange(6.0)
    np.testing.assert_allclose(solve_structured(4.0, 3, np.zeros((3, 3)), rhs), rhs / 4.0)


def test_structured_solve_matches_dense():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 6))
        a = float(rng.uniform(0.1, 3.0))
        x = rng.normal(size=(int(rng.integers(1, 7)), n))
        c = x.T @ x
        rhs = rng.normal(size=n * (d - 1))
        fast = solve_structured(a, d, c, rhs)
        dense = np.linalg.solve(dense_system(a, d, c), rhs)
        assert np.linalg.norm(fast - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))


def test_structured_solve_batched_columns():
    rng = np.random.default_rng(23)
    n, d = 3, 4
    x = rng.normal(size=(6, n))
    c = x.T @ x
    rhs = rng.normal(size=(n * (d - 1), 5))
    fast = solve_structured(1.5, d, c, rhs)
    dense = np.linalg.solve(dense_system(1.5, d, c), rhs)
    np.testing.assert_allclose(fast, dense, atol=1e-10)


# ---------------------------------------------------------------------------
# oracle agreement and the forecaster wrapper

def test_generalized_prediction_matches_quadrature():
    rng = np.random.default_rng(24)
    cases = [(1, 2), (2, 2), (1, 3), (3, 2), (1, 4)]
    for n, d in cases:
        history = []
        for _ in range(int(rng.integers(1, 4))):
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            history.append((rng.uniform(-1, 1, n), y))
        x_t = rng.uniform(-1, 1, n)
        a = float(rng.choice([0.5, 1.0, 2.0]))
        model = MaarForecaster(n, d, a)
        for x, y in history:
            model.update(x, y)
        closed = model.generalized(x_t)
        quad = quadrature_r(history, x_t, d=d, a=a)
        np.testing.assert_allclose(closed, quad, atol=1e-5)


def test_forecaster_incremental_matches_direct():
    # the maintained-inverse forecaster against the dense stacked solve
    rng = np.random.default_rng(25)
    n, d = 3, 4
    fast = MaarForecaster(n, d, 0.8)
    history = []
    for _ in range(60):
        x = rng.uniform(-1, 1, n)
        y = np.eye(d)[rng.integers(d)]
        direct = solve_substitution(dense_maar_r(history, x, d, 0.8))
        np.testing.assert_allclose(fast.predict(x).p, direct.p, atol=1e-9)
        fast.update(x, y)
        history.append((x, y))


@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n,d", [(3, 2), (4, 5)])
def test_forecaster_matches_dense_oracle_across_refreshes(n, d, a):
    rng = np.random.default_rng(27)
    model = MaarForecaster(n, d, a)
    history = []
    for step in range(2 * REFRESH_EVERY + 10):
        x = rng.uniform(-1, 1, n)
        y = np.eye(d)[rng.integers(d)]
        dense = solve_substitution(dense_maar_r(history, x, d, a))
        np.testing.assert_allclose(model.predict(x).p, dense.p, atol=1e-9)
        if step % 7 == 0:
            # a predict on another signal must not leak into the update for x
            model.predict(rng.uniform(-1, 1, n))
        model.update(list(x) if step % 2 else x, y)
        history.append((x, y))
    assert model.t == 2 * REFRESH_EVERY + 10


def _run(model, trials, seed=28):
    rng = np.random.default_rng(seed)
    n, d = model.n, model.d
    for _ in range(trials):
        x = rng.uniform(-1, 1, n)
        model.generalized(x)
        model.update(x, np.eye(d)[rng.integers(d)])
    return rng.uniform(-1, 1, n)


def test_corrupted_inverse_raises_naming_the_trial():
    model = MaarForecaster(3, 3, 1.0)
    x = _run(model, REFRESH_EVERY - 1)
    model._inv[0] *= 1.01   # still passes the denominator check, fails the refresh
    with pytest.raises(InvariantViolation, match=f"trial {REFRESH_EVERY}: inverse drift"):
        model.update(x, [1.0, 0.0, 0.0])

    model = MaarForecaster(3, 3, 1.0)
    x = _run(model, 10)
    model._inv[1] *= -1.0
    with pytest.raises(InvariantViolation, match="trial 11: Sherman-Morrison denominator"):
        model.predict(x)

    # three ridge lanes, one of them corrupted: the error names the trial and its ridge
    model = MaarForecaster(3, 3, LANES)
    x = _run(model, REFRESH_EVERY - 1)
    model._inv[1, 0] *= 1.01
    with pytest.raises(InvariantViolation, match=rf"trial {REFRESH_EVERY} at ridge 1\.0: inverse drift "):
        model.update(x, [1.0, 0.0, 0.0])

    model = MaarForecaster(3, 3, LANES)
    x = _run(model, 10)
    model._inv[2, 1] *= -1.0
    with pytest.raises(InvariantViolation, match=r"trial 11 at ridge 10\.0: Sherman-Morrison denominator "):
        model.generalized(x)


def test_non_positive_definite_refresh_raises_naming_the_trial():
    model = MaarForecaster(3, 3, 1.0)
    x = _run(model, REFRESH_EVERY - 1)
    model._c[:] = -1e3 * np.eye(3)
    with pytest.raises(InvariantViolation, match=f"trial {REFRESH_EVERY}: refresh found a system that is not"):
        model.update(x, [1.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation, match="trial 7:"):
        refresh_inverse(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 7)


@pytest.mark.parametrize("cls, stat", [(MaarForecaster, "h"), (CaarForecaster, "e")])
@pytest.mark.parametrize("fault", ["drift", "not positive definite"])
def test_failed_refresh_leaves_state_unchanged(cls, stat, fault):
    # one ridge, then three ridge lanes with the middle one corrupted (or every lane, whose
    # first one fails)
    first = r" at ridge 1\.0" if fault == "drift" else r" at ridge 0\.1"
    for ridge, lane, where in ((1.0, (), ""), (LANES, (1,), first)):
        model = cls(3, 3, ridge)
        x = _run(model, REFRESH_EVERY - 1)
        if fault == "drift":
            model._inv[lane + (0,)] *= 1.01
        else:
            model._c[:] = -1e3 * np.eye(3)
        model.generalized(x)
        before = (model.c, model._inv.copy(), getattr(model, stat).copy())
        with pytest.raises(InvariantViolation, match=f"trial {REFRESH_EVERY}{where}: "):
            model.update(x, [1.0, 0.0, 0.0])
        assert model.t == REFRESH_EVERY - 1
        for was, now in zip(before, (model.c, model._inv, getattr(model, stat))):
            np.testing.assert_array_equal(now, was)


def test_forecaster_run_check_passes():
    rng = np.random.default_rng(26)
    model = MaarForecaster(2, 3, 1.0)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        model.update(x, np.eye(3)[rng.integers(3)])
    model.run_check()
