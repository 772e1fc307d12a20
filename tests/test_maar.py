import numpy as np
import pytest

from simplexcast.bounds import solve_structured
from simplexcast.caar import CaarForecaster
from simplexcast.core import DimensionMismatch, InvariantViolation
from simplexcast.kaar import KaarForecaster, Kernel
from simplexcast import maar
from simplexcast.maar import EINSUM_FROM, REFRESH_EVERY, MaarForecaster, refresh_inverse
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
    lanes.generalized(np.ones(n))
    last = lanes._last
    with pytest.raises(ValueError, match=r"^predict takes one ridge; .*generalized.*lane\(g\)"):
        lanes.predict(np.zeros(n))
    assert lanes._last is last   # raised before the trial ran


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
def test_the_flat_factor_stack_splits_by_lane_and_names_the_ridge_of_each_factor(cls):
    grid = tuple(10.0**k for k in range(-3, 4))
    rng = np.random.default_rng(31)
    n, d, split = 3, 4, REFRESH_EVERY + 10
    xs, ys = rng.uniform(-1, 1, (split + 20, n)), np.eye(d)[rng.integers(d, size=split + 20)]
    lanes = cls(n, d, grid)
    lanes.run(xs[:split], ys[:split])
    size = 2 if cls is MaarForecaster else 1   # systems aI + C and aI + dC, or aI + B alone
    assert lanes._inv.shape == (len(grid) * size, n, n)
    for g, a in enumerate(grid):
        single, twin = cls(n, d, a), lanes.lane(g)
        single.run(xs[:split], ys[:split])
        for x in xs[split:]:
            np.testing.assert_array_equal(twin.predict(x).p, single.predict(x).p)
        np.testing.assert_array_equal(twin.run(xs[split:], ys[split:]), single.run(xs[split:], ys[split:]))
    # factor k = g S + j belongs to lane g, and names its ridge when it breaks
    for k in range(len(grid) * size):
        lanes._inv[k] *= -1.0
        with pytest.raises(InvariantViolation, match=rf"^trial {split + 1} at ridge {grid[k // size]!r}: "
                                                     "Sherman-Morrison denominator"):
            lanes.generalized(xs[split])
        lanes._inv[k] *= -1.0


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
# structured solve: the linear comparator's, in bounds, on the eigen-split MAAR uses

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


def test_structured_solve_takes_one_rhs_vector_of_its_length():
    c = np.eye(3)
    for rhs in (np.ones((6, 1)), np.ones((6, 2)), np.ones(5)):
        with pytest.raises(DimensionMismatch, match=r"^rhs has shape"):
            solve_structured(1.5, 3, c, rhs)


def test_structured_solve_rejects_input_that_is_not_finite_and_names_a_system_it_cannot_solve():
    for c, rhs in ((np.full((2, 2), np.nan), np.ones(4)), (np.eye(2), [1.0, np.inf, 0.0, 0.0])):
        with pytest.raises(ValueError, match="finite C and right-hand side"):
            solve_structured(1.5, 3, c, rhs)
    with pytest.raises(InvariantViolation, match=r"^at ridge 1e-300, aI \+ dC cannot be solved"):
        solve_structured(1e-300, 3, 1e300 * np.ones((2, 2)), np.ones(4))
    # the deviations' system alone is singular: C = -aI
    with pytest.raises(InvariantViolation, match=r"^at ridge 1.0, aI \+ C cannot be solved"):
        solve_structured(1.0, 3, -np.eye(2), np.arange(4.0))
    with pytest.raises(InvariantViolation, match=r"^at ridge 1e-300, aI \+ dC has a solution that is not finite"):
        solve_structured(1e-300, 2, np.array([[1e-300]]), np.array([1e300]))


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
    model._inv[2] *= 1.01
    with pytest.raises(InvariantViolation, match=rf"trial {REFRESH_EVERY} at ridge 1\.0: inverse drift "):
        model.update(x, [1.0, 0.0, 0.0])

    model = MaarForecaster(3, 3, LANES)
    x = _run(model, 10)
    model._inv[5] *= -1.0
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
    for ridge, lane, where in ((1.0, 0, ""), (LANES, 1, first)):
        model = cls(3, 3, ridge)
        x = _run(model, REFRESH_EVERY - 1)
        if fault == "drift":
            model._inv[lane * model._size] *= 1.01
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
    # the Cholesky rebuild that checks every maintained inverse, run off the refresh schedule
    rng = np.random.default_rng(26)
    model = MaarForecaster(2, 3, 1.0)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        model.update(x, np.eye(3)[rng.integers(3)])
    kept = model._inv.copy()
    fresh = model._refreshed(model._inv, model.c, model.t)
    np.testing.assert_allclose(fresh, kept, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(model._inv, kept)


# the rank-one step: w w' by one of two product kernels, chosen once per forecaster by size

@pytest.mark.parametrize("n", [1, 10, 33, 200])
@pytest.mark.parametrize("k", [1, 2, 14])
def test_both_product_kernels_give_the_broadcasting_step_and_an_exactly_symmetric_stack(n, k):
    rng = np.random.default_rng(n * k)
    w = rng.standard_normal((k, n))
    w[:, ::3] = 0.0   # zero entries, whose products with negatives are -0.0 by broadcasting
    sym = rng.standard_normal((k, n, n))
    sym = sym + sym.transpose(0, 2, 1)
    expected = w[:, :, None] * w[:, None, :]
    for outer in (maar._broadcast_outer, maar._einsum_outer):
        step = outer(w, np.empty((k, n, n)))
        np.testing.assert_array_equal(step, expected)   # equal values; only a zero's sign may differ
        np.testing.assert_array_equal(step, step.transpose(0, 2, 1))
        stepped = sym - step
        assert stepped.tobytes() == (sym - expected).tobytes()
        assert stepped.tobytes() == stepped.transpose(0, 2, 1).copy().tobytes()


@pytest.mark.parametrize("cls, n, lanes, outer", [
    (CaarForecaster, 10, 1, "broadcast"), (MaarForecaster, 10, 1, "broadcast"),   # K n^2 = 100, 200
    (MaarForecaster, 10, 7, "broadcast"), (MaarForecaster, 33, 1, "broadcast"),   # 1400, 2178
    (CaarForecaster, 50, 1, "einsum"), (MaarForecaster, 33, 7, "einsum"),         # 2500, 15246
    (CaarForecaster, 200, 1, "einsum"), (MaarForecaster, 200, 1, "einsum"),       # 40000, 80000
])
def test_each_forecaster_picks_its_product_kernel_once_from_the_size_of_its_stack(cls, n, lanes, outer):
    model = cls(n, 3, 1.0 if lanes == 1 else np.geomspace(0.1, 10.0, lanes))
    assert model._outer is getattr(maar, f"_{outer}_outer")
    assert (model._inv.size >= EINSUM_FROM) == (outer == "einsum")
    if lanes > 1:   # a lane split off picks by its own size
        assert model.lane(0)._outer is (maar._einsum_outer if model.lane(0)._inv.size >= EINSUM_FROM
                                        else maar._broadcast_outer)


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
@pytest.mark.parametrize("ridge", [1.0, LANES])
def test_a_refresh_rebuilds_the_stack_in_place_with_the_values_of_a_stacked_rebuild(cls, ridge):
    model = cls(4, 3, ridge)
    x = _run(model, REFRESH_EVERY - 1)
    y = np.array([0.0, 1.0, 0.0])
    inv, before, trial = model._inv, model._inv.copy(), model._trial(x.copy())
    _, u, _, den = trial
    w = u * np.sqrt(np.array(model._scales) / np.array(den))[:, None]
    model._commit(trial, y)
    c, eye = model._c, np.eye(model.n)   # C as the refresh summed it
    expected = np.stack([refresh_inverse(m, a * eye + s * c, REFRESH_EVERY)   # the rebuild as a new stack
                         for m, a, s in zip(before - w[:, :, None] * w[:, None, :], model._ridges, model._scales)])
    assert model.t == REFRESH_EVERY and model._inv is inv
    assert model._inv.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
def test_wide_forecasts_over_two_refreshes_equal_those_of_the_broadcasting_step(cls):
    rng = np.random.default_rng(31)
    n, d, t_len = 200, 3, 600
    signals = rng.uniform(-1, 1, (t_len, n))
    outcomes = np.eye(d)[rng.integers(d, size=t_len)]
    model, reference = cls(n, d, 1.0), cls(n, d, 1.0)
    assert model._outer is maar._einsum_outer
    reference._outer = maar._broadcast_outer
    assert model.run(signals, outcomes).tobytes() == reference.run(signals, outcomes).tobytes()
    assert model.t == t_len > 2 * REFRESH_EVERY
    assert model._inv.tobytes() == reference._inv.tobytes()


# ``run``: statistics per refresh window, rows after the loop, the same bits as the loop

def _loop(model, xs, ys):
    """The per-trial loop of ``run``: ``generalized`` then ``update`` on every trial."""
    rows = []
    for x, y in zip(xs, ys):
        rows.append(model.generalized(x))
        model.update(x, y)
    return np.array(rows).reshape((len(xs),) + np.shape(model.a) + (model.d,))


def _state(model):
    """The bytes of what a trial changes: t, the inverses, C and the statistics (h or E)."""
    stat = model.h if isinstance(model, MaarForecaster) else model.e
    return model.t, model._inv.tobytes(), model.c.tobytes(), stat.tobytes()


def _copy(model):
    """A forecaster in the state ``model`` has reached; the two share no arrays."""
    twin = type(model)(model.n, model.d, model.a)
    twin.t = model.t
    for name in ("_inv", "_stats", "_c", "_signals"):
        setattr(twin, name, getattr(model, name).copy())
    return twin


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
@pytest.mark.parametrize("n", [10, 200])
@pytest.mark.parametrize("ridge", [1.0, LANES])
def test_run_equals_the_loop_across_refresh_windows(cls, n, ridge):
    # runs that start at a window's first trial, inside one and at its last, and that end
    # before, at and after a refresh, or two refreshes on
    rng = np.random.default_rng(n)
    d, most = 3, 255 + 600
    xs, ys = rng.uniform(-1, 1, (most, n)), np.eye(d)[rng.integers(d, size=most)]
    ys[::4] = rng.dirichlet(np.ones(d), size=len(ys[::4]))   # outcomes inside the simplex too
    for start in (0, 100, 255):
        before = cls(n, d, ridge)
        _loop(before, xs[:start], ys[:start])
        for t_len in (0, 1, 255, 256, 257, 600):
            fast, slow = _copy(before), _copy(before)
            trials = slice(start, start + t_len)
            got, want = fast.run(xs[trials], ys[trials]), _loop(slow, xs[trials], ys[trials])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (start, t_len)
            assert _state(fast) == _state(slow), (start, t_len)
            if ridge == LANES:   # a lane split off after the run is the one split off after the loop
                for g in range(len(LANES)):
                    twin, single = fast.lane(g), slow.lane(g)
                    assert _state(twin) == _state(single)
                    assert twin.run(xs[-3:], ys[-3:]).tobytes() == _loop(single, xs[-3:], ys[-3:]).tobytes()


@pytest.mark.parametrize("cls", [MaarForecaster, CaarForecaster])
@pytest.mark.parametrize("ridge", [1.0, LANES])
@pytest.mark.parametrize("fault", ["denominator", "drift", "not positive definite"])
def test_a_run_that_fails_leaves_the_state_and_message_of_the_loop_stopped_there(cls, ridge, fault):
    rng = np.random.default_rng(29)
    n, d, start, t_len = 4, 3, 100, 300   # the run starts inside a refresh window, and spans its end
    xs, ys = rng.uniform(-1, 1, (start + t_len, n)), np.eye(d)[rng.integers(d, size=start + t_len)]
    model = cls(n, d, ridge)
    model.run(xs[:start], ys[:start])
    k = model._size if ridge == LANES else 0   # the first factor of the middle lane, or the only lane
    if fault == "denominator":   # an inverse broken along e_0, which the signals reach at trial start + 41
        xs[start:start + 40, 0], xs[start + 40, 0] = 0.0, 0.5
        model._inv[k, 0, 0] -= 1e3
        failing = start + 41
    elif fault == "drift":       # passes every denominator check, fails the refresh
        model._inv[k] *= 1.01
        failing = REFRESH_EVERY
    else:
        model._c[:] = -1e3 * np.eye(n)
        failing = REFRESH_EVERY
    loop = _copy(model)
    with pytest.raises(InvariantViolation, match=f"^trial {failing}") as ran:
        model.run(xs[start:], ys[start:])
    with pytest.raises(InvariantViolation) as looped:
        _loop(loop, xs[start:], ys[start:])
    assert str(ran.value) == str(looped.value)
    assert fault in str(ran.value) or fault == "denominator" and "Sherman-Morrison denominator" in str(ran.value)
    assert model.t == failing - 1
    assert _state(model) == _state(loop)
