import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast import kaar
from simplexcast.cli import main
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


def test_the_loaded_fortran_routines_equal_scipy_linalg_s_bit_for_bit():
    # the routines KAAR and the kernel guarantee call, with their flags, on random inputs: a
    # scipy release that moves or changes these compiled modules fails the tests
    from scipy.linalg import blas, lapack
    rng = np.random.default_rng(5)
    for t in (1, 2, 7, 40):
        spd = rng.standard_normal((t, t))
        spd = spd @ spd.T + t * np.eye(t)
        lower = np.linalg.cholesky(spd)
        packed = np.concatenate([lower[j, :j + 1] for j in range(t)])   # L' in packed storage
        border = rng.standard_normal(t)
        ours, theirs = border.copy(), border.copy()
        kaar.dtpsv(t, packed, ours, 1, 0, 0, 1, 0, 1)
        blas.dtpsv(t, packed, theirs, 1, 0, 0, 1, 0, 1)
        assert ours.tobytes() == theirs.tobytes()
        flapack = kaar._fortran("_flapack")
        factor, info = flapack.dpotrf(spd.T.copy(), lower=1, clean=0, overwrite_a=1)
        expected, expected_info = lapack.dpotrf(spd.T.copy(), lower=1, clean=0, overwrite_a=1)
        assert info == expected_info == 0 and factor.tobytes() == expected.tobytes()
        rhs = rng.standard_normal((t, 3))
        assert flapack.dpotrs(factor, rhs, lower=1)[0].tobytes() == lapack.dpotrs(factor, rhs, lower=1)[0].tobytes()


def test_the_loader_caches_each_module_and_names_a_missing_one():
    assert kaar._fortran("_fblas") is kaar._fortran("_fblas")
    assert kaar._fortran("_fblas").dtpsv is kaar.dtpsv
    with pytest.raises(ImportError, match=r"linalg.*_no_such_module"):
        kaar._fortran("_no_such_module")


@pytest.mark.parametrize("first", ["simplexcast", "scipy.linalg"])
def test_scipy_linalg_has_its_compiled_modules_as_attributes_whichever_loads_them_first(first):
    # the loader leaves no entry in sys.modules under scipy's names, so a later import of
    # scipy.linalg sets both attributes; after that import, the loader takes scipy.linalg's own
    # modules.  Either way the routines are the very objects KAAR and the kernel guarantee call.
    kernel_guarantee = (
        "import numpy as np\n"
        "from simplexcast import kaar\n"
        "from simplexcast.bounds import best_kernel_expert\n"
        "rng = np.random.default_rng(3)\n"
        "data = [(rng.uniform(-1, 1, 2), np.eye(3)[rng.integers(3)]) for _ in range(8)]\n"
        "best_kernel_expert(data, kaar.Kernel('rbf'), 1.0)\n"
    )
    linalg = "import scipy.linalg\nfrom scipy.linalg import blas, lapack\n"
    script = "import sys\n" + (
        kernel_guarantee + "assert 'scipy.linalg' not in sys.modules\n" + linalg if first == "simplexcast"
        else linalg + kernel_guarantee) + (
        "assert scipy.linalg._fblas.dtpsv is blas.dtpsv is kaar.dtpsv\n"
        "assert scipy.linalg._flapack.dpotrf is lapack.dpotrf is kaar._fortran('_flapack').dpotrf\n"
        "assert scipy.linalg._flapack.dpotrs is lapack.dpotrs is kaar._fortran('_flapack').dpotrs\n"
        "for name in ('_fblas', '_flapack'):\n"
        "    assert sys.modules['scipy.linalg.' + name] is getattr(scipy.linalg, name)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kaar.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_tracer_s_scipy_linalg_names_resolve_on_demand():
    import scipy.linalg
    for name in ("cholesky", "cho_solve", "solve_triangular"):
        assert getattr(kaar, name) is getattr(scipy.linalg, name)
        assert vars(kaar)[name] is getattr(scipy.linalg, name)   # stored, for the tracer to patch
    with pytest.raises(AttributeError, match="no attribute 'cholesky_banded'"):
        kaar.cholesky_banded


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
            rows = [kernel._pairs(x[None], xs)[0] for x in xs]   # one row, as a trial takes it
            np.testing.assert_array_equal(gram, np.array(rows).reshape(t_len, t_len))
            differences = [kernel._of(np.einsum("ij,ij->i", xs - x, xs - x)) for x in xs]
            np.testing.assert_array_equal(gram, np.array(differences).reshape(t_len, t_len))
            lead = t_len // 3   # a run's block: the trials after the first t_len // 3
            block = kernel._rows(xs, xs[lead:], lead)
            for i, row in enumerate(block):
                np.testing.assert_array_equal(row[:lead + i], gram[lead + i, :lead + i])
            np.testing.assert_array_equal(gram, gram.T)
            np.testing.assert_array_equal(np.diagonal(gram), 1.0)


@pytest.mark.parametrize("norm", [1e2, 1e4, 1e6])
def test_rbf_values_at_large_norms_match_kernel_eval(norm, monkeypatch):
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
    seen, pairs, at = [], Kernel._pairs, Kernel._at   # the kernel row and K(x, x) a trial takes
    monkeypatch.setattr(Kernel, "_pairs", lambda self, xs, stored: seen.append(pairs(self, xs, stored)) or seen[-1])
    monkeypatch.setattr(Kernel, "_at", lambda self, x: seen.append(at(self, x)) or seen[-1])
    model.generalized(pts[-1])
    (row,), kxx = seen
    np.testing.assert_allclose(row, direct[-1, :-1], rtol=0, atol=1e-12)
    assert kxx == 1.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("rbf", sigma=0.0)
    # 2 sigma^2 divides every squared distance: it must neither underflow to 0 nor overflow
    for sigma in (1e-170, 1e-162, float("inf"), 1e154, np.float64(1e200), float("nan"), -1.0):
        with pytest.raises(ValueError, match=r"^rbf width must make 2 sigma\^2, .* positive and finite"):
            Kernel("rbf", sigma=sigma)
    assert Kernel("rbf", sigma=1e-150)([0.0], [0.0]) == 1.0 and Kernel("rbf", sigma=1e150)([0.0], [1.0]) == 1.0
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


def test_signals_that_overflow_the_kernel_give_its_value_or_invariant_violation_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy overflow warning on the way
        # an rbf difference past the float range is an entry of 0, which is right
        assert Kernel("rbf")([1e308], [-1e308]) == 0.0
        np.testing.assert_array_equal(Kernel("rbf").gram([[1e308], [-1e308]]), np.eye(2))
        model = KaarForecaster(3, Kernel("rbf"), 1.0)
        model.update([1e308], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(model.predict([-1e308]).p, KaarForecaster(3, Kernel("rbf")).predict([0.0]).p)
        # a dot or poly product past it is inf, which gram and the kernel-row check reject
        for kind in ("dot", "poly"):
            with pytest.raises(InvariantViolation, match=f"^{kind} kernel value overflows to inf$"):
                Kernel(kind).gram([[1e200], [1.0]])
        with pytest.raises(InvariantViolation, match="trial 1: kernel row is not finite"):
            KaarForecaster(3, Kernel("dot")).predict([1e200])


def test_a_dot_or_poly_kernel_value_that_overflows_raises_where_rbf_s_is_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the typed error alone: no numpy overflow warning first
        # x.y = 0 here, but its products overflow: inf was returned, a silently wrong value
        for kernel in (Kernel("dot"), Kernel("poly", degree=3)):
            with pytest.raises(InvariantViolation, match=f"^{kernel.kind} kernel value overflows"):
                kernel([1e200, 1e200], [1e200, -1e200])
        with pytest.raises(InvariantViolation, match="^poly kernel value overflows to inf"):
            Kernel("poly", degree=3)([1e110], [1e110])   # the product is finite, its power is not
        assert Kernel("rbf")([1e200, 1e200], [1e200, -1e200]) == 0.0
        assert Kernel("poly", degree=3)([1e50], [1e50]) == pytest.approx(1e300, rel=1e-14)   # large, finite: kept


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


def test_buffers_that_cannot_be_allocated_raise_value_error_naming_their_size(monkeypatch, tmp_path):
    empty = np.empty

    def refuse_large(shape, *args, **kwargs):   # no gigabytes are ever asked for
        if math.prod(np.atleast_1d(shape)) > 10**8:
            raise MemoryError(f"Unable to allocate an array of shape {shape}")
        return empty(shape, *args, **kwargs)

    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1, 1, (20005, 2)), np.eye(3)[rng.integers(3, size=20005)]
    model, fresh = KaarForecaster(3, Kernel("rbf"), [0.1, 1.0]), KaarForecaster(3, Kernel("rbf"), [0.1, 1.0])
    model.run(xs[:5], ys[:5])
    fresh.run(xs[:5], ys[:5])
    monkeypatch.setattr(np, "empty", refuse_large)
    with pytest.raises(ValueError, match=r"^KAAR cannot hold 20005 trials: 4 factors \(2 ridge lanes x 2 systems\) "
                                         r"need 6\.0 GiB; a fixed --ridge keeps one lane$") as info:
        model.run(xs[5:], ys[5:])
    assert isinstance(info.value.__cause__, MemoryError)
    monkeypatch.undo()
    assert model.t == 5   # the state is as it was
    np.testing.assert_array_equal(model.run(xs[5:50], ys[5:50]), fresh.run(xs[5:50], ys[5:50]))
    # through the CLI: an input error, exit 2, where numpy's own MemoryError exited 1
    monkeypatch.setattr(np, "empty", refuse_large)
    result = CliRunner().invoke(main, ["bench", "--algos", "kaar", "--kernel", "rbf", "--synth", "sine",
                                       "--length", "20000", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert re.search(r"error: KAAR cannot hold 6663 trials: 14 factors \(7 ridge lanes x 2 systems\) need "
                     r"2\.3 GiB; a fixed --ridge keeps one lane", result.output)


def test_a_failing_lane_names_the_trial_the_system_and_its_ridge(monkeypatch):
    grid = list(DEFAULT_RIDGE_GRID)
    data = random_stream(2, 3, 30, seed=51)
    # K(x, x) = -1 at trial 17 leaves aI+dK without a positive pivot in the smallest-ridge lane
    # first; run and the per-trial steps both take K(x, x) from Kernel._at
    at = Kernel._at

    def bad_diagonal_at_17(self, xa):
        return -1.0 if np.array_equal(xa, data[16][0]) else at(self, xa)

    monkeypatch.setattr(Kernel, "_at", bad_diagonal_at_17)
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


def _loop(model, xs, ys):
    """generalized then update on every trial, as ``run`` is specified."""
    rows = []
    for x, y in zip(xs, ys):
        rows.append(model.generalized(x))
        model.update(x, y)
    return np.array(rows)


@pytest.mark.parametrize("kernel", [Kernel("dot"), Kernel("rbf", sigma=2.0), Kernel("poly", degree=3)],
                         ids=["dot", "rbf", "poly"])
@pytest.mark.parametrize("d,a", [(2, 0.5), (4, [0.01, 1.0, 100.0])])
def test_run_equals_the_loop_across_kernel_blocks_bit_for_bit(kernel, d, a):
    # n = 20: a block, and an rbf tile, holds 40 trials and 40 columns; the runs start at
    # t = 0 and t = 45 and span several blocks, each with several column tiles
    rng = np.random.default_rng(d)
    xs, ys = rng.uniform(-1, 1, (175, 20)), np.eye(d)[rng.integers(d, size=175)]
    assert kaar._tile_side(20) == 40
    loop, model = KaarForecaster(d, kernel, a), KaarForecaster(d, kernel, a)
    expected = _loop(loop, xs, ys)
    np.testing.assert_array_equal(model.run(xs[:45], ys[:45]), expected[:45])
    np.testing.assert_array_equal(model.run(xs[45:], ys[45:]), expected[45:])
    _assert_same_state(_state(model), _state(loop))
    np.testing.assert_array_equal(model.generalized(xs[0]), loop.generalized(xs[0]))


@pytest.mark.parametrize("fault", ["kernel value", "kernel row", "pivot"])
@pytest.mark.parametrize("a", [0.5, [0.01, 1.0, 100.0]], ids=["one ridge", "lanes"])
def test_a_run_that_fails_leaves_the_state_and_message_of_the_loop_stopped_there(fault, a, monkeypatch):
    # trial 71 fails: in the second block of a run that starts at t = 25 (n = 20, blocks of 40)
    rng = np.random.default_rng(52)
    xs, ys = rng.uniform(-1, 1, (100, 20)), np.eye(3)[rng.integers(3, size=100)]
    kernel = Kernel("poly", degree=3)
    if fault == "kernel value":
        xs[70] = 1e110   # (x.x + 1)^3 and every row entry overflow
    elif fault == "kernel row":
        # a NaN in trial 71's row only, by the formula that run and the loop both take, while
        # K(x, x) stays 1
        kernel, pairs = Kernel("rbf", sigma=1.0), Kernel._pairs

        def nan_in_row_71(self, rows, stored):
            out = pairs(self, rows, stored)
            out[(rows == xs[70]).all(axis=1)] = np.nan
            return out

        monkeypatch.setattr(Kernel, "_pairs", nan_in_row_71)
    else:
        at = Kernel._at
        monkeypatch.setattr(Kernel, "_at", lambda self, x: -1e9 if np.array_equal(x, xs[70]) else at(self, x))
    loop, model = KaarForecaster(3, kernel, a), KaarForecaster(3, kernel, a)
    _loop(loop, xs[:25], ys[:25])
    model.run(xs[:25], ys[:25])
    with pytest.raises(InvariantViolation) as stopped:
        _loop(loop, xs[25:], ys[25:])
    with pytest.raises(InvariantViolation) as failed:
        model.run(xs[25:], ys[25:])
    assert str(failed.value) == str(stopped.value)
    named = "trial 71 at ridge 0.01: aI+dK" if fault == "pivot" and np.ndim(a) else "trial 71: "
    assert str(failed.value).startswith(named)
    assert model.t == 70
    _assert_same_state(_state(model), _state(loop))
    monkeypatch.undo()   # the trials after the faulty one go on as the loop does
    np.testing.assert_array_equal(model.run(xs[71:], ys[71:]), _loop(loop, xs[71:], ys[71:]))


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
    pivot = lanes[0][1] + d * -1e9 - 0.0
    with (mock.patch.object(Kernel, "_pairs", lambda self, xs, stored: np.zeros((len(xs), len(stored)))),
          mock.patch.object(Kernel, "_at", lambda self, xa: -1e9)):
        with pytest.raises(InvariantViolation, match="^" + re.escape(
                f"{trial_name(t + 1, lanes[0][0])}: aI+dK has pivot {pivot!r}, not positive definite") + "$"):
            loop.generalized(x)
    k = data.draw(st.integers(0, systems * len(lanes) - 1))
    loop._packed[k, 0] = np.nan
    g, j = divmod(k, systems)
    with pytest.raises(InvariantViolation, match="^" + re.escape(
            f"{trial_name(t + 1, lanes[g][0])}: {kaar._SYSTEMS[j]} has pivot nan, not positive definite") + "$"):
        loop.generalized(x)
    assert loop.t == t


def test_the_first_stored_signal_fixes_the_length_even_after_a_failed_run():
    # a run that fails at its first trial has reserved rows for 3-long signals but stored none
    model = KaarForecaster(3, Kernel("dot"))
    with pytest.raises(InvariantViolation, match="^trial 1: kernel row is not finite$"):
        model.run([[1e200, 0.0, 0.0], [1.0, 0.0, 0.0]], np.eye(3)[:2])
    model.predict([1.0, 0.5, 0.0, 0.0])   # nor does a prediction fix it
    fresh = KaarForecaster(3, Kernel("dot"))
    for m in (model, fresh):
        m.update([1.0, 2.0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(model.generalized([0.5, -1.0]), fresh.generalized([0.5, -1.0]))
    _assert_same_state(_state(model), _state(fresh))
