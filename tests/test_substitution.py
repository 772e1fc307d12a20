import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast import substitution
from simplexcast.core import InvariantViolation
from simplexcast.substitution import solve_substitution, substitute_rows

from oracle import brier_loss, substitution_threshold


def bisect_threshold(r, lo=-1e6, hi=1e6, iters=200):
    """Independent oracle: bisection on the monotone map s -> sum (s - r_i)^+."""
    r = np.asarray(r, dtype=float)
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if np.maximum(mid - r, 0.0).sum() < 2.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_uniform_for_zero_r():
    out = solve_substitution([0.0, 0.0, 0.0])
    assert substitution_threshold([0.0, 0.0, 0.0]) == pytest.approx(2 / 3)
    np.testing.assert_allclose(out.p, [1 / 3, 1 / 3, 1 / 3])


def test_worked_instance_against_bisection_oracle():
    r = [0.0, 1.0, 4.0]
    s = substitution_threshold(r)
    assert s == pytest.approx(bisect_threshold(r), abs=1e-9)
    assert s == pytest.approx(1.5)
    np.testing.assert_allclose(solve_substitution(r).p, [0.75, 0.25, 0.0], atol=1e-15)


def test_constant_r_gives_uniform():
    for c in (-7.3, 0.0, 1e4):
        out = solve_substitution([c, c, c, c])
        np.testing.assert_allclose(out.p, np.full(4, 0.25), atol=1e-12)


def test_matches_bisection_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        r = rng.normal(scale=3.0, size=d)
        assert substitution_threshold(r) == pytest.approx(bisect_threshold(r), abs=1e-8)


def test_output_in_simplex_and_residual():
    rng = np.random.default_rng(4)
    for _ in range(500):
        d = int(rng.integers(2, 9))
        r = rng.normal(scale=rng.uniform(0.1, 5.0), size=d)
        s = substitution_threshold(r)
        gamma = solve_substitution(r)
        assert abs(np.maximum(s - r, 0.0).sum() - 2.0) < 1e-12
        assert gamma.p.min() >= 0.0
        assert abs(gamma.p.sum() - 1.0) < 1e-12


def test_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        r = rng.normal(size=d)
        c = rng.uniform(-10, 10)
        base = solve_substitution(r).p
        shifted = solve_substitution(r + c).p
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_monotonicity_in_r():
    rng = np.random.default_rng(6)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        r = rng.normal(size=d)
        g = solve_substitution(r).p
        order = np.argsort(r)
        assert np.all(np.diff(g[order]) <= 1e-15)


def test_ties_break_consistently():
    # permuting tied entries permutes the (equal) outputs
    r = np.array([1.0, 1.0, 0.5, 1.0])
    g = solve_substitution(r).p
    assert g[0] == g[1] == g[3]
    perm = np.array([3, 0, 2, 1])
    np.testing.assert_array_equal(solve_substitution(r[perm]).p, g[perm])


def test_superprediction_property_on_oracle_generalized_predictions():
    # The substitution guarantee lambda(y, gamma) <= g(y) holds for genuine
    # generalized predictions; with the common shift removed that reads
    # loss(vertex i) - loss(vertex d) <= r_i.  Check it on r produced by the
    # quadrature oracle over small random games.
    from oracle import quadrature_r

    rng = np.random.default_rng(7)
    for _ in range(6):
        d = int(rng.integers(2, 4))
        n = 1 if d == 3 else int(rng.integers(1, 3))
        t_hist = int(rng.integers(0, 4))
        history = []
        for _ in range(t_hist):
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            history.append((rng.uniform(-1, 1, n), y))
        x_t = rng.uniform(-1, 1, n)
        r = quadrature_r(history, x_t, d=d, a=1.0)
        gamma = solve_substitution(r)
        loss = np.array([brier_loss(np.eye(d)[i], gamma.p) for i in range(d)])
        gaps = loss - loss[-1]
        assert np.all(gaps <= r + 1e-6)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        solve_substitution([np.nan, 0.0])
    with pytest.raises(ValueError):
        solve_substitution([np.inf, 0.0])


def test_rejects_single_class():
    with pytest.raises(ValueError):
        solve_substitution([0.0])


def _row_cases(rng):
    """Random rows at several scales, rows with ties and one-hot rows, for d = 2..12."""
    for d in range(2, 13):
        for scale in (1e-3, 1.0, 1e3):
            rows = rng.standard_normal((24, d)) * scale + 1.0 / d
            rows[::4, 1] = rows[::4, 0]                     # a tie
            rows[1::4] = rows[1::4, :1]                     # all equal
            rows[2::4] = np.eye(d)[rng.integers(d, size=len(rows[2::4]))]   # one-hot
            yield rows


def test_substitute_rows_equals_solve_substitution_bit_for_bit():
    rng = np.random.default_rng(60)
    for rows in _row_cases(rng):
        out = substitute_rows(rows)
        assert out.shape == rows.shape
        for row, got in zip(rows, out):
            np.testing.assert_array_equal(got, solve_substitution(row).p)


def test_substitute_rows_rejects_bad_batches():
    for bad in (np.ones(3), np.ones((2, 1)), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            substitute_rows(bad)


def test_forecasts_that_rounding_pushes_off_the_simplex_raise_invariant_violation(monkeypatch):
    # a correct scan lands on the simplex at any magnitude, so a bad threshold is forced
    monkeypatch.setattr(substitution, "_threshold", lambda arr: 1.0)
    with pytest.raises(InvariantViolation, match="left the simplex"):
        solve_substitution([0.0, 0.0, 0.0])
    thresholds = substitution._row_thresholds

    def one_off(arr):
        s = thresholds(arr)
        s[1] = 1.0
        return s

    monkeypatch.setattr(substitution, "_row_thresholds", one_off)
    with pytest.raises(InvariantViolation, match=r"at row 1: \[0\.5, 0\.5, 0\.5\]") as info:
        substitute_rows(np.zeros((3, 3)))
    assert info.value.row == 1


def test_the_scan_is_shift_invariant_at_any_magnitude():
    # at 5e15 an unshifted scan rounds the threshold to r + 1 and every gamma_i to 1/2
    for big in (5e15, 1e308):
        np.testing.assert_array_equal(solve_substitution([big] * 3).p, np.full(3, 1 / 3))
        rows = np.zeros((3, 3))
        rows[1] = big
        np.testing.assert_array_equal(substitute_rows(rows), np.full((3, 3), 1 / 3))
    np.testing.assert_array_equal(solve_substitution([1e17, 1e17 + 64.0, 3e17]).p, [1.0, 0.0, 0.0])
    assert substitution_threshold([5e15] * 3) == 5e15 + 2 / 3   # the true s, rounded


@st.composite
def _scan_rows(draw):
    """A row of d = 2..12 finite floats at a magnitude 10^e, e in -300..300: random, with a
    tie, all equal, or one-hot."""
    d = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.integers(-300, 300))
    base = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    kind = draw(st.sampled_from(["random", "tie", "equal", "one-hot"]))
    if kind == "tie":
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        base[j] = base[i]
    elif kind == "equal":
        base = [base[0]] * d
    elif kind == "one-hot":
        base = [0.0] * d
        base[draw(st.integers(0, d - 1))] = 1.0
    return [v * scale for v in base]


@settings(max_examples=300, deadline=None)
@given(_scan_rows())
def test_the_row_scan_equals_the_batch_scan_bit_for_bit(row):
    np.testing.assert_array_equal(substitution._forecast(row).p, substitute_rows([row])[0])


@pytest.mark.parametrize("bad", [[0.0, math.nan, 1.0], [math.inf, 0.0], [0.0, -math.inf, 0.0]])
def test_a_non_finite_row_is_invariant_violation_not_value_error(bad):
    with pytest.raises(InvariantViolation, match="not finite") as info:
        substitution._forecast(bad)
    assert not isinstance(info.value, ValueError)
