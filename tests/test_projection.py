import numpy as np
import pytest

from simplexcast.projection import project_to_simplex
from simplexcast.substitution import substitute_rows

from oracle import brier_loss, qp_projection
from test_substitution import _row_cases


def test_fixed_point_on_interior():
    np.testing.assert_allclose(project_to_simplex([1 / 3, 1 / 3, 1 / 3]).p, [1 / 3, 1 / 3, 1 / 3])


def test_worked_instances_match_enumeration_oracle():
    for v in ([0.8, 0.4, -0.2], [2.0, 0.0, 0.0]):
        np.testing.assert_allclose(project_to_simplex(v).p, qp_projection(v), atol=1e-12)
    np.testing.assert_allclose(project_to_simplex([0.8, 0.4, -0.2]).p, [0.7, 0.3, 0.0], atol=1e-15)
    np.testing.assert_allclose(project_to_simplex([2.0, 0.0, 0.0]).p, [1.0, 0.0, 0.0], atol=1e-15)


def test_all_negative_input_goes_to_nearest_vertex():
    v = [-3.0, -1.0, -2.0]
    expected = qp_projection(v)
    np.testing.assert_allclose(project_to_simplex(v).p, expected, atol=1e-12)
    assert expected[1] == 1.0  # the least negative coordinate wins


def test_matches_enumeration_on_random_points():
    rng = np.random.default_rng(10)
    for d in range(2, 9):
        for _ in range(60):
            v = rng.normal(scale=rng.uniform(0.2, 3.0), size=d)
            np.testing.assert_allclose(project_to_simplex(v).p, qp_projection(v), atol=1e-10)


def test_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 8))
        g = project_to_simplex(rng.normal(size=d)).p
        np.testing.assert_allclose(project_to_simplex(g).p, g, atol=1e-12)


def test_optimality_against_random_simplex_points():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        v = rng.normal(scale=2.0, size=d)
        proj = project_to_simplex(v).p
        base = np.sum((proj - v) ** 2)
        candidates = rng.dirichlet(np.ones(d), size=1000)
        dists = np.sum((candidates - v) ** 2, axis=1)
        assert base <= dists.min() + 1e-12


def test_loss_domination_for_simplex_outcomes():
    # projecting can only reduce the squared-distance loss against any
    # outcome inside the simplex
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        v = rng.normal(scale=2.0, size=d)
        proj = project_to_simplex(v).p
        for y in rng.dirichlet(np.ones(d), size=100):
            assert brier_loss(y, proj) <= brier_loss(y, v) + 1e-12


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        project_to_simplex([np.nan, 0.5])
    with pytest.raises(ValueError):
        project_to_simplex([np.inf, 0.5])


def test_single_coordinate():
    np.testing.assert_array_equal(project_to_simplex([5.0]).p, [1.0])


def test_substitute_rows_of_minus_two_rows_equals_project_to_simplex_bit_for_bit():
    rng = np.random.default_rng(61)
    for rows in _row_cases(rng):
        out = substitute_rows(-2.0 * rows)
        assert out.shape == rows.shape
        for row, got in zip(rows, out):
            np.testing.assert_array_equal(got, project_to_simplex(row).p)


def test_a_point_of_huge_magnitude_projects_to_the_right_simplex_point():
    # -2v = -2e17 would absorb the 2 the scan adds, but the scan first subtracts min(-2v)
    np.testing.assert_array_equal(project_to_simplex([1e17, 1e17]).p, [0.5, 0.5])
    np.testing.assert_array_equal(project_to_simplex([1e17, 1e17 - 1e3]).p, [1.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_a_point_near_the_float_limit_projects_without_overflow():
    # v less max(v) is scaled, so -2v never overflows, and gaps below -2 are clipped
    np.testing.assert_array_equal(project_to_simplex([1e308, 0.0]).p, [1.0, 0.0])
    np.testing.assert_array_equal(project_to_simplex([1e308, -1e308]).p, [1.0, 0.0])
    np.testing.assert_array_equal(project_to_simplex([-1e308, 1e308, 1e308]).p, [0.0, 0.5, 0.5])
