import numpy as np
import pytest

from simplexcast.core import DimensionMismatch, ProbabilityVector, check_outcome, check_trials

from oracle import brier_loss


def test_brier_worked_example():
    assert brier_loss(np.eye(3)[0], np.array([0.5, 0.25, 0.25])) == 0.375


def test_brier_identity_is_zero():
    u = ProbabilityVector([1 / 3, 1 / 3, 1 / 3])
    assert brier_loss(u, u) == 0.0


def test_brier_two_class_direct_arithmetic():
    # 0.3^2 + 0.3^2
    assert brier_loss(np.eye(2)[0], [0.7, 0.3]) == pytest.approx(0.18, abs=1e-15)


def test_brier_symmetric_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(2, 7)
        a = rng.dirichlet(np.ones(d))
        b = rng.dirichlet(np.ones(d))
        assert brier_loss(a, b) == pytest.approx(brier_loss(b, a))
        assert brier_loss(a, b) >= 0.0
        assert brier_loss(a, a) == 0.0


def test_brier_max_two_for_one_hot_against_different_vertex():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        y = np.eye(d)[int(rng.integers(d))]
        g = rng.dirichlet(np.ones(d))
        assert brier_loss(y, g) <= 2.0 + 1e-12
    assert brier_loss(np.eye(4)[0], np.eye(4)[1]) == 2.0


def test_brier_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        brier_loss([1.0, 0.0], [1.0, 0.0, 0.0])


def test_probability_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([1.5, -0.5])
    with pytest.raises(ValueError):
        ProbabilityVector([np.nan, 1.0])


def test_probability_vector_is_readonly():
    p = ProbabilityVector([0.25, 0.75])
    with pytest.raises(ValueError):
        p.p[0] = 0.9


def test_probability_vectors_compare_and_hash_by_value():
    p = ProbabilityVector([0.5, 0.5])
    assert p == ProbabilityVector([0.5, 0.5]) and hash(p) == hash(ProbabilityVector(np.array([0.5, 0.5])))
    assert p != ProbabilityVector([0.25, 0.75]) and p != ProbabilityVector([0.5, 0.5, 0.0])
    assert ProbabilityVector([1.0, 0.0]) == ProbabilityVector([1.0, -0.0])
    assert hash(ProbabilityVector([1.0, 0.0])) == hash(ProbabilityVector([1.0, -0.0]))
    # another type never equals, even with the same entries
    assert p != (0.5, 0.5) and p != [0.5, 0.5]
    assert len({p, ProbabilityVector([0.5, 0.5]), ProbabilityVector([0.25, 0.75])}) == 2
    assert {p: 1}[ProbabilityVector([0.5, 0.5])] == 1
    assert p.d == len(p) == 2 and np.array_equal(np.asarray(p), [0.5, 0.5])


def test_check_outcome_takes_the_points_of_the_simplex_within_its_tolerances():
    for y in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [1.0 - 1e-13, -1e-13, 2e-13], [0.5, 0.5 + 0.9e-9]):
        np.testing.assert_array_equal(check_outcome(y, len(y)), y)
        np.testing.assert_array_equal(check_trials(np.zeros((1, 1)), [y], 1, len(y)).outcomes, [y])
    for y in ([3.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.5, -0.5], [1.0 + 1e-11, -1e-11], [0.5, 0.5 + 1.1e-9], []):
        with pytest.raises(ValueError, match=r"^outcome \[.*\] is not on the simplex$"):
            check_outcome(y, len(y))
        with pytest.raises(ValueError, match=r"^trial 4: outcome \[.*\] is not on the simplex$"):
            check_trials(np.zeros((1, 1)), [y], 1, len(y), first=4)
    with pytest.raises(DimensionMismatch, match="^outcome has length 1, expected 2"):
        check_outcome([1.0], 2)


def test_the_whole_array_outcome_check_agrees_with_the_per_trial_one_at_the_tolerance():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 9):
        rows = rng.dirichlet(np.ones(d), size=400)
        rows[:, 0] += np.linspace(-2e-9, 2e-9, 400)   # sums on both sides of SUM_TOL
        for row in rows:
            try:
                check_outcome(row, d)
                ok = True
            except ValueError:
                ok = False
            try:
                check_trials(np.zeros((1, 1)), row[None], 1, d)
                whole = True
            except ValueError as exc:
                assert "not on the simplex" in str(exc)
                whole = False
            assert ok == whole
