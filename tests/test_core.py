import numpy as np
import pytest

from simplexcast.core import (
    DimensionMismatch,
    PredictionVector,
    ProbabilityVector,
    Vertex,
    brier_loss,
    vertex_to_probability,
)


def test_brier_worked_example():
    y = vertex_to_probability(Vertex(1), 3)
    g = PredictionVector([0.5, 0.25, 0.25])
    assert brier_loss(y, g) == 0.375


def test_brier_identity_is_zero():
    u = ProbabilityVector([1 / 3, 1 / 3, 1 / 3])
    assert brier_loss(u, u) == 0.0


def test_brier_two_class_direct_arithmetic():
    # 0.3^2 + 0.3^2
    y = vertex_to_probability(1, 2)
    assert brier_loss(y, PredictionVector([0.7, 0.3])) == pytest.approx(0.18, abs=1e-15)


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
        y = vertex_to_probability(int(rng.integers(1, d + 1)), d)
        g = rng.dirichlet(np.ones(d))
        assert brier_loss(y, g) <= 2.0 + 1e-12
    assert brier_loss(vertex_to_probability(1, 4), vertex_to_probability(2, 4)) == 2.0


def test_brier_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        brier_loss([1.0, 0.0], [1.0, 0.0, 0.0])


def test_vertex_one_hot():
    assert np.array_equal(vertex_to_probability(1, 3).p, [1, 0, 0])
    assert np.array_equal(vertex_to_probability(3, 3).p, [0, 0, 1])
    assert np.array_equal(vertex_to_probability(2, 2).p, [0, 1])


def test_vertex_out_of_range():
    with pytest.raises(ValueError):
        vertex_to_probability(4, 3)
    with pytest.raises(ValueError):
        vertex_to_probability(0, 3)
    with pytest.raises(ValueError):
        Vertex(0)


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


def test_prediction_vector_allows_negatives_on_hyperplane():
    g = PredictionVector([1.4, -0.4])
    assert g.d == 2
    with pytest.raises(ValueError):
        PredictionVector([0.3, 0.3])
