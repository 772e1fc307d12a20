import math

import numpy as np
import pytest

from simplexcast.kaar import Kernel

from oracle import (
    dense_kaar_r,
    dense_maar_r,
    log_gaussian_grid_integral,
    numeric_quadratic_min,
    qp_projection,
    quadrature_r,
)


# ---------------------------------------------------------------------------
# quadratic minimizer

def test_scalar_hand_instance():
    argmin, value = numeric_quadratic_min(np.array([[1.0]]), np.array([2.0]))
    assert argmin[0] == pytest.approx(-1.0, abs=1e-10)
    assert value == pytest.approx(-1.0, abs=1e-10)


def test_min_difference_identity_hand_instance():
    # min(a^2 + 2a + 3a) - min(a^2 + 2a - 3a) = -25/4 + 1/4 = -6 = -b A^{-1} z
    _, lo_plus = numeric_quadratic_min(np.array([[1.0]]), np.array([5.0]))
    _, lo_minus = numeric_quadratic_min(np.array([[1.0]]), np.array([-1.0]))
    assert lo_plus - lo_minus == pytest.approx(-6.0, abs=1e-10)


def test_min_difference_identity_random():
    rng = np.random.default_rng(60)
    for _ in range(20):
        root = rng.normal(size=(3, 3))
        a_mat = root @ root.T + 0.5 * np.eye(3)
        b = rng.normal(size=3)
        z = rng.normal(size=3)
        _, lo_plus = numeric_quadratic_min(a_mat, b + z)
        _, lo_minus = numeric_quadratic_min(a_mat, b - z)
        expected = -b @ np.linalg.solve(a_mat, z)
        assert lo_plus - lo_minus == pytest.approx(expected, abs=1e-8)


def test_rejects_indefinite_matrix():
    with pytest.raises(ValueError):
        numeric_quadratic_min(np.array([[-1.0]]), np.array([0.0]))


# ---------------------------------------------------------------------------
# grid integration

def test_scalar_gaussian_integral_identity():
    # integral of exp(-(x^2 + bx + c)) = exp(-(c - b^2/4)) sqrt(pi)
    rng = np.random.default_rng(61)
    for _ in range(10):
        b = float(rng.uniform(-3, 3))
        c = float(rng.uniform(-1, 2))
        got = log_gaussian_grid_integral(np.array([[1.0]]), np.array([b]), c)
        expected = -(c - b * b / 4.0) + 0.5 * math.log(math.pi)
        assert got == pytest.approx(expected, abs=1e-9)


def test_multivariate_gaussian_integral_identity():
    # integral of exp(-(x'Hx + l'x + c)) = exp(-(c - l'H^{-1}l/4)) pi^{k/2}/sqrt(det H)
    rng = np.random.default_rng(62)
    for dim in (2, 3):
        root = rng.normal(size=(dim, dim))
        h_mat = root @ root.T + 0.5 * np.eye(dim)
        l_vec = rng.normal(size=dim)
        c = 0.3
        got = log_gaussian_grid_integral(h_mat, l_vec, c)
        q0 = c - l_vec @ np.linalg.solve(h_mat, l_vec) / 4.0
        expected = -q0 + dim / 2.0 * math.log(math.pi) - 0.5 * np.linalg.slogdet(h_mat)[1]
        assert got == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_converged_quadrature_reproduces_the_closed_form_gaussian_log_integral(dim):
    # the node count comes from the convergence check, and the value is within 1e-12 of
    # log(pi^{k/2} / sqrt(det H)) - (c - l'H^{-1}l/4); the last instance couples two axes by 0.9
    rng = np.random.default_rng(70 + dim)
    cases = []
    for _ in range(12):
        root = rng.normal(size=(dim, dim))
        cases.append((root @ root.T + 0.5 * np.eye(dim), rng.normal(size=dim), float(rng.uniform(-2, 2))))
    coupled = 4.0 * np.eye(dim)
    coupled[0, 1:2] = coupled[1:2, 0] = 3.6
    cases.append((coupled, rng.normal(size=dim), 0.3))
    for h_mat, l_vec, c in cases:
        got = log_gaussian_grid_integral(h_mat, l_vec, c)
        q0 = c - l_vec @ np.linalg.solve(h_mat, l_vec) / 4.0
        expected = -q0 + dim / 2.0 * math.log(math.pi) - 0.5 * np.linalg.slogdet(h_mat)[1]
        assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("h_mat,nodes", [
    # one dominant cross term, default node count
    (np.array([
        [4.0, 3.6, 0.2],
        [3.6, 4.0, 0.1],
        [0.2, 0.1, 1.0],
    ]), None),
    # every pair strongly coupled: exercises the log-space row repair
    # (kept at a smaller grid; the repair loop is a per-row safety net)
    (np.array([
        [1.05, 1.0, 1.0],
        [1.0, 1.05, 1.0],
        [1.0, 1.0, 1.05],
    ]), 301),
])
def test_three_dim_integrals_with_strong_cross_terms(h_mat, nodes):
    l_vec = np.array([0.5, -0.2, 1.0])
    kwargs = {} if nodes is None else {"nodes": nodes}
    got = log_gaussian_grid_integral(h_mat, l_vec, 0.0, **kwargs)
    q0 = -l_vec @ np.linalg.solve(h_mat, l_vec) / 4.0
    expected = -q0 + 1.5 * math.log(math.pi) - 0.5 * np.linalg.slogdet(h_mat)[1]
    assert got == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# reference generalized prediction

def test_empty_history_zero_signal_gives_zero_r():
    r = quadrature_r([], np.zeros(2), d=2, a=1.0)
    np.testing.assert_allclose(r, 0.0, atol=1e-12)


def test_hand_traced_instance_by_integration():
    # the same instance the closed form is hand-traced on: one past trial
    # (x=1, y=(1,0)), predict at x=1 with unit prior scale
    history = [(np.array([1.0]), np.array([1.0, 0.0]))]
    r = quadrature_r(history, np.array([1.0]), d=2, a=1.0)
    assert r[0] == pytest.approx(-0.8, abs=1e-5)
    assert r[1] == 0.0
    np.testing.assert_allclose(dense_maar_r(history, np.array([1.0]), d=2, a=1.0), [-0.8, 0.0], atol=1e-14)


def test_dense_stacked_solve_matches_integration():
    rng = np.random.default_rng(64)
    for n, d in ((1, 2), (2, 2), (1, 3), (3, 2), (1, 4)):
        history = [(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)]) for _ in range(3)]
        x_t = rng.uniform(-1, 1, n)
        a = float(rng.choice([0.5, 2.0]))
        np.testing.assert_allclose(dense_maar_r(history, x_t, d=d, a=a),
                                   quadrature_r(history, x_t, d=d, a=a), atol=1e-5)


def test_dense_kernel_assembly_with_dot_kernel_is_the_linear_one():
    # the dual (T x T) and primal (n x n) dense systems give the same r
    rng = np.random.default_rng(65)
    for n, d in ((1, 2), (3, 3), (2, 4)):
        history = [(rng.uniform(-1, 1, n), np.eye(d)[rng.integers(d)]) for _ in range(6)]
        x_t = rng.uniform(-1, 1, n)
        np.testing.assert_allclose(dense_kaar_r(history, x_t, Kernel("dot"), d, 0.7),
                                   dense_maar_r(history, x_t, d=d, a=0.7), atol=1e-12)


def test_label_permutation_symmetry():
    rng = np.random.default_rng(63)
    d = 3
    history = []
    for _ in range(3):
        y = np.zeros(d)
        y[rng.integers(d)] = 1.0
        history.append((rng.uniform(-1, 1, 1), y))
    x_t = rng.uniform(-1, 1, 1)
    r = quadrature_r(history, x_t, d=d, a=1.0)
    # swap classes 1 and 2 everywhere: r entries swap too
    swapped = [(x, y[[1, 0, 2]]) for x, y in history]
    r_swapped = quadrature_r(swapped, x_t, d=d, a=1.0)
    np.testing.assert_allclose(r_swapped, r[[1, 0, 2]], atol=1e-9)


def test_dimension_cap():
    with pytest.raises(ValueError):
        quadrature_r([], np.zeros(4), d=2, a=1.0)
    with pytest.raises(ValueError):
        quadrature_r([], np.zeros(2), d=3, a=1.0)


# ---------------------------------------------------------------------------
# exhaustive projection

def test_enumeration_worked_instances():
    np.testing.assert_allclose(qp_projection([0.8, 0.4, -0.2]), [0.7, 0.3, 0.0], atol=1e-12)
    np.testing.assert_allclose(qp_projection([0.2, 0.5, 0.3]), [0.2, 0.5, 0.3], atol=1e-12)
    out = qp_projection([-5.0, -1.0, -3.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)


def test_enumeration_beats_random_candidates():
    rng = np.random.default_rng(64)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        v = rng.normal(scale=2.0, size=d)
        proj = qp_projection(v)
        assert abs(proj.sum() - 1.0) < 1e-9 and proj.min() >= 0.0
        candidates = rng.dirichlet(np.ones(d), size=500)
        best = np.sum((candidates - v) ** 2, axis=1).min()
        assert np.sum((proj - v) ** 2) <= best + 1e-12


def test_enumeration_size_cap():
    with pytest.raises(ValueError):
        qp_projection(np.zeros(9))
