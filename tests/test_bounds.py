import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast import bounds
from simplexcast.bounds import (
    BoundReport,
    KernelExpert,
    LinearExpert,
    best_kernel_expert,
    best_linear_expert,
    bound_reports,
    componentwise_bound_rhs,
    expert_loss,
    joint_bound_rhs,
    joint_split_bound_rhs,
    kernel_bound_rhs,
    kernel_report,
    solve_structured,
)
from simplexcast.cli import main
from simplexcast.core import InvariantViolation, Trials, stack_trials
from simplexcast.harness import adversarial_stream, prepare_stream, random_stream, synth_series, verify_run
from simplexcast.kaar import KaarForecaster, Kernel

from oracle import horizon_tuned_bound_rhs, kernel_expert_loss, numeric_quadratic_min, per_component_bound_rhs


def quadratic_fit(fn, dim):
    """Recover (A, b, c) of a quadratic from evaluations (unit finite differences)."""
    eye = np.eye(dim)
    f0 = fn(np.zeros(dim))
    a_mat = np.zeros((dim, dim))
    b = np.zeros(dim)
    fp = np.zeros(dim)
    for i in range(dim):
        fp[i] = fn(eye[i])
        fm = fn(-eye[i])
        a_mat[i, i] = (fp[i] + fm - 2 * f0) / 2
        b[i] = (fp[i] - fm) / 2
    for i in range(dim):
        for j in range(i + 1, dim):
            a_mat[i, j] = a_mat[j, i] = (fn(eye[i] + eye[j]) - fp[i] - fp[j] + f0) / 2
    return a_mat, b, f0


# ---------------------------------------------------------------------------
# linear comparators

def test_zero_expert_loss_is_distance_to_uniform():
    rng = np.random.default_rng(50)
    data = random_stream(3, 4, 25, seed=1)
    alpha = LinearExpert(np.zeros(3 * 3))
    expected = sum(float(np.sum((np.asarray(y) - 0.25) ** 2)) for _, y in data)
    assert expert_loss(alpha, data) == pytest.approx(expected, abs=1e-12)


def test_single_trial_exact_fit():
    # n=1, d=2, x=1, y=(1,0): alpha=(1/2) forecasts (1, 0) exactly
    data = [(np.array([1.0]), np.array([1.0, 0.0]))]
    assert expert_loss(LinearExpert([0.5]), data) == pytest.approx(0.0, abs=1e-15)


def test_expert_loss_midpoint_convexity():
    rng = np.random.default_rng(51)
    data = random_stream(2, 3, 15, seed=2)
    for _ in range(25):
        a1 = rng.normal(size=4)
        a2 = rng.normal(size=4)
        mid = expert_loss(LinearExpert((a1 + a2) / 2), data)
        avg = (expert_loss(LinearExpert(a1), data) + expert_loss(LinearExpert(a2), data)) / 2
        assert mid <= avg + 1e-9


def test_best_linear_expert_empty_data():
    expert, value = best_linear_expert([], 1.0)
    assert expert.alpha.size == 0 and value == 0.0


def test_best_linear_expert_realizable_limit():
    # data generated exactly by a linear rule: objective -> 0 as a -> 0
    rng = np.random.default_rng(52)
    n, d = 2, 3
    alpha_true = rng.normal(scale=0.2, size=(d - 1, n))
    data = []
    for _ in range(20):
        x = rng.uniform(-1, 1, n)
        u = alpha_true @ x
        y = np.concatenate([1.0 / d + u, [1.0 / d - u.sum()]])
        data.append((x, y))
    _, value = best_linear_expert(data, 1e-8)
    assert value < 1e-6


def test_best_linear_expert_matches_generic_minimizer():
    rng = np.random.default_rng(53)
    for seed in range(5):
        data = random_stream(2, 3, 12, seed=seed)
        a = float(rng.uniform(0.3, 2.0))
        expert, value = best_linear_expert(data, a)

        def objective(alpha):
            return expert_loss(LinearExpert(alpha), data) + a * float(alpha @ alpha)

        a_mat, b, c0 = quadratic_fit(objective, 4)
        argmin, best = numeric_quadratic_min(a_mat, b, c0)
        assert value == pytest.approx(best, abs=1e-6)
        np.testing.assert_allclose(expert.alpha, argmin, atol=1e-6)


# ---------------------------------------------------------------------------
# kernel comparators

def test_kernel_expert_dot_matches_linear_objective():
    data = random_stream(3, 3, 20, seed=3)
    a = 0.9
    _, value = best_linear_expert(data, a)
    expert, loss_f, norms = best_kernel_expert(data, Kernel("dot"), a)
    assert loss_f + a * norms == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("kind", ["dot", "rbf"])
def test_kernel_comparators_of_an_empty_stream_are_zero(kind):
    kernel = Kernel(kind)
    expert, loss_f, norms = best_kernel_expert([], kernel, 1.0)
    assert expert.coeffs.shape == (0, 0) and expert.kernel == kernel and loss_f == 0.0 and norms == 0.0
    assert kernel_expert_loss(expert, []) == 0.0
    empty = Trials(np.empty((0, 2)), np.empty((0, 3)))   # a width-3 stream of no trials
    expert, loss_f, norms = best_kernel_expert(empty, kernel, 1.0)
    assert expert.coeffs.shape == (2, 0) and loss_f == 0.0 and norms == 0.0
    assert kernel_expert_loss(expert, empty) == 0.0


def test_kernel_expert_huge_ridge_collapses_to_uniform():
    data = random_stream(2, 3, 15, seed=4)
    expert, loss_f, norms = best_kernel_expert(data, Kernel("rbf"), 1e9)
    assert norms < 1e-6
    assert loss_f == pytest.approx(expert_loss(LinearExpert(np.zeros(4)), data), abs=1e-4)


def test_kernel_expert_matches_generic_minimizer():
    rng = np.random.default_rng(54)
    data = random_stream(2, 3, 8, seed=5)
    kernel = Kernel("rbf", sigma=0.9)
    a = 0.7
    expert, loss_f, norms = best_kernel_expert(data, kernel, a)
    gram = kernel.gram(np.array([x for x, _ in data]))
    m, t_len = expert.coeffs.shape

    def objective(flat):
        cand = KernelExpert(flat.reshape(m, t_len), kernel)
        reg = a * float(np.sum(cand.coeffs * (cand.coeffs @ gram)))
        return kernel_expert_loss(cand, data) + reg

    a_mat, b, c0 = quadratic_fit(objective, m * t_len)
    # the quadratic can be singular along null directions of the Gram matrix,
    # so compare objective values rather than coefficient vectors
    ridge_fix = 1e-9 * np.eye(m * t_len)
    _, best = numeric_quadratic_min(a_mat + ridge_fix, b, c0)
    achieved = loss_f + a * norms
    assert achieved == pytest.approx(best, abs=1e-5)


def test_experts_compare_by_identity_and_hash():
    # equality by value would compare arrays, whose truth value is ambiguous
    pairs = ((LinearExpert(np.array([1.0, 2.0])), LinearExpert(np.array([1.0, 2.0]))),
             (KernelExpert(np.ones((2, 3)), Kernel("dot")), KernelExpert(np.ones((2, 3)), Kernel("dot"))))
    for expert, twin in pairs:
        assert expert == expert and expert != twin
        assert len({expert, twin, expert}) == 2 and {expert: 1}[expert] == 1


# ---------------------------------------------------------------------------
# right-hand sides

def test_joint_rhs_no_trials_keeps_only_penalty():
    assert joint_bound_rhs(0, 1.0, 3, 4, 0.5, 2.0) == pytest.approx(2 * 0.5 * 2.0)


def test_corollary_rhs_zero_budget():
    assert horizon_tuned_bound_rhs(1.0, 0.0, 3, 100) == 0.0


def test_rhs_asymptotic_ratio():
    # for growing T the joint rhs and the componentwise rhs approach the
    # ratio 2(d-1)/d; the penalty terms wash out only logarithmically, so
    # check the approach is monotone and lands near the limit at T = 10^6
    # for a small-norm comparator
    n, d, a, x_max = 2, 5, 1.0, 1.0
    limit = 2 * (d - 1) / d

    def ratio(t_len, norm_sq):
        return joint_bound_rhs(t_len, x_max, n, d, a, norm_sq) / componentwise_bound_rhs(
            t_len, x_max, n, d, a, norm_sq)

    gaps = [abs(ratio(t, 1.0) - limit) for t in (10**2, 10**4, 10**6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert ratio(10**6, 0.01) == pytest.approx(limit, rel=0.02)
    assert ratio(10**6, 0.0) == pytest.approx(limit, rel=1e-12)


def test_per_component_rhs_formula():
    val = per_component_bound_rhs(10, 1.0, 2, 0.0, 1.0, 0.5, 3.0)
    assert val == pytest.approx(0.5 * 3.0 + 2 * 0.25 * math.log(21.0))


def test_split_rhs_formula():
    val = joint_split_bound_rhs(10, 1.0, 2, 4, 0.5, 3.0)
    expected = 0.5 * 3.0 + 2 * (4 - 2) / 2 * math.log(21.0) + 1.0 * math.log(81.0)
    assert val == pytest.approx(expected)


def test_kernel_logdet_identity_and_bound_helper():
    rng = np.random.default_rng(55)
    pts = rng.uniform(-1, 1, size=(12, 3))
    kernel = Kernel("rbf", sigma=0.8)
    gram = kernel.gram(pts)
    a, d = 0.7, 4
    fast, _ = bounds._kernel_systems(gram, a, d, np.zeros((d - 1, 12)))
    m = d - 1
    big = np.eye(m * 12) + np.kron(np.eye(m) + np.ones((m, m)), gram) / a
    _, dense = np.linalg.slogdet(big)
    assert fast == pytest.approx(dense, abs=1e-8)
    assert kernel_bound_rhs(1.0, 2.0, 0.5, fast) == pytest.approx(1.0 + 1.0 + fast / 2)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_kernel_guarantee_matches_a_dense_block_oracle(d, a):
    data = random_stream(3, d, 30, seed=d)
    xs, ys = np.array([x for x, _ in data]), np.array([y for _, y in data])
    kernel = Kernel("rbf", sigma=0.8)
    gram = kernel.gram(xs)
    m, t_len = d - 1, len(data)
    coupling = np.kron(np.eye(m) + np.ones((m, m)), gram)   # (I+J) kron K, one T x T block per class pair
    coeffs = np.linalg.solve(a * np.eye(m * t_len) + coupling,
                             (ys[:, :m] - ys[:, [m]]).T.reshape(-1)).reshape(m, t_len)
    values = gram @ coeffs.T
    forecasts = np.concatenate([1.0 / d + values, 1.0 / d - values.sum(axis=1, keepdims=True)], axis=1)
    sign, logdet = np.linalg.slogdet(np.eye(m * t_len) + coupling / a)
    assert sign > 0
    dense = np.sum((ys - forecasts) ** 2) + a * np.sum(coeffs * (coeffs @ gram)) + 0.5 * logdet
    (report,) = bound_reports(data, "kaar", a, 0.0, kernel)
    assert report.bound_value == pytest.approx(dense, rel=1e-9, abs=0)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dot", "rbf", "poly"]), d=st.integers(2, 5), log_ridge=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**16), split=st.one_of(st.none(), st.integers(0, 40)))
def test_kernel_report_equals_the_guarantee_from_the_gram_matrix(kind, d, log_ridge, seed, split):
    a = 10.0**log_ridge
    kernel = Kernel(kind, sigma=0.8, degree=3)
    stream = stack_trials(random_stream(3, d, 40, seed))
    xs, ys = stream
    if split is None:   # a forecaster of one ridge from the start
        model = KaarForecaster(d, kernel, a)
    else:               # or a lane split off after ``split`` trials among others
        model = KaarForecaster(d, kernel, [a / 10.0, a, 2.0 * a])
        model.run(xs[:split], ys[:split])
        model = model.lane(1)
    model.run(xs[model.t:], ys[model.t:])
    got = kernel_report(model, ys, 12.5)
    _, loss_f, norms, logdet = bounds._kernel_comparator(stream, kernel, a)
    want = kernel_bound_rhs(loss_f, norms, a, logdet)
    pivots = np.square(model._diagonal()[0])   # of aI + dK
    assert (got.bound, got.algorithm, got.algorithm_loss) == ("kernel", "kaar", 12.5)
    assert abs(got.bound_value - want) <= 64 * np.finfo(float).eps * pivots.max() / pivots.min() * abs(want)


def test_kernel_report_takes_a_forecaster_of_one_ridge_and_the_outcomes_it_ran_over():
    xs, ys = stack_trials(random_stream(2, 3, 20, seed=4))
    lanes = KaarForecaster(3, Kernel("rbf"), [0.5, 1.0])
    lanes.run(xs, ys)
    with pytest.raises(ValueError, match=r"one ridge; split a lane off with lane\(g\)$"):
        kernel_report(lanes, ys, 1.0)
    with pytest.raises(ValueError, match=r"^outcomes of shape \(19, 3\) for a forecaster of 20 trials of 3 classes$"):
        kernel_report(lanes.lane(0), ys[1:], 1.0)
    empty = KaarForecaster(3, Kernel("rbf"), 0.5)
    assert kernel_report(empty, np.zeros((0, 3)), 0.0) == BoundReport("kernel", "kaar", 0.0, 0.0, 0.0)
    assert bound_reports(Trials(np.zeros((0, 2)), np.zeros((0, 3))), "kaar", 0.5, 0.0, Kernel("rbf")) == [
        BoundReport("kernel", "kaar", 0.0, 0.0, 0.0)]


def test_a_gram_matrix_without_a_positive_definite_system_is_invariant_violation(monkeypatch, tmp_path):
    data = random_stream(2, 3, 12, seed=8)
    kernel = Kernel("rbf", sigma=0.8)
    gram = Kernel.gram
    monkeypatch.setattr(Kernel, "gram", lambda self, signals: -gram(self, signals))   # I + sK/a is indefinite
    with pytest.raises(InvariantViolation, match=r"^kernel guarantee: I \+ 3K/a is not positive definite "
                                                 r"\(ridge 0\.1\)$"):
        best_kernel_expert(data, kernel, 0.1)
    # through the CLI: the forecaster runs on kernel rows, verify-bounds' guarantee on the Gram matrix
    monkeypatch.setattr(Kernel, "gram", lambda self, signals: -np.eye(len(signals)))
    result = CliRunner().invoke(main, ["verify-bounds", "--streams", "1", "--adversarial", "0",
                                       "--ridge", "0.5", "--out", str(tmp_path / "vb")])
    assert result.exit_code == 3, result.output
    assert "not positive definite" in result.output
    # bench reads the guarantee off the forecaster's factors: a pivot of 0 there is exit 3 too
    monkeypatch.setattr(KaarForecaster, "_diagonal", lambda self: np.zeros((len(self._scales), self.t)))
    result = CliRunner().invoke(main, ["bench", "--algos", "kaar", "--synth", "sine", "--length", "60",
                                       "--ridge", "0.5", "--out", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert "error: kernel guarantee: log det of the factors is -inf (ridge 0.5)" in result.output


@pytest.mark.filterwarnings("error")
def test_an_infinite_or_non_positive_ridge_is_rejected_before_any_numpy_work():
    data = random_stream(2, 3, 20, seed=1)
    calls = (lambda a: best_linear_expert(data, a), lambda a: best_kernel_expert(data, Kernel("dot"), a),
             lambda a: solve_structured(a, 3, np.eye(2), np.ones(4)))
    for call in calls:
        for bad in (math.inf, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                call(bad)


def test_a_stream_of_one_class_is_rejected_by_every_comparator_as_the_forecasters_reject_it():
    pairs = [(np.ones(2), [1.0])] * 3
    for data in (pairs, Trials(np.ones((3, 2)), np.ones((3, 1)))):
        calls = (lambda: best_linear_expert(data, 1.0), lambda: best_kernel_expert(data, Kernel("dot"), 1.0),
                 lambda: expert_loss(np.zeros(0), data), lambda: bound_reports(data, "maar", 1.0, 0.0))
        for call in calls:
            with pytest.raises(ValueError, match=r"^need at least 2 classes, got 1$"):
                call()


def test_signals_that_overflow_the_linear_comparator_raise_value_error_naming_their_scale():
    # x x' overflows to inf; signs mixed within a trial also make inf - inf, a NaN, in C
    for first in ([1e200, -1e200], [1e200, 1e200]):
        data = [(np.array(first), [1.0, 0.0, 0.0]), (np.array([-1e200, 1e200]), [0.0, 1.0, 0.0])]
        calls = (lambda: best_linear_expert(data, 1.0), lambda: bound_reports(data, "caar", 1.0, 0.0),
                 lambda: bound_reports(data, "maar", 1.0, 0.0))
        for call in calls:
            with pytest.raises(ValueError, match=r"^signals of scale 1e\+200 overflow the linear comparator"):
                call()


# ---------------------------------------------------------------------------
# verify_run

def test_zero_signal_stream_predicts_uniform_with_slack():
    d = 3
    data = [(np.zeros(2), np.eye(d)[i % d]) for i in range(12)]
    for kind, kernel in (("caar", None), ("maar", None), ("kaar", Kernel("dot"))):
        for report in verify_run(data, kind, 1.0, kernel):
            assert report.slack >= -1e-6
            # every forecast was uniform, so the run loss is T (1 - 1/d) ... exactly
            assert report.algorithm_loss == pytest.approx(12 * (1 - 1 / d), abs=1e-9)


def test_random_streams_have_nonnegative_slack():
    for seed in range(4):
        data = random_stream(3, 3, 50, seed=seed)
        for kind, kernel in (("caar", None), ("maar", None),
                             ("kaar", Kernel("dot")), ("kaar", Kernel("rbf", sigma=1.0))):
            for report in verify_run(data, kind, 1.0, kernel):
                assert report.slack >= -1e-6, (kind, report.bound)


def test_adversarial_stream_has_nonnegative_slack():
    for kind, kernel in (("caar", None), ("maar", None), ("kaar", Kernel("rbf"))):
        data = adversarial_stream(kind, 2, 3, 60, 1.0, seed=9, kernel=kernel)
        for report in verify_run(data, kind, 1.0, kernel):
            assert report.slack >= -1e-6


def test_per_component_bound_on_raw_forecasts():
    # each raw (pre-projection) component of the component-wise forecaster is
    # a scalar square-loss aggregating regressor on outcomes in [0, 1] and
    # obeys its own guarantee against ridge comparators
    from simplexcast.caar import CaarForecaster

    rng = np.random.default_rng(56)
    for seed in range(3):
        n, d, a = 3, 3, 1.0
        data = [(x, np.eye(d)[np.argmax(y)]) for x, y in random_stream(n, d, 80, seed=seed)]   # one-hot
        model = CaarForecaster(n, d, a)
        raw = []
        for x, y in data:
            raw.append(-0.5 * model.generalized(x))
            model.update(x, y)
        raw = np.array(raw)
        signals = np.array([x for x, _ in data])
        outcomes = np.array([y for _, y in data])
        t_len = len(data)
        x_max = float(np.abs(signals).max())
        gram = signals.T @ signals
        for i in range(d):
            comp_loss = float(np.sum((raw[:, i] - outcomes[:, i]) ** 2))
            targets = outcomes[:, i] - 1.0 / d
            alpha = np.linalg.solve(a * np.eye(n) + gram, signals.T @ targets)
            ridge_obj = float(np.sum((targets - signals @ alpha) ** 2))
            rhs = ridge_obj + per_component_bound_rhs(
                t_len, x_max, n, 0.0, 1.0, a, float(alpha @ alpha))
            assert comp_loss <= rhs + 1e-6


def test_report_shape():
    data = random_stream(2, 3, 10, seed=11)
    reports = verify_run(data, "maar", 1.0)
    assert [r.bound for r in reports] == ["joint", "joint_split"]
    assert all(isinstance(r, BoundReport) for r in reports)
    assert reports[0].slack == pytest.approx(reports[0].bound_value - reports[0].algorithm_loss)
    with pytest.raises(ValueError):
        verify_run(data, "unknown", 1.0)
    with pytest.raises(ValueError):
        verify_run(data, "kaar", 1.0)  # kernel missing


@pytest.mark.parametrize("kind, kernel", [("caar", None), ("maar", None), ("kaar", Kernel("rbf", sigma=0.8))])
def test_bound_reports_of_a_labeled_stream_equal_those_of_its_pairs(kind, kernel):
    stream = prepare_stream(synth_series("ar1", 150, 4), 10, "auto")
    pairs = stream.pairs()
    assert bound_reports(stream, kind, 0.5, 30.0, kernel) == bound_reports(pairs, kind, 0.5, 30.0, kernel)
