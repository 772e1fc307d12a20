"""Acceptance gate: every contract criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and asserts
the criterion.  Tolerances are pinned here, not tuned at runtime.
"""

import math

import numpy as np

from simplexcast import harness
from simplexcast.harness import verify_run
from simplexcast.bounds import (
    best_kernel_expert,
    componentwise_bound_rhs,
    horizon_tuned_bound_rhs,
    joint_bound_rhs,
    kernel_expert_loss,
)
from simplexcast.caar import CaarForecaster
from simplexcast.core import PredictionVector, brier_loss, vertex_to_probability
from simplexcast.kaar import KaarForecaster, Kernel
from simplexcast.maar import MaarForecaster, solve_structured
from simplexcast.projection import project_to_simplex
from simplexcast.substitution import solve_substitution, substitution_threshold

from oracle import qp_projection, quadrature_component_forecast, quadrature_r


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_brier_worked_example():
    value = brier_loss(vertex_to_probability(1, 3), PredictionVector([0.5, 0.25, 0.25]))
    report(1, value == 0.375, f"worked squared-distance example = {value}")


def test_criterion_02_substitution_correctness():
    rng = np.random.default_rng(1002)
    worst_residual = 0.0
    worst_shift = 0.0
    in_simplex = True
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        r = rng.normal(scale=rng.uniform(0.2, 5.0), size=d)
        s = substitution_threshold(r)
        gamma = solve_substitution(r).p
        worst_residual = max(worst_residual, abs(np.maximum(s - r, 0.0).sum() - 2.0))
        in_simplex &= gamma.min() >= 0.0 and abs(gamma.sum() - 1.0) <= 1e-12
        shift = rng.uniform(-10, 10)
        worst_shift = max(worst_shift, np.abs(solve_substitution(r + shift).p - gamma).max())
    ok = in_simplex and worst_residual < 1e-12 and worst_shift <= 1e-12
    report(2, ok, f"10k draws: residual<{worst_residual:.2e}, shift dev<{worst_shift:.2e}")


def test_criterion_03_projection_against_enumeration():
    rng = np.random.default_rng(1003)
    worst = 0.0
    dominated = True
    idempotent = True
    for d in range(2, 9):
        points = rng.normal(scale=rng.uniform(0.5, 3.0), size=(1000, d))
        probes = rng.dirichlet(np.ones(d), size=100)
        for v in points:
            proj = project_to_simplex(v).p
            worst = max(worst, np.abs(proj - qp_projection(v)).max())
            idempotent &= np.abs(project_to_simplex(proj).p - proj).max() <= 1e-12
            loss_proj = np.sum((probes - proj) ** 2, axis=1)
            loss_raw = np.sum((probes - v) ** 2, axis=1)
            dominated &= bool(np.all(loss_proj <= loss_raw + 1e-12))
    ok = worst < 1e-10 and dominated and idempotent
    report(3, ok, f"7k points: max deviation {worst:.2e}, domination={dominated}")


def test_criterion_04_closed_forms_match_quadrature():
    rng = np.random.default_rng(1004)
    shapes = [(1, 2)] * 12 + [(2, 2)] * 10 + [(1, 3)] * 12 + [(3, 2)] * 8 + [(1, 4)] * 8
    worst_joint = 0.0
    worst_component = 0.0
    for idx, (n, d) in enumerate(shapes):
        a = float([0.5, 1.0, 2.0][idx % 3])
        history = []
        for _ in range(int(rng.integers(1, 4))):
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            history.append((rng.uniform(-1, 1, n), y))
        x_t = rng.uniform(-1, 1, n)

        model = MaarForecaster(n, d, a)
        component = CaarForecaster(n, d, a)
        for x, y in history:
            model.update(x, y)
            component.update(x, y)

        closed = model.generalized(x_t)
        quad = quadrature_r(history, x_t, d=d, a=a)
        worst_joint = max(worst_joint, np.abs(closed - quad).max())

        raw = component.predict_raw(x_t)
        for i in range(d):
            comp = quadrature_component_forecast(history, x_t, i, d=d, a=a, eta=2.0)
            worst_component = max(worst_component, abs(raw[i] - comp))
    ok = worst_joint < 1e-5 and worst_component < 1e-5
    report(4, ok, f"50 instances: joint dev {worst_joint:.2e}, component dev {worst_component:.2e}")


def test_criterion_05_kernel_linear_equivalence():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for n, d in ((2, 2), (3, 3), (5, 4), (4, 2)):
        linear = MaarForecaster(n, d, 0.9)
        kernelized = KaarForecaster(d, Kernel("dot"), 0.9)
        for _ in range(100):
            x = rng.uniform(-1, 1, n)
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
            worst = max(worst, np.abs(kernelized.predict(x).p - linear.predict(x).p).max())
            linear.update(x, y)
            kernelized.update(x, y)
    report(5, worst < 1e-8, f"dot-kernel forecasts match linear to {worst:.2e} over 4x100 steps")


def test_criterion_06_regret_bounds_never_violated():
    rng = np.random.default_rng(1006)
    checks = (("caar", None), ("maar", None), ("kaar", Kernel("dot")),
              ("kaar", Kernel("rbf", sigma=1.0)))
    worst = np.inf
    total = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 5))
        t_len = 20 + int(280 * rng.random() ** 3)
        ridge = float(rng.choice([0.5, 1.0, 2.0]))
        data = harness.random_stream(n, d, t_len, seed=int(rng.integers(2**31)))
        for kind, kernel in checks:
            for rep in verify_run(data, kind, ridge, kernel):
                worst = min(worst, rep.slack)
                total += 1
    for i in range(20):
        kind, kernel = checks[i % 4]
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        t_len = 30 + int(rng.integers(0, 120))
        data = harness.adversarial_stream(kind, n, d, t_len, 1.0, seed=9_000 + i, kernel=kernel)
        for rep in verify_run(data, kind, 1.0, kernel):
            worst = min(worst, rep.slack)
            total += 1
    report(6, worst >= -1e-6, f"{total} guarantee checks over 220 streams, worst slack {worst:.3e}")


def test_criterion_07_structured_solves_and_logdet():
    rng = np.random.default_rng(1007)
    worst_solve = 0.0
    worst_logdet = 0.0
    for case in range(200):
        d = int(rng.integers(2, 6))
        m = d - 1
        a = float(rng.uniform(0.1, 3.0))
        if case % 2 == 0:  # linear-shaped block (signal outer products)
            n = int(rng.integers(1, 6))
            x = rng.normal(size=(int(rng.integers(1, 9)), n))
            block = x.T @ x
        else:              # kernel-shaped block (Gram matrix)
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-1, 1, size=(n, 3))
            kernel = Kernel("rbf", sigma=rng.uniform(0.5, 2.0)) if case % 4 == 1 else Kernel("dot")
            block = kernel.gram(pts)
        rhs = rng.normal(size=m * n)
        fast = solve_structured(a, d, block, rhs)
        dense_mat = a * np.eye(m * n) + np.kron(np.eye(m) + np.ones((m, m)), block)
        dense = np.linalg.solve(dense_mat, rhs)
        rel = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-300)
        worst_solve = max(worst_solve, rel)
        if case % 2 == 1:
            _, logdet_full = np.linalg.slogdet(dense_mat)
            _, logdet_big = np.linalg.slogdet(a * np.eye(n) + d * block)
            _, logdet_small = np.linalg.slogdet(a * np.eye(n) + block)
            split = logdet_big + (d - 2) * logdet_small
            worst_logdet = max(worst_logdet, abs(logdet_full - split))
    ok = worst_solve <= 1e-9 and worst_logdet <= 1e-8
    report(7, ok, f"200 instances: solve rel dev {worst_solve:.2e}, logdet split dev {worst_logdet:.2e}")


def test_criterion_08_bound_ordering_by_regime():
    # large horizon: the joint guarantee's log term dominates and exceeds the
    # componentwise one (d > 2 makes the asymptotic ratio 2(d-1)/d > 1)
    large_t = dict(t_len=10**6, x_max=1.0, n=2, d=3, a=1.0, norm_sq=1.0)
    joint_large = joint_bound_rhs(**large_t)
    comp_large = componentwise_bound_rhs(**large_t)
    # small horizon, large comparator norm: the joint penalty 2a|a|^2 beats
    # the componentwise da|a|^2
    small_t = dict(t_len=1, x_max=1.0, n=2, d=3, a=1.0, norm_sq=100.0)
    joint_small = joint_bound_rhs(**small_t)
    comp_small = componentwise_bound_rhs(**small_t)
    ok = joint_large > comp_large and joint_small < comp_small
    report(8, ok, (
        f"T=1e6,|a|^2=1: joint {joint_large:.2f} > componentwise {comp_large:.2f}; "
        f"T=1,|a|^2=100: joint {joint_small:.2f} < componentwise {comp_small:.2f}"
    ))


def test_criterion_09_end_to_end_benchmark():
    series = harness.synth_series("sine", 3000, seed=7)
    stream = harness.prepare_stream(series, 10, "auto")
    runs = [harness.run_benchmark(stream, ["caar", "maar", "simple"],
                                  harness.DEFAULT_RIDGE_GRID) for _ in range(2)]
    rows_a = {r.algorithm: r for r in runs[0][0]}
    rows_b = {r.algorithm: r for r in runs[1][0]}
    reproducible = all(
        (rows_a[k].mse, rows_a[k].amse, rows_a[k].ridge, rows_a[k].bound_slack)
        == (rows_b[k].mse, rows_b[k].amse, rows_b[k].ridge, rows_b[k].bound_slack)
        for k in rows_a
    )  # wall time is the one column allowed to differ
    gap = abs(rows_a["caar"].mse - rows_a["maar"].mse)
    beats = max(rows_a["caar"].mse, rows_a["maar"].mse) < rows_a["simple"].mse
    ok = reproducible and gap <= 0.05 and beats
    report(9, ok, (
        f"seeded 3000-step series: reproducible={reproducible}, "
        f"|mse gap|={gap:.4f}, mse caar/maar/simple = "
        f"{rows_a['caar'].mse:.5f}/{rows_a['maar'].mse:.5f}/{rows_a['simple'].mse:.5f}"
    ))


def test_criterion_10_horizon_tuned_regret():
    rng = np.random.default_rng(1010)
    worst_margin = np.inf
    for i in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        t_len = int(rng.integers(40, 121))
        kernel = Kernel("rbf", sigma=1.0) if i % 2 == 0 else Kernel("dot")
        data = harness.random_stream(n, d, t_len, seed=int(rng.integers(2**31)))
        signals = np.array([x for x, _ in data])
        c_f = float(np.sqrt(max(kernel(x, x) for x in signals)))
        cap = float(rng.uniform(1.0, 4.0))
        a = c_f * math.sqrt((d - 1) * t_len) / cap

        model = KaarForecaster(d, kernel, a)
        loss = 0.0
        for x, y in data:
            loss += brier_loss(y, model.predict(x))
            model.update(x, y)

        expert, loss_f, norms = best_kernel_expert(data, kernel, a)
        if norms > cap:
            expert = expert.scaled(math.sqrt(cap / norms))
            loss_f = kernel_expert_loss(expert, data)
        regret = loss - loss_f
        rhs = horizon_tuned_bound_rhs(c_f, cap, d, t_len)
        worst_margin = min(worst_margin, rhs - regret)
    report(10, worst_margin >= -1e-9,
           f"20 horizon-tuned streams, smallest (cap - regret) margin {worst_margin:.3f}")
