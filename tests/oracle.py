"""Slow reference implementations used only by the test suite.

Everything here recomputes quantities from first principles: expert losses
are evaluated pointwise trial by trial, integrals by tensor-grid quadrature,
the joint forecaster's block system by a dense kron assembly and solve,
projections by exhaustive active-set enumeration, and minima by conjugate
gradients.  No solver code is shared with the production modules, so
agreement between the two is a genuine cross-check.  None of this is meant
to run outside tests.  The evaluations at the top (the Brier loss, the threshold,
two guarantee right-hand sides, a kernel comparator's loss and the report reader)
are what tests call that the package itself never runs; the threshold alone reuses
the package's scan, which the tests check against bisection.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from simplexcast.core import DimensionMismatch, InvariantViolation, as_float_vector, stack_trials
from simplexcast.harness import REPORT_COLUMNS, ExperimentReport, InputError
from simplexcast.substitution import _threshold

# Per-axis node counts of the tensor quadrature, tried in turn until two successive grids
# agree to CONVERGED (relative to max(1, |value|)).  Each grid holds every node of the one
# before it.  The trapezoid rule on a Gaussian converges faster than any power of the step,
# so on the acceptance instances 65 nodes are already within rounding of the closed form.
GRID_LADDER = (17, 33, 65, 129, 257, 513, 1025, 2049)
CONVERGED = 1e-13
GRID_STDS = 12.0           # half-width in marginal standard deviations


def brier_loss(y, g) -> float:
    """Squared Euclidean distance between outcome and forecast, arrays or ProbabilityVectors."""
    ya, ga = as_float_vector(y), as_float_vector(g)
    if ya.size != ga.size:
        raise DimensionMismatch(f"outcome has {ya.size} classes, forecast has {ga.size}")
    diff = ga - ya
    return float(diff @ diff)


def substitution_threshold(r) -> float:
    """The s solving sum_i (s - r_i)^+ = 2, by the package's scan on r less its minimum."""
    ordered = sorted(as_float_vector(r).tolist())
    return _threshold([v - ordered[0] for v in ordered]) + ordered[0]


def per_component_bound_rhs(t_len, x_max, n, lo, hi, a, norm_sq) -> float:
    """Scalar square-loss game on [lo, hi]: a|alpha|^2 + n(hi-lo)^2/4 log(T X^2/a + 1)."""
    return a * norm_sq + n * (hi - lo) ** 2 / 4.0 * math.log(t_len * x_max**2 / a + 1.0)


def horizon_tuned_bound_rhs(c_f, cap, d, t_len) -> float:
    """Regret cap 2 c_F F sqrt((d-1) T) at the horizon-tuned prior scale."""
    return 2.0 * c_f * cap * math.sqrt((d - 1) * t_len)


def kernel_expert_loss(expert, data) -> float:
    """Cumulative Brier loss over the stream of the kernel comparator that forecasts
    1/d + f_i(x) for class i < d and the rest for class d."""
    signals, outcomes = stack_trials(data)
    if not len(signals):
        return 0.0
    values = expert.kernel.gram(signals) @ expert.coeffs.T
    d = outcomes.shape[1]
    xi = np.concatenate([1.0 / d + values, 1.0 / d - values.sum(axis=1, keepdims=True)], axis=1)
    return float(np.sum((outcomes - xi) ** 2))


def parse_report(path) -> list[ExperimentReport]:
    """Read back a report CSV written by ``harness.emit_report``."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REPORT_COLUMNS:
            raise InputError(f"unexpected report columns: {header}")
        return [ExperimentReport(rec[0], float(rec[1]), float(rec[2]), float(rec[3]),
                                 float(rec[4]) if rec[4] else None, float(rec[5]) if rec[5] else None)
                for rec in reader]


def literal_label_stream(series, window: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Signals and one-hot labels of ``harness.label_stream``, built one row at a time: the
    ``window`` observations before step t, and up (0), down (1) or the tube (2) by the change
    into step t, exact ties in the tube."""
    arr = np.asarray(series, dtype=float)
    signals = np.empty((arr.size - window, window))
    labels = np.zeros((arr.size - window, 3))
    for row, t in enumerate(range(window, arr.size)):
        signals[row] = arr[t - window:t]
        delta = arr[t] - arr[t - 1]
        if delta > epsilon:
            labels[row, 0] = 1.0
        elif delta < -epsilon:
            labels[row, 1] = 1.0
        else:
            labels[row, 2] = 1.0
    return signals, labels


# ---------------------------------------------------------------------------
# Pointwise game evaluation (the "literal" route)

def literal_expert_forecast(alphas: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """Forecasts of experts alpha (rows, flattened blocks) on one signal.

    Component i < d is 1/d + alpha_i'x and the last component is one minus
    the rest, evaluated directly from the definition.
    """
    n = x.size
    m = d - 1
    batch = alphas.reshape(-1, m, n)
    u = batch @ x
    return np.concatenate([1.0 / d + u, 1.0 / d - u.sum(axis=1, keepdims=True)], axis=1)


def _literal_game_exponent(history, x_t, outcome, a, eta, d):
    """eta * (cumulative Brier loss of each expert + a |alpha|^2), pointwise."""
    def exponent(alphas: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(alphas)
        out = a * np.sum(batch**2, axis=1)
        for xs, ys in [*history, (x_t, outcome)]:
            xi = literal_expert_forecast(batch, np.asarray(xs, dtype=float), d)
            out += np.sum((np.asarray(ys, dtype=float) - xi) ** 2, axis=1)
        return eta * out
    return exponent


def _quadratic_from_evals(fn, dim: int):
    """Recover H, l, c of an exact quadratic from function evaluations.

    Finite differences with unit steps are exact for quadratics; three random
    probes then confirm the function really was quadratic.
    """
    eye = np.eye(dim)
    f0 = float(fn(np.zeros((1, dim)))[0])
    h = np.zeros((dim, dim))
    l = np.zeros(dim)
    fp = np.zeros(dim)
    for i in range(dim):
        fp[i] = float(fn(eye[[i]])[0])
        fm = float(fn(-eye[[i]])[0])
        h[i, i] = (fp[i] + fm - 2.0 * f0) / 2.0
        l[i] = (fp[i] - fm) / 2.0
    for i in range(dim):
        for j in range(i + 1, dim):
            fij = float(fn((eye[i] + eye[j])[None, :])[0])
            h[i, j] = h[j, i] = (fij - fp[i] - fp[j] + f0) / 2.0
    rng = np.random.default_rng(12345)
    probes = rng.uniform(-1.0, 1.0, size=(3, dim))
    model = np.einsum("bi,ij,bj->b", probes, h, probes) + probes @ l + f0
    actual = fn(probes)
    if not np.allclose(model, actual, rtol=1e-9, atol=1e-9):
        raise InvariantViolation("exponent is not the quadratic the oracle assumed")
    return h, l, f0


# ---------------------------------------------------------------------------
# Tensor-grid integration of exp(-quadratic)

def _axis_grids(h_mat, l_vec, nodes):
    """Per-axis grids centered at the minimizer, sized by marginal stds."""
    dim = h_mat.shape[0]
    center = np.linalg.solve(2.0 * h_mat, -l_vec)
    hinv_diag = np.diag(np.linalg.inv(h_mat))
    half = GRID_STDS * np.sqrt(np.maximum(hinv_diag, 0.0) / 2.0)
    grids = [center[i] + np.linspace(-half[i], half[i], nodes) for i in range(dim)]
    deltas = [g - center[i] for i, g in enumerate(grids)]
    steps = [g[1] - g[0] for g in grids]
    return center, deltas, steps


def _trap_weights(nodes: int, step: float) -> np.ndarray:
    w = np.full(nodes, step)
    w[0] = w[-1] = step / 2.0
    return w


def log_gaussian_grid_integral(h_mat, l_vec, const, nodes: int | None = None) -> float:
    """log of the integral of exp(-(x'Hx + l'x + c)) over R^dim by quadrature.

    With ``nodes`` None the grid is refined along GRID_LADDER until two successive
    values agree to CONVERGED, and the finer one is returned; an integral that has
    not converged at the last grid raises InvariantViolation.  A given ``nodes``
    fixes the grid.
    """
    if nodes is not None:
        return _grid_log_integral(h_mat, l_vec, const, nodes)
    previous = None
    for nodes in GRID_LADDER:
        value = _grid_log_integral(h_mat, l_vec, const, nodes)
        if previous is not None and abs(value - previous) <= CONVERGED * max(1.0, abs(value)):
            return value
        previous = value
    raise InvariantViolation(f"quadrature did not converge: {previous!r} at {GRID_LADDER[-1]} nodes per axis")


def _grid_log_integral(h_mat, l_vec, const, nodes: int) -> float:
    """``log_gaussian_grid_integral`` on one grid of ``nodes`` per axis.

    The grid is centered at the quadratic's minimizer; in centered coordinates
    the exponent is q0 + delta'H delta + lr'delta with a tiny residual lr, so
    every jointly evaluated exponential stays in range.  Dimension 3 contracts
    a pairwise factorization with one matrix product, row-normalized so large
    cross terms can neither overflow nor silently drop relevant rows.
    """
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    l_vec = np.atleast_1d(np.asarray(l_vec, dtype=float))
    dim = h_mat.shape[0]
    if dim > 3:
        raise ValueError(f"tensor quadrature supports dimension <= 3, got {dim}")
    center, deltas, steps = _axis_grids(h_mat, l_vec, nodes)
    q0 = float(center @ h_mat @ center + l_vec @ center + const)
    lr = 2.0 * h_mat @ center + l_vec  # residual linear term, ~0 at the minimizer

    if dim == 1:
        d0 = deltas[0]
        vals = np.exp(-(h_mat[0, 0] * d0**2 + lr[0] * d0))
        total = _trap_weights(nodes, steps[0]) @ vals
        return -q0 + float(np.log(total))

    if dim == 2:
        d0, d1 = deltas
        expo = (
            h_mat[0, 0] * d0[:, None] ** 2
            + h_mat[1, 1] * d1[None, :] ** 2
            + 2.0 * h_mat[0, 1] * d0[:, None] * d1[None, :]
            + lr[0] * d0[:, None]
            + lr[1] * d1[None, :]
        )
        vals = np.exp(-expo)
        total = _trap_weights(nodes, steps[0]) @ vals @ _trap_weights(nodes, steps[1])
        return -q0 + float(np.log(total))

    return -q0 + _log_grid_integral_3d(h_mat, lr, deltas, steps, nodes)


def _logsumexp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    if not np.isfinite(peak):
        return peak
    return peak + float(np.log(np.sum(np.exp(values - peak))))


def _log_grid_integral_3d(h_mat, lr, deltas, steps, nodes) -> float:
    # The largest cross term is evaluated jointly with its own diagonal (a
    # principal 2x2 block of H, positive definite, so that exponential never
    # exceeds one).  The remaining two crosses both touch the outer axis and
    # enter as per-row rank-one factors, normalized by their row maxima so
    # nothing overflows; rows whose normalized sum underflows to zero but
    # could still matter are recomputed exactly in log space.
    half = [abs(d).max() for d in deltas]
    cross = [(abs(2.0 * h_mat[j, k]) * half[j] * half[k], j, k) for j, k in ((0, 1), (0, 2), (1, 2))]
    _, bj, bk = max(cross)
    order = [3 - bj - bk, bj, bk]
    hp = h_mat[np.ix_(order, order)]
    lp = lr[order]
    da, db, dc = (deltas[i] for i in order)
    wa, wb, wc = (_trap_weights(nodes, steps[i]) for i in order)

    bc_quad = (
        hp[1, 1] * db[:, None] ** 2
        + 2.0 * hp[1, 2] * db[:, None] * dc[None, :]
        + hp[2, 2] * dc[None, :] ** 2
    )
    weighted_bc = wb[:, None] * wc[None, :] * np.exp(-bc_quad)

    coef_b = -(2.0 * hp[0, 1] * da + lp[1])   # row-wise linear coefficient on axis b
    coef_c = -(2.0 * hp[0, 2] * da + lp[2])
    cap_b = np.abs(coef_b) * abs(db).max()
    cap_c = np.abs(coef_c) * abs(dc).max()
    u_mat = np.exp(np.outer(coef_b, db) - cap_b[:, None])
    v_mat = np.exp(np.outer(coef_c, dc) - cap_c[:, None])
    sums = np.sum((u_mat @ weighted_bc) * v_mat, axis=1)

    outer_part = -(hp[0, 0] * da**2 + lp[0] * da) + np.log(wa)
    with np.errstate(divide="ignore"):
        row_log = outer_part + cap_b + cap_c + np.log(sums)

    # Rows whose normalized sum fell near or below the denormal range carry
    # up to a bit of log error; recompute the relevant ones exactly in log
    # space.  ``upper`` bounds each row's contribution from above.
    upper = outer_part + cap_b + cap_c + 10.0
    trusted = sums >= 1e-250
    if np.all(trusted):
        return _logsumexp(row_log)
    finite_peak = np.max(row_log[trusted]) if np.any(trusted) else -np.inf
    repair = ~trusted & (upper >= finite_peak - 80.0)
    if np.any(repair):
        log_bc = -bc_quad + np.log(wb)[:, None] + np.log(wc)[None, :]
        for i in np.flatnonzero(repair):
            full = log_bc + coef_b[i] * db[:, None] + coef_c[i] * dc[None, :]
            row_log[i] = outer_part[i] + _logsumexp(full)
        row_log[~trusted & ~repair] = -np.inf
    else:
        row_log[~trusted] = -np.inf
    return _logsumexp(row_log)


# ---------------------------------------------------------------------------
# Reference generalized predictions

def quadrature_r(history, x_t, d: int, a: float, eta: float = 1.0) -> np.ndarray:
    """The shifted generalized prediction r by direct integration.

    r_i is the log-ratio (base e^-eta) of the prior-weighted exponentiated
    cumulative losses with the trial outcome hypothesized as class i versus
    class d, each integral evaluated on a tensor grid.  Total parameter
    dimension n(d-1) must be at most 3.
    """
    x_t = as_float_vector(x_t, "signal")
    n = x_t.size
    dim = n * (d - 1)
    if dim > 3:
        raise ValueError(f"quadrature limited to n(d-1) <= 3, got {dim}")
    if not (a > 0) or not (0 < eta <= 1):
        raise ValueError("need a > 0 and eta in (0, 1]")
    logs = np.zeros(d)
    for cls in range(d):
        outcome = np.zeros(d)
        outcome[cls] = 1.0
        fn = _literal_game_exponent(history, x_t, outcome, a, eta, d)
        h_mat, l_vec, c0 = _quadratic_from_evals(fn, dim)
        logs[cls] = log_gaussian_grid_integral(h_mat, l_vec, c0)
    return (logs[-1] - logs) / eta


def dense_maar_r(history, x_t, d: int, a: float) -> np.ndarray:
    """The joint forecaster's r from its definition: r_i = -b_i' A^{-1} z_i, dense.

    Sums C' (with x_t x_t') and h over the history, assembles the full block
    system A = aI + (I+J) kron C' with kron and solves it once per class i < d.
    """
    x_t = as_float_vector(x_t, "signal")
    m = d - 1
    xs = np.array([x for x, _ in history], dtype=float).reshape(-1, x_t.size)
    ys = np.array([y for _, y in history], dtype=float).reshape(-1, d)
    c = xs.T @ xs + np.outer(x_t, x_t)
    h = (-2.0 * (ys[:, :m] - ys[:, m:]).T @ xs).reshape(-1)
    system = a * np.eye(m * x_t.size) + np.kron(np.eye(m) + np.ones((m, m)), c)
    r = np.zeros(d)
    for i, unit in enumerate(np.eye(m)):
        r[i] = -(h + np.kron(1.0 - unit, x_t)) @ np.linalg.solve(system, -np.kron(1.0 + unit, x_t))
    return r


def _literal_gram(kernel, xs: np.ndarray) -> np.ndarray:
    """Gram matrix from the kernel's definition, over all pairs of rows at once."""
    if kernel.kind == "rbf":
        diff = xs[:, None, :] - xs[None, :, :]
        return np.exp(-np.sum(diff**2, axis=2) / (2.0 * kernel.sigma**2))
    inner = np.sum(xs[:, None, :] * xs[None, :, :], axis=2)
    return inner if kernel.kind == "dot" else (inner + kernel.offset) ** kernel.degree


def dense_kaar_r(history, x_t, kernel, d: int, a: float) -> np.ndarray:
    """The kernelized forecaster's r from its block definition, dense.

    Builds the Gram matrix over the history and x_t, the full system
    A = aI + (I+J) kron K with kron, the label rows Y~ and Y-, and solves A
    against the stacked kernel column (k, ..., 2k, ..., k) once per class i < d.
    """
    x_t = as_float_vector(x_t, "signal")
    m = d - 1
    xs = np.array([x for x, _ in history] + [x_t], dtype=float)
    ys = np.array([y for _, y in history], dtype=float).reshape(-1, d)
    gram = _literal_gram(kernel, xs)
    k = gram[:, -1]
    system = a * np.eye(m * k.size) + np.kron(np.eye(m) + np.ones((m, m)), gram)
    rows_full = np.hstack([-2.0 * (ys[:, :m] - ys[:, m:]).T, np.ones((m, 1))])
    rows_bar = np.hstack([rows_full[:, :-1], np.zeros((m, 1))])
    r = np.zeros(d)
    for i, unit in enumerate(np.eye(m)):
        left = np.where(unit[:, None] == 1.0, rows_bar, rows_full).reshape(-1)
        r[i] = left @ np.linalg.solve(system, np.kron(1.0 + unit, k))
    return r


def quadrature_component_forecast(
    history, x_t, component: int, d: int, a: float, eta: float = 2.0
) -> float:
    """One raw component forecast by direct integration of the scalar game.

    The scalar game for class i: outcomes in {0, 1}, experts 1/d + alpha'x
    with squared error, prior scale a, mixing rate eta (2 for this game).
    Returns 1/2 + (g(0) - g(1))/2 evaluated through quadrature.
    """
    x_t = as_float_vector(x_t, "signal")
    n = x_t.size
    if n > 3:
        raise ValueError(f"quadrature limited to n <= 3, got {n}")

    def exponent_for(outcome: float):
        def fn(alphas: np.ndarray) -> np.ndarray:
            batch = np.atleast_2d(alphas)
            out = a * np.sum(batch**2, axis=1)
            for xs, ys in history:
                pred = 1.0 / d + batch @ np.asarray(xs, dtype=float)
                out += (float(ys[component]) - pred) ** 2
            pred = 1.0 / d + batch @ x_t
            out += (outcome - pred) ** 2
            return eta * out
        return fn

    logs = []
    for outcome in (0.0, 1.0):
        h_mat, l_vec, c0 = _quadratic_from_evals(exponent_for(outcome), n)
        logs.append(log_gaussian_grid_integral(h_mat, l_vec, c0))
    g0_minus_g1 = (logs[1] - logs[0]) / eta
    return 0.5 + g0_minus_g1 / 2.0


# ---------------------------------------------------------------------------
# Exhaustive projection and generic quadratic minimization

def qp_projection(v) -> np.ndarray:
    """Simplex projection of a point, or of every row of a (N, d) array of points, by
    enumerating every candidate support set; all points take each set in one array step."""
    arr = np.asarray(v, dtype=float)
    points = as_float_vector(arr, "point")[None] if arr.ndim < 2 else arr
    if points.ndim != 2 or not np.isfinite(points).all():
        raise ValueError(f"points must be a finite vector or (N, d) array, got shape {arr.shape}")
    d = points.shape[1]
    if d > 8:
        raise ValueError(f"enumeration limited to d <= 8, got {d}")
    best = np.full(points.shape, np.nan)
    best_dist = np.full(len(points), np.inf)
    for mask_bits in range(1, 2**d):
        mask = np.array([(mask_bits >> i) & 1 for i in range(d)], dtype=bool)
        size = int(mask.sum())
        cand = np.zeros(points.shape)
        cand[:, mask] = points[:, mask] - (points[:, mask].sum(axis=1, keepdims=True) - 1.0) / size
        dist = np.sum((cand - points) ** 2, axis=1)
        better = (cand[:, mask].min(axis=1) >= -1e-12) & (dist < best_dist)
        best_dist[better] = dist[better]
        best[better] = np.maximum(cand[better], 0.0)
    if not np.isfinite(best_dist).all():
        raise InvariantViolation("no feasible support set found")
    return best if arr.ndim == 2 else best[0]


def numeric_quadratic_min(a_mat, b_vec, const: float = 0.0, tol: float = 1e-10):
    """Minimize x'Ax + b'x + c by conjugate gradients on the gradient system.

    A must be symmetric positive definite; iterates until the gradient norm
    falls below ``tol``.  Returns (argmin, minimum value).
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))
    dim = b_vec.size
    try:
        np.linalg.cholesky(a_mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix must be symmetric positive definite") from exc

    x = np.zeros(dim)
    grad = 2.0 * a_mat @ x + b_vec
    direction = -grad
    for _ in range(20 * dim + 50):
        if np.linalg.norm(grad) <= tol:
            break
        ad = 2.0 * a_mat @ direction
        step = -(grad @ direction) / (direction @ ad)
        x = x + step * direction
        new_grad = 2.0 * a_mat @ x + b_vec
        beta = (new_grad @ new_grad) / (grad @ grad)
        grad = new_grad
        direction = -grad + beta * direction
    value = float(x @ a_mat @ x + b_vec @ x + const)
    return x, value
