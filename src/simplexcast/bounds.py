"""Best-in-hindsight comparators and worst-case loss guarantees.

Every forecaster in this package carries a guarantee of the shape

    cumulative loss  <=  comparator loss + penalty + log term,

valid for EVERY comparator in its class.  This module computes the
regularized-best comparator (which makes verification maximally stringent),
evaluates the guarantee's right-hand side, and reports the slack against an
actual run.  Negative slack beyond tolerance means a bug, not bad luck: the
guarantees are worst-case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import DimensionMismatch, InvariantViolation, as_float_vector, check_ridge, stack_trials

if TYPE_CHECKING:
    from .kaar import KaarForecaster, Kernel

# A slack below this fails a run: only rounding may eat into a worst-case guarantee.
SLACK_GATE = -1e-6


@dataclass(frozen=True, eq=False)
class LinearExpert:
    """Coefficient blocks alpha_1..alpha_{d-1}, flattened to length n(d-1)."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_float_vector(self.alpha, "alpha"))

    @property
    def norm_sq(self) -> float:
        return float(self.alpha @ self.alpha)


@dataclass(frozen=True, eq=False)
class KernelExpert:
    """Representer coefficients (d-1 blocks of length T) plus their kernel."""

    coeffs: np.ndarray  # (d-1, T)
    kernel: Kernel


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one guarantee against one run."""

    bound: str
    algorithm: str
    algorithm_loss: float
    expert_loss: float
    bound_value: float

    @property
    def slack(self) -> float:
        return self.bound_value - self.algorithm_loss


def _comparator_loss(values: np.ndarray, outcomes: np.ndarray) -> float:
    """Cumulative Brier loss against the (T, d) outcomes of a comparator whose (T, d-1) values
    v (alpha_i'x_t, or f_i(x_t) for a kernel comparator) give the forecasts 1/d + v_i for
    i < d and 1/d - sum_i v_i for class d."""
    d = outcomes.shape[1]
    xi = np.concatenate([1.0 / d + values, 1.0 / d - values.sum(axis=1, keepdims=True)], axis=1)
    return float(np.sum((outcomes - xi) ** 2))


# ---------------------------------------------------------------------------
# Eigen-split solves of aI + (I+J) kron C

def solve_structured(a: float, d: int, c: np.ndarray, rhs) -> np.ndarray:
    """Apply (aI + (I+J) kron C)^{-1} to the vector rhs, of length (d-1)*n, using the
    eigen-split of I+J.

    ``c`` is the n x n block.  Block means travel through (aI + dC)^{-1}, as one (n, 1)
    column, and deviations through (aI + C)^{-1}, as the (n, d-1) columns of the blocks.
    A ``c`` or rhs that is not finite raises ValueError; a system numpy cannot solve, or
    whose solution is not finite, raises InvariantViolation naming the ridge and the system.
    """
    check_ridge(a)
    m = d - 1
    n = c.shape[0]
    arr = np.asarray(rhs, dtype=float)
    if arr.shape != (m * n,):
        raise DimensionMismatch(f"rhs has shape {arr.shape}, expected ({m * n},)")
    if not (np.isfinite(c).all() and np.isfinite(arr).all()):
        raise ValueError("the structured solve needs a finite C and right-hand side")
    blocks = arr.reshape(m, n)
    mean = blocks.mean(axis=0)
    out = _solved(a, "aI + dC", d, c, mean[:, None]).T   # the block mean's share, the same for every block
    if m > 1:
        out = out + _solved(a, "aI + C", 1, c, (blocks - mean).T).T   # each block's deviation from it
    return out.reshape(m * n)


@np.errstate(over="ignore")   # an overflow gives inf, which the solve or the check below rejects
def _solved(a: float, system: str, s: float, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(aI + sC)^{-1} rhs, where ``system`` names aI + sC in an InvariantViolation."""
    try:
        out = np.linalg.solve(a * np.eye(len(c)) + s * c, rhs)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(f"at ridge {a!r}, {system} cannot be solved: {exc}") from exc
    if not np.isfinite(out).all():
        raise InvariantViolation(f"at ridge {a!r}, {system} has a solution that is not finite")
    return out


def _kernel_systems(gram: np.ndarray, a: float, d: int, v: np.ndarray) -> tuple[float, np.ndarray]:
    """log det(I + (I+J) kron K / a), and the solution c of (aI + (I+J) kron K) c = v, both
    (d-1, T).

    The eigen-split of I+J leaves two T x T systems: I + dK/a, which block means go
    through, and I + K/a for the deviations (d > 2 only).  Each is built in place and
    factored once by Cholesky, one at a time, so that no two factors are alive together;
    its diagonal gives the log-determinant and the same factor solves c's share.  A
    system that is not positive definite raises InvariantViolation.
    """
    from .kaar import _fortran   # LAPACK loads only for kernel guarantees
    lapack = _fortran("_flapack")
    t_len = gram.shape[0]
    mean = v.mean(axis=0)
    c = np.empty_like(v)
    logdet = 0.0
    for s, weight in ((d, 1), (1, d - 2))[:1 if d == 2 else 2]:
        system = np.multiply(gram, s / a)
        system.flat[::t_len + 1] += 1.0
        factor, info = lapack.dpotrf(system.T, lower=1, clean=0, overwrite_a=1)   # system is symmetric
        logdet_s = math.nan if info else 2.0 * float(np.log(np.diagonal(factor)).sum())
        if not math.isfinite(logdet_s):
            raise InvariantViolation(f"kernel guarantee: I + {s:g}K/a is not positive definite (ridge {a!r})")
        logdet += weight * logdet_s
        if t_len:
            rhs = mean[:, None] if s == d else (v - mean).T
            solved, _ = lapack.dpotrs(factor, rhs / a, lower=1)
            if s == d:
                c[:] = solved[:, 0]   # the block mean's share, the same for every class
            else:
                c += solved.T         # each class's deviation from it
        del system, factor   # one buffer: the next system is built only after this one is gone
    return logdet, c


# ---------------------------------------------------------------------------
# Linear comparators

def expert_loss(alpha, data) -> float:
    """Cumulative Brier loss of a linear expert over the stream."""
    signals, outcomes = stack_trials(data)
    if signals.shape[0] == 0:
        return 0.0
    alpha = alpha.alpha if isinstance(alpha, LinearExpert) else as_float_vector(alpha)
    return _comparator_loss(signals @ alpha.reshape(outcomes.shape[1] - 1, -1).T, outcomes)


def best_linear_expert(data, a: float) -> tuple[LinearExpert, float]:
    """Minimizer of cumulative loss + a |alpha|^2 and its objective value.

    The objective is the quadratic alpha'(aI + (I+J) kron C)alpha + g'alpha
    + const, so the normal equations go through ``solve_structured``.  Signals so large
    that C or g overflows raise ValueError naming their scale.
    """
    expert, loss = _linear_comparator(data, a)
    return expert, loss + a * expert.norm_sq


def _linear_comparator(data, a: float) -> tuple[LinearExpert, float]:
    """``best_linear_expert``'s minimizer and its cumulative loss alone."""
    check_ridge(a)
    stream = stack_trials(data)
    signals, outcomes = stream
    if signals.shape[0] == 0:
        return LinearExpert(np.zeros(0)), 0.0
    m = outcomes.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):   # inf, or inf - inf, is rejected below
        c_mat = signals.T @ signals
        g = -2.0 * (outcomes[:, :m] - outcomes[:, [m]]).T @ signals  # (m, n) blocks
    if not (np.isfinite(c_mat).all() and np.isfinite(g).all()):
        raise ValueError(f"signals of scale {float(np.max(np.abs(signals))):.3g} overflow the linear "
                         "comparator's C = sum x x'")
    expert = LinearExpert(solve_structured(a, m + 1, c_mat, -g.reshape(-1) / 2.0))
    return expert, expert_loss(expert, stream)


# ---------------------------------------------------------------------------
# Kernel comparators

def _kernel_comparator(data, kernel: Kernel, a: float):
    """``best_kernel_expert``'s three values and the determinant term, from one factor per system.
    A Gram matrix or system that cannot be allocated raises ValueError naming T and the GiB."""
    check_ridge(a)
    signals, outcomes = stack_trials(data)
    t_len, m = signals.shape[0], outcomes.shape[1] - 1
    if not t_len:   # d is unknown (0) unless ``data`` is a Trials of width d
        return KernelExpert(np.zeros((max(m, 0), 0)), kernel), 0.0, 0.0, 0.0
    try:
        gram = kernel.gram(signals)
        logdet, coeffs = _kernel_systems(gram, a, m + 1, (outcomes[:, :m] - outcomes[:, [m]]).T)
    except MemoryError as exc:
        raise ValueError(f"the kernel guarantee cannot hold {t_len} trials: its T x T Gram matrix and "
                         f"system need {2 * 8 * t_len**2 / 2**30:.3g} GiB") from exc
    norms = float(np.sum(coeffs * (coeffs @ gram)))   # sum_i |f_i|^2 = sum_i c_i' K c_i
    return KernelExpert(coeffs, kernel), _comparator_loss(gram @ coeffs.T, outcomes), norms, logdet


def best_kernel_expert(data, kernel: Kernel, a: float) -> tuple[KernelExpert, float, float]:
    """Minimizer of loss + a sum |f_i|^2 over representer coefficients.

    Returns (expert, its cumulative loss, sum of squared norms).  Solving
    (aI + (I+J) kron K) c = v with v_i = y^i - y^d makes the full gradient
    vanish, so the solution is a global minimizer even when K is singular.
    """
    return _kernel_comparator(data, kernel, a)[:3]


def kernel_report(model: KaarForecaster, outcomes, loss: float) -> BoundReport:
    """The kernel guarantee of a KAAR run, read off the forecaster's own state.

    ``model`` is a KaarForecaster of one ridge a (a lane split off by ``lane`` will do) that
    has run over the (T, d) ``outcomes``, and ``loss`` is that run's cumulative loss.  Its
    factors L_s L_s' = aI + sK and G_s = L_s^{-1} R' hold what ``_kernel_comparator`` builds a
    Gram matrix and two Cholesky factorizations for.  With v_i = y^i - y^d, v~ their mean over
    classes and rho the factors' diagonals, log det = sum log(rho_d^2/a) + (d - 2) sum
    log(rho_1^2/a); the mean coefficient is c~ = L_d^{-T}(-mean_i G_d[:, i] / 2), and the
    deviations c_i' = L_1^{-T}(-(G_1[:, i] - mean_i G_1[:, i]) / 2), each one back-solve
    on the packed factor.  Then K c~ = (v~ - a c~)/d and K c_i' = (v_i - v~) - a c_i', so
    K itself is never needed.  A forecaster with ridge lanes, or outcomes of another shape
    than its T trials of d classes, raise ValueError; a determinant term that is not finite
    raises InvariantViolation.
    """
    if model._lanes:
        raise ValueError("kernel_report takes a forecaster of one ridge; split a lane off with lane(g)")
    t_len, d, a = model.t, model.d, model.a
    ys = np.asarray(outcomes, dtype=float)
    if ys.shape != (t_len, d):
        raise ValueError(f"outcomes of shape {ys.shape} for a forecaster of {t_len} trials of {d} classes")
    if not t_len:
        return BoundReport("kernel", "kaar", loss, 0.0, 0.0)
    from .kaar import dtpsv   # loaded with the forecaster
    with np.errstate(over="ignore", divide="ignore"):   # a log of inf or 0 is rejected below
        logs = np.log(np.square(model._diagonal()) / a).sum(axis=1)
    logdet = float(logs[0] + (d - 2) * logs[-1]) if d > 2 else float(logs[0])
    if not math.isfinite(logdet):
        raise InvariantViolation(f"kernel guarantee: log det of the factors is {logdet!r} (ridge {a!r})")
    v = (ys[:, :-1] - ys[:, -1:]).T   # (d-1, T)
    v_mean = v.mean(axis=0)
    g = model._g[:, :t_len]
    c_mean = dtpsv(t_len, model._packed[0], g[0].mean(axis=1) / -2.0, 1, 0, 0, 0, 0, 1)
    coeffs, values = np.tile(c_mean, (d - 1, 1)), np.tile((v_mean - a * c_mean) / d, (d - 1, 1))
    if d > 2:
        for c, values_i, v_i, g_i in zip(coeffs, values, v, (g[1] - g[1].mean(axis=1, keepdims=True)).T):
            dev = dtpsv(t_len, model._packed[1], g_i / -2.0, 1, 0, 0, 0, 0, 1)
            c += dev
            values_i += (v_i - v_mean) - a * dev
    norms = float(np.sum(coeffs * values))   # sum_i |f_i|^2 = sum_i c_i' K c_i
    loss_f = _comparator_loss(values.T, ys)
    return BoundReport("kernel", "kaar", loss, loss_f, kernel_bound_rhs(loss_f, norms, a, logdet))


# ---------------------------------------------------------------------------
# Right-hand sides of the guarantees

def componentwise_bound_rhs(t_len, x_max, n, d, a, norm_sq) -> float:
    """Component-wise forecaster: d a |alpha|^2 + (nd/4) log(T X^2/a + 1)."""
    return d * a * norm_sq + n * d / 4.0 * math.log(t_len * x_max**2 / a + 1.0)


def joint_bound_rhs(t_len, x_max, n, d, a, norm_sq) -> float:
    """Joint forecaster at prior scale 2a: 2a|alpha|^2 + (n(d-1)/2) log(T X^2/a + 1)."""
    return 2.0 * a * norm_sq + n * (d - 1) / 2.0 * math.log(t_len * x_max**2 / a + 1.0)


def joint_split_bound_rhs(t_len, x_max, n, d, a, norm_sq) -> float:
    """Joint forecaster at prior scale a, with the determinant split by eigenvalue:

    a|alpha|^2 + (n(d-2)/2) log(T X^2/a + 1) + (n/2) log(T X^2 d/a + 1).
    """
    log1 = math.log(t_len * x_max**2 / a + 1.0)
    logd = math.log(t_len * x_max**2 * d / a + 1.0)
    return a * norm_sq + n * (d - 2) / 2.0 * log1 + n / 2.0 * logd


def kernel_bound_rhs(loss_f, norms, a, logdet) -> float:
    """Kernel forecaster: L(f) + a sum |f_i|^2 + (1/2) logdet."""
    return loss_f + a * norms + 0.5 * logdet


# ---------------------------------------------------------------------------
# Guarantees per algorithm

def bound_reports(data, kind: str, ridge: float, loss: float,
                  kernel: Kernel | None = None) -> list[BoundReport]:
    """Check every guarantee of algorithm ``kind`` at prior scale ``ridge`` against a run's loss.

    ``kind`` is one of "caar", "maar", "kaar" (which needs ``kernel``) and ``loss``
    is the run's cumulative loss over ``data``, a LabeledStream, Trials or sequence of
    (signal, outcome) pairs, validated once.  Returns one report per guarantee;
    slack below SLACK_GATE indicates a broken implementation.
    """
    stream = stack_trials(data)
    signals, outcomes = stream
    t_len, n = signals.shape
    d = outcomes.shape[1]
    x_max = float(np.max(np.abs(signals))) if t_len else 0.0
    if kind == "caar":
        if not d * ridge < math.inf:
            raise ValueError(f"ridge {ridge!r} is too large: "
                             f"CAAR's comparator ridge {d} * {ridge!r} overflows")
        expert, base = _linear_comparator(stream, d * ridge)
        rhs = base + componentwise_bound_rhs(t_len, x_max, n, d, ridge, expert.norm_sq)
        return [BoundReport("componentwise", kind, loss, base, rhs)]
    if kind == "maar":
        expert, base = _linear_comparator(stream, ridge)
        # The run used prior scale `ridge`; the two guarantees book the same
        # penalty against different log terms (2a = ridge vs a = ridge).
        rhs_joint = base + joint_bound_rhs(t_len, x_max, n, d, ridge / 2.0, expert.norm_sq)
        rhs_split = base + joint_split_bound_rhs(t_len, x_max, n, d, ridge, expert.norm_sq)
        return [BoundReport("joint", kind, loss, base, rhs_joint),
                BoundReport("joint_split", kind, loss, base, rhs_split)]
    if kind == "kaar":
        _, loss_f, norms, logdet = _kernel_comparator(stream, kernel, ridge)
        rhs = kernel_bound_rhs(loss_f, norms, ridge, logdet)
        return [BoundReport("kernel", kind, loss, loss_f, rhs)]
    raise ValueError(f"unknown algorithm kind {kind!r}")
