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

from .core import InvariantViolation, as_float_vector, check_ridge, stack_trials
from .maar import solve_structured

if TYPE_CHECKING:
    from .kaar import Kernel


@dataclass(frozen=True)
class LinearExpert:
    """Coefficient blocks alpha_1..alpha_{d-1}, flattened to length n(d-1)."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_float_vector(self.alpha, "alpha"))

    @property
    def norm_sq(self) -> float:
        return float(self.alpha @ self.alpha)


@dataclass(frozen=True)
class KernelExpert:
    """Representer coefficients (d-1 blocks of length T) plus their kernel."""

    coeffs: np.ndarray  # (d-1, T)
    kernel: Kernel

    def scaled(self, factor: float) -> "KernelExpert":
        return KernelExpert(self.coeffs * factor, self.kernel)


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
    + const, so the normal equations go through the same structured solve the
    forecaster uses.
    """
    check_ridge(a)
    stream = stack_trials(data)
    signals, outcomes = stream
    if signals.shape[0] == 0:
        return LinearExpert(np.zeros(0)), 0.0
    t_len, n = signals.shape
    d = outcomes.shape[1]
    m = d - 1
    c_mat = signals.T @ signals
    g = -2.0 * (outcomes[:, :m] - outcomes[:, [m]]).T @ signals  # (m, n) blocks
    alpha = solve_structured(a, d, c_mat, -g.reshape(-1) / 2.0)
    expert = LinearExpert(alpha)
    value = expert_loss(expert, stream) + a * expert.norm_sq
    return expert, value


# ---------------------------------------------------------------------------
# Kernel comparators

def kernel_expert_loss(expert: KernelExpert, data) -> float:
    """Cumulative Brier loss of a kernel comparator over its own stream."""
    signals, outcomes = stack_trials(data)
    return _comparator_loss(expert.kernel.gram(signals) @ expert.coeffs.T, outcomes)


def kernel_expert_norms(expert: KernelExpert, gram: np.ndarray) -> float:
    """sum_i |f_i|^2 = sum_i c_i' K c_i."""
    return float(np.sum(expert.coeffs * (expert.coeffs @ gram)))


def _kernel_systems(gram: np.ndarray, a: float, d: int, v: np.ndarray) -> tuple[float, np.ndarray]:
    """log det(I + (I+J) kron K / a), and the solution c of (aI + (I+J) kron K) c = v, both
    (d-1, T).

    The eigen-split of I+J leaves two T x T systems: I + dK/a, which block means go
    through, and I + K/a for the deviations (d > 2 only).  Each is built in place and
    factored once by Cholesky, one at a time, so that no two factors are alive together;
    its diagonal gives the log-determinant and the same factor solves c's share.  A
    system that is not positive definite raises InvariantViolation.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs   # scipy loads only for kernel guarantees
    t_len = gram.shape[0]
    mean = v.mean(axis=0)
    c = np.empty_like(v)
    logdet = 0.0
    for s, weight in ((d, 1), (1, d - 2))[:1 if d == 2 else 2]:
        system = np.multiply(gram, s / a)
        system.flat[::t_len + 1] += 1.0
        factor, info = dpotrf(system.T, lower=1, clean=0, overwrite_a=1)   # system is symmetric
        logdet_s = math.nan if info else 2.0 * float(np.log(np.diagonal(factor)).sum())
        if not math.isfinite(logdet_s):
            raise InvariantViolation(f"kernel guarantee: I + {s:g}K/a is not positive definite (ridge {a!r})")
        logdet += weight * logdet_s
        if t_len:
            rhs = mean[:, None] if s == d else (v - mean).T
            solved, _ = dpotrs(factor, rhs / a, lower=1)
            if s == d:
                c[:] = solved[:, 0]   # the block mean's share, the same for every class
            else:
                c += solved.T         # each class's deviation from it
        del system, factor   # one buffer: the next system is built only after this one is gone
    return logdet, c


def _kernel_comparator(data, kernel: Kernel, a: float, gram: np.ndarray | None):
    """``best_kernel_expert``'s three values and the determinant term, from one factor per system."""
    check_ridge(a)
    signals, outcomes = stack_trials(data)
    m = outcomes.shape[1] - 1
    if gram is None:
        gram = kernel.gram(signals)
    logdet, coeffs = _kernel_systems(gram, a, m + 1, (outcomes[:, :m] - outcomes[:, [m]]).T)
    expert = KernelExpert(coeffs, kernel)
    return expert, _comparator_loss(gram @ coeffs.T, outcomes), kernel_expert_norms(expert, gram), logdet


def best_kernel_expert(data, kernel: Kernel, a: float,
                       gram: np.ndarray | None = None) -> tuple[KernelExpert, float, float]:
    """Minimizer of loss + a sum |f_i|^2 over representer coefficients.

    Returns (expert, its cumulative loss, sum of squared norms).  Solving
    (aI + (I+J) kron K) c = v with v_i = y^i - y^d makes the full gradient
    vanish, so the solution is a global minimizer even when K is singular.
    ``gram`` is the kernel's Gram matrix over the stream's signals, for a
    caller that already has it.
    """
    return _kernel_comparator(data, kernel, a, gram)[:3]


# ---------------------------------------------------------------------------
# Right-hand sides of the guarantees

def per_component_bound_rhs(t_len, x_max, n, lo, hi, a, norm_sq) -> float:
    """Scalar square-loss game on [lo, hi]: a|alpha|^2 + n(hi-lo)^2/4 log(T X^2/a + 1)."""
    return a * norm_sq + n * (hi - lo) ** 2 / 4.0 * math.log(t_len * x_max**2 / a + 1.0)


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


def horizon_tuned_bound_rhs(c_f, cap, d, t_len) -> float:
    """Regret cap 2 c_F F sqrt((d-1) T) at the horizon-tuned prior scale."""
    return 2.0 * c_f * cap * math.sqrt((d - 1) * t_len)


def gram_logdet_regret(gram: np.ndarray, a: float, d: int) -> float:
    """log det(I + (I+J) kron K / a), via the eigen-split:

    log det(I + dK/a) + (d-2) log det(I + K/a).

    This is the determinant term of the kernel guarantee; normalizing by a
    keeps it invariant to the representation (primal or dual) of the system.
    Each system is factored once by Cholesky, and each log-determinant is twice
    the sum of the logs of its factor's diagonal; ``bound_reports`` solves the
    comparator's systems with the same factors.  A system that is not positive
    definite raises InvariantViolation.
    """
    check_ridge(a)
    gram = np.asarray(gram, dtype=float)
    return _kernel_systems(gram, a, d, np.zeros((d - 1, gram.shape[0])))[0]


# ---------------------------------------------------------------------------
# Guarantees per algorithm

def bound_reports(data, kind: str, ridge: float, loss: float,
                  kernel: Kernel | None = None) -> list[BoundReport]:
    """Check every guarantee of algorithm ``kind`` at prior scale ``ridge`` against a run's loss.

    ``kind`` is one of "caar", "maar", "kaar" (which needs ``kernel``) and ``loss``
    is the run's cumulative loss over ``data``, a LabeledStream, Trials or sequence of
    (signal, outcome) pairs, validated once.  Returns one report per guarantee;
    slack below -1e-6 indicates a broken implementation.
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
        expert, _ = best_linear_expert(stream, d * ridge)
        base = expert_loss(expert, stream)
        rhs = base + componentwise_bound_rhs(t_len, x_max, n, d, ridge, expert.norm_sq)
        return [BoundReport("componentwise", kind, loss, base, rhs)]
    if kind == "maar":
        expert, _ = best_linear_expert(stream, ridge)
        base = expert_loss(expert, stream)
        # The run used prior scale `ridge`; the two guarantees book the same
        # penalty against different log terms (2a = ridge vs a = ridge).
        rhs_joint = base + joint_bound_rhs(t_len, x_max, n, d, ridge / 2.0, expert.norm_sq)
        rhs_split = base + joint_split_bound_rhs(t_len, x_max, n, d, ridge, expert.norm_sq)
        return [BoundReport("joint", kind, loss, base, rhs_joint),
                BoundReport("joint_split", kind, loss, base, rhs_split)]
    if kind == "kaar":
        if kernel is None:
            raise ValueError("kernel required for kind='kaar'")
        _, loss_f, norms, logdet = _kernel_comparator(stream, kernel, ridge, None)
        rhs = kernel_bound_rhs(loss_f, norms, ridge, logdet)
        return [BoundReport("kernel", kind, loss, loss_f, rhs)]
    raise ValueError(f"unknown algorithm kind {kind!r}")
