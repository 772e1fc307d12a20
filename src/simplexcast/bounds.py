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

from .core import InvariantViolation, as_float_vector, stack_trials
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


# ---------------------------------------------------------------------------
# Linear comparators

def expert_forecasts(alpha, signals: np.ndarray, d: int) -> np.ndarray:
    """(T, d) forecasts of one linear expert: blocks on top, remainder last."""
    alpha = alpha.alpha if isinstance(alpha, LinearExpert) else as_float_vector(alpha)
    m = d - 1
    blocks = alpha.reshape(m, -1)
    u = signals @ blocks.T
    return np.concatenate([1.0 / d + u, 1.0 / d - u.sum(axis=1, keepdims=True)], axis=1)


def expert_loss(alpha, data) -> float:
    """Cumulative Brier loss of a linear expert over the stream."""
    signals, outcomes = stack_trials(data)
    if signals.shape[0] == 0:
        return 0.0
    xi = expert_forecasts(alpha, signals, outcomes.shape[1])
    return float(np.sum((outcomes - xi) ** 2))


def best_linear_expert(data, a: float) -> tuple[LinearExpert, float]:
    """Minimizer of cumulative loss + a |alpha|^2 and its objective value.

    The objective is the quadratic alpha'(aI + (I+J) kron C)alpha + g'alpha
    + const, so the normal equations go through the same structured solve the
    forecaster uses.
    """
    if not (a > 0):
        raise ValueError("ridge must be positive")
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

def kernel_expert_values(expert: KernelExpert, gram: np.ndarray) -> np.ndarray:
    """(T, d-1) values f_i(x_t) = (K c_i)_t on the training signals."""
    return (gram @ expert.coeffs.T)


def _kernel_loss(expert: KernelExpert, gram: np.ndarray, outcomes: np.ndarray) -> float:
    values = kernel_expert_values(expert, gram)
    d = outcomes.shape[1]
    xi = np.concatenate([1.0 / d + values, 1.0 / d - values.sum(axis=1, keepdims=True)], axis=1)
    return float(np.sum((outcomes - xi) ** 2))


def kernel_expert_loss(expert: KernelExpert, data) -> float:
    """Cumulative Brier loss of a kernel comparator over its own stream."""
    signals, outcomes = stack_trials(data)
    return _kernel_loss(expert, expert.kernel.gram(signals), outcomes)


def kernel_expert_norms(expert: KernelExpert, gram: np.ndarray) -> float:
    """sum_i |f_i|^2 = sum_i c_i' K c_i."""
    return float(np.sum(expert.coeffs * (expert.coeffs @ gram)))


def best_kernel_expert(data, kernel: Kernel, a: float,
                       gram: np.ndarray | None = None) -> tuple[KernelExpert, float, float]:
    """Minimizer of loss + a sum |f_i|^2 over representer coefficients.

    Returns (expert, its cumulative loss, sum of squared norms).  Solving
    (aI + (I+J) kron K) c = v with v_i = y^i - y^d makes the full gradient
    vanish, so the solution is a global minimizer even when K is singular.
    ``gram`` is the kernel's Gram matrix over the stream's signals, for a
    caller that already has it.
    """
    if not (a > 0):
        raise ValueError("ridge must be positive")
    signals, outcomes = stack_trials(data)
    t_len = signals.shape[0]
    d = outcomes.shape[1]
    m = d - 1
    if gram is None:
        gram = kernel.gram(signals)
    v = (outcomes[:, :m] - outcomes[:, [m]]).T  # (m, T)
    coeffs = solve_structured(a, d, gram, v.reshape(-1)).reshape(m, t_len)
    expert = KernelExpert(coeffs, kernel)
    return expert, _kernel_loss(expert, gram, outcomes), kernel_expert_norms(expert, gram)


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
    """
    t_len = gram.shape[0]
    eye = np.eye(t_len)
    sign_d, logdet_d = np.linalg.slogdet(eye + d * gram / a)
    sign_1, logdet_1 = np.linalg.slogdet(eye + gram / a)
    if sign_d <= 0 or sign_1 <= 0:
        raise InvariantViolation("kernel determinant term is not positive")
    return float(logdet_d + (d - 2) * logdet_1)


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
        gram = kernel.gram(signals)
        _, loss_f, norms = best_kernel_expert(stream, kernel, ridge, gram)
        rhs = kernel_bound_rhs(loss_f, norms, ridge, gram_logdet_regret(gram, ridge, d))
        return [BoundReport("kernel", kind, loss, loss_f, rhs)]
    raise ValueError(f"unknown algorithm kind {kind!r}")
