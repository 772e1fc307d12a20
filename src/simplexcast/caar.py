"""Component-wise aggregating forecaster with simplex projection.

Each class probability is forecast by its own scalar square-loss aggregating
regressor over experts 1/d + alpha_i'x, which collapses to the closed form

    gamma^i = 1/d + (E_i' + ((d-2)/(2d)) x') (aI + B + x x')^{-1} x,

with B = sum x_t x_t' and E_i = sum (y_t^i - 1/d) x_t over past trials.  The
raw vector generally leaves the simplex (its components sum to
1 + ((d-2)/2) x'(aI+B+xx')^{-1}x), so the final forecast is its Euclidean
projection, which never increases the loss.

The shared matrix-vector product is computed once per trial; the inverse of
(aI + B) is maintained by MAAR's guarded rank-one updates and refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DimensionMismatch, ProbabilityVector, _unwrap
from .maar import REFRESH_EVERY, MaarConfig, check_signal, refresh_inverse, sm_denominator, sm_update
from .projection import project_to_simplex


@dataclass
class _InverseCache:
    """Incrementally maintained (aI + B)^{-1} for a fixed ridge a."""

    a: float
    minv: np.ndarray


@dataclass
class CaarState:
    """B = sum x_t x_t' and per-class accumulators E_i = sum (y^i - 1/d) x_t."""

    b_core: np.ndarray      # (n, n)
    e: np.ndarray           # (d, n), row i is E_i
    t: int = 0
    inv_cache: _InverseCache | None = field(default=None, repr=False)

    @classmethod
    def zero(cls, cfg: MaarConfig, cache: bool = True) -> "CaarState":
        inv = _InverseCache(cfg.a, np.eye(cfg.n) / cfg.a) if cache else None
        return cls(np.zeros((cfg.n, cfg.n)), np.zeros((cfg.d, cfg.n)), 0, inv)


def caar_predict_raw(state: CaarState, cfg: MaarConfig, x) -> np.ndarray:
    """Per-class forecasts before projection (length d, may leave the simplex)."""
    xa = check_signal(x, cfg.n)
    cache = state.inv_cache
    if cache is not None and cache.a == cfg.a:
        u = cache.minv @ xa
    else:
        u = np.linalg.solve(cfg.a * np.eye(cfg.n) + state.b_core, xa)
    # (aI + B + xx')^{-1} x collapses to a scalar rescale of (aI + B)^{-1} x.
    shared = u / sm_denominator(xa, u, 1.0, state.t + 1)
    return 1.0 / cfg.d + state.e @ shared + ((cfg.d - 2.0) / (2.0 * cfg.d)) * (xa @ shared)


def caar_predict(state: CaarState, cfg: MaarConfig, x) -> ProbabilityVector:
    return project_to_simplex(caar_predict_raw(state, cfg, x))


def caar_update(state: CaarState, x, y) -> CaarState:
    """Commit the trial: B += x x', E_i += (y^i - 1/d) x."""
    ya = _unwrap(y)
    d = state.e.shape[0]
    if ya.size != d:
        raise DimensionMismatch(f"outcome has {ya.size} classes, expected {d}")
    xa = check_signal(x, state.b_core.shape[0])
    trial = state.t + 1
    b2 = state.b_core + np.outer(xa, xa)
    e2 = state.e + (ya - 1.0 / d)[:, None] * xa[None, :]
    cache = state.inv_cache
    if cache is not None:
        u = cache.minv @ xa
        minv = sm_update(cache.minv, u, 1.0, sm_denominator(xa, u, 1.0, trial))
        if trial % REFRESH_EVERY == 0:
            minv = refresh_inverse(minv, cache.a * np.eye(xa.size) + b2, trial)
        cache = _InverseCache(cache.a, minv)
    return CaarState(b2, e2, trial, cache)


class CaarForecaster:
    """Sequential predict/update wrapper around the component-wise forecaster."""

    def __init__(self, n: int, d: int, a: float = 1.0):
        self.cfg = MaarConfig(n, d, a)
        self.state = CaarState.zero(self.cfg)

    @property
    def t(self) -> int:
        return self.state.t

    def predict_raw(self, x) -> np.ndarray:
        return caar_predict_raw(self.state, self.cfg, x)

    def predict(self, x) -> ProbabilityVector:
        return caar_predict(self.state, self.cfg, x)

    def update(self, x, y) -> None:
        self.state = caar_update(self.state, x, y)
