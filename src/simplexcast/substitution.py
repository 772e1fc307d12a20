"""Turn a shifted generalized prediction into a simplex forecast.

Given r in R^d, find the unique s with sum_i (s - r_i)^+ = 2 and output
gamma_i = (s - r_i)^+ / 2.  The left-hand side is piecewise linear and
nondecreasing in s with breakpoints at the r_i, so s is found exactly by
sorting r and scanning the segments; no iteration is needed.

The map is invariant under adding a common constant to every r_i, which is
what lets the forecasters skip weight normalization when they assemble r.

``substitute_rows`` runs the same scan on every row of a (G, d) batch at once, for
the ridge lanes of the benchmark protocol; ``solve_substitution`` stays the
per-trial path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvariantViolation, ProbabilityVector, as_float_vector


@dataclass(frozen=True)
class GeneralizedPrediction:
    """Shifted potential-loss vector, one entry per possible outcome class."""

    r: np.ndarray

    def __post_init__(self):
        arr = as_float_vector(self.r, "generalized prediction")
        arr = np.array(arr, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    @property
    def d(self) -> int:
        return self.r.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.r, dtype=dtype)


def _coerce(r) -> np.ndarray:
    if isinstance(r, GeneralizedPrediction):
        return r.r
    return as_float_vector(r, "generalized prediction")


def substitution_threshold(r) -> float:
    """The s solving sum_i (s - r_i)^+ = 2."""
    arr = _coerce(r)
    d = arr.size
    if d < 2:
        raise ValueError(f"need at least 2 classes, got {d}")
    # Ascending sort; ties resolved by index order, which cannot change the
    # result since equal breakpoints merge into one segment.
    ordered = np.sort(arr, kind="stable")
    prefix = np.cumsum(ordered)
    for k in range(1, d + 1):
        s = (2.0 + prefix[k - 1]) / k
        if s > ordered[k - 1] and (k == d or s <= ordered[k]):
            return float(s)
    raise InvariantViolation("piecewise-linear scan failed to bracket s")


def solve_substitution(r) -> ProbabilityVector:
    """Forecast gamma with gamma_i = (s - r_i)^+ / 2 at the solved threshold."""
    arr = _coerce(r)
    s = substitution_threshold(arr)
    gamma = np.maximum(s - arr, 0.0) / 2.0
    return ProbabilityVector(gamma)


def substitute_rows(r) -> np.ndarray:
    """solve_substitution on each row of a (G, d) batch, as a (G, d) array of forecasts.

    The same sort, prefix sums and first bracketing segment per row, so every row
    equals solve_substitution's forecast bit for bit.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ValueError(f"generalized predictions must be a finite (G, d) array, got shape {arr.shape}")
    d = arr.shape[1]
    if d < 2:
        raise ValueError(f"need at least 2 classes, got {d}")
    ordered = np.sort(arr, axis=1, kind="stable")
    s = (2.0 + np.cumsum(ordered, axis=1)) / np.arange(1, d + 1)
    upper = np.concatenate([ordered[:, 1:], np.full((len(arr), 1), np.inf)], axis=1)
    brackets = (s > ordered) & (s <= upper)
    if not brackets.any(axis=1).all():
        raise InvariantViolation("piecewise-linear scan failed to bracket s")
    k = np.argmax(brackets, axis=1)
    return np.maximum(s[np.arange(len(arr)), k][:, None] - arr, 0.0) / 2.0
