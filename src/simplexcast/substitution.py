"""Turn a shifted generalized prediction into a simplex forecast.

Given r in R^d, find the unique s with sum_i (s - r_i)^+ = 2 and output
gamma_i = (s - r_i)^+ / 2.  The left-hand side is piecewise linear and
nondecreasing in s with breakpoints at the r_i, so s is found exactly by
sorting r and scanning the segments; no iteration is needed.

The map is invariant under adding a common constant to every r_i, which is
what lets the forecasters skip weight normalization when they assemble r.

On r = -2g it is g's Euclidean projection onto the simplex (see ``projection``).

``substitute_rows`` runs the same scan on every row of a (G, d) batch at once, for
the ridge lanes of the benchmark protocol; ``solve_substitution`` stays the
per-trial path.  Both raise InvariantViolation on a forecast that rounding pushes
off the simplex (ProbabilityVector's tolerances), as at |r| of 1e16 and beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SUM_TOL, InvariantViolation, ProbabilityVector, as_float_vector


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


def _check_classes(d: int) -> None:
    if d < 2:
        raise ValueError(f"need at least 2 classes, got {d}")


def _threshold(arr: np.ndarray) -> float:
    """The s solving sum_i (s - r_i)^+ = 2, for a finite r of any length d >= 1."""
    d = arr.size
    # Ascending sort; ties resolved by index order, which cannot change the
    # result since equal breakpoints merge into one segment.
    ordered = np.sort(arr, kind="stable")
    prefix = np.cumsum(ordered)
    for k in range(1, d + 1):
        s = (2.0 + prefix[k - 1]) / k
        if s > ordered[k - 1] and (k == d or s <= ordered[k]):
            return float(s)
    raise InvariantViolation("piecewise-linear scan failed to bracket s")


def _substitute(arr: np.ndarray) -> ProbabilityVector:
    """gamma_i = (s - r_i)^+ / 2 for a finite r of any length d >= 1; callers check d."""
    gamma = np.maximum(_threshold(arr) - arr, 0.0) / 2.0
    try:
        return ProbabilityVector(gamma)
    except ValueError as exc:
        raise InvariantViolation(f"substitution left the simplex: {exc}") from exc


def substitution_threshold(r) -> float:
    """The s solving sum_i (s - r_i)^+ = 2."""
    arr = _coerce(r)
    _check_classes(arr.size)
    return _threshold(arr)


def solve_substitution(r) -> ProbabilityVector:
    """Forecast gamma with gamma_i = (s - r_i)^+ / 2 at the solved threshold."""
    arr = _coerce(r)
    _check_classes(arr.size)
    return _substitute(arr)


def substitute_rows(r) -> np.ndarray:
    """solve_substitution on each row of a (G, d) batch, as a (G, d) array of forecasts.

    The same sort, prefix sums and first bracketing segment per row, so every row
    equals solve_substitution's forecast bit for bit.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ValueError(f"generalized predictions must be a finite (G, d) array, got shape {arr.shape}")
    d = arr.shape[1]
    _check_classes(d)
    ordered = np.sort(arr, axis=1, kind="stable")
    s = (2.0 + np.cumsum(ordered, axis=1)) / np.arange(1, d + 1)
    upper = np.concatenate([ordered[:, 1:], np.full((len(arr), 1), np.inf)], axis=1)
    brackets = (s > ordered) & (s <= upper)
    if not brackets.any(axis=1).all():
        raise InvariantViolation("piecewise-linear scan failed to bracket s")
    k = np.argmax(brackets, axis=1)
    gamma = np.maximum(s[np.arange(len(arr)), k][:, None] - arr, 0.0) / 2.0
    # gamma >= 0 > NEG_TOL or NaN, and a NaN or infinite row fails the sum test
    miss = np.abs(gamma.sum(axis=1) - 1.0)
    if not miss.max() <= SUM_TOL:
        g = int(np.argmax(~(miss <= SUM_TOL)))
        raise InvariantViolation(f"substitution left the simplex at row {g}: {gamma[g].tolist()!r}")
    return gamma
