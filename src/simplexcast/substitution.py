"""Turn a shifted generalized prediction into a simplex forecast.

Given r in R^d, find the unique s with sum_i (s - r_i)^+ = 2 and output
gamma_i = (s - r_i)^+ / 2.  The left-hand side is piecewise linear and
nondecreasing in s with breakpoints at the r_i, so s is found exactly by
sorting r and scanning the segments; no iteration is needed.

The map is invariant under adding a common constant to every r_i, which is
what lets the forecasters skip weight normalization when they assemble r.

On r = -2g it is g's Euclidean projection onto the simplex (see ``projection``).

Both scans first subtract the minimum of r (so it is 0), which keeps them exact
at any magnitude of r.  ``_forecast`` scans one row on Python floats for every
per-call path (``predict``, ``solve_substitution``, ``project_to_simplex``);
``substitute_rows`` scans every row of a (G, d) batch at once, for a whole online
run, with the same arithmetic, so the two agree bit for bit.  Both raise
InvariantViolation on a forecast whose sum is more than SUM_TOL from 1, which only a
broken scan can produce.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import SUM_TOL, InvariantViolation, ProbabilityVector, as_float_vector, check_classes


def _threshold(ordered: list[float]) -> float:
    """The s solving sum_i (s - r_i)^+ = 2, for a finite r of any length d >= 1, sorted
    ascending with r_1 = 0 (Python floats, which round as float64 arrays do)."""
    d = len(ordered)
    for k, prefix in enumerate(itertools.accumulate(ordered), start=1):
        s = (2.0 + prefix) / k
        if s > ordered[k - 1] and (k == d or s <= ordered[k]):
            return s
    raise InvariantViolation("piecewise-linear scan failed to bracket s")


def _row_error(row: int, message: str) -> InvariantViolation:
    """InvariantViolation naming a batch row, which it keeps as ``row`` for callers that
    name it in their own terms."""
    exc = InvariantViolation(message)
    exc.row = row
    return exc


def _row_thresholds(ordered: np.ndarray) -> np.ndarray:
    """_threshold of every row of a finite (G, d) batch of ascending rows that start at 0."""
    d = ordered.shape[1]
    s = (2.0 + np.cumsum(ordered, axis=1)) / np.arange(1, d + 1)
    upper = np.concatenate([ordered[:, 1:], np.full((len(ordered), 1), np.inf)], axis=1)
    brackets = (s > ordered) & (s <= upper)
    missing = ~brackets.any(axis=1)
    if missing.any():
        g = int(np.argmax(missing))
        raise _row_error(g, f"piecewise-linear scan failed to bracket s at row {g}")
    return s[np.arange(len(ordered)), np.argmax(brackets, axis=1)]


def _forecast(row: list) -> ProbabilityVector:
    """gamma_i = (s - r_i)^+ / 2 for a list r of d >= 1 Python floats (callers check d); a
    non-finite r raises InvariantViolation.  Ties sort in index order, which cannot change
    the result since equal breakpoints merge into one segment.  Subtracting a constant
    rounds monotonically, so the sorted r less its minimum is r less its minimum, sorted."""
    if not all(map(math.isfinite, row)):
        raise InvariantViolation(f"generalized prediction is not finite: {row!r}")
    ordered = sorted(row)
    low = ordered[0]
    s = _threshold([v - low for v in ordered])
    gamma = [max(s - (v - low), 0.0) / 2.0 for v in row]   # >= 0, or NaN, which fails the sum test
    if not abs(sum(gamma) - 1.0) <= SUM_TOL:
        raise InvariantViolation(f"substitution left the simplex: {gamma!r}")
    return ProbabilityVector._trusted(gamma)


def solve_substitution(r) -> ProbabilityVector:
    """Forecast gamma with gamma_i = (s - r_i)^+ / 2 at the solved threshold."""
    arr = as_float_vector(r, "generalized prediction")
    check_classes(arr.size)
    return _forecast(arr.tolist())


def substitute_rows(r) -> np.ndarray:
    """solve_substitution on each row of a (G, d) batch, as a (G, d) array of forecasts.

    The same shift, sort, prefix sums and first bracketing segment per row, so every row
    equals solve_substitution's forecast bit for bit.  A failure names the first bad row.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise ValueError(f"generalized predictions must be a finite (G, d) array, got shape {arr.shape}")
    check_classes(arr.shape[1])
    ordered = np.sort(arr, axis=1, kind="stable")   # as _forecast, row by row
    low = ordered[:, :1]
    gamma = np.maximum(_row_thresholds(ordered - low)[:, None] - (arr - low), 0.0) / 2.0
    # gamma >= 0 > NEG_TOL or NaN, and a NaN or infinite row fails the sum test
    miss = np.abs(gamma.sum(axis=1) - 1.0)
    if not (miss <= SUM_TOL).all():
        g = int(np.argmax(~(miss <= SUM_TOL)))
        raise _row_error(g, f"substitution left the simplex at row {g}: {gamma[g].tolist()!r}")
    return gamma
