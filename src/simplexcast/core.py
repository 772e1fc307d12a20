"""Core types for the online probability forecasting game.

At each trial the learner sees a signal, announces a probability vector over
d classes, then observes the outcome (a point of the simplex, one-hot in the
classification case) and pays the squared Euclidean distance between forecast
and outcome, summed over classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Simplex membership tolerances.  All forecasters construct their outputs in
# closed form, so sums are exact up to rounding and these can stay tight.
SUM_TOL = 1e-9
NEG_TOL = -1e-12


class DimensionMismatch(ValueError):
    """Two vectors that must share a length do not."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed (maps to CLI exit code 3)."""


def as_float_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising on anything else."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def check_classes(d: int) -> int:
    """The number of classes ``d``; raises ValueError unless it is at least 2."""
    if d < 2:
        raise ValueError(f"need at least 2 classes, got {d}")
    return d


def check_ridge(a) -> float:
    """The ridge ``a`` as a float; raises ValueError naming it unless it is positive and finite."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"ridge parameter must be positive and finite, got {a}")
    return float(a)


def trial_name(trial: int, ridge: float | None = None) -> str:
    """"trial k" for an error, or "trial k at ridge a" when it names one lane of a ridge-lane run."""
    return f"trial {trial}" if ridge is None else f"trial {trial} at ridge {ridge!r}"


def check_vector(x, size: int, name: str) -> np.ndarray:
    """as_float_vector, of length ``size``."""
    arr = as_float_vector(x, name)
    if arr.size != size:
        raise DimensionMismatch(f"{name} has length {arr.size}, expected {size}")
    return arr


def check_outcome(y, d: int) -> np.ndarray:
    """check_vector, for an outcome on the simplex: entries >= NEG_TOL and a sum within
    SUM_TOL of 1, checked on Python floats."""
    arr = check_vector(y, d, "outcome")
    values = arr.tolist()
    if not (abs(sum(values) - 1.0) <= SUM_TOL and min(values) >= NEG_TOL):   # an empty sum fails first
        raise ValueError(f"outcome {values!r} is not on the simplex")
    return arr


class Trials(NamedTuple):
    """A run's signals and outcomes as (T, n) and (T, d) float arrays, validated by check_trials."""

    signals: np.ndarray
    outcomes: np.ndarray


def _stacked(rows, size: int):
    """``rows`` as a finite (T, size) float array, or None when they do not form one."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):   # ragged or non-numeric rows
        return None
    if arr.shape == (0,):
        arr = arr.reshape(0, size)
    return arr if arr.ndim == 2 and arr.shape[1] == size and np.isfinite(arr).all() else None


def check_trials(signals, outcomes, n: int | None, d: int, first: int = 1) -> Trials:
    """The signals and outcomes of a run, validated as whole (T, n) and (T, d) arrays.

    ``n`` None leaves the signals unchecked, as given.  Each outcome must lie on the
    simplex, as check_outcome has it; the whole-array test sums each row left to right,
    as check_outcome does.  Only when a whole-array check fails are the trials checked
    one at a time, signal before outcome, so that the error keeps the type check_vector
    or check_outcome gives it and names the first bad trial, counted from ``first``.
    """
    xs = signals if n is None else _stacked(signals, n)
    ys = _stacked(outcomes, d)
    if (xs is not None and ys is not None and len(xs) == len(ys)
            and (ys >= NEG_TOL).all() and (abs(sum(ys.T, np.zeros(len(ys))) - 1.0) <= SUM_TOL).all()):
        return Trials(xs, ys)
    for t, (x, y) in enumerate(zip(signals, outcomes), start=first):
        try:
            if n is not None:
                check_vector(x, n, "signal")
            check_outcome(y, d)
        except ValueError as exc:
            raise type(exc)(f"trial {t}: {exc}") from exc
    raise DimensionMismatch(f"need one outcome of length {d} per signal of length {n}, "
                            f"got {len(signals)} signals and {len(outcomes)} outcomes")


def _columns(data) -> tuple:
    """The signals and outcomes of a stream, unchecked: a Trials as it is, the arrays of a
    LabeledStream (anything with ``signals`` and ``labels``), or the columns of a sequence
    of (signal, outcome) pairs."""
    if isinstance(data, Trials):
        return data
    if hasattr(data, "labels"):
        return data.signals, data.labels
    pairs = list(data)
    return [x for x, _ in pairs], [y for _, y in pairs]


def stack_trials(data) -> Trials:
    """``data`` as validated Trials: a Trials passes through, and the widths of any other
    stream ``_columns`` reads are those of its first trial.  A stream with trials needs
    at least 2 classes (check_classes)."""
    if not isinstance(data, Trials):
        signals, outcomes = _columns(data)
        if not len(outcomes):
            return Trials(np.empty((0, 0)), np.empty((0, 0)))
        data = check_trials(signals, outcomes, np.size(signals[0]), np.size(outcomes[0]))
    if len(data.outcomes):
        check_classes(data.outcomes.shape[1])
    return data


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A point of the d-simplex: componentwise nonnegative, summing to one.

    Read-only; it compares on np.array_equal, with a hash to match (0.0 == -0.0 hash alike).
    """

    p: np.ndarray

    def __post_init__(self):
        arr = as_float_vector(self.p, "probability vector")
        if arr.size < 1:
            raise ValueError("probability vector must have at least one entry")
        if arr.min() < NEG_TOL:
            raise ValueError(f"negative probability component: {arr.min()!r}")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "p", _frozen(arr))

    @classmethod
    def _trusted(cls, p) -> ProbabilityVector:
        """The vector of ``p`` without __post_init__'s checks: only for a scan that has just made them."""
        out = object.__new__(cls)
        object.__setattr__(out, "p", _frozen(p))
        return out

    @property
    def d(self) -> int:
        return self.p.size

    def __len__(self) -> int:
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def __eq__(self, other):
        return np.array_equal(self.p, other.p) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.p.tolist()))
