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

    ``n`` None leaves the signals unchecked, as given.  Only when a whole-array check
    fails are the trials checked one at a time, signal before outcome, so that the error
    keeps the type check_vector gives it and names the first bad trial, counted from
    ``first``.
    """
    xs = signals if n is None else _stacked(signals, n)
    ys = _stacked(outcomes, d)
    if xs is not None and ys is not None and len(xs) == len(ys):
        return Trials(xs, ys)
    for t, (x, y) in enumerate(zip(signals, outcomes), start=first):
        try:
            if n is not None:
                check_vector(x, n, "signal")
            check_vector(y, d, "outcome")
        except ValueError as exc:
            raise type(exc)(f"trial {t}: {exc}") from exc
    raise DimensionMismatch(f"need one outcome of length {d} per signal of length {n}, "
                            f"got {len(signals)} signals and {len(outcomes)} outcomes")


def stack_trials(data) -> Trials:
    """``data`` as validated Trials: a Trials passes through, and the widths of a
    LabeledStream (anything with ``signals`` and ``labels`` arrays) or of a sequence of
    (signal, outcome) pairs are those of its first trial."""
    if isinstance(data, Trials):
        return data
    if hasattr(data, "labels"):
        signals, outcomes = data.signals, data.labels
    else:
        pairs = list(data)
        signals, outcomes = [x for x, _ in pairs], [y for _, y in pairs]
    if not len(outcomes):
        return Trials(np.empty((0, 0)), np.empty((0, 0)))
    return check_trials(signals, outcomes, np.size(signals[0]), np.size(outcomes[0]))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


class _Vector:
    """What the vector types share through their read-only array ``_values``: length d, array
    view, and equality on np.array_equal with a hash to match (0.0 == -0.0 hash alike)."""

    @property
    def d(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._values, dtype=dtype)

    def __eq__(self, other):
        return np.array_equal(self._values, other._values) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._values.tolist()))


@dataclass(frozen=True, eq=False)
class ProbabilityVector(_Vector):
    """A point of the d-simplex: componentwise nonnegative, summing to one."""

    p: np.ndarray
    _values = property(lambda self: self.p)

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


@dataclass(frozen=True, eq=False)
class PredictionVector(_Vector):
    """A point of the sum-to-one hyperplane; components may be negative."""

    g: np.ndarray
    _values = property(lambda self: self.g)

    def __post_init__(self):
        arr = as_float_vector(self.g, "prediction vector")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"prediction components sum to {total!r}, not 1")
        object.__setattr__(self, "g", _frozen(arr))


@dataclass(frozen=True)
class Vertex:
    """Identifies the outcome concentrated on one class (1-based index)."""

    index: int

    def __post_init__(self):
        if not isinstance(self.index, (int, np.integer)) or self.index < 1:
            raise ValueError(f"vertex index must be a positive integer, got {self.index!r}")


def vertex_to_probability(v: Vertex | int, d: int) -> ProbabilityVector:
    """One-hot probability vector with mass 1 at the given class."""
    index = v.index if isinstance(v, Vertex) else int(v)
    if not 1 <= index <= d:
        raise ValueError(f"vertex index {index} out of range [1, {d}]")
    p = np.zeros(d)
    p[index - 1] = 1.0
    return ProbabilityVector(p)


def _unwrap(x) -> np.ndarray:
    if isinstance(x, ProbabilityVector):
        return x.p
    if isinstance(x, PredictionVector):
        return x.g
    return as_float_vector(x)


def brier_loss(y, g) -> float:
    """Squared Euclidean distance between outcome and forecast.

    Accepts ProbabilityVector / PredictionVector wrappers or plain arrays;
    symmetric in its arguments.
    """
    ya = _unwrap(y)
    ga = _unwrap(g)
    if ya.size != ga.size:
        raise DimensionMismatch(f"outcome has {ya.size} classes, forecast has {ga.size}")
    diff = ga - ya
    return float(diff @ diff)

