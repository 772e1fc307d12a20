"""Experiment protocol: data ingestion, labeling, metrics, streams, reports.

A raw series is normalized (center, scale to max |.| = 1), windowed into
signals of its previous ``window`` observations, and labeled into three
classes by whether the next change exceeds +epsilon, falls below -epsilon,
or stays inside the tube.  The ridge is selected on the first third of the
stream; metrics (MSE and AMSE, the average of running MSEs) are collected on the
last two thirds.  Each algorithm runs once: over the first third with a ridge
lane per candidate ridge, then, split off by the forecaster's ``lane``, only
the selected lane goes on over the rest, as the forecaster of that one ridge
in the state the first third left it.

Every run goes through ``run_online``, which hands the whole stream to the model's
``run``: the (T, n) signals and (T, d) outcomes are validated once, as whole arrays, and
each trial takes the generalized prediction before its outcome is revealed, then updates
on it, with the private steps ``generalized`` and ``update`` use.  A forecast never feeds
back into the state, so the whole stack of generalized predictions becomes forecasts in
one ``substitute_rows`` call after the run, which checks them all; they equal what
``predict`` would have announced, bit for bit.  A failure is named by the model's own
trial count, so a run that carries on a model names its trials as one run from the start
would.  Ridge selection runs every kind as one forecaster with a ridge lane per grid value:
CAAR and MAAR keep one inverse per lane and system (see ``maar.RankOneCore``), KAAR one Cholesky
factor per lane and system beside the shared signals and kernel rows (see
``kaar.KaarForecaster``).  ``verify_run`` and ``run_benchmark`` hand the arrays they hold
to the guarantees of ``bounds`` too; ``run_benchmark`` reads KAAR's off the chosen lane's
factors instead (``bounds.kernel_report``).
Only ``adversarial_stream``, whose outcomes depend on each forecast, calls ``predict``.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import bounds as bounds_mod
from .caar import CaarForecaster
from .core import (InvariantViolation, ProbabilityVector, _columns, check_classes, check_outcome, check_trials,
                   stack_trials, trial_name)
from .maar import MaarForecaster
from .substitution import _forecast, substitute_rows

if TYPE_CHECKING:
    from .kaar import Kernel

REPORT_COLUMNS = ("algorithm", "mse", "amse", "time_seconds", "ridge", "bound_slack")
DEFAULT_RIDGE_GRID = tuple(10.0**k for k in range(-3, 4))
DEFAULT_WINDOW = 10


class InputError(ValueError):
    """Bad user-supplied data or options (maps to CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Series preparation

def normalize_series(raw) -> tuple[np.ndarray, float, float]:
    """Center on the mean and scale by the max absolute deviation.

    Returns (normalized, mean, max-abs); values land in [-1, 1].
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("series must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise InputError("series contains NaN or infinite values")
    mean = float(arr.mean())
    centered = arr - mean
    scale = float(np.max(np.abs(centered)))
    if scale == 0.0:
        raise InputError("constant series cannot be normalized")
    return centered / scale, mean, scale


def median_epsilon(series) -> float:
    """Median absolute step |y_{t+1} - y_t| over consecutive pairs."""
    arr = np.asarray(series, dtype=float)
    if arr.size < 2:
        raise InputError("need at least two observations to measure changes")
    return float(np.median(np.abs(np.diff(arr))))


@dataclass
class LabeledStream:
    """Windowed signals with one-hot three-class labels and provenance."""

    signals: np.ndarray      # (T, window)
    labels: np.ndarray       # (T, 3) one-hot
    window: int
    epsilon: float
    mean: float = 0.0
    scale: float = 1.0

    def __len__(self) -> int:
        return self.signals.shape[0]

    @property
    def n(self) -> int:
        return self.signals.shape[1]

    @property
    def d(self) -> int:
        return self.labels.shape[1]

    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.signals, self.labels))

    @property
    def split_index(self) -> int:
        return len(self) // 3


UP, DOWN, TUBE = 0, 1, 2


def label_stream(series, window: int = DEFAULT_WINDOW, epsilon: float = 0.0,
                 mean: float = 0.0, scale: float = 1.0) -> LabeledStream:
    """Signals are the previous ``window`` observations; labels the next move.

    Class 1 (up) when the change exceeds epsilon, class 2 (down) when it
    falls below -epsilon, class 3 (tube) otherwise; exact ties land in the
    tube.  Steps without a full window of history are skipped.
    """
    arr = np.asarray(series, dtype=float)
    if window < 1:
        raise InputError("window must be at least 1")
    if arr.size <= window:
        raise InputError(f"series of length {arr.size} too short for window {window}")
    if not 0.0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if epsilon == 0.0:
        warnings.warn("epsilon = 0 degenerates the tube class to exact ties", stacklevel=2)
    signals = np.lib.stride_tricks.sliding_window_view(arr, window)[:-1].copy()
    delta = np.diff(arr)[window - 1:]   # the step after each signal
    labels = np.zeros((len(delta), 3))
    labels[np.arange(len(delta)), np.where(delta > epsilon, UP, np.where(delta < -epsilon, DOWN, TUBE))] = 1.0
    return LabeledStream(signals, labels, window, float(epsilon), mean, scale)


def split_train_test(stream: LabeledStream) -> tuple[LabeledStream, LabeledStream]:
    """First third for ridge selection, last two thirds for metrics."""
    cut = stream.split_index
    return (replace(stream, signals=stream.signals[:cut], labels=stream.labels[:cut]),
            replace(stream, signals=stream.signals[cut:], labels=stream.labels[cut:]))


# ---------------------------------------------------------------------------
# Forecasters and the online loop

class SimpleBaseline:
    """Running mean of up to the last ``window`` one-hot outcomes (uniform before any)."""

    def __init__(self, d: int, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"baseline window must be at least 1, got {window}")
        self.d = check_classes(d)
        self.window = window
        self.t = 0   # committed trials
        self._recent: deque[np.ndarray] = deque(maxlen=window)

    def generalized(self, x) -> np.ndarray:
        """-2 times the running mean, whose threshold substitution is that mean."""
        mean = np.mean(self._recent, axis=0) if self._recent else np.full(self.d, 1.0 / self.d)
        return -2.0 * mean

    def predict(self, x) -> ProbabilityVector:
        return _forecast(self.generalized(x).tolist())

    def update(self, x, y) -> None:
        self._recent.append(check_outcome(y, self.d).copy())   # the caller may rewrite its array
        self.t += 1

    def run(self, signals, outcomes) -> np.ndarray:
        """``generalized`` then ``update`` on every row of the (T, d) outcomes, validated once
        (the signals are ignored); returns the (T, d) generalized predictions.

        The outcomes follow ``window`` - k0 rows of -0.0 (k0 outcomes held), so that trial t
        averages rows t ... t + window - 1 and every window takes ``window`` vectorized adds
        of shifted slices.  Adding -0.0 changes no sum, not even a zero's sign, and each window
        adds its rows oldest first, as ``np.mean`` over the window does, so every running mean
        equals ``generalized``'s bit for bit (the sign of a zero aside).
        """
        ys = check_trials(signals, outcomes, None, self.d, self.t + 1).outcomes
        w, d, t_len = self.window, self.d, len(ys)
        k0 = len(self._recent)
        history = np.concatenate([np.full((w - k0, d), -0.0), np.reshape(self._recent, (k0, d)), ys])
        seen = np.minimum(k0 + np.arange(t_len), w)         # outcomes averaged at each trial
        sums = history[:t_len].copy()
        for j in range(1, w):
            sums += history[j:j + t_len]
        means = np.divide(sums, seen[:, None], out=np.full((t_len, d), 1.0 / d), where=seen[:, None] > 0)
        self._recent.extend(ys[-w:].copy())
        self.t += t_len
        return -2.0 * means


def make_forecaster(kind: str, n: int, d: int, ridge: float | list[float],
                    kernel: Kernel | None = None, window: int = DEFAULT_WINDOW):
    if kind == "caar":
        return CaarForecaster(n, d, ridge)
    if kind == "maar":
        return MaarForecaster(n, d, ridge)
    if kind == "kaar":
        if kernel is None:
            raise ValueError("kernel required for kind='kaar'")
        from .kaar import KaarForecaster  # scipy loads only when a kernel run needs it
        return KaarForecaster(d, kernel, ridge)
    if kind == "simple":
        return SimpleBaseline(d, window)
    raise InputError(f"unknown algorithm {kind!r}")


def run_online(stream, model) -> tuple[np.ndarray, np.ndarray]:
    """Strict online run: the model's generalized prediction before each outcome, then update.

    ``stream`` is a LabeledStream or Trials, whose arrays go to ``model.run`` as they are,
    or a sequence of (signal, outcome) pairs, which ``model.run`` stacks and validates.
    One ``substitute_rows`` call then maps the whole (T,) + lanes + (d,) stack to forecasts
    and checks them.  Returns the per-step losses, of shape (T,) + lanes, and the
    forecasts, of shape (T,) + lanes + (d,); lanes is () unless the model runs ridge lanes.
    A forecast off the simplex raises InvariantViolation naming the first bad trial and,
    with lanes, its ridge; ``model.run`` has checked that every outcome lies on the simplex,
    so every loss is finite.  Trials are counted as the model counts them, so the first row
    of the stream is trial t + 1 of a model that has committed t.
    """
    signals, outcomes = _columns(stream)
    first = model.t + 1
    r = model.run(signals, outcomes)
    lanes = r.shape[1:-1]

    def trial(row: int) -> str:   # a row of the (T * lanes, d) stack, named in the run's terms
        t, g = divmod(row, math.prod(lanes))
        return trial_name(first + t, model.a[g] if lanes else None)

    try:
        gamma = substitute_rows(r.reshape(-1, r.shape[-1])).reshape(r.shape)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{trial(exc.row)}: {exc}") from exc
    ys = np.asarray(outcomes, dtype=float)   # validated by model.run
    ys = ys.reshape((len(r),) + (1,) * len(lanes) + r.shape[-1:])   # one outcome for every lane
    return np.square(gamma - ys).sum(axis=-1), gamma


def verify_run(data, kind: str, ridge: float, kernel: Kernel | None = None) -> list[bounds_mod.BoundReport]:
    """Run one algorithm over the stream and check every guarantee it carries.

    ``kind`` is one of "caar", "maar", "kaar" (which needs ``kernel``).  ``data`` is
    stacked and validated once, and the run and the guarantees share those arrays.
    Returns one report per guarantee; slack below ``bounds.SLACK_GATE`` indicates a broken
    implementation.
    """
    stream = stack_trials(data)
    if not len(stream.signals):
        raise InputError("cannot verify an empty stream")
    model = make_forecaster(kind, stream.signals.shape[1], stream.outcomes.shape[1], ridge, kernel)
    losses, _ = run_online(stream, model)
    return bounds_mod.bound_reports(stream, kind, ridge, float(losses.sum()), kernel)


def mse_amse(losses) -> tuple[float, float]:
    """Mean loss and the mean of running means over a test segment."""
    arr = np.asarray(losses, dtype=float)
    if arr.size == 0:
        raise InputError("cannot compute metrics on an empty segment")
    running = np.cumsum(arr) / np.arange(1, arr.size + 1)
    return float(arr.mean()), float(running.mean())


def _ridge_values(spec) -> list[float]:
    """The values of a ridge spec, one ridge or a grid, sorted, once there is at least one
    and each is positive and finite."""
    values = sorted(float(v) for v in np.ravel(spec))
    if not values:
        raise InputError("ridge grid is empty")
    if not all(0.0 < v < math.inf for v in values):
        raise InputError(f"ridge values must be positive and finite, got {values!r}")
    return values


# ---------------------------------------------------------------------------
# Synthetic series and bound-test streams

def synth_series(kind: str, length: int, seed: int) -> np.ndarray:
    """Deterministic synthetic series.

    ar1:  y_t = 0.8 y_{t-1} + 0.1 e_t,          y_0 = 0, e ~ N(0, 1)
    sine: y_t = sin(2 pi t / 60) + 0.1 e_t
    walk: y_t = y_{t-1} + 0.1 e_t
    """
    if length < 1:
        raise InputError("length must be positive")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(length)
    if kind == "ar1":
        out = np.empty(length)
        prev = 0.0
        for t in range(length):
            prev = 0.8 * prev + 0.1 * eps[t]
            out[t] = prev
        return out
    if kind == "sine":
        t = np.arange(length)
        return np.sin(2.0 * np.pi * t / 60) + 0.1 * eps
    if kind == "walk":
        return np.cumsum(0.1 * eps)
    raise InputError(f"unknown synthetic kind {kind!r}")


def random_stream(n: int, d: int, t_len: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random bounded signals with one-hot outcomes, and a Dirichlet outcome a quarter of the time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(t_len):
        x = rng.uniform(-1.0, 1.0, size=n)
        if rng.random() < 0.25:
            y = rng.dirichlet(np.ones(d))
        else:
            y = np.zeros(d)
            y[rng.integers(d)] = 1.0
        out.append((x, y))
    return out


def adversarial_stream(kind: str, n: int, d: int, t_len: int, ridge: float, seed: int,
                       kernel: Kernel | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Labels chosen greedily against the forecaster's own predictions."""
    rng = np.random.default_rng(seed)
    model = make_forecaster(kind, n, d, ridge, kernel)
    out = []
    for _ in range(t_len):
        x = rng.uniform(-1.0, 1.0, size=n)
        gamma = model.predict(x)
        y = np.zeros(d)
        y[int(np.argmin(gamma.p))] = 1.0
        model.update(x, y)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# Reports

@dataclass
class ExperimentReport:
    """One row of the benchmark table."""

    algorithm: str
    mse: float
    amse: float
    time_seconds: float
    ridge: float | None = None
    bound_slack: float | None = None


def write_outputs(out_dir, name: str, header, rows, log_name: str, log: dict) -> Path:
    """Write ``rows`` under ``header`` as the CSV file ``name`` in ``out_dir``, made if missing,
    and ``log`` as indented JSON with sorted keys in ``log_name`` beside it.  Returns the
    CSV's path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / name).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    (out / log_name).write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")
    return out / name


def emit_report(reports, out_dir, run_log: dict) -> dict[str, Path]:
    """Write the machine-readable CSV, a readable table, and the run log."""
    csv_path = write_outputs(out_dir, "report.csv", REPORT_COLUMNS, [
        [rep.algorithm, repr(rep.mse), repr(rep.amse), repr(rep.time_seconds),
         "" if rep.ridge is None else repr(rep.ridge), "" if rep.bound_slack is None else repr(rep.bound_slack)]
        for rep in reports], "run_log.json", run_log)
    txt_path = csv_path.with_name("report.txt")
    with txt_path.open("w") as fh:
        header = f"{'algorithm':<10} {'MSE':>12} {'AMSE':>12} {'time (s)':>10} {'ridge':>10} {'slack':>12}"
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for rep in reports:
            ridge = "-" if rep.ridge is None else f"{rep.ridge:g}"
            slack = "-" if rep.bound_slack is None else f"{rep.bound_slack:.4g}"
            fh.write(f"{rep.algorithm:<10} {rep.mse:>12.6f} {rep.amse:>12.6f} "
                     f"{rep.time_seconds:>10.3f} {ridge:>10} {slack:>12}\n")
    return {"csv": csv_path, "table": txt_path, "log": csv_path.with_name("run_log.json")}


# ---------------------------------------------------------------------------
# Benchmark protocol

def run_benchmark(stream: LabeledStream, algos, ridge_spec,
                  kernel: Kernel | None = None) -> tuple[list[ExperimentReport], dict]:
    """The full protocol: ridge selection on the train third, metrics on the rest.

    ``ridge_spec`` is a fixed positive float or a grid (sequence of floats), each of whose
    values is checked before the first algorithm runs, the baseline's too; KAAR needs
    ``kernel``.  Each
    algorithm runs once over the stream: the train third with a ridge lane per grid value
    (one lane for a fixed ridge, none for the baseline), then only the selected lane, split
    off by ``lane``, goes on over the rest, where the metrics are taken.  A lane equals the
    forecaster of its one ridge (bit for bit for MAAR and KAAR, to rounding for CAAR), so
    this is the fresh run at the chosen ridge without replaying the train third.
    ``time_seconds`` covers that whole run, lanes and selection included.  For a grid, the
    run log's ``ridge_grid`` keeps each algorithm's sorted ``ridges``, the ``train_mse`` of
    each and ``seconds``, the lane pass over the train third and the selection alone.

    The guarantees are checked against the run's loss over the whole stream, by
    ``bounds.bound_reports`` for CAAR and MAAR.  KAAR's is read off the chosen lane's own
    factors by ``bounds.kernel_report``, with no Gram matrix and no factorization; the run
    log's ``pivot_ratio`` keeps that lane's largest over smallest pivot rho^2 per system, a
    free estimate of each system's condition number.  ``verify_run`` stays the independent
    check of the kernel guarantee.
    """
    train, test = split_train_test(stream)
    cut = stream.split_index
    if len(test) == 0:
        raise InputError("stream too short to leave a test segment")
    values, grid = _ridge_values(ridge_spec), np.ndim(ridge_spec) > 0
    if grid and len(train) == 0 and set(algos) - {"simple"}:
        raise InputError("stream too short for ridge selection")
    reports = []
    grids: dict[str, dict] = {}
    ratios: dict[str, dict] = {}
    for kind in algos:
        started = time.perf_counter()
        model = make_forecaster(kind, train.n, train.d, values, kernel, stream.window)
        head, _ = run_online(train, model)   # (T, lanes), or the baseline's (T,)
        ridge = slack = None
        if kind != "simple":   # the baseline has no ridge: it goes on as it is
            best = 0
            if len(train):   # a fixed ridge may have no train trials
                mses = head.mean(axis=0)
                best = int(np.argmin(mses))   # the first of equal minima: the smallest ridge
                if grid:
                    grids[kind] = {"ridges": values, "train_mse": [float(v) for v in mses],
                                   "seconds": time.perf_counter() - started}
            ridge, model, head = values[best], model.lane(best), head[:, best]
        tail, _ = run_online(test, model)
        elapsed = time.perf_counter() - started
        mse, amse = mse_amse(tail)
        if ridge is not None:   # the guarantees, against the run's loss over the whole stream
            loss = float(np.concatenate([head, tail]).sum())
            if kind == "kaar":   # read off the chosen lane's own factors, which cover the whole stream
                checks = [bounds_mod.kernel_report(model, stream.labels, loss)]
                ratios[kind] = model._pivot_ratios()
            else:
                checks = bounds_mod.bound_reports(stream, kind, ridge, loss, kernel)
            slack = min(check.slack for check in checks)
            if slack < bounds_mod.SLACK_GATE:
                raise InvariantViolation(f"negative bound slack {slack!r} for {kind}")
        reports.append(ExperimentReport(kind, mse, amse, elapsed, ridge, slack))
    log = {
        "window": stream.window,
        "epsilon": stream.epsilon,
        "normalization": {"mean": stream.mean, "scale": stream.scale},
        "split_index": cut,
        "length": len(stream),
        "ridge": {rep.algorithm: rep.ridge for rep in reports},
        "ridge_grid": grids,
        "pivot_ratio": ratios,
    }
    return reports, log


# ---------------------------------------------------------------------------
# Input files

def load_series(path) -> np.ndarray:
    """One observation per line; a single header line is skipped if present."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    values = []
    for idx, line in enumerate(lines):
        text = line.strip().strip(",")
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            if idx == 0:
                continue  # header
            raise InputError(f"line {idx + 1} of {path} is not a number: {line!r}") from None
    if not values:
        raise InputError(f"no numeric observations found in {path}")
    return np.array(values)


def prepare_stream(series, window: int, epsilon_spec) -> LabeledStream:
    """Normalize, resolve epsilon ('auto' = median absolute change, else any ``float()``-able
    spec, such as the CLI's text), label."""
    normalized, mean, scale = normalize_series(series)
    if isinstance(epsilon_spec, str) and epsilon_spec == "auto":
        epsilon_spec = median_epsilon(normalized)
    try:
        epsilon = float(epsilon_spec)
    except (TypeError, ValueError):
        raise InputError(f"epsilon must be a number or 'auto', got {epsilon_spec!r}") from None
    return label_stream(normalized, window, epsilon, mean, scale)
