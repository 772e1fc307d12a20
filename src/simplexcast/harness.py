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
CAAR and MAAR keep one inverse per lane (see ``maar.RankOneCore``), KAAR one Cholesky
factor per lane and system beside the shared signals and kernel rows (see
``kaar.KaarForecaster``).  ``verify_run`` and ``run_benchmark`` hand the arrays they hold
to the guarantees of ``bounds`` too.
Only ``adversarial_stream``, whose outcomes depend on each forecast, calls ``predict``.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import bounds as bounds_mod
from .caar import CaarForecaster
from .core import (InvariantViolation, ProbabilityVector, Trials, check_trials, check_vector, stack_trials,
                   trial_name)
from .maar import MaarForecaster
from .substitution import solve_substitution, substitute_rows

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
    count = arr.size - window
    signals = np.empty((count, window))
    labels = np.zeros((count, 3))
    for row, t in enumerate(range(window, arr.size)):
        signals[row] = arr[t - window:t]
        delta = arr[t] - arr[t - 1]
        if delta > epsilon:
            labels[row, UP] = 1.0
        elif delta < -epsilon:
            labels[row, DOWN] = 1.0
        else:
            labels[row, TUBE] = 1.0
    return LabeledStream(signals, labels, window, float(epsilon), mean, scale)


def split_train_test(stream: LabeledStream) -> tuple[LabeledStream, LabeledStream]:
    """First third for ridge selection, last two thirds for metrics."""
    cut = stream.split_index
    head = LabeledStream(stream.signals[:cut], stream.labels[:cut],
                         stream.window, stream.epsilon, stream.mean, stream.scale)
    tail = LabeledStream(stream.signals[cut:], stream.labels[cut:],
                         stream.window, stream.epsilon, stream.mean, stream.scale)
    return head, tail


# ---------------------------------------------------------------------------
# Forecasters and the online loop

class SimpleBaseline:
    """Running mean of up to the last ``window`` one-hot outcomes (uniform before any)."""

    def __init__(self, d: int, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"baseline window must be at least 1, got {window}")
        self.d = d
        self.window = window
        self.t = 0   # committed trials
        self._recent: deque[np.ndarray] = deque(maxlen=window)

    def generalized(self, x) -> np.ndarray:
        """-2 times the running mean, whose threshold substitution is that mean."""
        mean = np.mean(self._recent, axis=0) if self._recent else np.full(self.d, 1.0 / self.d)
        return -2.0 * mean

    def predict(self, x) -> ProbabilityVector:
        return solve_substitution(self.generalized(x))

    def update(self, x, y) -> None:
        self._recent.append(check_vector(y, self.d, "outcome").copy())   # the caller may rewrite its array
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
        from .kaar import KaarForecaster, Kernel  # scipy loads only when a kernel run needs it
        return KaarForecaster(d, kernel or Kernel("dot"), ridge)
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
    A forecast off the simplex raises InvariantViolation and a non-finite loss (an outcome
    too large to square) ValueError, each naming the first bad trial and, with lanes, its
    ridge.  Trials are counted as the model counts them, so the first row of the stream is
    trial t + 1 of a model that has committed t.
    """
    if isinstance(stream, LabeledStream):
        signals, outcomes = stream.signals, stream.labels
    elif isinstance(stream, Trials):
        signals, outcomes = stream
    else:
        pairs = list(stream)
        signals, outcomes = [x for x, _ in pairs], [y for _, y in pairs]
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
    with np.errstate(over="ignore"):
        losses = np.square(gamma - ys).sum(axis=-1)
    if not np.isfinite(losses).all():
        row = int(np.argmin(np.isfinite(losses).ravel()))
        raise ValueError(f"{trial(row)}: loss must be finite and nonnegative, got {float(losses.flat[row])!r}")
    return losses, gamma


def verify_run(data, kind: str, ridge: float, kernel: Kernel | None = None) -> list[bounds_mod.BoundReport]:
    """Run one algorithm over the stream and check every guarantee it carries.

    ``kind`` is one of "caar", "maar", "kaar" (which needs ``kernel``).  ``data`` is
    stacked and validated once, and the run and the guarantees share those arrays.
    Returns one report per guarantee; slack below -1e-6 indicates a broken implementation.
    """
    if kind == "kaar" and kernel is None:
        raise ValueError("kernel required for kind='kaar'")
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


def grid_search_ridge(train: LabeledStream, kind: str, grid,
                      kernel: Kernel | None = None, record: dict | None = None) -> float:
    """Smallest grid value achieving the best training MSE.

    Every kind scores the whole grid in one run of one forecaster with a ridge lane
    per value; each lane equals the forecaster of its one ridge to rounding (KAAR's
    bit for bit), and the baseline, which has no ridge, scores every value alike.
    ``record``, when given, receives the sorted grid (``ridges``), the train MSE of
    each value (``train_mse``) and ``seconds``.
    """
    return _lane_run(train, kind, _grid_values(grid, train), kernel, record=record)[0]


def _grid_values(grid, train: LabeledStream) -> list[float]:
    """The ridge grid, sorted, once it and the train segment it is scored on are checked."""
    values = sorted(float(g) for g in grid)
    if not values:
        raise InputError("ridge grid is empty")
    if not all(0.0 < v < math.inf for v in values):
        raise InputError(f"ridge grid values must be positive and finite, got {values!r}")
    if len(train) == 0:
        raise InputError("stream too short for ridge selection")
    return values


def _lane_run(train: LabeledStream, kind: str, values: list, kernel: Kernel | None = None,
              window: int = DEFAULT_WINDOW, record: dict | None = None):
    """One run of ``kind`` over ``train`` with a ridge lane per value of ``values``.

    Returns the smallest value with the least train MSE, its lane as a forecaster of that
    one ridge in the state the run left (see ``lane``), and the lane's (T,) train losses.
    The baseline runs without lanes, scores every value alike and goes on as it is.
    ``record`` is as in ``grid_search_ridge``.
    """
    started = time.perf_counter()
    model = make_forecaster(kind, train.n, train.d, values, kernel, window)
    losses, _ = run_online(train, model)   # (T, lanes), or the baseline's (T,)
    best = 0
    if len(train):   # a fixed ridge or the baseline may have no train trials
        mses = np.broadcast_to(losses.mean(axis=0), len(values))
        best = int(np.argmin(mses))   # the first of equal minima: the smallest ridge
        if record is not None:
            record.update(ridges=values, train_mse=[float(v) for v in mses],
                          seconds=time.perf_counter() - started)
    if kind != "simple":
        model, losses = model.lane(best), losses[:, best]
    return values[best], model, losses   # the baseline's equal MSEs give best 0


# ---------------------------------------------------------------------------
# Synthetic series and bound-test streams

def synth_series(kind: str, length: int, seed: int, *, phi: float = 0.8,
                 noise: float = 0.1, amplitude: float = 1.0, period: float = 60.0,
                 step: float = 0.1) -> np.ndarray:
    """Deterministic synthetic series.

    ar1:  y_t = phi y_{t-1} + noise e_t,          y_0 = 0, e ~ N(0, 1)
    sine: y_t = amplitude sin(2 pi t / period) + noise e_t
    walk: y_t = y_{t-1} + step e_t
    """
    if length < 1:
        raise InputError("length must be positive")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(length)
    if kind == "ar1":
        out = np.empty(length)
        prev = 0.0
        for t in range(length):
            prev = phi * prev + noise * eps[t]
            out[t] = prev
        return out
    if kind == "sine":
        t = np.arange(length)
        return amplitude * np.sin(2.0 * np.pi * t / period) + noise * eps
    if kind == "walk":
        return np.cumsum(step * eps)
    raise InputError(f"unknown synthetic kind {kind!r}")


def random_stream(n: int, d: int, t_len: int, seed: int,
                  dirichlet_share: float = 0.25) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random bounded signals with mostly one-hot, sometimes diffuse outcomes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(t_len):
        x = rng.uniform(-1.0, 1.0, size=n)
        if rng.random() < dirichlet_share:
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


def emit_report(reports, out_dir, run_log: dict | None = None) -> dict[str, Path]:
    """Write the machine-readable CSV, a readable table, and the run log."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            writer.writerow([
                rep.algorithm,
                repr(rep.mse),
                repr(rep.amse),
                repr(rep.time_seconds),
                "" if rep.ridge is None else repr(rep.ridge),
                "" if rep.bound_slack is None else repr(rep.bound_slack),
            ])
    txt_path = out / "report.txt"
    with txt_path.open("w") as fh:
        header = f"{'algorithm':<10} {'MSE':>12} {'AMSE':>12} {'time (s)':>10} {'ridge':>10} {'slack':>12}"
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for rep in reports:
            ridge = "-" if rep.ridge is None else f"{rep.ridge:g}"
            slack = "-" if rep.bound_slack is None else f"{rep.bound_slack:.4g}"
            fh.write(f"{rep.algorithm:<10} {rep.mse:>12.6f} {rep.amse:>12.6f} "
                     f"{rep.time_seconds:>10.3f} {ridge:>10} {slack:>12}\n")
    paths = {"csv": csv_path, "table": txt_path}
    if run_log is not None:
        log_path = out / "run_log.json"
        log_path.write_text(json.dumps(run_log, indent=2, sort_keys=True) + "\n")
        paths["log"] = log_path
    return paths


def parse_report(path) -> list[ExperimentReport]:
    """Read back a report CSV written by emit_report."""
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REPORT_COLUMNS:
            raise InputError(f"unexpected report columns: {header}")
        for rec in reader:
            rows.append(ExperimentReport(
                algorithm=rec[0],
                mse=float(rec[1]),
                amse=float(rec[2]),
                time_seconds=float(rec[3]),
                ridge=float(rec[4]) if rec[4] else None,
                bound_slack=float(rec[5]) if rec[5] else None,
            ))
    return rows


# ---------------------------------------------------------------------------
# Benchmark protocol

def run_benchmark(stream: LabeledStream, algos, ridge_spec,
                  kernel: Kernel | None = None) -> tuple[list[ExperimentReport], dict]:
    """The full protocol: ridge selection on the train third, metrics on the rest.

    ``ridge_spec`` is a fixed positive float or a grid (sequence of floats).  Each
    algorithm runs once over the stream: the train third with a ridge lane per grid value
    (one lane for a fixed ridge, none for the baseline), then only the selected lane, split
    off by ``lane``, goes on over the rest, where the metrics are taken.  A lane equals the
    forecaster of its one ridge (to rounding for CAAR and MAAR, bit for bit for KAAR), so
    this is the fresh run at the chosen ridge without replaying the train third.
    ``time_seconds`` covers that whole run, lanes and selection included; the run log's
    grid ``seconds`` the lane pass over the train third and the selection alone.
    """
    train, test = split_train_test(stream)
    cut = stream.split_index
    if len(test) == 0:
        raise InputError("stream too short to leave a test segment")
    reports = []
    chosen: dict[str, float | None] = {}
    grids: dict[str, dict] = {}
    for kind in algos:
        started = time.perf_counter()
        if kind == "simple":
            values = [None]
        elif np.ndim(ridge_spec) == 0:
            values = [float(ridge_spec)]
        else:
            grids[kind] = {}
            values = _grid_values(ridge_spec, train)
        ridge, model, head = _lane_run(train, kind, values, kernel, stream.window, grids.get(kind))
        tail, _ = run_online(test, model)
        elapsed = time.perf_counter() - started
        chosen[kind] = ridge
        mse, amse = mse_amse(tail)
        slack = None
        if kind != "simple":
            # the run's loss over the whole stream, and the kernel make_forecaster resolved (a dot
            # kernel when none was given)
            loss = float(np.concatenate([head, tail]).sum())
            checks = bounds_mod.bound_reports(stream, kind, ridge, loss, getattr(model, "kernel", None))
            slack = min(check.slack for check in checks)
            if slack < -1e-6:
                raise InvariantViolation(f"negative bound slack {slack!r} for {kind}")
        reports.append(ExperimentReport(kind, mse, amse, elapsed, ridge, slack))
    log = {
        "window": stream.window,
        "epsilon": stream.epsilon,
        "normalization": {"mean": stream.mean, "scale": stream.scale},
        "split_index": cut,
        "length": len(stream),
        "ridge": {k: v for k, v in chosen.items()},
        "ridge_grid": grids,
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
