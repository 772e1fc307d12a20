"""Experiment protocol: data ingestion, labeling, metrics, streams, reports.

A raw series is normalized (center, scale to max |.| = 1), windowed into
signals of its previous ``window`` observations, and labeled into three
classes by whether the next change exceeds +epsilon, falls below -epsilon,
or stays inside the tube.  Forecasters run strictly online: predict before
seeing the outcome, then update.  The ridge is selected on the first third
of the stream; metrics (MSE and AMSE, the average of running MSEs) are
collected on the last two thirds from a fresh run over the full stream.

Ridge selection runs CAAR and MAAR as one forecaster with a ridge lane per
grid value (see ``maar.RankOneCore``): each train trial is one generalized
prediction for every lane, one row-wise substitution and one update, and every
lane's forecast and loss pass the checks a single run makes.
KAAR's factors share nothing across ridges, so it runs one forecaster per grid
value.  The final run over the full stream is a fresh single-ridge forecaster.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import bounds as bounds_mod
from .caar import CaarForecaster
from .core import (NEG_TOL, SUM_TOL, DimensionMismatch, InvariantViolation, LossLedger, ProbabilityVector,
                   _unwrap, brier_loss)
from .maar import MaarForecaster
from .substitution import substitute_rows

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
    if epsilon < 0:
        raise InputError("epsilon must be nonnegative")
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
    """Running mean of up to the last ``window`` one-hot outcomes."""

    def __init__(self, d: int, window: int = DEFAULT_WINDOW):
        self.d = d
        self.window = window
        self._recent: deque[np.ndarray] = deque(maxlen=window)

    def predict(self, x) -> ProbabilityVector:
        if not self._recent:
            return ProbabilityVector(np.full(self.d, 1.0 / self.d))
        return ProbabilityVector(np.mean(self._recent, axis=0))

    def update(self, x, y) -> None:
        ya = _unwrap(y)
        if ya.size != self.d:
            raise DimensionMismatch(f"outcome has {ya.size} classes, expected {self.d}")
        self._recent.append(ya.copy())   # the caller may rewrite its array later


def simple_baseline(stream: LabeledStream) -> list[ProbabilityVector]:
    """Forecast sequence of the running-mean baseline over the stream."""
    model = SimpleBaseline(stream.d)
    out = []
    for x, y in stream.pairs():
        out.append(model.predict(x))
        model.update(x, y)
    return out


def make_forecaster(kind: str, n: int, d: int, ridge: float,
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


def run_online(stream, forecaster) -> tuple[LossLedger, list[ProbabilityVector]]:
    """Strict online loop: predict before the outcome is revealed, then update."""
    ledger = LossLedger()
    forecasts: list[ProbabilityVector] = []
    pairs = stream.pairs() if isinstance(stream, LabeledStream) else list(stream)
    for x, y in pairs:
        gamma = forecaster.predict(x)
        forecasts.append(gamma)
        ledger.record(brier_loss(y, gamma))
        forecaster.update(x, y)
    return ledger, forecasts


def verify_run(data, kind: str, ridge: float, kernel: Kernel | None = None) -> list[bounds_mod.BoundReport]:
    """Run one algorithm over the stream and check every guarantee it carries.

    ``kind`` is one of "caar", "maar", "kaar" (which needs ``kernel``).  Returns
    one report per guarantee; slack below -1e-6 indicates a broken implementation.
    """
    data = list(data)
    if not data:
        raise InputError("cannot verify an empty stream")
    if kind == "kaar" and kernel is None:
        raise ValueError("kernel required for kind='kaar'")
    x, y = data[0]
    ledger, _ = run_online(data, make_forecaster(kind, np.size(x), np.size(y), ridge, kernel))
    return bounds_mod.bound_reports(data, kind, ridge, ledger.cumulative, kernel)


def mse_amse(losses) -> tuple[float, float]:
    """Mean loss and the mean of running means over a test segment."""
    arr = losses.per_step if isinstance(losses, LossLedger) else np.asarray(losses, dtype=float)
    if arr.size == 0:
        raise InputError("cannot compute metrics on an empty segment")
    running = np.cumsum(arr) / np.arange(1, arr.size + 1)
    return float(arr.mean()), float(running.mean())


def grid_search_ridge(train: LabeledStream, kind: str, grid,
                      kernel: Kernel | None = None, record: dict | None = None) -> float:
    """Smallest grid value achieving the best training MSE.

    CAAR and MAAR score the whole grid in one pass of ridge lanes; other kinds run
    one forecaster per value.  ``record``, when given, receives the sorted grid
    (``ridges``), the train MSE of each value (``train_mse``) and ``seconds``.
    """
    started = time.perf_counter()
    values = sorted(float(g) for g in grid)
    if not values:
        raise InputError("ridge grid is empty")
    if any(v <= 0 for v in values):
        raise InputError("ridge grid values must be positive")
    if kind in ("caar", "maar"):
        mses = _lane_train_mse(train, kind, values)
    else:
        mses = []
        for a in values:
            ledger, _ = run_online(train, make_forecaster(kind, train.n, train.d, a, kernel))
            mses.append(ledger.cumulative / max(ledger.count, 1))
    best = int(np.argmin(mses))   # the first of equal minima: the smallest ridge
    if record is not None:
        record.update(ridges=values, train_mse=[float(v) for v in mses],
                      seconds=time.perf_counter() - started)
    return values[best]


def _lane_train_mse(train: LabeledStream, kind: str, ridges: list[float]) -> np.ndarray:
    """Train MSE of CAAR or MAAR at every ridge, from one forecaster with a lane per ridge.

    Each lane's forecast must be a simplex point (the ProbabilityVector tolerances) and
    its loss finite and nonnegative (the LossLedger rule); a lane that fails raises
    InvariantViolation naming the trial and the ridge (by its row among the ridges, when
    the substitution itself rejects the forecast).
    """
    model = (MaarForecaster if kind == "maar" else CaarForecaster)(train.n, train.d, ridges)
    total = np.zeros(len(ridges))
    for t, (x, y) in enumerate(zip(train.signals, train.labels), start=1):
        try:
            gamma = substitute_rows(model.generalized(x))
        except InvariantViolation as exc:
            raise InvariantViolation(f"trial {t}: {kind} at ridges {ridges!r}: {exc}") from exc
        loss = np.square(gamma - y).sum(axis=1)
        bad = ((gamma.min(axis=1) < NEG_TOL) | ~(np.abs(gamma.sum(axis=1) - 1.0) <= SUM_TOL)
               | ~np.isfinite(loss) | (loss < 0.0))
        if bad.any():
            g = int(np.argmax(bad))
            raise InvariantViolation(f"trial {t}: {kind} forecast {gamma[g].tolist()!r} with loss "
                                     f"{float(loss[g])!r} fails its checks at ridge {ridges[g]!r}")
        total += loss
        model.update(x, y)
    return total / max(len(train), 1)


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

    ``ridge_spec`` is a fixed positive float or a grid (sequence of floats);
    metrics come from a fresh run over the whole stream, sliced at the split.
    """
    train, _ = split_train_test(stream)
    cut = stream.split_index
    if len(stream) - cut == 0:
        raise InputError("stream too short to leave a test segment")
    reports = []
    chosen: dict[str, float | None] = {}
    grids: dict[str, dict] = {}
    for kind in algos:
        if kind == "simple":
            ridge = None
        elif np.ndim(ridge_spec) == 0:
            ridge = float(ridge_spec)
        else:
            if len(train) == 0:
                raise InputError("stream too short for ridge selection")
            grids[kind] = {}
            ridge = grid_search_ridge(train, kind, ridge_spec, kernel, grids[kind])
        chosen[kind] = ridge
        model = make_forecaster(kind, stream.n, stream.d, ridge or 1.0, kernel, stream.window)
        started = time.perf_counter()
        ledger, _ = run_online(stream, model)
        elapsed = time.perf_counter() - started
        mse, amse = mse_amse(ledger.per_step[cut:])
        slack = None
        if kind != "simple":
            # the kernel make_forecaster resolved (a dot kernel when none was given)
            checks = bounds_mod.bound_reports(stream.pairs(), kind, ridge, ledger.cumulative,
                                              getattr(model, "kernel", None))
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
    """Normalize, resolve epsilon ('auto' = median absolute change), label."""
    normalized, mean, scale = normalize_series(series)
    if isinstance(epsilon_spec, str):
        if epsilon_spec != "auto":
            raise InputError(f"epsilon must be a number or 'auto', got {epsilon_spec!r}")
        epsilon = median_epsilon(normalized)
    else:
        epsilon = float(epsilon_spec)
        if epsilon < 0:
            raise InputError("epsilon must be nonnegative")
    return label_stream(normalized, window, epsilon, mean, scale)
