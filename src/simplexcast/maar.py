"""Joint aggregating forecaster for multi-class square-loss prediction.

The forecaster mixes all linear experts
    xi_i(x) = 1/d + alpha_i'x   (i = 1..d-1),   xi_d = 1 - sum of the rest
under a Gaussian prior with scale ``a`` and predicts through the threshold
substitution.  Its sufficient statistics are the signal outer-product sum C
and the vector h built from past (y^i - y^d) differences.  On each trial it
forms, for the signal-updated C' = C + xx' and each class i < d,

    b_i = h + (x', ..., 0, ..., x')'      (zero block at position i)
    z_i = -(x', ..., 2x', ..., x')'       (doubled block at position i)
    r_i = -b_i' A^{-1} z_i,   r_d = 0,

where A = aI + (I+J) kron C' has 2C' diagonal blocks and C' off-diagonal
blocks.  I+J (J the all-ones matrix of size d-1) has eigenvalue d on the
all-ones direction and eigenvalue 1 elsewhere, so r needs only (aI + C')^{-1} x
and (aI + dC')^{-1} x.  The forecaster keeps the inverses of aI + C and aI + dC
in RankOneCore, the Sherman-Morrison core it shares with CAAR, and the row sum
of h beside h.  With u = (aI + sC)^{-1} x, the vector (aI + sC')^{-1} x is
u / (1 + s x'u), so every term of r is an inner product of u with a row of h,
with their sum or with x, over that denominator.

A trial's n-sized work is therefore four numpy operations, besides copying x
into place: the product u of the inverses with x, one product of u against the
rows [h; sum of h; x], the rank-one update of the inverses and the update of
h.  The denominators and their check, r, the Sherman-Morrison factors and the
coefficients of the h update are d-sized (per ridge lane), so they run on
Python floats after one ``tolist``, which costs less than numpy's per-call
overhead at these sizes.  That is O(n^2 + dn) per trial, plus a Cholesky
rebuild that checks both inverses every REFRESH_EVERY trials.

The core also runs ridge lanes: given a 1-D sequence of ridges instead of one,
it keeps the inverses of a_g I + sC for every lane g, and ``generalized`` (MAAR's
and CAAR's alike) returns one row per lane.  C, h (CAAR's E) and the
signals do not depend on the ridge and stay shared, so a trial over G ridges
takes the same numpy calls on a G times taller stack, and a forecaster of one
ridge is the case G = 1.  This is how the benchmark protocol scores a whole
ridge grid in one pass; ``lane`` then splits the chosen lane off to run on alone.

``Forecaster`` holds the online protocol that CAAR, MAAR and KAAR share:
``generalized``, ``predict``, ``update``, ``run`` and ``lane`` are written there
once.  Each forecaster supplies only the three steps of a trial: ``_trial``, the
products of a signal; ``_row``, the generalized prediction from them; and
``_commit``, which commits them with the outcome.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (DimensionMismatch, InvariantViolation, ProbabilityVector, check_classes, check_ridge,
                   check_trials, check_vector, trial_name)
from .substitution import _forecast

# Rank-one maintained inverses are rebuilt from scratch this often.
REFRESH_EVERY = 256
# Largest relative drift of a maintained inverse from its rebuild, and largest
# shortfall of a Sherman-Morrison denominator below 1 (measured: < 2e-8).
DRIFT_TOL = 1e-6


def ridge_lanes(a) -> float | tuple[float, ...]:
    """``a`` validated: one ridge as a float, or a 1-D sequence of ridges as a tuple, one per lane."""
    if np.ndim(a) == 0:
        return check_ridge(a)
    if np.ndim(a) != 1:
        raise ValueError(f"ridge must be a number or a 1-D sequence, got shape {np.shape(a)}")
    if not len(a):
        raise ValueError("ridge lanes need at least one ridge")
    return tuple(check_ridge(v) for v in a)


def solve_structured(a: float, d: int, c: np.ndarray, rhs) -> np.ndarray:
    """Apply (aI + (I+J) kron C)^{-1} to rhs using the eigen-split of I+J.

    ``c`` is the n x n (or T x T, in the kernel case) block; ``rhs`` is a
    vector of length (d-1)*n or a matrix of such columns.  Block means travel
    through (aI + dC)^{-1} and deviations through (aI + C)^{-1}.
    """
    check_ridge(a)
    m = d - 1
    n = c.shape[0]
    arr = np.asarray(rhs, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[:, None]
    if arr.shape[0] != m * n:
        raise DimensionMismatch(f"rhs has {arr.shape[0]} rows, expected {m * n}")
    k = arr.shape[1]
    blocks = arr.reshape(m, n, k)
    mean = blocks.mean(axis=0)
    eye = np.eye(n)
    out = np.empty_like(blocks)
    big = np.linalg.solve(a * eye + d * c, mean)
    if m == 1:
        out[0] = big
    else:
        dev = blocks - mean
        small = np.linalg.solve(a * eye + c, dev.transpose(1, 0, 2).reshape(n, m * k))
        out[:] = big + small.reshape(n, m, k).transpose(1, 0, 2)
    flat = out.reshape(m * n, k)
    return flat[:, 0] if single else flat


def refresh_inverse(minv: np.ndarray, mat: np.ndarray, trial: int, ridge: float | None = None) -> np.ndarray:
    """mat^{-1} rebuilt by Cholesky; raises InvariantViolation, naming the trial (and the ridge
    of a lane, when given), when mat is not positive definite or the maintained ``minv`` is more
    than DRIFT_TOL (relative) from it."""
    try:
        linv = np.linalg.inv(np.linalg.cholesky(mat))
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(f"{trial_name(trial, ridge)}: refresh found a system that is not "
                                 "positive definite") from exc
    fresh = linv.T @ linv
    scale = np.abs(fresh).max()   # the ratio of norms at unit scale: no underflow at any ridge
    drift = np.linalg.norm(minv / scale - fresh / scale) / np.linalg.norm(fresh / scale)
    if not drift <= DRIFT_TOL:
        cond = np.linalg.norm(mat, 1) * np.linalg.norm(fresh, 1)
        raise InvariantViolation(f"{trial_name(trial, ridge)}: inverse drift {drift:.3e}, "
                                 f"condition estimate {cond:.3e}")
    return fresh


class Forecaster:
    """The online protocol of CAAR, MAAR and KAAR, written once for all three.

    Each forecaster supplies the three steps of a trial: ``_trial`` gives the products of a
    validated signal x (x first), ``_row`` the generalized prediction from them, one row per
    ridge lane, and ``_commit`` commits them with the outcome y.  It also supplies
    ``_signal``, the check of one signal, ``_width``, the signal length a run checks, and
    ``_lane(g)``, a forecaster of lane g's ridge holding copies of that lane's state.  Rows
    are lists of Python floats, which ``predict`` scans as they are.  ``update`` reuses the
    products of a ``generalized`` or ``predict`` call on the same signal (compared by value;
    the signal is copied), and ``run`` takes the same three steps on every row, so the two
    paths agree bit for bit.

    ``d`` is the number of classes, at least 2, and ``a`` one ridge or a 1-D sequence of
    ridges, one lane each, kept as a tuple (see ``ridge_lanes``); ``_lanes`` is np.shape(a).
    """

    def __init__(self, d: int, a):
        self.d = check_classes(d)
        self.a = ridge_lanes(a)
        self.t = 0
        self._lanes = np.shape(self.a)
        self._last = None   # _trial of the last prediction

    def _lane_ridge(self, g: int) -> float | None:
        """The ridge that names lane g in an error; None for a forecaster of one ridge."""
        return self.a[g] if self._lanes else None

    def generalized(self, x) -> np.ndarray:
        """The shifted generalized prediction r, of shape np.shape(a) + (d,)."""
        self._last = self._trial(self._signal(x).copy())
        return np.array(self._row(self._last)).reshape(self._lanes + (self.d,))

    def predict(self, x) -> ProbabilityVector:
        """The threshold substitution of ``generalized(x)``, bit for bit; it needs one ridge."""
        if self._lanes:
            raise ValueError("predict takes one ridge; with ridge lanes use generalized, or lane(g)")
        self._last = self._trial(self._signal(x).copy())
        return _forecast(self._row(self._last)[0])

    def update(self, x, y) -> None:
        """Commit the trial (x, y), reusing the products of a ``generalized`` or ``predict``
        call on the same signal."""
        ya = check_vector(y, self.d, "outcome")
        last, self._last = self._last, None
        if last is None or not np.array_equal(x, last[0]):
            last = self._trial(self._signal(x))
        self._commit(last, ya)

    def run(self, signals, outcomes) -> np.ndarray:
        """``generalized`` then ``update`` on every row of the (T, n) signals and (T, d)
        outcomes, validated once, as whole arrays, before anything changes.

        Returns the (T,) + np.shape(a) + (d,) stack of generalized predictions, equal bit
        for bit to those of the per-trial loop, since each row takes the same steps.
        """
        xs, ys = check_trials(signals, outcomes, self._width(signals), self.d, self.t + 1)
        self._last = None
        self._reserve(xs)
        out = []
        for xa, ya in zip(xs, ys):
            trial = self._trial(xa)
            out.append(self._row(trial))
            self._commit(trial, ya)
        return np.array(out).reshape((len(xs),) + self._lanes + (self.d,))

    def _reserve(self, xs) -> None:
        """Make room for the run's validated signals ``xs`` before its first trial."""

    def lane(self, g: int):
        """Lane g of a forecaster with ridge lanes, as a forecaster of its one ridge in the
        state this one has reached; the two share no arrays."""
        if not self._lanes:
            raise ValueError("lane needs a forecaster with ridge lanes")
        twin = self._lane(g)
        twin.t = self.t
        return twin


class RankOneCore(Forecaster):
    """State shared by the linear forecasters: C = sum x_t x_t' and the inverses of aI + sC.

    There is one inverse per ridge lane and scale s, kept by Sherman-Morrison steps; a
    Cholesky rebuild checks them every REFRESH_EVERY trials.  C only feeds that rebuild,
    so it is kept as its value at the last rebuild plus the signals since.  ``_stats``
    holds the subclass's statistics (MAAR's h, CAAR's E) as rows, then a slot for the
    current signal; the subclass gives ``_row`` and the ``_coefficients`` of an outcome.

    ``_inv`` has shape np.shape(a) + (S, n, n): the inverse of a_g I + sC for lane g and
    scale s.  ``_flat`` views it as K = G S factors, lane by lane, and every step acts on
    that stack the same way whatever G is, so one lane takes the same arithmetic as one ridge.
    """

    def __init__(self, n: int, d: int, a, scales, rows: int):
        if n < 1:
            raise ValueError(f"signal dimension must be >= 1, got {n}")
        super().__init__(d, a)
        self.n = n
        self._ridges = np.ravel(self.a).tolist()
        self._scales = [float(s) for s in scales] * len(self._ridges)   # s of each factor
        # (aI + sC)^{-1} per lane and scale s
        self._inv = np.stack([np.eye(n) / a for a in self._ridges for _ in scales]).reshape(
            self._lanes + (len(scales), n, n))
        self._flat = self._inv.reshape(-1, n, n)
        self._stats = np.zeros((rows + 1, n))
        self._c = np.zeros((n, n))                    # C up to the last refresh
        self._signals = np.empty((REFRESH_EVERY, n))  # signals since then

    @property
    def c(self) -> np.ndarray:
        """C = sum x_t x_t' over the committed trials."""
        pending = self._signals[:self.t % REFRESH_EVERY]
        return self._c + pending.T @ pending

    def _signal(self, x) -> np.ndarray:
        return check_vector(x, self.n, "signal")

    def _width(self, signals) -> int:
        return self.n

    def _trial(self, xa: np.ndarray):
        """(x, u, products, den) for a validated signal x, per factor k: u_k = (aI + sC)^{-1} x,
        the inner products of u_k with every row of ``_stats`` (x last) and the
        Sherman-Morrison denominator 1 + s x'u_k, which is >= 1 unless the inverse is broken;
        the last two as Python floats, since numpy costs more per scalar."""
        u = self._flat @ xa
        self._stats[-1] = xa
        products = (u @ self._stats.T).tolist()
        den = [1.0 + s * row[-1] for s, row in zip(self._scales, products)]
        for k, v in enumerate(den):
            if not 1.0 - DRIFT_TOL <= v < math.inf:
                size = self._inv.shape[-3]   # scales per lane
                g = k // size
                raise InvariantViolation(f"{trial_name(self.t + 1, self._lane_ridge(g))}: Sherman-Morrison "
                                         f"denominator {den[g * size:(g + 1) * size]!r} is not >= 1")
        return xa, u, products, den

    def _commit(self, trial, ya: np.ndarray) -> None:
        """C += xx', every inverse follows, from the products ``trial`` of x, and row i of the
        statistics gains the subclass's coefficient i of outcome y times x.

        A refresh that fails raises before anything changes, so the state stays that of trial t.
        """
        xa, u, _, den = trial
        slot = self.t % REFRESH_EVERY
        self._signals[slot] = xa   # past the rows that ``c`` reads until t moves
        # (M_s + s xx')^{-1} = M_s^{-1} - ww' with w = sqrt(s/den) u: (i, j) and (j, i) get one
        # product, so the inverses stay exactly symmetric
        w = u * np.array([math.sqrt(s / v) for s, v in zip(self._scales, den)])[:, None]
        step = w[:, :, None] * w[:, None, :]
        if slot + 1 < REFRESH_EVERY:
            self._flat -= step
        else:
            c = self._c + self._signals.T @ self._signals
            self._inv = self._refreshed((self._flat - step).reshape(self._inv.shape), c, self.t + 1)
            self._flat = self._inv.reshape(step.shape)
            self._c = c
        self._stats[:-1] += np.array(self._coefficients(ya.tolist()))[:, None] * xa
        self.t += 1

    def _lane(self, g: int):
        twin = type(self)(self.n, self.d, self.a[g])
        twin._inv = self._inv[g].copy()
        twin._flat = twin._inv.reshape(twin._flat.shape)
        twin._stats, twin._c, twin._signals = self._stats.copy(), self._c.copy(), self._signals.copy()
        return twin

    def _refreshed(self, inv: np.ndarray, c: np.ndarray, trial: int) -> np.ndarray:
        """Cholesky rebuilds of every inverse in ``inv``, each checked against it; new arrays."""
        size, eye = inv.shape[-3], np.eye(self.n)
        fresh = [refresh_inverse(m, self._ridges[k // size] * eye + self._scales[k] * c, trial,
                                 self._lane_ridge(k // size))
                 for k, m in enumerate(inv.reshape(self._flat.shape))]
        return np.stack(fresh).reshape(inv.shape)

    def run_check(self) -> None:
        """Check every maintained inverse against a Cholesky rebuild, keeping them as they are."""
        self._refreshed(self._inv, self.c, self.t)


class MaarForecaster(RankOneCore):
    """Sequential predict/update form of the joint forecaster.

    Holds h (row i is h_i = -2 sum (y^i - y^d) x_t) and its row sum beside the core's C
    and the inverses of aI + C and aI + dC.  With ridge lanes (``a`` a 1-D sequence), h
    stays shared and ``generalized`` returns one row per ridge; ``predict`` needs one ridge.
    """

    def __init__(self, n: int, d: int, a=1.0):
        super().__init__(n, d, a, (1.0, d), d)   # statistics: h, then sum_i h_i

    @property
    def h(self) -> np.ndarray:
        return self._stats[:self.d - 1]

    def _row(self, trial) -> list:
        # per lane: q = (aI + C')^{-1} x and p = (aI + dC')^{-1} x, each u / den
        _, _, products, den = trial
        m = self.d - 1
        rows = []
        for uq, up, dq, dp in zip(products[::2], products[1::2], den[::2], den[1::2]):
            mean = (1.0 + 1.0 / m) * ((up[m] + (m - 1) * up[m + 1]) / dp)
            dev = (uq[m] + (m - 1) * uq[m + 1]) / dq / m
            rows.append([mean + v / dq - dev for v in uq[:m]] + [0.0])
        return rows

    def _coefficients(self, ya: list) -> list:
        """h_i -= 2 (y^i - y^d) x, and their sum."""
        c = [-2.0 * (v - ya[-1]) for v in ya[:-1]]
        return c + [sum(c)]
