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

A trial's n-sized work is therefore three numpy operations, besides copying x
into place: the product u of the inverses with x, one product of u against the
rows [h; sum of h; x] and the rank-one update of the inverses, which writes
into buffers made once per forecaster (the scale column, w and the step w w').
The denominators and their check, r, the Sherman-Morrison factors and the
coefficients of the h update are d-sized (per ridge lane), so ``predict`` and
``update`` run them on Python floats after one ``tolist``, which costs less than
numpy's per-call overhead at these sizes.  That is O(n^2 + dn) per trial, plus a
Cholesky rebuild that checks both inverses every REFRESH_EVERY trials.

The trial loop of ``run`` (RankOneCore's ``_steps``) keeps only what reads the
inverses: u, its products with the trial's statistics, the checked denominators
and the rank-one step.  The rest depends on the data alone.  Per refresh window
(at most REFRESH_EVERY trials), one np.cumsum over the coefficient-times-signal
increments gives h and its sum (CAAR's E) before every trial of the window;
cumsum adds in trial order, so each trial sees the bits that ``update``'s +=
gives it.  The window's signals go into place in one block copy.  After the
loop, the coefficients and ``_row`` run once on whole columns of trials, with
the body that runs on Python floats in ``predict``, so ``run`` and the
per-trial loop agree bit for bit.  README's cost table gives the us per
``update`` and per ``run`` trial.

The rank-one update writes w w' of every inverse into one (K, n, n) step by one
of two product kernels, picked once per forecaster from the K n^2 entries of its
inverses: numpy's broadcasting product below EINSUM_FROM, where einsum costs
about 1 us more per call, and einsum's product loop from there up, which takes
half the time at n = 200.  Each entry is the one product w_i w_j either way
(einsum writes a product of -0.0 as +0.0, which changes a stepped entry only if
that entry is -0.0, and then only the zero's sign), so forecasts do not depend on
the choice.  A rebuild builds each system as sC plus a on its diagonal and, once
every rebuilt inverse has passed its check, writes them into the stack in place.

The core also runs ridge lanes: given a 1-D sequence of ridges instead of one,
it keeps the inverses of a_g I + sC for every lane g, and ``generalized`` (MAAR's
and CAAR's alike) returns one row per lane.  C, h (CAAR's E) and the
signals do not depend on the ridge and stay shared, so a trial over G ridges
takes the same numpy calls on a G times taller stack, and a forecaster of one
ridge is the case G = 1.  This is how the benchmark protocol scores a whole
ridge grid in one pass; ``lane`` then splits the chosen lane off to run on alone.

``Forecaster`` holds the online protocol that CAAR, MAAR and KAAR share:
``generalized``, ``predict``, ``update``, ``run`` and ``lane`` are written there
once.  Each forecaster supplies only the three steps of a trial and its run's
trial loop: ``_trial``, the products of a signal; ``_row``, the generalized
prediction from them; ``_commit``, which commits them with the outcome; and
``_steps``, the loop of ``run`` (the windowed form above for CAAR and MAAR).
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .core import (InvariantViolation, ProbabilityVector, check_classes, check_outcome, check_ridge, check_trials,
                   check_vector, trial_name)
from .substitution import _forecast

# Rank-one maintained inverses are rebuilt from scratch this often.
REFRESH_EVERY = 256
# Largest relative drift of a maintained inverse from its rebuild, and largest
# shortfall of a Sherman-Morrison denominator below 1 (measured: < 2e-8).
DRIFT_TOL = 1e-6
# Entries K n^2 of the (K, n, n) step from which einsum's product loop writes w w' faster than
# numpy's broadcasting product, which costs about 1 us less per call below it (measured
# crossover: 1600-3200 entries for K = 1, 2 and 4, and 3150-5600 for K = 14).
EINSUM_FROM = 2500


def ridge_lanes(a) -> float | tuple[float, ...]:
    """``a`` validated: one ridge as a float, or a 1-D sequence of ridges as a tuple, one per lane."""
    if np.ndim(a) == 0:
        return check_ridge(a)
    if np.ndim(a) != 1:
        raise ValueError(f"ridge must be a number or a 1-D sequence, got shape {np.shape(a)}")
    if not len(a):
        raise ValueError("ridge lanes need at least one ridge")
    return tuple(check_ridge(v) for v in a)


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


def _broadcast_outer(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w_k w_k' for every row of the (K, n) ``w``, by numpy's broadcasting product, into ``out``."""
    return np.multiply(w[:, :, None], w[:, None, :], out=out)


def _einsum_outer(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_broadcast_outer(w, out)`` by einsum's product loop, faster from about 2500 entries: each
    entry the one product w_i w_j, but a product of -0.0 comes out +0.0 (0.0 + w_i w_j)."""
    return np.einsum("ki,kj->kij", w, w, out=out)


class Forecaster:
    """The online protocol of CAAR, MAAR and KAAR, written once for all three.

    Each forecaster supplies the three steps of a trial: ``_trial`` gives the products of a
    validated signal x (x first), ``_row`` the generalized prediction from them, one row per
    ridge lane, and ``_commit`` commits them with the outcome y.  ``_steps`` is the trial
    loop of ``run``: it keeps in the loop only what reads the factors and returns the
    columns over the trials that ``_row`` reads, on which ``_row`` takes the arithmetic it
    takes per trial on Python floats.  A forecaster also supplies ``_signal``, the check of
    one signal, ``_width``, the signal length a run checks, and ``_lane(g)``, a forecaster
    of lane g's ridge holding copies of that lane's state.  Rows are lists of Python
    floats, which ``predict`` scans as they are.  ``update`` reuses the products of a
    ``generalized`` or ``predict`` call on the same signal (compared by value; the signal
    is copied).

    ``d`` is the number of classes, at least 2, and ``a`` one ridge or a 1-D sequence of
    ridges, one lane each, kept as a tuple (see ``ridge_lanes``); ``_lanes`` is np.shape(a).
    Every forecaster keeps one factor (an inverse, or a Cholesky factor) per lane g and
    scale s_j of its systems aI + s_j C, j < S, ``scales`` giving s_0 ... s_{S-1}: factor
    k = g S + j, whose ridge and scale are ``_ridges[k]`` and ``_scales[k]``.  So every step
    treats one factor as it treats any other.  A lane of MAAR or KAAR equals the forecaster
    of its one ridge bit for bit.  A lane of CAAR does not: a single factor's (1, n) product
    in ``_trial`` and ``run`` takes another BLAS kernel than a stack of K > 1 factors, and
    over 400 ``run`` trials at d = 3 a lane came up to 8.9e-16 off its single ridge at n = 10,
    and 1.5e-14 to 1.9e-14 at n = 200 (two streams).
    """

    def __init__(self, d: int, a, scales):
        self.d = check_classes(d)
        self.a = ridge_lanes(a)
        self.t = 0
        self._lanes = np.shape(self.a)
        self._size = len(scales)   # S
        self._ridges = [r for r in np.ravel(self.a).tolist() for _ in scales]   # a of each factor
        self._scales = [float(s) for s in scales] * len(np.ravel(self.a))       # s of each factor
        self._last = None   # _trial of the last prediction

    def _lane_ridge(self, k: int) -> float | None:
        """The ridge that names factor k's lane in an error; None for a forecaster of one ridge."""
        return self._ridges[k] if self._lanes else None

    def _factors(self, g: int) -> slice:
        """Lane g's factors, k = g S ... g S + S - 1."""
        return slice(g * self._size, (g + 1) * self._size)

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
        ya = check_outcome(y, self.d)
        last, self._last = self._last, None
        if last is None or not np.array_equal(x, last[0]):
            last = self._trial(self._signal(x))
        self._commit(last, ya)

    def run(self, signals, outcomes) -> np.ndarray:
        """``generalized`` then ``update`` on every row of the (T, n) signals and (T, d)
        outcomes, validated once, as whole arrays, before anything changes.

        Returns the (T,) + np.shape(a) + (d,) stack of generalized predictions, equal bit
        for bit to those of the per-trial loop.  A trial that fails leaves the state of the
        loop stopped there.
        """
        xs, ys = check_trials(signals, outcomes, self._width(signals), self.d, self.t + 1)
        self._last = None
        if not len(xs):   # KAAR has no signal length to reserve by when it stores nothing either
            return np.empty((0,) + self._lanes + (self.d,))
        rows = self._row(self._steps(xs, ys))   # columns over the trials, per lane
        out = np.empty((len(xs), len(rows), self.d))
        for g, row in enumerate(rows):
            for i, column in enumerate(row):
                out[:, g, i] = column
        return out.reshape((len(xs),) + self._lanes + (self.d,))

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

    There is one inverse per factor, that is per ridge lane and scale s (see ``Forecaster``),
    kept by Sherman-Morrison steps; a Cholesky rebuild checks them every REFRESH_EVERY
    trials.  C only feeds that rebuild, so it is kept as its value at the last rebuild plus
    the signals since.  ``_stats`` holds the subclass's statistics (MAAR's h, CAAR's E) as
    rows, then a slot for the current signal; the subclass gives ``_row`` and the
    ``_coefficients`` of an outcome, each written so that it runs on Python floats
    (``predict`` and ``update``) and on whole columns of a run alike.

    ``_inv`` is the (K, n, n) stack of the K = G S factors: row k = g S + j is the inverse of
    a_g I + s_j C.  Every step acts on the whole stack the same way, whatever G is, and
    writes into buffers made once: the scale column sqrt(s / den), w and the step w w'.
    """

    def __init__(self, n: int, d: int, a, scales, rows: int):
        if n < 1:
            raise ValueError(f"signal dimension must be >= 1, got {n}")
        super().__init__(d, a, scales)
        self.n = n
        self._inv = np.stack([np.eye(n) / a for a in self._ridges])   # (aI + sC)^{-1} per factor
        self._outer = _einsum_outer if self._inv.size >= EINSUM_FROM else _broadcast_outer
        self._stats = np.zeros((rows + 1, n))
        self._c = np.zeros((n, n))                    # C up to the last refresh
        self._signals = np.empty((REFRESH_EVERY, n))  # signals since then
        self._scale = np.empty((len(self._ridges), 1))
        self._w = np.empty((len(self._ridges), n))
        self._step = np.empty_like(self._inv)

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
        the inner products of u_k with every row of ``_stats`` (x last) and the checked
        Sherman-Morrison denominator (see ``_denominators``); the last two as Python floats,
        since numpy costs more per scalar."""
        u = self._inv @ xa
        self._stats[-1] = xa
        products = (u @ self._stats.T).tolist()
        return xa, u, products, self._denominators(products)

    def _denominators(self, products: list) -> list:
        """1 + s x'u_k per factor k, from the rows of ``products`` (x'u_k last), each checked: it
        is >= 1 unless the inverse is broken, so one below 1 - DRIFT_TOL or not finite raises
        InvariantViolation naming trial t + 1 and the factor's lane."""
        den = [1.0 + s * row[-1] for s, row in zip(self._scales, products)]
        for k, v in enumerate(den):
            if not 1.0 - DRIFT_TOL <= v < math.inf:
                raise InvariantViolation(f"{trial_name(self.t + 1, self._lane_ridge(k))}: Sherman-Morrison "
                                         f"denominator {den[self._factors(k // self._size)]!r} is not >= 1")
        return den

    def _steps(self, xs: np.ndarray, ys: np.ndarray):
        """The trials of ``run``.  Only the steps that read the inverses stay in the loop: u,
        its products with the trial's statistics, the checked denominators and the step.  The
        statistics of every trial of a refresh window come before it from one cumulative sum."""
        t_len, k = len(xs), len(self._ridges)
        coefficients = np.array(self._coefficients(ys.T)).T   # (T, rows)
        products = np.empty((t_len, k, len(self._stats)))   # per trial and factor: u_k against each row
        stats = np.empty((min(t_len, REFRESH_EVERY) + 1,) + self._stats.shape)
        u = np.empty((k, self.n))
        start = 0
        while start < t_len:
            first, slot = self.t, self.t % REFRESH_EVERY
            stop = min(t_len, start + REFRESH_EVERY - slot)   # the rest of the refresh window
            window = self._window(stats[:stop - start + 1], xs[start:stop], coefficients[start:stop])
            self._signals[slot:slot + stop - start] = xs[start:stop]
            try:
                for i in range(start, stop):
                    np.matmul(self._inv, xs[i], out=u)
                    np.matmul(u, window[i - start].T, out=products[i])
                    den = self._denominators(products[i, :, -1:].tolist())
                    self._step_inverses(u, den)
                    self.t += 1
            finally:
                self._stats[:-1] = window[self.t - first, :-1]   # the statistics of trial t
            start = stop
        den = 1.0 + np.array(self._scales) * products[:, :, -1]
        return xs, None, products.transpose(1, 2, 0), den.T

    def _window(self, stats: np.ndarray, xs: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """``stats`` filled for the m trials of ``xs``, (m + 1, rows + 1, n): entry j holds the
        statistics before trial j, then its signal.  np.cumsum adds each trial's increments to
        the sum before it in trial order, as ``_commit``'s += does, so entry j has its bits."""
        stats[0] = self._stats
        np.multiply(coefficients[:, :, None], xs[:, None, :], out=stats[1:, :-1])
        np.cumsum(stats[:, :-1], axis=0, out=stats[:, :-1])
        stats[:-1, -1] = xs
        return stats

    def _commit(self, trial, ya: np.ndarray) -> None:
        """C += xx', every inverse follows, from the products ``trial`` of x, and row i of the
        statistics gains the subclass's coefficient i of outcome y times x.

        A refresh that fails raises before anything changes, so the state stays that of trial t.
        """
        xa, u, _, den = trial
        self._signals[self.t % REFRESH_EVERY] = xa   # past the rows that ``c`` reads until t moves
        self._step_inverses(u, den)
        self._stats[:-1] += np.array(self._coefficients(ya.tolist()))[:, None] * xa
        self.t += 1

    def _step_inverses(self, u: np.ndarray, den: list) -> None:
        """The Sherman-Morrison step of trial t + 1 from u and the checked ``den``.  Every
        REFRESH_EVERY trials the stepped inverses are rebuilt from C (its signals in
        ``_signals``), and replace the stack only once every rebuild has passed its check."""
        # (M_s + s xx')^{-1} = M_s^{-1} - ww' with w = sqrt(s/den) u: (i, j) and (j, i) get one
        # product, so the inverses stay exactly symmetric
        self._scale[:, 0] = [math.sqrt(s / v) for s, v in zip(self._scales, den)]
        np.multiply(u, self._scale, out=self._w)
        self._outer(self._w, out=self._step)
        if (self.t + 1) % REFRESH_EVERY:
            np.subtract(self._inv, self._step, out=self._inv)
            return
        c = self._c + self._signals.T @ self._signals
        np.subtract(self._inv, self._step, out=self._step)   # the stepped inverses, which the rebuilds check
        for k, fresh in enumerate(self._refreshed(self._step, c, self.t + 1)):
            self._inv[k] = fresh
        self._c = c

    def _lane(self, g: int):
        twin = type(self)(self.n, self.d, self.a[g])
        twin._inv = self._inv[self._factors(g)].copy()
        twin._stats, twin._c, twin._signals = self._stats.copy(), self._c.copy(), self._signals.copy()
        return twin

    def _refreshed(self, inv: np.ndarray, c: np.ndarray, trial: int) -> list:
        """Cholesky rebuilds of every inverse in ``inv``, each checked against it, all before any
        is returned; ``inv`` is left as it is."""
        fresh = []
        for k, (m, a, s) in enumerate(zip(inv, self._ridges, self._scales)):
            mat = s * c
            mat.flat[::self.n + 1] += a   # aI + sC, as a * eye + s * c gives it
            fresh.append(refresh_inverse(m, mat, trial, self._lane_ridge(k)))
        return fresh


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

    def _coefficients(self, ya) -> list:
        """h_i -= 2 (y^i - y^d) x, and their sum, added left to right from 0.0 on Python floats
        and on columns alike."""
        c = [-2.0 * (v - ya[-1]) for v in ya[:-1]]
        return c + [reduce(operator.add, c, 0.0)]
