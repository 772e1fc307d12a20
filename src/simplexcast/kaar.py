"""Kernelized joint forecaster, grown by one bordered-Cholesky row per trial.

The dual form of the joint forecaster: with T stored signals (the current
one appended last), Gram matrix K and k = (K(x_1, x), ..., K(x_T, x))',

    r_i = (Y~_1 ... Y-_i ... Y~_{d-1}) A^{-1} (k', ..., 2k', ..., k')',

where the doubled block and the Y-_i block sit at position i,
Y~_j = -2 (y_1^j - y_1^d, ..., y_{T-1}^j - y_{T-1}^d, -1/2) and Y-_j is the
same with final entry 0.  A = aI + (I+J) kron K is never materialized:
applying A^{-1} reduces to the two T x T systems (aI + dK) and (aI + K),
shared by all classes, exactly as in the linear case.  With the plain dot
product this reproduces the linear forecaster's predictions.

With m = d-1, label rows R_j = -2 (y^j - y^d) over the t = T-1 past trials,
S = sum_j R_j, p = (aI + dK)^{-1} k and q = (aI + K)^{-1} k,

    r_i = (1 + 1/m) s(p) - s(q)/m + R_i q[:t],   s(u) = S u[:t] + (m-1) u[T].

For m = 1 the q terms cancel, and only aI + dK is kept.

The forecaster keeps the lower Cholesky factor L of each system aI + sK over
the stored signals.  A signal with kernel row c and K(x, x) = kxx borders
aI + sK by the column s c, and L gains the row (w', rho) with w = L^{-1} s c
and rho^2 = a + s kxx - w'w.  The solve of the bordered system then is
u[T] = (kxx - w'w/s) / rho^2 and u[:t] = (1/s - u[T]) L^{-T} w, so that
R u[:t] = (1/s - u[T]) (L^{-1} R')' w.  G = L^{-1} R' is kept beside L: since
forward substitution fixes row t from the rows before it, G grows by the one
row (R_T' - w'G) / rho when L grows.  A trial therefore costs one triangular
solve per system, O(t^2), plus O(t(n + d)) for the kernel row and the label
terms; memory is O(t^2).  The factor rows sit back to back (row j at offset
j(j+1)/2), which is LAPACK's packed storage of L', so BLAS solves with the
factor in place.  ``update`` doubles every buffer when it is full; ``run``
reserves exactly the rows its trials need.

The protocol is ``maar.Forecaster``'s, shared with CAAR and MAAR; a trial's three
steps here are ``_trial`` (the kernel row, and the border row and pivot of every
factor), ``_row`` (r from them) and ``_commit`` (one new row in every factor and G).
numpy does only the t-sized work (the kernel row and its check, the borders s c,
one ``dtpsv`` per factor, and w'w and w'G, each read out by one ``tolist``); the
d-sized rest of each factor (pivots and their check, u[T], R u[:t], s(u), r, rho
and G's new row) runs on Python floats, cheaper than numpy's per-call overhead.

Ridge lanes: given a 1-D sequence of G ridges, the forecaster keeps one factor
and one G = L^{-1} R' per ridge and system, while the stored signals, the
label rows and each trial's kernel row depend on no ridge and are computed once.
Every lane takes the same BLAS call and arithmetic as a forecaster of its one
ridge, so its predictions equal that forecaster's bit for bit, and a trial over
G ridges costs one kernel row and G triangular solves per system instead of G
forecasters' worth of Python calls.  This is how the benchmark protocol scores
a whole ridge grid in one pass, as it does for CAAR and MAAR; ``lane`` then
copies the chosen lane's factors out, as a forecaster of its one ridge that runs
on bit for bit as one that had that ridge from the start.

There is no refresh.  Bordering computes the Cholesky factor of the grown
matrix row by row, the rows equal, to rounding, those a factorization from
scratch would give, and G is a forward substitution done one row at a time.
Nothing is corrected by rank-one updates, so no drift accumulates, unlike
MAAR's Sherman-Morrison inverses.  What is checked is definiteness: a kernel
row that is not finite, or a pivot rho^2 that is not positive and finite,
raises InvariantViolation naming the trial, the system and the pivot, and
with ridge lanes the ridge of the first lane that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# The factor is solved with BLAS directly, so these three are not called here; they stay
# bound because perfbench/tracer.py wraps them in this module to count factorizations.
from scipy.linalg import cho_solve, cholesky, solve_triangular  # noqa: F401
from scipy.linalg.blas import dtpsv

from .core import DimensionMismatch, InvariantViolation, as_float_vector, check_vector, trial_name
from .maar import Forecaster

_KINDS = ("dot", "rbf", "poly")
_SYSTEMS = ("aI+dK", "aI+K")
_FIRST_CAPACITY = 16
_TILE_BYTES = 1 << 18   # the differences of one rbf Gram tile


@dataclass(frozen=True)
class Kernel:
    """Positive-semidefinite similarity on signals.

    kind "dot":  K(x, y) = x . y
    kind "rbf":  K(x, y) = exp(-|x - y|^2 / (2 sigma^2))
    kind "poly": K(x, y) = (x . y + offset)^degree, PSD only for offset >= 0
    """

    kind: str
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "rbf" and not (self.sigma > 0):
            raise ValueError(f"rbf width must be positive, got {self.sigma}")
        if self.kind == "poly" and (int(self.degree) != self.degree or self.degree < 1):
            raise ValueError(f"polynomial degree must be an integer >= 1, got {self.degree}")
        if self.kind == "poly" and not 0.0 <= self.offset < math.inf:
            raise ValueError(f"polynomial offset must be finite and >= 0, got {self.offset}")

    def __call__(self, x, y) -> float:
        """K(x, y) for two finite signals of one length, by the formula of ``gram``."""
        xa = as_float_vector(x, "signal")
        return float(self._row(xa[None], check_vector(y, xa.size, "signal"))[0])

    def gram(self, signals: np.ndarray) -> np.ndarray:
        """Gram matrix over the rows of ``signals``; rbf's equals ``_row``'s bit for bit."""
        x = np.atleast_2d(np.asarray(signals, dtype=float))
        if self.kind != "rbf":
            return self._of(x @ x.T)
        out, side = np.empty((len(x), len(x))), max(1, math.isqrt(_TILE_BYTES // 8 // max(x.shape[1], 1)))
        for i in range(0, len(x), side):   # the lower triangle in tiles, mirrored: exactly symmetric
            for j in range(0, i + 1, side):
                diff = x[i:i + side, None] - x[None, j:j + side]
                out[i:i + side, j:j + side] = tile = self._of(np.einsum("ijk,ijk->ij", diff, diff))
                out[j:j + side, i:i + side] = tile.T
        return out

    def _row(self, stored: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K(s, x) for every row s of ``stored``."""
        if self.kind != "rbf":
            return self._of(stored @ x)
        diff = stored - x
        return self._of(np.einsum("ij,ij->i", diff, diff))

    def _at(self, x: np.ndarray) -> float:
        """K(x, x): 1 for rbf, where the distance is exactly 0."""
        return 1.0 if self.kind == "rbf" else float(self._of(x @ x))

    def _of(self, v):
        """Kernel values from inner products x.y, or for rbf from squared distances |x - y|^2.

        rbf distances come from differences, never from |x|^2 + |y|^2 - 2x.y,
        which cancels when the signals' norms are large against their distance.
        """
        if self.kind == "dot":
            return v
        if self.kind == "poly":
            with np.errstate(over="ignore"):   # an overflow gives inf, which the callers check
                return (v + self.offset) ** self.degree
        return np.exp(v / (-2.0 * self.sigma**2))


def _grown(buf: np.ndarray, axis: int, size: int) -> np.ndarray:
    """Copy of ``buf`` with ``axis`` enlarged to ``size``; the new tail is uninitialized."""
    shape = list(buf.shape)
    shape[axis] = size
    out = np.empty(shape)
    out[(slice(None),) * axis + (slice(0, buf.shape[axis]),)] = buf
    return out


class KaarForecaster(Forecaster):
    """Sequential predict/update form of the kernelized forecaster.

    Holds the t stored signals and, per system aI + sK (s = d, then s = 1 when
    d > 2), the packed factor rows and G = L^{-1} R'.  With ridge lanes the factor of
    lane g and system j is row g S + j of ``_packed`` and ``_g`` (S systems), so that
    every step treats one row per factor as it does without lanes.
    """

    def __init__(self, d: int, kernel: Kernel, a=1.0):
        super().__init__(d, a)
        self.kernel = kernel
        self._systems = _SYSTEMS[:1 if d == 2 else 2]
        self._ridges = np.repeat(self.a, len(self._systems)).tolist()                  # a of each factor
        self._scales = [float(d), 1.0][:len(self._systems)] * len(np.ravel(self.a))   # s of each factor
        self._column = np.array(self._scales)[:, None]
        self._x = np.empty((0, 0))                       # signals; the first update sets the width
        self._packed = np.empty((len(self._scales), 0))  # factor rows, row j at j(j+1)/2
        self._g = np.empty((len(self._scales), 0, d - 1))

    def _signal(self, x) -> np.ndarray:
        xa = as_float_vector(x, "signal")
        if self.t and xa.size != self._x.shape[1]:
            raise DimensionMismatch(f"signal has length {xa.size}, stored history has {self._x.shape[1]}")
        return xa

    def _width(self, signals) -> int | None:
        """The stored signals' length, or the first signal's; None when there are neither."""
        return self._x.shape[1] if self.t else np.size(signals[0]) if len(signals) else None

    def _extended_gram(self, xa: np.ndarray) -> tuple[np.ndarray, float]:
        """Kernel row of ``xa`` against the stored signals, and K(xa, xa)."""
        stored = self._x[:self.t] if self.t else np.empty((0, xa.size))
        return self.kernel._row(stored, xa), self.kernel._at(xa)

    def _trial(self, xa: np.ndarray):
        """Border rows w of every factor (per lane and system) for signal ``xa``, and as Python
        floats the pivots rho^2, the rows w'G and u[T] of each system's solve."""
        t = self.t
        row, kxx = self._extended_gram(xa)
        if not (math.isfinite(kxx) and np.isfinite(row).all()):
            raise InvariantViolation(f"trial {t + 1}: kernel row is not finite")
        w = self._column * row
        for packed, border in zip(self._packed, w) if t else ():
            dtpsv(t, packed, border, 1, 0, 0, 1, 0, 1)   # border = L^{-1} s c in place; trans=1 by position
        ww = np.einsum("st,st->s", w, w).tolist()
        pivots = [a + s * kxx - v for a, s, v in zip(self._ridges, self._scales, ww)]
        for i, pivot in enumerate(pivots):
            if not 0.0 < pivot < math.inf:
                g, j = divmod(i, len(self._systems))
                raise InvariantViolation(f"{trial_name(t + 1, self._lane_ridge(g))}: "
                                         f"{self._systems[j]} has pivot {pivot!r}, not positive definite")
        u_last = [(kxx - v / s) / p for s, v, p in zip(self._scales, ww, pivots)]
        return xa, w, pivots, np.matmul(w[:, None, :], self._g[:, :t])[:, 0].tolist(), u_last

    def _row(self, trial) -> list:
        """The shifted generalized prediction r (last entry 0) from ``_trial``'s rows, per lane."""
        *_, wg, u_last = trial
        m = self.d - 1
        rows, factors = [], zip(self._scales, u_last, wg)
        for s, u, row in factors:   # per lane: aI+dK, then aI+K when m > 1
            ru = [(1.0 / s - u) * v for v in row]               # R u[:t]
            head = (1.0 + 1.0 / m) * (sum(ru) + (m - 1) * u)    # (1 + 1/m) s(p), for every class
            if m > 1:
                s, u, row = next(factors)
                ru = [(1.0 / s - u) * v for v in row]
                tail = (sum(ru) + (m - 1) * u) / m
            rows.append([head + (v - tail) for v in ru] + [0.0] if m > 1 else [head, 0.0])
        return rows

    def _commit(self, trial, ya: np.ndarray) -> None:
        """Store the signal and write one row into every factor and G."""
        xa, w, pivots, wg, _ = trial
        t = self.t
        if t == self._x.shape[0]:
            self._grow(xa.size, max(2 * t, _FIRST_CAPACITY))
        self._x[t] = xa
        start = t * (t + 1) // 2
        self._packed[:, start:start + t] = w
        self._packed[:, start + t] = rho = list(map(math.sqrt, pivots))
        *head, last = ya.tolist()   # G's new row (R_T' - w'G) / rho, built one class at a time
        self._g[:, t].T[:] = [[(y - v) / r for v, r in zip(col, rho)]
                              for y, col in zip([-2.0 * (v - last) for v in head], zip(*wg))]
        self.t = t + 1

    def _reserve(self, xs) -> None:
        """Exactly the t + T rows a run of T trials needs."""
        if self.t + len(xs) > self._x.shape[0]:
            self._grow(xs.shape[1], self.t + len(xs))

    def _lane(self, g: int) -> KaarForecaster:
        twin = KaarForecaster(self.d, self.kernel, self.a[g])
        rows = slice(g * len(self._systems), (g + 1) * len(self._systems))
        twin._x, twin._packed, twin._g = self._x.copy(), self._packed[rows].copy(), self._g[rows].copy()
        return twin

    def _grow(self, n: int, cap: int) -> None:
        """Grow every buffer to ``cap`` rows; the first call also fixes the signal length n."""
        self._x = _grown(self._x if self.t else np.empty((0, n)), 0, cap)
        self._packed = _grown(self._packed, 1, cap * (cap + 1) // 2)
        self._g = _grown(self._g, 1, cap)
