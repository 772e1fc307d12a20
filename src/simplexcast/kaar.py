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

The protocol, ``run`` included, is ``maar.Forecaster``'s, shared with CAAR and MAAR;
a trial's three steps here are ``_trial`` (the kernel row, and the border row and
pivot of every factor), ``_row`` (r from them) and ``_commit`` (one new row in every
factor and G), and ``_steps`` is the trial loop of ``run``.  numpy does only the
t-sized work (the kernel row and its check, the borders s c, one ``dtpsv`` per
factor, and w'w and w'G, each read out by one ``tolist``); the d-sized rest of each
factor (pivots and their check, u[T], R u[:t], s(u), r, rho and G's new row) runs on
Python floats, cheaper than numpy's per-call overhead.

``_steps`` keeps in its trial loop only what reads the factors.  Before the loop it
reserves the buffers and copies the run's signals into place in one block; K(x, x),
a + s K(x, x) per factor and the label row R_T' of every trial come as whole
arrays.  The kernel rows come a block of trials at a time (as many as an rbf tile
has rows), each block from one ``Kernel._rows`` call, with one finiteness mask, so
that a row that is not finite still raises at its own trial.  Its tiles take
``Kernel._pairs``, the formula that gives a single trial its row, so the rows agree
bit for bit.  The loop keeps the borders s c, written straight into the factors'
next packed rows, one ``dtpsv`` per factor, w'w and the checked pivots, rho, w'G and
G's new row.  After the loop, u[T] and ``_row`` run once on whole columns of trials
with the arithmetic they take per trial on Python floats (sums add left to right
from 0.0), so ``run`` and the per-trial loop agree bit for bit.

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

Of scipy, KAAR loads the top-level package and its compiled module
``scipy.linalg._fblas``, for ``dtpsv``; the kernel guarantee adds ``_flapack``, for
``dpotrf`` and ``dpotrs``.  The ``scipy.linalg`` package never loads (``_fortran``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .core import DimensionMismatch, InvariantViolation, as_float_vector, check_vector, trial_name
from .maar import Forecaster


# Importing scipy.linalg clones numpy's namespace (scipy._lib.array_api_compat.numpy), which
# loads numpy.f2py, numpy.testing and about 300 more modules: about 23 MB and 0.2 s.  KAAR needs
# one BLAS routine and the kernel guarantee two LAPACK ones, so they come from scipy.linalg's
# compiled Fortran modules, loaded from their files; scipy.linalg.blas and scipy.linalg.lapack
# export these very function objects.  Top-level scipy is imported first, because its init
# tells those modules where scipy's bundled OpenBLAS is (Windows wheels need that).  CPython
# records a single-phase extension module in sys.modules under its name; left there, a later
# import of scipy.linalg would find it and never set the package's attribute, so the entry is
# dropped, and that import builds its module from CPython's cache of this one's functions.
@functools.cache
def _fortran(name: str):
    """scipy.linalg's compiled module ``name`` ("_fblas" or "_flapack"), without running
    scipy/linalg/__init__.py."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:   # scipy.linalg has loaded it
        return sys.modules[qualified]
    folder = Path(scipy.__file__).parent / "linalg"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (folder / (name + suffix) for suffix in suffixes):
        if path.is_file():
            spec = importlib.util.spec_from_file_location(qualified, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(qualified, None)
            return module
    raise ImportError(f"scipy's compiled module {folder / name} not found with any suffix of {suffixes}")


dtpsv = _fortran("_fblas").dtpsv


def __getattr__(name):   # perfbench/tracer.py wraps these three here, read from the module's dict
    if name in ("cholesky", "cho_solve", "solve_triangular"):
        import scipy.linalg   # nothing here calls them, so only a traced run pays for this import
        globals()[name] = getattr(scipy.linalg, name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_KINDS = ("dot", "rbf", "poly")
_SYSTEMS = ("aI+dK", "aI+K")
_FIRST_CAPACITY = 16
_TILE_BYTES = 1 << 18   # the differences of one rbf tile


@functools.cache
def _tile_side(n: int) -> int:
    """Rows of an rbf tile, and of a ``run`` block: side x side differences of n floats fill
    about _TILE_BYTES."""
    return max(1, math.isqrt(_TILE_BYTES // 8 // max(n, 1)))


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

    @np.errstate(over="ignore")   # a numpy sigma's 2 sigma^2 that overflows is inf, as a float's is
    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "rbf" and not (self.sigma > 0 and 0.0 < 2.0 * (self.sigma * self.sigma) < math.inf):
            raise ValueError(f"rbf width must make 2 sigma^2, the divisor of a squared distance, positive "
                             f"and finite, got sigma = {self.sigma}")
        if self.kind == "poly" and (int(self.degree) != self.degree or self.degree < 1):
            raise ValueError(f"polynomial degree must be an integer >= 1, got {self.degree}")
        if self.kind == "poly" and not 0.0 <= self.offset < math.inf:
            raise ValueError(f"polynomial offset must be finite and >= 0, got {self.offset}")

    # An inner product of signals past about 1e154, or an rbf difference past 1e308, overflows
    # to inf, an rbf entry of 0: a right value, or one that KAAR, the bounds, ``gram`` and
    # __call__ reject by type.  So the callers of ``_pairs``, ``_rows`` and ``_at`` ignore
    # overflow.
    @np.errstate(over="ignore")
    def __call__(self, x, y) -> float:
        """K(x, y) for two finite signals of one length, by the formula of ``_pairs``; a dot or
        poly value that overflows raises InvariantViolation."""
        xa = as_float_vector(x, "signal")
        value = float(self._pairs(check_vector(y, xa.size, "signal")[None], xa[None])[0, 0])
        if not math.isfinite(value):
            raise InvariantViolation(f"{self.kind} kernel value overflows to {value!r}")
        return value

    @np.errstate(over="ignore")
    def gram(self, signals) -> np.ndarray:
        """Gram matrix over the rows of ``signals``; rbf's entries are ``_pairs``' bits, dot and
        poly take one matrix product, and one of their values that overflows raises
        InvariantViolation."""
        x = np.atleast_2d(np.asarray(signals, dtype=float))
        if self.kind == "rbf":
            out = self._rows(x, x, 1)   # the lower triangle in tiles, mirrored: exactly symmetric
            side = _tile_side(x.shape[1])
            for i in range(side, len(x), side):
                out[:i, i:i + side] = out[i:i + side, :i].T
            return out
        with np.errstate(invalid="ignore"):   # inf - inf
            out = self._of(x @ x.T)
        bad = ~np.isfinite(out)
        if bad.any():
            raise InvariantViolation(f"{self.kind} kernel value overflows to {float(out[bad][0])!r}")
        return out

    def _pairs(self, xs: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """K(stored[j], xs[i]) for every row i of ``xs`` and j of ``stored``: the one formula of a
        kernel row.  rbf takes one einsum over the differences, each entry the one sum of
        squares of its difference whatever the shapes; dot and poly take one matrix-vector
        product per row of ``xs``, which a matrix product would round otherwise."""
        if self.kind != "rbf":
            return self._of(np.array([stored @ x for x in xs]))
        diff = xs[:, None] - stored[None]
        return self._of(np.einsum("ijk,ijk->ij", diff, diff))

    def _rows(self, stored: np.ndarray, xs: np.ndarray, lead: int) -> np.ndarray:
        """Kernel rows of the m signals ``xs``, each against the stored signals before it: entry
        (i, j) of the (m, lead + m - 1) result is K(stored[j], xs[i]) for j < lead + i, and the
        entries past that are unspecified.  rbf comes in tiles of about _TILE_BYTES of
        differences, dot and poly one row at a time."""
        out = np.empty((len(xs), max(lead + len(xs) - 1, 0)))
        if self.kind != "rbf":
            for i in range(len(xs)):
                out[i, :lead + i] = self._pairs(xs[i:i + 1], stored[:lead + i])
            return out
        side = _tile_side(xs.shape[1])
        for i in range(0, len(xs), side):
            tile = xs[i:i + side]
            stop = lead + i + len(tile) - 1   # the columns the tile's last row needs
            width = side * side // len(tile)
            for j in range(0, stop, width):
                end = min(j + width, stop)
                out[i:i + side, j:end] = self._pairs(tile, stored[j:end])
        return out

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
    d > 2), the packed factor rows and G = L^{-1} R'.  Factor k = g S + j, of lane g and
    system j (see ``Forecaster``), is row k of ``_packed`` and ``_g``.
    """

    def __init__(self, d: int, kernel: Kernel, a=1.0):
        super().__init__(d, a, (d, 1.0)[:1 if d == 2 else 2])
        self.kernel = kernel
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

    @np.errstate(over="ignore")
    def _extended_gram(self, xa: np.ndarray) -> tuple[np.ndarray, float]:
        """Kernel row of ``xa`` against the stored signals, and K(xa, xa); an overflow gives inf,
        which ``_trial`` checks."""
        stored = self._x[:self.t] if self.t else np.empty((0, xa.size))
        return self.kernel._pairs(xa[None], stored)[0], self.kernel._at(xa)

    def _trial(self, xa: np.ndarray):
        """Border rows w of every factor (per lane and system) for signal ``xa``, and as Python
        floats the pivots rho^2, the rows w'G and u[T] of each system's solve."""
        t = self.t
        row, kxx = self._extended_gram(xa)
        if not (math.isfinite(kxx) and np.isfinite(row).all()):
            raise InvariantViolation(f"trial {t + 1}: kernel row is not finite")
        w = self._column * row
        self._solve_borders(w)
        ww = np.einsum("st,st->s", w, w).tolist()
        pivots = self._checked([a + s * kxx - v for a, s, v in zip(self._ridges, self._scales, ww)])
        u_last = [(kxx - v / s) / p for s, v, p in zip(self._scales, ww, pivots)]
        return xa, w, pivots, np.matmul(w[:, None, :], self._g[:, :t])[:, 0].tolist(), u_last

    def _solve_borders(self, w: np.ndarray) -> None:
        """w = L^{-1} s c in place, row k by factor k's packed rows."""
        for packed, border in zip(self._packed, w) if self.t else ():
            dtpsv(self.t, packed, border, 1, 0, 0, 1, 0, 1)   # trans=1 by position

    def _checked(self, pivots: list) -> list:
        """The pivots rho^2 of trial t + 1, each positive and finite, or InvariantViolation
        naming the trial, the first failing factor's system and its lane's ridge."""
        for k, pivot in enumerate(pivots):
            if not 0.0 < pivot < math.inf:
                raise InvariantViolation(f"{trial_name(self.t + 1, self._lane_ridge(k))}: "
                                         f"{_SYSTEMS[k % self._size]} has pivot {pivot!r}, not positive definite")
        return pivots

    def _row(self, trial) -> list:
        """The shifted generalized prediction r (last entry 0) from ``_trial``'s rows, per lane,
        on Python floats or on whole columns of trials alike; sums add left to right from 0.0."""
        *_, wg, u_last = trial
        m = self.d - 1
        rows, factors = [], zip(self._scales, u_last, wg)
        for s, u, row in factors:   # per lane: aI+dK, then aI+K when m > 1
            ru = [(1.0 / s - u) * v for v in row]                              # R u[:t]
            head = (1.0 + 1.0 / m) * (functools.reduce(operator.add, ru, 0.0) + (m - 1) * u)   # (1 + 1/m) s(p)
            if m > 1:
                s, u, row = next(factors)
                ru = [(1.0 / s - u) * v for v in row]
                tail = (functools.reduce(operator.add, ru, 0.0) + (m - 1) * u) / m
            rows.append([head + (v - tail) for v in ru] + [0.0] if m > 1 else [head, 0.0])
        return rows

    def _steps(self, xs: np.ndarray, ys: np.ndarray):
        """The trials of ``run``; only the steps that read the factors stay in the loop (see the
        module docstring)."""
        t0, t_len = self.t, len(xs)
        if t0 + t_len > self._x.shape[0]:   # exactly the rows the run needs
            self._grow(xs.shape[1], t0 + t_len)
        self._x[t0:t0 + t_len] = xs
        with np.errstate(over="ignore"):   # an overflow gives inf, which the loop checks
            kxx = np.array([self.kernel._at(x) for x in xs])
        base = np.array(self._ridges) + np.array(self._scales) * kxx[:, None]   # a + s K(x, x)
        labels = -2.0 * (ys[:, :-1] - ys[:, -1:])                                 # R_T' of each trial
        ww, pivots = np.empty_like(base), np.empty_like(base)
        wg = np.empty((t_len, len(self._scales), self.d - 1))
        side = _tile_side(xs.shape[1])
        for first in range(0, t_len, side):   # a block of kernel rows, then its trials
            with np.errstate(over="ignore"):
                block = self.kernel._rows(self._x, xs[first:first + side], t0 + first)
            past = np.arange(block.shape[1]) >= t0 + first + np.arange(len(block))[:, None]
            finite = (np.isfinite(block) | past).all(axis=1) & np.isfinite(kxx[first:first + side])
            for i, row, ok in zip(range(first, t_len), block, finite):
                t = self.t
                if not ok:
                    raise InvariantViolation(f"trial {t + 1}: kernel row is not finite")
                start = t * (t + 1) // 2
                w = self._packed[:, start:start + t]   # the borders go straight into their rows
                np.multiply(self._column, row[:t], out=w)
                self._solve_borders(w)
                np.einsum("st,st->s", w, w, out=ww[i])
                self._checked(np.subtract(base[i], ww[i], out=pivots[i]).tolist())
                rho = np.sqrt(pivots[i], out=self._packed[:, start + t])
                np.matmul(w[:, None, :], self._g[:, :t], out=wg[i, :, None])
                np.divide(labels[i] - wg[i], rho[:, None], out=self._g[:, t])
                self.t = t + 1
        u_last = (kxx[:, None] - ww / self._scales) / pivots
        return wg.transpose(1, 2, 0), u_last.T

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

    def _lane(self, g: int) -> KaarForecaster:
        twin = KaarForecaster(self.d, self.kernel, self.a[g])
        rows = self._factors(g)
        twin._x, twin._packed, twin._g = self._x.copy(), self._packed[rows].copy(), self._g[rows].copy()
        return twin

    def _grow(self, n: int, cap: int) -> None:
        """Grow every buffer to ``cap`` rows; the first call also fixes the signal length n."""
        self._x = _grown(self._x if self.t else np.empty((0, n)), 0, cap)
        self._packed = _grown(self._packed, 1, cap * (cap + 1) // 2)
        self._g = _grown(self._g, 1, cap)
