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
factor in place.  A trial doubles every buffer when it is full; ``run`` reserves
exactly the rows its trials need.

The protocol, ``run`` included, is ``maar.Forecaster``'s: a trial's steps here are
``_trial``, ``_row`` and ``_commit``, and ``_steps`` is the trial loop of ``run``.
Both ``_trial`` and ``_steps`` take the one factor step, ``_border``: per factor, the
border s c written into the factor's next packed row and solved there by one ``dtpsv``,
then w'w, the checked pivot, rho into the row, and w'G.  So a trial writes past the
committed state, its signal included, and ``_commit`` adds only G's new row
(R_T' - w'G) / rho, which needs the outcome.  A trial that raises leaves a half-written
row, so ``Forecaster`` drops the trial it keeps for ``update`` before it runs one.  The
d-sized rest, u[T] and ``_row``, runs on Python floats, cheaper than numpy's per-call
overhead.

``_steps`` keeps in its loop only ``_border`` and G's new row.  Before the loop it
reserves the buffers and copies the run's signals into place; K(x, x), a + s K(x, x)
and the label rows R_T' come as whole arrays.  The kernel rows come a block of trials
at a time (as many as an rbf tile has rows) from one ``Kernel._rows`` call and one
finiteness mask, so a row that is not finite still raises at its own trial; its tiles
take ``Kernel._pairs``, the formula of a single trial's row, so the rows agree bit for
bit.  After the loop, u[T] and ``_row`` run once on whole columns of trials with the
arithmetic they take per trial (sums add left to right from 0.0), so ``run`` and the
per-trial loop agree bit for bit.

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
``scipy.linalg._fblas``, for ``dtpsv``.  ``bounds.kernel_report`` reads the kernel
guarantee off a forecaster's own factors with the same ``dtpsv``; only the independent
check, ``bounds.bound_reports``, adds ``_flapack``, for ``dpotrf`` and ``dpotrs``.  The
``scipy.linalg`` package never loads (``_fortran``).
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


class KaarForecaster(Forecaster):
    """Sequential predict/update form of the kernelized forecaster.

    Holds the t stored signals and, per system aI + sK (s = d, then s = 1 when
    d > 2), the packed factor rows and G = L^{-1} R'.  Factor k = g S + j, of lane g and
    system j (see ``Forecaster``), is row k of ``_packed`` and ``_g``.
    """

    def __init__(self, d: int, kernel: Kernel, a=1.0):
        super().__init__(d, a, (d, 1.0)[:1 if d == 2 else 2])
        if not isinstance(kernel, Kernel):
            raise ValueError(f"kernel must be a Kernel, got {kernel!r}")
        self.kernel = kernel
        self._column = np.array(self._scales)[:, None]
        self._x = np.empty((0, 0))                       # signals; a trial sets the width until one is stored
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

    @np.errstate(over="ignore")   # an overflow gives inf, which the kernel-row, pivot or forecast check rejects
    def _trial(self, xa: np.ndarray):
        """Trial t + 1 of signal ``xa``, written past the committed state: x into ``_x[t]``, the
        buffers doubled first when they are full, and by ``_border`` every factor's packed row
        t.  Returns x, w'G, and as Python floats w'G and u[T] of every factor's solve."""
        t = self.t
        if t == len(self._x) or xa.size != self._x.shape[1]:   # full, or no stored signal fixes n yet
            self._reserve(xa.size, max(2 * t, _FIRST_CAPACITY))
        self._x[t] = xa
        row, kxx = self.kernel._pairs(xa[None], self._x[:t])[0], self.kernel._at(xa)
        if not (math.isfinite(kxx) and np.isfinite(row).all()):
            raise InvariantViolation(f"trial {t + 1}: kernel row is not finite")
        k = len(self._scales)
        ww, pivots, wg = np.empty(k), np.empty(k), np.empty((k, self.d - 1))
        self._border(t, row, [a + s * kxx for a, s in zip(self._ridges, self._scales)], ww, pivots, wg)
        u_last = [(kxx - v / s) / p for s, v, p in zip(self._scales, ww.tolist(), pivots.tolist())]
        return xa, wg, wg.tolist(), u_last

    def _border(self, t: int, row: np.ndarray, base, ww: np.ndarray, pivots: np.ndarray, wg: np.ndarray) -> None:
        """Trial t + 1's row of every factor, from its kernel row and a + s K(x, x) per factor
        (``base``): the border w = L^{-1} s c, solved in packed row t, then w'w into ``ww``, the
        pivot rho^2 = a + s K(x, x) - w'w into ``pivots``, rho into the row and w'G into ``wg``.
        A pivot that is not positive and finite raises InvariantViolation before rho is written,
        naming the trial, the first failing factor's system and its lane's ridge."""
        start = t * (t + 1) // 2
        w = self._packed[:, start:start + t]
        np.multiply(self._column, row[:t], out=w)
        for packed, border in zip(self._packed, w) if t else ():
            dtpsv(t, packed, border, 1, 0, 0, 1, 0, 1)   # trans=1 by position
        np.einsum("st,st->s", w, w, out=ww)
        for k, pivot in enumerate(np.subtract(base, ww, out=pivots).tolist()):
            if not 0.0 < pivot < math.inf:
                raise InvariantViolation(f"{trial_name(t + 1, self._lane_ridge(k))}: "
                                         f"{_SYSTEMS[k % self._size]} has pivot {pivot!r}, not positive definite")
        np.sqrt(pivots, out=self._packed[:, start + t])
        np.matmul(w[:, None, :], self._g[:, :t], out=wg[:, None])

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

    @np.errstate(over="ignore")   # as in _trial
    def _steps(self, xs: np.ndarray, ys: np.ndarray):
        """The trials of ``run``; only the steps that read the factors stay in the loop (see the
        module docstring)."""
        t0, t_len = self.t, len(xs)
        if t0 + t_len > len(self._x) or xs.shape[1] != self._x.shape[1]:   # exactly the rows the run needs
            self._reserve(xs.shape[1], t0 + t_len)
        self._x[t0:t0 + t_len] = xs
        kxx = np.array([self.kernel._at(x) for x in xs])
        base = np.array(self._ridges) + np.array(self._scales) * kxx[:, None]   # a + s K(x, x)
        labels = -2.0 * (ys[:, :-1] - ys[:, -1:])                                 # R_T' of each trial
        ww, pivots = np.empty_like(base), np.empty_like(base)
        wg = np.empty((t_len, len(self._scales), self.d - 1))
        side = _tile_side(xs.shape[1])
        for first in range(0, t_len, side):   # a block of kernel rows, then its trials
            block = self.kernel._rows(self._x, xs[first:first + side], t0 + first)
            past = np.arange(block.shape[1]) >= t0 + first + np.arange(len(block))[:, None]
            finite = (np.isfinite(block) | past).all(axis=1) & np.isfinite(kxx[first:first + side])
            for i, row, ok in zip(range(first, t_len), block, finite):
                t = self.t
                if not ok:
                    raise InvariantViolation(f"trial {t + 1}: kernel row is not finite")
                self._border(t, row, base[i], ww[i], pivots[i], wg[i])
                np.divide(labels[i] - wg[i], self._packed[:, (t + 1) * (t + 2) // 2 - 1, None], out=self._g[:, t])
                self.t = t + 1
        u_last = (kxx[:, None] - ww / self._scales) / pivots
        return wg.transpose(1, 2, 0), u_last.T

    def _commit(self, trial, ya: np.ndarray) -> None:
        """G's new row (R_T' - w'G) / rho, which commits what ``_trial`` wrote for x."""
        t = self.t
        rho = self._packed[:, (t + 1) * (t + 2) // 2 - 1, None]
        np.divide(-2.0 * (ya[:-1] - ya[-1]) - trial[1], rho, out=self._g[:, t])
        self.t = t + 1

    def _diagonal(self) -> np.ndarray:
        """rho of every factor's committed rows, (K, t): the packed diagonal, row j at j(j+3)/2."""
        j = np.arange(self.t)
        return self._packed[:, j * (j + 3) // 2]

    def _pivot_ratios(self) -> dict[str, float]:
        """Largest over smallest pivot rho^2 of each system's factor, of a forecaster of one ridge
        that has stored a signal: a free estimate of the system's condition number."""
        pivots = np.square(self._diagonal())
        return {name: float(row.max() / row.min()) for name, row in zip(_SYSTEMS, pivots)}

    def _lane(self, g: int) -> KaarForecaster:
        twin = KaarForecaster(self.d, self.kernel, self.a[g])
        rows = self._factors(g)
        twin._x, twin._packed, twin._g = self._x.copy(), self._packed[rows].copy(), self._g[rows].copy()
        return twin

    def _reserve(self, n: int, cap: int) -> None:
        """Every buffer with room for ``cap`` trials of n-long signals, the committed rows copied.
        An allocation that fails raises ValueError naming the trials, the factors and the GiB."""
        t, k = self.t, len(self._scales)
        x, packed, g = self._x[:t], self._packed[:, :t * (t + 1) // 2], self._g[:, :t]
        try:   # all three before any is replaced, so a failure leaves the state as it was
            buffers = np.empty((cap, n)), np.empty((k, cap * (cap + 1) // 2)), np.empty((k, cap, self.d - 1))
        except MemoryError as exc:
            gib = 8 * (cap * n + k * cap * (cap + 1) // 2 + k * cap * (self.d - 1)) / 2**30
            raise ValueError(f"KAAR cannot hold {cap} trials: {k} factors ({k // self._size} ridge lanes x "
                             f"{self._size} systems) need {gib:.1f} GiB; a fixed --ridge keeps one lane") from exc
        self._x, self._packed, self._g = buffers
        if t:   # before the first trial, the signal length may change
            self._x[:t], self._packed[:, :packed.shape[1]], self._g[:, :t] = x, packed, g
