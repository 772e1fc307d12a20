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
in RankOneCore, the Sherman-Morrison core it shares with CAAR.  That makes each
of those one matrix-vector product and a rescale: O(n^2 + dn) per trial, plus a
Cholesky rebuild that checks both inverses every REFRESH_EVERY trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, InvariantViolation, ProbabilityVector, _unwrap, as_float_vector
from .substitution import solve_substitution

# Rank-one maintained inverses are rebuilt from scratch this often.
REFRESH_EVERY = 256
# Largest relative drift of a maintained inverse from its rebuild, and largest
# shortfall of a Sherman-Morrison denominator below 1 (measured: < 2e-8).
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class MaarConfig:
    """Game dimensions and prior scale, validated once at construction."""

    n: int
    d: int
    a: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"signal dimension must be >= 1, got {self.n}")
        if self.d < 2:
            raise ValueError(f"need at least 2 classes, got {self.d}")
        if not (self.a > 0):
            raise ValueError(f"ridge parameter must be positive, got {self.a}")


def solve_structured(a: float, d: int, c: np.ndarray, rhs) -> np.ndarray:
    """Apply (aI + (I+J) kron C)^{-1} to rhs using the eigen-split of I+J.

    ``c`` is the n x n (or T x T, in the kernel case) block; ``rhs`` is a
    vector of length (d-1)*n or a matrix of such columns.  Block means travel
    through (aI + dC)^{-1} and deviations through (aI + C)^{-1}.
    """
    if not (a > 0):
        raise ValueError("structured solve needs a > 0")
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


def check_signal(x, n: int) -> np.ndarray:
    """Validate a signal of length n."""
    arr = as_float_vector(x, "signal")
    if arr.size != n:
        raise DimensionMismatch(f"signal has length {arr.size}, expected {n}")
    return arr


def sm_denominator(x: np.ndarray, u: np.ndarray, scales, trial: int) -> list[float]:
    """1 + s x'u for each row u = M_s^{-1} x of ``u`` and scale s of ``scales``: the
    Sherman-Morrison denominators, each >= 1 unless its M_s^{-1} is broken.  Python
    floats, since a rank-one core holds one or two inverses and numpy costs more per scalar."""
    den = [1.0 + s * v for s, v in zip(scales, (u @ x).tolist())]
    for v in den:
        if not 1.0 - DRIFT_TOL <= v < math.inf:
            raise InvariantViolation(f"trial {trial}: Sherman-Morrison denominator {den!r} is not >= 1")
    return den


def sm_update(minv: np.ndarray, u: np.ndarray, scales, den, out=None) -> np.ndarray:
    """(M_s + s xx')^{-1} = M_s^{-1} - (s/den) uu' for each stacked M_s^{-1}, as in
    sm_denominator; out=minv is in place."""
    w = u * np.sqrt(np.divide(scales, den))[:, None]   # (i, j) and (j, i) get one product: exact symmetry
    return np.subtract(minv, w[:, :, None] * w[:, None, :], out=out)


def refresh_inverse(minv: np.ndarray, mat: np.ndarray, trial: int) -> np.ndarray:
    """mat^{-1} rebuilt by Cholesky; raises InvariantViolation, naming the trial, when mat is
    not positive definite or the maintained ``minv`` is more than DRIFT_TOL (relative) from it."""
    try:
        linv = np.linalg.inv(np.linalg.cholesky(mat))
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(f"trial {trial}: refresh found a system that is not positive definite") from exc
    fresh = linv.T @ linv
    drift = np.linalg.norm(minv - fresh) / np.linalg.norm(fresh)
    if not drift <= DRIFT_TOL:
        cond = np.linalg.norm(mat, 1) * np.linalg.norm(fresh, 1)
        raise InvariantViolation(f"trial {trial}: inverse drift {drift:.3e}, condition estimate {cond:.3e}")
    return fresh


class RankOneCore:
    """State shared by the linear forecasters: C = sum x_t x_t' and the inverses of aI + sC.

    There is one inverse per scale s, stacked in ``_inv`` and kept by Sherman-Morrison
    steps; a Cholesky rebuild checks them every REFRESH_EVERY trials.  C only feeds
    that rebuild, so it is kept as its value at the last rebuild plus the signals since.
    ``_predicted`` keeps a prediction's products so that ``_commit`` on the same
    signal (compared by value; the signal is copied) need not recompute them.
    """

    def __init__(self, n: int, d: int, a: float, scales):
        self.cfg = MaarConfig(n, d, a)
        self.t = 0
        self._scales = tuple(float(s) for s in scales)
        self._inv = np.stack([np.eye(n) / a] * len(self._scales))   # (aI + sC)^{-1} per scale s
        self._c = np.zeros((n, n))                    # C up to the last refresh
        self._signals = np.empty((REFRESH_EVERY, n))  # signals since then
        self._last = None                             # (x, u, den) of the last prediction

    @property
    def c(self) -> np.ndarray:
        """C = sum x_t x_t' over the committed trials."""
        pending = self._signals[:self.t % REFRESH_EVERY]
        return self._c + pending.T @ pending

    def _products(self, xa: np.ndarray):
        u = self._inv @ xa
        return xa, u, sm_denominator(xa, u, self._scales, self.t + 1)

    def _predicted(self, x):
        """(x, u, den) for a new signal: u = (aI + sC)^{-1} x and den = 1 + s x'u, one per scale s."""
        self._last = self._products(check_signal(x, self.cfg.n).copy())
        return self._last

    def _outcome(self, y) -> np.ndarray:
        ya = _unwrap(y)
        if ya.size != self.cfg.d:
            raise DimensionMismatch(f"outcome has {ya.size} classes, expected {self.cfg.d}")
        return ya

    def _commit(self, x) -> np.ndarray:
        """C += xx' and every inverse follows; returns the validated signal.

        A refresh that fails raises before anything changes, so the state stays that of trial t.
        """
        last, self._last = self._last, None
        if last is None or not np.array_equal(x, last[0]):
            last = self._products(check_signal(x, self.cfg.n))
        xa, u, den = last
        slot = self.t % REFRESH_EVERY
        self._signals[slot] = xa   # past the rows that ``c`` reads until t moves
        if slot + 1 < REFRESH_EVERY:
            sm_update(self._inv, u, self._scales, den, out=self._inv)
        else:
            c = self._c + self._signals.T @ self._signals
            self._inv = self._refreshed(sm_update(self._inv, u, self._scales, den), c, self.t + 1)
            self._c = c
        self.t += 1
        return xa

    def _refreshed(self, inv: np.ndarray, c: np.ndarray, trial: int) -> np.ndarray:
        eye = self.cfg.a * np.eye(self.cfg.n)
        return np.stack([refresh_inverse(minv, eye + scale * c, trial)
                         for minv, scale in zip(inv, self._scales)])

    def run_check(self) -> None:
        """Check every maintained inverse against a Cholesky rebuild, keeping them as they are."""
        self._refreshed(self._inv, self.c, self.t)


class MaarForecaster(RankOneCore):
    """Sequential predict/update form of the joint forecaster.

    Holds h (row i is h_i = -2 sum (y^i - y^d) x_t) beside the core's C and the
    inverses of aI + C and aI + dC.
    """

    def __init__(self, n: int, d: int, a: float = 1.0):
        super().__init__(n, d, a, (1.0, d))
        self.h = np.zeros((d - 1, n))

    def generalized(self, x) -> np.ndarray:
        """The shifted generalized prediction r (length d, last entry 0)."""
        xa, u, den = self._predicted(x)
        q, p = u / np.array(den)[:, None]   # (aI + C')^{-1} x and (aI + dC')^{-1} x
        m = self.cfg.d - 1
        common = self.h.sum(axis=0) + (m - 1) * xa
        r = np.zeros(m + 1)
        r[:m] = (1.0 + 1.0 / m) * (common @ p) + self.h @ q - (common @ q) / m
        return r

    def predict(self, x) -> ProbabilityVector:
        return solve_substitution(self.generalized(x))

    def update(self, x, y) -> None:
        """Commit the trial: C += xx', h_i -= 2 (y^i - y^d) x, both inverses follow."""
        ya = self._outcome(y)
        xa = self._commit(x)
        self.h -= (2.0 * (ya[:-1] - ya[-1]))[:, None] * xa
