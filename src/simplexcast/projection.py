"""Euclidean projection of a point onto the probability simplex.

Iterative zeroing scheme: shift the free coordinates so they sum to one,
pin any coordinate that went negative to zero, and repeat.  Each pass either
terminates or permanently pins at least one coordinate, so the loop runs at
most d times.  Projection never increases the squared-distance loss against
any outcome in the simplex, which is why the component-wise forecaster can
project its raw prediction without losing its guarantee.

``project_rows`` runs the same passes on every row of a (G, d) batch at once, for
the ridge lanes of the benchmark protocol; ``project_to_simplex`` stays the
per-trial path.
"""

from __future__ import annotations

import numpy as np

from .core import InvariantViolation, ProbabilityVector, as_float_vector


def project_to_simplex(v) -> ProbabilityVector:
    """Closest simplex point to v in Euclidean distance."""
    g = np.array(as_float_vector(v, "point"), copy=True)
    d = g.size
    if d < 1:
        raise ValueError("cannot project an empty vector")
    free = np.ones(d, dtype=bool)
    for _ in range(d):
        n_free = int(free.sum())
        g[free] -= (g[free].sum() - 1.0) / n_free
        negative = free & (g < 0.0)
        if not negative.any():
            break
        g[negative] = 0.0
        free &= ~negative
    else:
        raise InvariantViolation("simplex projection did not settle in d passes")
    g[~free] = 0.0
    # maximum() clears any -0.0 left by the arithmetic
    return ProbabilityVector(np.maximum(g, 0.0))


def _free_sums(g: np.ndarray, free: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """Each moving row's sum over its free coordinates, added as the 1-D scan adds them:
    packed, in order.  Pinned coordinates are 0 and numpy adds fewer than 8 values in
    order, so with fewer than 8 columns the plain row sum is that sum already."""
    if g.shape[1] < 8:
        return g.sum(axis=1)
    n_free = free.sum(axis=1)
    total = np.zeros(len(g))
    for k in np.unique(n_free[moving]):
        rows = np.flatnonzero(moving & (n_free == k))
        packed = np.argsort(~free[rows], axis=1, kind="stable")[:, :k]
        total[rows] = np.take_along_axis(g[rows], packed, axis=1).sum(axis=1)
    return total


def project_rows(v) -> np.ndarray:
    """project_to_simplex on each row of a (G, d) batch, as a (G, d) array.

    A pass shifts only the rows still moving, by the same sums and divisions, so every
    row equals project_to_simplex's bit for bit.
    """
    g = np.array(v, dtype=float)
    if g.ndim != 2 or g.shape[1] < 1 or not np.all(np.isfinite(g)):
        raise ValueError(f"points must be a finite (G, d) array with d >= 1, got shape {g.shape}")
    free = np.ones(g.shape, dtype=bool)
    moving = np.ones(len(g), dtype=bool)
    for _ in range(g.shape[1]):
        shift = (_free_sums(g, free, moving) - 1.0) / free.sum(axis=1)
        g -= np.where(free & moving[:, None], shift[:, None], 0.0)
        negative = free & (g < 0.0)
        moving = negative.any(axis=1)
        if not moving.any():
            break
        g[negative] = 0.0
        free &= ~negative
    else:
        raise InvariantViolation("simplex projection did not settle in d passes")
    g[~free] = 0.0
    # maximum() clears any -0.0 left by the arithmetic
    return np.maximum(g, 0.0)
