"""Component-wise aggregating forecaster with simplex projection.

Each class probability is forecast by its own scalar square-loss aggregating
regressor over experts 1/d + alpha_i'x, which collapses to the closed form

    gamma^i = 1/d + (E_i' + ((d-2)/(2d)) x') (aI + B + x x')^{-1} x,

with B = sum x_t x_t' and E_i = sum (y_t^i - 1/d) x_t over past trials.  The
raw vector generally leaves the simplex (its components sum to
1 + ((d-2)/2) x'(aI+B+xx')^{-1}x), so the final forecast is its Euclidean
projection, which never increases the loss.  That projection is the threshold
substitution of r = -2 gamma (see ``substitution``), so ``generalized`` returns
-2 times the raw vector and ``predict`` is the substitution MAAR and KAAR use.

B is the signal matrix C of MAAR, and the forecaster is a client of MAAR's
RankOneCore with the single scale 1: it keeps (aI + B)^{-1} by Sherman-Morrison
steps with a guarded Cholesky refresh every REFRESH_EVERY trials, and
(aI + B + xx')^{-1} x is the rescale u / (1 + x'u) of u = (aI + B)^{-1} x.  So a
trial costs one matrix-vector product, O(n^2 + dn), and ``update`` reuses the
product of the ``predict`` before it.  Given a 1-D sequence of ridges, the core runs
one lane per ridge and ``predict_raw`` and ``generalized`` return one row per lane,
E staying shared.
"""

from __future__ import annotations

import numpy as np

from .maar import RankOneCore


class CaarForecaster(RankOneCore):
    """Sequential predict/update form of the component-wise forecaster.

    Holds E (row i is E_i) beside the core's B and the inverse of aI + B.  With ridge
    lanes, ``predict_raw`` and ``generalized`` return one row per ridge; ``predict``
    needs one ridge.
    """

    def __init__(self, n: int, d: int, a=1.0):
        super().__init__(n, d, a, (1.0,), d)   # statistics: E

    @property
    def e(self) -> np.ndarray:
        return self._stats[:-1]

    def predict_raw(self, x) -> np.ndarray:
        """Per-class forecasts before projection, of shape np.shape(a) + (d,); they may leave
        the simplex."""
        return -0.5 * self.generalized(x)

    def _row(self, trial) -> list:
        """-2 times the raw forecast per lane: its vertex losses less a constant, whose
        threshold substitution is the raw forecast's projection onto the simplex."""
        # (aI + B + xx')^{-1} x = u / den, against E and x
        _, _, products, den = trial
        d = self.d
        half = (d - 2.0) / (2.0 * d)
        rows = []
        for row, v in zip(products, den):
            offset = 1.0 / d + half * (row[d] / v)
            rows.append([-2.0 * (e / v + offset) for e in row[:d]])
        return rows

    def _coefficients(self, ya: list) -> list:
        """E_i += (y^i - 1/d) x."""
        return [v - 1.0 / self.d for v in ya]
