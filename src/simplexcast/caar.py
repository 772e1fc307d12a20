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

from .core import ProbabilityVector
from .maar import RankOneCore
from .substitution import solve_substitution


class CaarForecaster(RankOneCore):
    """Sequential predict/update form of the component-wise forecaster.

    Holds E (row i is E_i) beside the core's B and the inverse of aI + B.  With ridge
    lanes, ``predict_raw`` and ``generalized`` return one row per ridge; ``predict``
    needs one ridge.
    """

    def __init__(self, n: int, d: int, a=1.0):
        super().__init__(n, d, a, (1.0,))
        self.e = np.zeros((d, n))

    def predict_raw(self, x) -> np.ndarray:
        """Per-class forecasts before projection, of shape np.shape(a) + (d,); they may leave
        the simplex."""
        xa, u, den = self._predicted(x)
        lanes = self._lanes
        shared = u[:, 0] / den[:, :1] if lanes else u[0] / den[0]   # (aI + B + xx')^{-1} x, per lane
        d = self.cfg.d
        offset = 1.0 / d + (d - 2.0) / (2.0 * d) * (shared @ xa)
        return shared @ self.e.T + (offset[:, None] if lanes else offset)

    def generalized(self, x) -> np.ndarray:
        """-2 times ``predict_raw``: the raw forecast's vertex losses less a constant, whose
        threshold substitution is the raw forecast's projection onto the simplex."""
        return -2.0 * self.predict_raw(x)

    def predict(self, x) -> ProbabilityVector:
        return solve_substitution(self.generalized(x))

    def update(self, x, y) -> None:
        """Commit the trial: B += x x', E_i += (y^i - 1/d) x."""
        ya = self._outcome(y)
        xa = self._commit(x)
        self.e += (ya - 1.0 / self.cfg.d)[:, None] * xa
