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
one lane per ridge and ``generalized`` returns one row per lane, E staying shared.
(aI + B)^{-1} is MAAR's s = 1 inverse too, so a MAAR trial holds CAAR's forecast: ``joint_rows``.
"""

from __future__ import annotations

import numpy as np

from .maar import RankOneCore


class CaarForecaster(RankOneCore):
    """Sequential predict/update form of the component-wise forecaster.

    Holds E (row i is E_i) beside the core's B and the inverse of aI + B.  With ridge
    lanes, ``generalized`` returns one row per ridge; ``predict`` needs one ridge.
    """

    def __init__(self, n: int, d: int, a=1.0):
        super().__init__(n, d, a, (1.0,), d)   # statistics: E

    @property
    def e(self) -> np.ndarray:
        return self._stats[:-1]

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


def joint_rows(trial) -> list:
    """CAAR's shifted generalized prediction per lane, read off a ``MaarForecaster`` trial at the same
    ridges, on Python floats or on whole columns alike.  The substitution ignores a shift common
    to every class, so CAAR's row -2 gamma may drop its offset -2 (1/d + ((d-2)/(2d)) x'u/den)
    and the shift -2 E_d'u/den: with u = (aI + C)^{-1} x and den = 1 + x'u, r_i = -2 (E_i - E_d)'u/den
    = h_i'u/den, as MAAR's h_i = -2 (E_i - E_d), and r_d = 0: the products and den of MAAR's
    s = 1 factor, k = 2g of lane g.  They agree to rounding, which grows with cond(aI + C)."""
    _, _, products, den = trial
    m = len(products[0]) - 2   # MAAR's products: h_1 ... h_{d-1}, their sum, x
    return [[v / dq for v in uq[:m]] + [0.0] for uq, dq in zip(products[::2], den[::2])]
