"""Euclidean projection of a point onto the probability simplex.

|e_i - v|^2 = 1 + |v|^2 - 2 v_i, so r = -2v is v's vertex-loss vector less a
constant, and its threshold substitution (see ``substitution``) is exactly v's
projection: gamma_i = (s - r_i)^+ / 2 = (v_i + s/2)^+ with the s that makes gamma
sum to one.  So projection is the substitution's sort-and-scan (that of Duchi et al.
2008) run on -2v, and scaling by -2 is exact.  The map is invariant under shifting v,
so v less its maximum is scaled, which cannot overflow once gaps below -2 are clipped.
Projection never increases the squared-distance loss against any outcome in the
simplex, which is why the component-wise forecaster can project its raw prediction
without losing its guarantee.
"""

from __future__ import annotations

import numpy as np

from .core import ProbabilityVector, as_float_vector
from .substitution import _forecast


def project_to_simplex(v) -> ProbabilityVector:
    """Closest simplex point to v in Euclidean distance."""
    arr = as_float_vector(v, "point")
    if arr.size < 1:
        raise ValueError("cannot project an empty vector")
    with np.errstate(over="ignore"):
        gaps = arr - arr.max()
    # a gap below -2 projects to 0 and never enters the threshold, so clipping it changes
    # nothing but keeps -2 * gaps finite
    return _forecast((-2.0 * np.maximum(gaps, -2.0)).tolist())
