"""Online multi-class probability forecasting on the simplex.

Three forecasters with worst-case cumulative-loss guarantees against linear
(or kernel) comparators under the squared-distance loss:

* CaarForecaster -- one scalar regressor per class, then simplex projection;
* MaarForecaster -- joint forecaster over all classes, threshold substitution;
* KaarForecaster -- the joint forecaster in kernel form, growing with the data.

The harness module provides the time-series labeling protocol, metrics, and
synthetic data, and ``verify_run``, which checks the guarantees of the bounds
module on actual runs.  ``__all__`` is the public surface; ``KaarForecaster`` and
``Kernel`` load on first use.
"""

from .bounds import (
    BoundReport,
    KernelExpert,
    LinearExpert,
    best_kernel_expert,
    best_linear_expert,
    expert_loss,
)
from .caar import CaarForecaster
from .core import DimensionMismatch, InvariantViolation, ProbabilityVector
from .harness import verify_run
from .maar import MaarForecaster
from .projection import project_to_simplex
from .substitution import solve_substitution, substitute_rows

__all__ = [
    "BoundReport",
    "CaarForecaster",
    "DimensionMismatch",
    "InvariantViolation",
    "KaarForecaster",
    "Kernel",
    "KernelExpert",
    "LinearExpert",
    "MaarForecaster",
    "ProbabilityVector",
    "best_kernel_expert",
    "best_linear_expert",
    "expert_loss",
    "project_to_simplex",
    "solve_substitution",
    "substitute_rows",
    "verify_run",
]

__version__ = "0.1.0"


def __getattr__(name):  # kaar needs scipy, so it loads on first use and numpy alone serves the rest
    if name in ("KaarForecaster", "Kernel"):
        from . import kaar
        return getattr(kaar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
