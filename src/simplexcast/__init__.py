"""Online multi-class probability forecasting on the simplex.

Three forecasters with worst-case cumulative-loss guarantees against linear
(or kernel) comparators under the squared-distance loss:

* CaarForecaster -- one scalar regressor per class, then simplex projection;
* MaarForecaster -- joint forecaster over all classes, threshold substitution;
* KaarForecaster -- the joint forecaster in kernel form, growing with the data.

The harness module provides the time-series labeling protocol, metrics, and
synthetic data, and ``verify_run``, which checks the guarantees of the bounds
module on actual runs.
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
from .core import (
    DimensionMismatch,
    InvariantViolation,
    PredictionVector,
    ProbabilityVector,
    Vertex,
    brier_loss,
    vertex_to_probability,
)
from .harness import verify_run
from .maar import MaarConfig, MaarForecaster, solve_structured
from .projection import project_to_simplex
from .substitution import GeneralizedPrediction, solve_substitution, substitute_rows, substitution_threshold

__all__ = [
    "BoundReport",
    "CaarForecaster",
    "DimensionMismatch",
    "GeneralizedPrediction",
    "InvariantViolation",
    "KaarForecaster",
    "Kernel",
    "KernelExpert",
    "LinearExpert",
    "MaarConfig",
    "MaarForecaster",
    "PredictionVector",
    "ProbabilityVector",
    "Vertex",
    "best_kernel_expert",
    "best_linear_expert",
    "brier_loss",
    "expert_loss",
    "kernel_eval",
    "project_to_simplex",
    "solve_structured",
    "solve_substitution",
    "substitute_rows",
    "substitution_threshold",
    "vertex_to_probability",
    "verify_run",
]

__version__ = "0.1.0"


def __getattr__(name):  # kaar needs scipy, so it loads on first use and numpy alone serves the rest
    if name in ("KaarForecaster", "Kernel", "kernel_eval"):
        from . import kaar
        return getattr(kaar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
