"""Cable-suspended platform with a serial arm: modeling, tension
optimization, and closed-loop trajectory-tracking simulation.

All linear algebra in this package operates on matrices of at most a few
hundred rows, where BLAS thread pools cost far more than they save.  The
pools are therefore pinned to one thread through the thread-count
variables, which OpenBLAS reads only when numpy loads it, so only when
this package is imported before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .errors import (  # noqa: E402
    AlignmentError,
    CableRobotError,
    ConditioningError,
    DivergenceError,
    GeometryError,
    InfeasibleError,
    IterationLimitError,
    ModelParseError,
    OutputError,
    RankDeficiencyError,
    ReductionError,
    ScenarioError,
    SingularityError,
    ValidationError,
)
from .model import (  # noqa: E402
    ArmLink,
    PlatformParams,
    QuadrotorParams,
    RobotModel,
    builtin_hcdr9dof,
    builtin_model,
    builtin_quadrotor_arm,
    load_model,
    serialize_model,
)

__all__ = [
    "AlignmentError",
    "ArmLink",
    "CableRobotError",
    "ConditioningError",
    "DivergenceError",
    "GeometryError",
    "InfeasibleError",
    "IterationLimitError",
    "ModelParseError",
    "OutputError",
    "PlatformParams",
    "QuadrotorParams",
    "RankDeficiencyError",
    "ReductionError",
    "RobotModel",
    "ScenarioError",
    "SingularityError",
    "ValidationError",
    "builtin_hcdr9dof",
    "builtin_model",
    "builtin_quadrotor_arm",
    "load_model",
    "serialize_model",
]
