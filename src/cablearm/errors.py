"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``category`` used by the CLI
to map failures to exit codes and structured error reports.  Checks that
run on a stack of rows name the first failing row with :func:`at_row`.
"""

import numpy as np


def first_row(mask) -> tuple:
    """Index of the first True entry of a per-row failure mask over the
    leading axes of a stack (``()`` for a single row)."""
    mask = np.asarray(mask)
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def at_row(mask) -> str:
    """Message suffix naming that row: empty for a single row, `` at row i``
    over one leading axis and `` at row (i, j, ..)`` over several."""
    idx = first_row(mask)
    if not idx:
        return ""
    return f" at row {idx[0] if len(idx) == 1 else idx}"


class CableRobotError(Exception):
    """Base class for all package errors."""

    category = "error"


class ModelParseError(CableRobotError):
    """A model, scenario or state document, or the command line, does not
    conform to its schema."""

    category = "parse"


class ValidationError(CableRobotError):
    """A model or parameter invariant is violated."""

    category = "validation"


class GeometryError(CableRobotError):
    """Degenerate cable geometry (near-zero cable length)."""

    category = "geometry"


class SingularityError(CableRobotError):
    """Euler-angle parameterization evaluated at or near gimbal lock."""

    category = "singularity"


class ConditioningError(CableRobotError):
    """A linear solve was refused because the matrix is near-singular."""

    category = "conditioning"


class RankDeficiencyError(CableRobotError):
    """Structure matrix lost row rank (singular cable configuration)."""

    category = "rank-deficiency"


class InfeasibleError(CableRobotError):
    """No solution satisfies the stated bounds."""

    category = "infeasible"


class IterationLimitError(CableRobotError):
    """An iterative solver hit its iteration cap before converging."""

    category = "iteration-limit"


class ReductionError(CableRobotError):
    """Model does not admit the requested planar reduction."""

    category = "reduction"


class DivergenceError(CableRobotError):
    """Integration, linearization or another computation produced non-finite
    values from finite inputs."""

    category = "divergence"


class AlignmentError(CableRobotError):
    """Sampled series have mismatched lengths or timestamps."""

    category = "alignment"


class OutputError(CableRobotError):
    """An output directory or file could not be written."""

    category = "output"


class ScenarioError(CableRobotError):
    """Scenario document is structurally valid but unusable."""

    category = "scenario"
