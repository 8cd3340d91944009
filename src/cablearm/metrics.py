"""Tracking-error evaluation and plot-ready artifact serialization.

The trace CSV schema (one row per controller period) is part of the
package contract:

``t,p_mx,dp_mx,p_mz,dp_mz,beta_m,dbeta_m,th_a2,dth_a2,th_a3,dth_a3,
T1..T12,L01,L02,u_T3,u_T4,u_ta2,u_ta3,x_e,z_e,KE,VE,ref_p_mx..ref_dth_a3,
ref_x_e,ref_z_e``

:func:`to_csv` writes every CSV artifact (the trace, the stiffness grid
and the architecture comparison): floats with shortest round-trip
formatting, so identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DivergenceError, ModelParseError
from .sim import TRACE_CABLES, SimTrace

_STATE_COLS = ["p_mx", "dp_mx", "p_mz", "dp_mz", "beta_m", "dbeta_m",
               "th_a2", "dth_a2", "th_a3", "dth_a3"]

TENSION_COLS = [f"T{i}" for i in range(1, TRACE_CABLES + 1)]

TRACE_HEADER = (
    ["t"]
    + _STATE_COLS
    + TENSION_COLS
    + ["L01", "L02", "u_T3", "u_T4", "u_ta2", "u_ta3", "x_e", "z_e", "KE", "VE"]
    + [f"ref_{c}" for c in _STATE_COLS]
    + ["ref_x_e", "ref_z_e"]
)


@dataclass(frozen=True)
class EvalReport:
    """Root-mean-square tracking errors and tension extremes of one run."""

    rmse_x: float
    rmse_z: float
    rmse_2d: float
    min_tension: float
    max_tension: float

    def as_dict(self) -> dict:
        return {
            "rmse_x_m": self.rmse_x,
            "rmse_z_m": self.rmse_z,
            "rmse_2d_m": self.rmse_2d,
            "min_tension_N": self.min_tension,
            "max_tension_N": self.max_tension,
        }


def rmse(p_e: np.ndarray, p_e_ref: np.ndarray, tensions: np.ndarray) -> EvalReport:
    """RMSE of the end-effector path against its reference, with the extremes
    of the run's cable tensions.

    The 2-D value is sqrt(mean(e_x^2 + e_z^2)); per-axis values use the
    same samples, so rmse_2d^2 == rmse_x^2 + rmse_z^2.  Raises
    AlignmentError on mismatched sample counts and DivergenceError when an
    RMSE overflows.
    """
    p_e = np.asarray(p_e, dtype=float)
    p_e_ref = np.asarray(p_e_ref, dtype=float)
    if p_e.shape != p_e_ref.shape:
        raise AlignmentError(
            f"sample mismatch: {p_e.shape} observed vs {p_e_ref.shape} reference"
        )
    err = p_e - p_e_ref
    rx = float(np.sqrt(np.mean(err[:, 0] ** 2)))
    rz = float(np.sqrt(np.mean(err[:, 1] ** 2)))
    r2 = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    if not np.isfinite(r2):
        raise DivergenceError("tracking RMSE overflowed "
                              f"(largest error {np.max(np.abs(err)):.3e} m)")
    return EvalReport(rmse_x=rx, rmse_z=rz, rmse_2d=r2, min_tension=float(np.min(tensions)),
                      max_tension=float(np.max(tensions)))


def trace_columns(trace: SimTrace) -> np.ndarray:
    """Trace as one row per period, columns in :data:`TRACE_HEADER` order."""
    cols = np.column_stack([
        trace.t, trace.x, trace.tensions, trace.L0, trace.u,
        trace.p_e, trace.ke, trace.ve, trace.x_ref, trace.p_e_ref,
    ])
    if cols.shape[1] != len(TRACE_HEADER):
        raise AlignmentError(f"trace has {cols.shape[1]} columns; the documented header "
                             f"has {len(TRACE_HEADER)}")
    return cols


def to_csv(header, rows) -> str:
    """CSV text of a header and rows: each number as ``repr(float(v))``, the
    shortest text that reads back as the same float, and each text cell as
    it is."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: SimTrace) -> str:
    """Serialize a trace with the documented column contract."""
    return to_csv(TRACE_HEADER, trace_columns(trace).tolist())


def trace_from_csv(text: str) -> dict:
    """Parse a trace CSV back into column arrays keyed by header name.

    Raises AlignmentError for a header other than :data:`TRACE_HEADER` and
    ModelParseError unless every row holds one finite number per column and
    there is at least one row.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",") if lines else []
    if header != TRACE_HEADER:
        raise AlignmentError("trace header does not match the documented contract")
    try:
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError:   # a non-numeric cell, or rows of different lengths
        data = None
    if data is None or data.shape[1:] != (len(header),):
        raise ModelParseError(f"trace rows must hold {len(header)} numbers each, "
                              "and the trace at least one row")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        raise ModelParseError(f"trace column '{header[int(np.argmin(finite))]}' "
                              "holds a non-finite cell")
    return {name: data[:, j] for j, name in enumerate(header)}

