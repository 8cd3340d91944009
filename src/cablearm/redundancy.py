"""Tension distribution for over-actuated cable sets.

Both operations are pure linear algebra on the wrench map ``A``
passed by the caller (either sign convention works; the null space and
residuals are identical).  Decompositions use SVD with a deterministic
rank tolerance so rank decisions and basis ordering are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, at_row, first_row


def _svd_rank(A: np.ndarray):
    """SVD of A with the numerical rank of each matrix of a stack."""
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    if s.shape[-1] == 0:
        return U, s, Vt, np.zeros(A.shape[:-2], dtype=int)
    tol = s[..., :1] * max(A.shape[-2:]) * np.finfo(float).eps * 16
    return U, s, Vt, np.sum(s > tol, axis=-1)


def pinv_tensions(A: np.ndarray, tau_m: np.ndarray) -> np.ndarray:
    """Minimum-2-norm tensions T with A T = tau_m; broadcasts over leading
    axes of A and tau_m.

    Raises RankDeficiencyError (reporting the numerical rank, and the
    first such row of a stack) when A loses row rank, i.e. at a singular
    cable configuration.
    """
    A = np.asarray(A, dtype=float)
    tau_m = np.asarray(tau_m, dtype=float)
    U, s, Vt, rank = _svd_rank(A)
    m = A.shape[-2]
    short = rank < m
    if np.any(short):
        raise RankDeficiencyError(
            f"wrench map is rank deficient (rank {rank[first_row(short)]} < {m})" + at_row(short)
        )
    Ut_tau = (np.swapaxes(U, -1, -2) @ tau_m[..., None])[..., :m, 0]
    return (np.swapaxes(Vt[..., :m, :], -1, -2) @ (Ut_tau / s[..., :m])[..., None])[..., 0]


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(A), sign-normalized for reproducibility;
    broadcasts over leading axes of A.

    Columns are ordered by the SVD and flipped so the first entry of
    significant magnitude in each column is positive.  Returns an
    N x 0 matrix when A has full column rank.  The matrices of a stack
    must share one rank (RankDeficiencyError names the first row below
    the largest).
    """
    A = np.asarray(A, dtype=float)
    _, _, Vt, rank = _svd_rank(A)
    r = int(np.max(rank, initial=0))
    short = rank < r
    if np.any(short):
        raise RankDeficiencyError(
            f"wrench maps of a stack differ in rank (below {r})" + at_row(short)
        )
    basis = Vt[..., r:, :]                    # one basis vector per row
    lead = np.argmax(np.abs(basis) > 1e-12, axis=-1)
    flip = np.take_along_axis(basis, lead[..., None], axis=-1) < 0
    return np.swapaxes(np.where(flip, -basis, basis), -1, -2)
