"""Tension distribution for over-actuated cable sets.

Pure linear algebra on the wrench map ``A`` passed by the caller (either
sign convention works; the null space and residuals are identical).  One
SVD with a deterministic rank tolerance gives both parts of the
distribution, so rank decisions and basis ordering are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, at_row, first_row


def _svd_rank(A: np.ndarray):
    """SVD of A with the numerical rank of each matrix of a stack."""
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("wrench map: SVD did not converge "
                                  "(non-finite entries)") from None
    if s.shape[-1] == 0:
        return U, s, Vt, np.zeros(A.shape[:-2], dtype=int)
    tol = s[..., :1] * max(A.shape[-2:]) * np.finfo(float).eps * 16
    return U, s, Vt, np.sum(s > tol, axis=-1)


def resolve(A: np.ndarray, tau_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-2-norm tensions T with A T = tau_m and an orthonormal basis N
    of ker(A), so that every solution is T + N lam; broadcasts over leading
    axes of A and tau_m.

    The columns of N are ordered by the SVD and flipped so the first entry
    of significant magnitude in each is positive; N is n x 0 for a square A.
    Raises RankDeficiencyError (reporting the numerical rank, and the first
    such row of a stack) when A loses row rank, i.e. at a singular cable
    configuration.
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
    T = (np.swapaxes(Vt[..., :m, :], -1, -2) @ (Ut_tau / s[..., :m])[..., None])[..., 0]
    basis = Vt[..., m:, :]                    # one basis vector per row
    lead = np.argmax(np.abs(basis) > 1e-12, axis=-1)
    flip = np.take_along_axis(basis, lead[..., None], axis=-1) < 0
    return T, np.swapaxes(np.where(flip, -basis, basis), -1, -2)
