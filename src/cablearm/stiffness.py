"""Stiffness matrices, the eigenvalue objective, and maximum-stiffness tensions.

The stiffness matrix is the pose sensitivity of the cable force balance,
K = d(A_m T)/dP, split into a tension-geometry part K_T and a cable
elasticity part K_k = A_m K_c A_m^T.  With this sign convention K is
positive definite at a stable suspension, K_k is a Gram sum, and the pull
wrench the cables actually apply is the negative of the differentiated
quantity (see :mod:`cablearm.kinematics` on the two sign conventions).
``objective_JK`` is the one map from K to the objective J_K (through
``_objective`` of its eigenvalues, which the landscape shares).

``optimize_tensions`` computes the reference tensions the controllers
use: it scans the first force-commanded group, solves the remaining
commanded tensions and the shared unstretched lengths of the
length-commanded groups from the static force balance (linear in inverse
unstretched length), rejects points outside the per-cable bounds, and
keeps the stiffest consistent point.  ``stiffness_landscape`` instead
freezes the length-commanded groups at given unstretched lengths and
sweeps a full 2-D grid of commanded tensions, producing the plot-ready
stiffness surface (no force-balance constraint).  Both read the tension
bounds from the model, weight all eigenvalues equally, and build K_k over
the cables of the length-commanded groups.  Each call builds the pose's
cable frames (:class:`cablearm.kinematics.CableGeometry`) once; the K_T
and K_k functions take such frames.

``optimize_tensions`` broadcasts over stacks of reference rows, as the
package's heavy functions do: the inverse dynamics, cable frames, balance
pseudo-inverses, K assembly, objective and tension distribution all run
on the stack, every check runs per row and names the first failing row,
and each row of a stack is bit-equal to its one-row call.  K is affine in
the scan tension: it is assembled once, at both ends of the scan, and
taken from that line everywhere else.  J_K is then a convex quadratic
along the scan, and only the first and last feasible scan points are
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConditioningError, DivergenceError, InfeasibleError, ValidationError, at_row,
                     first_row)
from .kinematics import CableGeometry, _skew, cable_geometry, euler_frames
from .model import RobotModel
from .redundancy import resolve
from . import dynamics

SYMMETRIZATION_LIMIT = 1e-8
_BALANCE_RTOL = 1e-7
SCAN_POINTS = 76       # tensions of the first force group that optimize_tensions scans


@dataclass(frozen=True)
class StiffnessResult:
    """Stiffness matrices and optimal tensions at a stack of reference
    states: every field, and every value of the two dicts, leads with the
    stack's axes (none for a single row, whose scalars are then 0-d)."""

    K: np.ndarray            # (..., 6, 6), symmetrized
    eigs: np.ndarray         # ascending
    J_K: np.ndarray
    lambda_opt: np.ndarray   # null-space coordinates of T_opt
    T_opt: np.ndarray
    is_stable: np.ndarray
    sym_error: np.ndarray
    group_L0: dict        # unstretched length per length-commanded group
    scan_tensions: dict   # commanded tension per force group
    tau_ref: np.ndarray   # inverse dynamics at the reference


def stiffness_KT(model: RobotModel, geo: CableGeometry, T) -> np.ndarray:
    """Tension-geometry stiffness at tensions T (..., N) over cable frames
    whose leading shape broadcasts against T's; linear in T.

    Per-cable contribution (T_i/L_i) [[P, P S_r^T], [S_r P, S_r P S_r^T]]
    + T_i [[0,0],[0, S_L S_r]] with P = I - Lhat Lhat^T, S_r = skew(R r_i),
    S_L = skew(Lhat_i); equal to d(A_m T)/dP at frozen tensions.
    """
    T = np.asarray(T, dtype=float)
    if T.shape[-1:] != (model.n_cables,):
        raise ValidationError(f"T must have length {model.n_cables}")
    Lhat = geo.units
    P = np.eye(3) - Lhat[..., :, None] * Lhat[..., None, :]      # (..., N, 3, 3)
    Sr = _skew(geo.levers)
    SL = _skew(Lhat)
    w = T / geo.lengths
    K = np.zeros(w.shape[:-1] + (6, 6))
    PSrT = P @ np.swapaxes(Sr, -1, -2)
    K[..., 0:3, 0:3] = np.einsum("...n,...nij->...ij", w, P)
    K[..., 0:3, 3:6] = np.einsum("...n,...nij->...ij", w, PSrT)
    K[..., 3:6, 0:3] = np.einsum("...n,...nij->...ij", w, Sr @ P)
    K[..., 3:6, 3:6] = np.einsum("...n,...nij->...ij", w, Sr @ PSrT) + np.einsum(
        "...n,...nij->...ij", T, SL @ Sr
    )
    return K


def stiffness_Kk(model: RobotModel, geo: CableGeometry, cable_subset, L0=None, T=None) -> np.ndarray:
    """Cable-elasticity stiffness: Gram sum of wrench columns over a subset.

    ``cable_subset`` holds 1-based cable indices (None: all cables).  The
    spring rates k_ci = EA_i / L0_i come from the unstretched lengths L0
    or, when only the tensions T are known, from the elastic law
    T = (EA / L0)(L - L0) as (EA_i + T_i) / L_i.
    """
    ea = model.platform.axial_stiffness
    if L0 is not None:
        L0 = np.asarray(L0, dtype=float)
        if np.any(L0 <= 0):
            raise ValidationError("unstretched cable lengths must be positive")
        kc = ea / L0
    elif T is not None:
        kc = (ea + np.asarray(T, dtype=float)) / geo.lengths
    else:
        raise ValidationError("spring rates need the unstretched lengths L0 or the tensions T")
    if cable_subset is None:
        idx = np.arange(model.n_cables)
    else:
        idx = np.asarray(sorted(cable_subset), dtype=int) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= model.n_cables):
            raise ValidationError("cable_subset indices must be in 1..N")
    b = np.swapaxes(geo.structure, -1, -2)[..., idx, :]  # (..., n, 6)
    return np.einsum("...n,...ni,...nj->...ij", kc[..., idx], b, b)


def _symmetrize(K: np.ndarray):
    """Symmetrize K (..., 6, 6), recording the asymmetry of each matrix.

    The differential of the cable wrench is exactly symmetric only when the
    balanced moment vanishes; at a reference balancing a moment M the
    rotational block carries a genuine skew part of magnitude ~|M|/2.  The
    error is therefore recorded and only a relative sanity bound (guarding
    against assembly bugs) is enforced, naming the first failing row.
    """
    Kt = np.swapaxes(K, -1, -2)
    err = np.max(np.abs(K - Kt), axis=(-2, -1))
    # cannot raise: a norm solves nothing
    over = err > np.maximum(SYMMETRIZATION_LIMIT, 0.05 * np.linalg.norm(K, axis=(-2, -1)))
    if np.any(over):
        raise ValidationError(f"stiffness symmetrization error {err[first_row(over)]:.3e} "
                              "exceeds limit" + at_row(over))
    return 0.5 * (K + Kt), err


def objective_JK(K):
    """Sum of the squared eigenvalues of the symmetric part of K; batched
    over leading axes (a scalar for one 6x6 K)."""
    K = np.asarray(K, dtype=float)
    return _objective(_eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2))))


def _objective(eigs):
    """J_K from the eigenvalues of the symmetric part of K."""
    return np.sum(eigs**2, axis=-1)


def _eigvalsh(K):
    """Eigenvalues of the symmetric stiffness matrices K (..., 6, 6)."""
    try:
        return np.linalg.eigvalsh(K)
    except np.linalg.LinAlgError:
        raise ConditioningError("stiffness eigenvalues did not converge (non-finite K)") from None


def _matvec(A, v):
    """A @ v over leading axes of both."""
    return (A @ v[..., None])[..., 0]


def position_controlled_cables(model: RobotModel) -> tuple[int, ...]:
    """1-based indices of cables in length-commanded groups."""
    _, pos_groups = model.platform.actuation_layout()
    return tuple(
        sorted(i for g in pos_groups for i in model.platform.actuator_groups[g])
    )


def _balanced_tensions(model: RobotModel, geo: CableGeometry, wrench: np.ndarray, t,
                       scan_groups, pos_groups):
    """Static-balance tensions with the first scanned group at each value of t.

    Unknowns are the remaining force-group tensions and one inverse
    unstretched length eta per length-commanded group; the balance
    equations are linear in all of them, so the solution is affine in t.
    Returns (T, eta_by_group, residual_norm) with a scan axis of len(t)
    after the leading axes of ``geo`` and ``wrench``.
    """
    W = -geo.structure
    ea = model.platform.axial_stiffness
    group = model.platform.group_indices
    cols = [W[..., group(g)].sum(axis=-1) for g in scan_groups[1:]]
    cols += [_matvec(W[..., group(g)], ea[group(g)] * geo.lengths[..., group(g)])
             for g in pos_groups]
    A_ls = np.stack(cols, axis=-1) if cols else np.zeros(W.shape[:-1] + (0,))
    lead_idx = group(scan_groups[0])
    lead_col = W[..., lead_idx].sum(axis=-1)
    rhs0 = wrench
    for g in pos_groups:
        rhs0 = rhs0 + W[..., group(g)] @ ea[group(g)]
    try:
        pinv = np.linalg.pinv(A_ls)
    except np.linalg.LinAlgError:
        raise ConditioningError("tension balance: pseudo-inverse did not converge "
                                "(non-finite wrench map)") from None
    xi0, xi1 = _matvec(pinv, rhs0), -_matvec(pinv, lead_col)     # xi(t) = xi0 + t * xi1
    res0 = rhs0 - _matvec(A_ls, xi0)
    res1 = -lead_col - _matvec(A_ls, xi1)

    xi = xi0[..., None, :] + t[:, None] * xi1[..., None, :]
    T = np.zeros(xi.shape[:-1] + (model.n_cables,))
    T[..., lead_idx] = t[:, None]
    k = 0
    for g in scan_groups[1:]:
        T[..., group(g)] = xi[..., k, None]
        k += 1
    eta = {}
    for g in pos_groups:
        idx = group(g)
        eta[g] = xi[..., k]
        T[..., idx] = ea[idx] * (geo.lengths[..., None, idx] * xi[..., k, None] - 1.0)
        k += 1
    res = np.linalg.norm(res0[..., None, :] + t[:, None] * res1[..., None, :],
                         axis=-1)     # cannot raise: a norm solves nothing
    return T, eta, res


def _stiffest(K_a, K_b, frac, feasible):
    """Index and J_K of the stiffest feasible scan point, ties to the lower
    tension, for K(t) = K_a + frac_t (K_b - K_a).

    J_K = ||sym K||_F^2 is then a convex quadratic in the scan value, and
    every feasibility condition cuts out an interval of it, so the maximum
    lies at the first or the last feasible point: only those two are
    evaluated.
    """
    ends = np.stack([np.argmax(feasible, axis=-1),
                     feasible.shape[-1] - 1 - np.argmax(feasible[..., ::-1], axis=-1)], axis=-1)
    J = objective_JK(K_a[..., None, :, :] + frac[ends][..., None, None] * (K_b - K_a)[..., None, :, :])
    last = J[..., 1] > J[..., 0]
    return np.where(last, ends[..., 1], ends[..., 0]), np.where(last, J[..., 1], J[..., 0])


def optimize_tensions(
    model: RobotModel,
    q_ref,
    qdot_ref=None,
    qddot_ref=None,
) -> StiffnessResult:
    """Maximum-stiffness tensions consistent with the reference dynamics.

    The platform wrench comes from the inverse dynamics at
    (q_ref, qdot_ref, qddot_ref), which the result keeps as ``tau_ref``;
    omitted rates are zero.  The first
    force-commanded group is scanned over ``SCAN_POINTS`` tensions between
    its largest ``tension_min`` and smallest ``tension_max`` (from the
    model).  At each scan value the static balance fixes the other
    commanded tensions and one unstretched length per length-commanded
    group.  A point is feasible when the balance holds, every cable stays
    within its bounds and every unstretched length is positive.  Among
    feasible points the one with the largest J_K (sum of squared
    eigenvalues of K_T + K_k, K_k over the length-commanded cables) wins;
    ties break toward the lower scan tension.  Only the first and the last
    feasible points can win, and only they are evaluated.

    Broadcasts over leading axes of the reference rows: every value of the
    result carries them, ``J_K``, ``is_stable``, ``sym_error`` and the
    ``group_L0`` / ``scan_tensions`` values included (0-d for one row).
    Each row is bit-equal to its own one-row call.  The checks run stage by
    stage over the stack (gimbal lock, collapsed cable, infeasible scan,
    rank of the wrench map, symmetrization bound), and each error names the
    first failing row.

    Raises ValidationError when the model has no force-commanded group, and
    InfeasibleError when no scan point is feasible.
    """
    scan_groups, pos_groups = model.platform.actuation_layout()
    if not scan_groups:
        raise ValidationError(
            "model declares no tension-controlled actuator groups; "
            "optimize_tensions requires the force/length actuation split"
        )
    q_ref = np.asarray(q_ref, dtype=float)
    qdot_ref = np.zeros(model.nq) if qdot_ref is None else np.asarray(qdot_ref, float)
    qddot_ref = np.zeros(model.nq) if qddot_ref is None else np.asarray(qddot_ref, float)
    shape = np.broadcast_shapes(q_ref.shape, qdot_ref.shape, qddot_ref.shape)
    q_ref, qdot_ref, qddot_ref = (np.broadcast_to(a, shape) for a in (q_ref, qdot_ref, qddot_ref))
    geo = cable_geometry(model, q_ref)
    tau = dynamics.inverse_dynamics(model, q_ref, qdot_ref, qddot_ref)
    wrench = generalized_to_wrench(model, q_ref[..., 3:6], tau[..., 0:6])

    tmin, tmax = model.platform.tension_min, model.platform.tension_max
    lead_idx = model.platform.group_indices(scan_groups[0])
    grid = np.linspace(tmin[lead_idx].max(), tmax[lead_idx].min(), SCAN_POINTS)
    T_grid, eta, res = _balanced_tensions(model, geo, wrench, grid, scan_groups, pos_groups)
    feas = (
        # cannot raise: a norm solves nothing
        (res <= _BALANCE_RTOL * (1.0 + np.linalg.norm(wrench, axis=-1))[..., None])
        & np.all(T_grid >= tmin - 1e-9, axis=-1)
        & np.all(T_grid <= tmax + 1e-9, axis=-1)
    )
    for g in pos_groups:
        feas &= eta[g] > 0
    none = ~np.any(feas, axis=-1)
    if np.any(none):
        raise InfeasibleError(
            "no statically consistent tensions satisfy the per-cable bounds "
            f"at this reference (scanned group {scan_groups[0]})" + at_row(none)
        )
    # K is affine in the scan value: assemble it at both ends of the grid,
    # stacked ahead of the rows so the pose's cable frames broadcast.
    ends = np.moveaxis(T_grid[..., [0, -1], :], -2, 0)
    K_a, K_b = (stiffness_KT(model, geo, ends)
                + stiffness_Kk(model, geo, position_controlled_cables(model), T=ends))
    frac = np.linspace(0.0, 1.0, SCAN_POINTS)   # each scan point's place from first to last
    best, J_K = _stiffest(K_a, K_b, frac, feas)
    T_opt = np.take_along_axis(T_grid, best[..., None, None], axis=-2)[..., 0, :]
    T_min_norm, N = resolve(-geo.structure, wrench)
    lam = _matvec(np.swapaxes(N, -1, -2), T_opt - T_min_norm)
    K, err = _symmetrize(K_a + frac[best][..., None, None] * (K_b - K_a))
    eigs = _eigvalsh(K)
    return StiffnessResult(
        K=K,
        eigs=eigs,
        J_K=J_K,
        lambda_opt=lam,
        T_opt=T_opt,
        is_stable=eigs[..., 0] > 0,
        sym_error=err,
        group_L0={g: 1.0 / np.take_along_axis(eta[g], best[..., None], axis=-1)[..., 0]
                  for g in pos_groups},
        scan_tensions={g: T_opt[..., model.platform.group_indices(g)[0]] for g in scan_groups},
        tau_ref=tau,
    )


def generalized_to_wrench(model: RobotModel, euler, gen6) -> np.ndarray:
    """Invert the S^T pairing: world wrench from the platform force block.

    The moment block pairs with the world Euler-rate Jacobian W = R E_b.
    Broadcasts over leading axes of ``euler`` and ``gen6``.
    """
    gen6 = np.asarray(gen6, dtype=float)
    _, W, _ = euler_frames(euler, model.euler_convention)
    try:
        moment = np.linalg.solve(np.swapaxes(W, -1, -2), gen6[..., 3:6, None])[..., 0]
    except np.linalg.LinAlgError:
        raise ConditioningError("Euler-rate Jacobian is singular (gimbal lock)") from None
    return np.concatenate([gen6[..., 0:3], moment], axis=-1)


def stiffness_landscape(model: RobotModel, q_ref, group_L0: dict, resolution: int = 76):
    """Stiffness surface over a full 2-D grid of commanded tensions.

    Length-commanded groups are frozen at the unstretched lengths in
    ``group_L0`` (their tensions follow from the stretch at the reference
    pose) while the two force-commanded groups each sweep
    ``resolution`` tensions between the model's bounds.  No force balance
    is imposed: this is the plot-ready landscape, not an equilibrium
    manifold.  K_k covers the length-commanded cables.  Returns a dict with
    the two scanned ``groups``, the grid axes ``axis_a`` / ``axis_b``, the
    frozen tensions ``T_base`` (zero on the scanned cables) and ``J_K`` /
    ``min_eig`` arrays of shape (resolution, resolution).  A resolution
    below 1, or one whose (resolution, resolution, 6, 6) stack of K has a
    byte size numpy cannot index, is a ValidationError.
    """
    if resolution < 1:
        raise ValidationError("resolution must be at least 1")
    if int(resolution) ** 2 * 36 * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"resolution {resolution} gives a stiffness grid larger than an "
                              "array can index")
    q_ref = np.asarray(q_ref, dtype=float)
    if not np.all(np.isfinite(q_ref)):
        raise ValidationError("reference pose must be finite")
    scan_groups, pos_groups = model.platform.actuation_layout()
    if len(scan_groups) != 2:
        raise ValidationError("stiffness_landscape expects exactly 2 force-commanded groups")
    if tuple(sorted(group_L0)) != pos_groups:
        raise ValidationError(f"group_L0 must give lengths for groups {list(pos_groups)}")
    geo = cable_geometry(model, q_ref)
    ea = model.platform.axial_stiffness
    T_base = np.zeros(model.n_cables)
    L0 = geo.lengths.copy()   # scan-group entries are placeholders, excluded below
    for g, l0 in group_L0.items():
        idx = model.platform.group_indices(g)
        if not 0 < l0 < np.inf:
            raise ValidationError("unstretched lengths must be positive and finite")
        T_base[idx] = ea[idx] / l0 * (geo.lengths[idx] - l0)
        L0[idx] = l0
    # The K stack first: a grid too large for memory fails here, before any
    # other array that grows with the resolution is filled.
    K_all = np.empty((resolution, resolution, 6, 6))
    tmin, tmax = model.platform.tension_min, model.platform.tension_max
    gA = model.platform.group_indices(scan_groups[0])
    gB = model.platform.group_indices(scan_groups[1])
    ax_a = np.linspace(tmin[gA].max(), tmax[gA].min(), resolution)
    ax_b = np.linspace(tmin[gB].max(), tmax[gB].min(), resolution)
    # K is affine in (tA, tB): three corners, (0, 0), (1, 0) and (0, 1), span the plane.
    corners = np.tile(T_base, (3, 1))
    corners[1, gA] = 1.0
    corners[2, gB] = 1.0
    K00, K10, K01 = (stiffness_KT(model, geo, corners)
                     + stiffness_Kk(model, geo, position_controlled_cables(model), L0=L0))
    dKa, dKb = K10 - K00, K01 - K00
    np.add(K00, ax_a[:, None, None, None] * dKa, out=K_all)
    K_all += ax_b[:, None, None] * dKb
    eigs = _eigvalsh(0.5 * (K_all + np.swapaxes(K_all, -1, -2)))
    J_K = _objective(eigs)
    if not np.all(np.isfinite(J_K)):
        raise DivergenceError("stiffness objective J_K overflowed (largest |eigenvalue| "
                              f"{np.max(np.abs(eigs)):.3e})")
    return {
        "groups": scan_groups,
        "axis_a": ax_a,
        "axis_b": ax_b,
        "J_K": J_K,
        "min_eig": eigs[..., 0],
        "T_base": T_base,
    }
