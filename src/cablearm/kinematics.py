"""Rotations, cable geometry, structure matrix, and arm-chain kinematics.

All heavy functions broadcast over leading batch axes: ``q`` of shape
``(..., nq)`` produces rotation stacks of shape ``(..., 3, 3)`` and so on.
The generalized coordinates are ordered ``[p_mx, p_my, p_mz, alpha, beta,
gamma, theta_1 .. theta_m]`` with the Euler angles always stored as
(angle about X, angle about Y, angle about Z) regardless of the
convention's application order.  A pose enters as ``(model, q)``: the
platform coordinates ``q[..., 0:6]`` read in the model's Euler convention.

Angular-velocity referencing: the platform body rate ``omega_b`` satisfies
``skew(omega_b) = R^T dR/dt``; the world rate is ``R @ omega_b``.  The
structure matrix pairs cable-length rates with the world-referenced twist
``[v; R omega_b]``; both pairings are exercised by finite-difference tests.

:func:`arm_chain`, :func:`velocity_jacobians` and :func:`_cable_frames` run
under the 3-D dynamics pass (reference schedule, energies, forward dynamics)
and the cable geometry, often on a single state or a small stack, where
numpy's per-call cost outweighs the arithmetic, so the chain makes one
rotation call for all its axes.  The closed loop's plant derivative does not
use them: it runs on the planar kernel of ``sim.PlanarPlant``, so cross
products are plain ``np.cross``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GeometryError, SingularityError, at_row, first_row
from .model import _AXES, RobotModel

EULER_SINGULARITY_EPS = 1e-6   # rad margin on the middle angle vs +-pi/2
CABLE_LENGTH_EPS = 1e-9        # m; shorter cables are degenerate


_EYE = np.eye(3)
_XYZ = np.arange(3)
_SKEW = np.array([np.cross(e, -_EYE) for e in _EYE])   # _SKEW[a] @ v = e_a x v
_SKEW2 = _SKEW @ _SKEW


def basic_rotation(axis, angle) -> np.ndarray:
    """Rotation about a coordinate axis (0=X, 1=Y, 2=Z); batched over angle.

    Rodrigues form ``I + sin(t) K + (1 - cos(t)) K^2``.  ``axis`` may also
    be an index array matched against the trailing axis of ``angle``.
    """
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return (_EYE + np.sin(angle) * _SKEW.take(axis, 0)
            + (1.0 - np.cos(angle)) * _SKEW2.take(axis, 0))


def euler_frames(euler, convention: str):
    """Rotation R and the world and body Euler-rate Jacobians (W, E_b).

    ``R = R_a1 R_a2 R_a3`` in convention order.  The world angular velocity
    is ``W @ euler_rates`` with columns ``e_a1``, ``R_a1 e_a2`` and
    ``R_a1 R_a2 e_a3``; the body rate is ``E_b @ euler_rates``, ``E_b = R^T W``.
    """
    R, W = _compose(basic_rotation(_XYZ, euler), [_AXES.index(c) for c in convention])
    return R, W, R.swapaxes(-1, -2) @ W


def _compose(Rk, axes):
    """(R, W) of :func:`euler_frames` from the rotations ``Rk[..., a, :, :]``
    about each coordinate axis a, composed in the order ``axes``."""
    a1, a2, a3 = axes
    R12 = Rk[..., a1, :, :] @ Rk[..., a2, :, :]
    W = np.empty(R12.shape)
    W[..., :, a1] = _EYE[a1]
    W[..., :, a2] = Rk[..., a1, :, a2]
    W[..., :, a3] = R12[..., :, a3]
    return R12 @ Rk[..., a3, :, :], W


def rotation(euler, convention: str) -> np.ndarray:
    """Platform rotation matrix: product of axis rotations in convention order.

    ``euler`` holds (angle about X, angle about Y, angle about Z); the
    convention string gives the order in which the axis rotations are
    composed, e.g. ``"XYZ"`` -> R_x(a) @ R_y(b) @ R_z(c).
    """
    return euler_frames(euler, convention)[0]


def check_euler_regular(euler, convention: str):
    """Raise SingularityError when the middle angle is within
    EULER_SINGULARITY_EPS of +-pi/2 (naming the first such row of a stack)."""
    middle = np.asarray(euler, dtype=float)[..., _AXES.index(convention[1])]
    locked = np.abs(np.abs(middle) - np.pi / 2) < EULER_SINGULARITY_EPS
    if np.any(locked):
        raise SingularityError(
            f"middle Euler angle within {EULER_SINGULARITY_EPS:g} rad of +-pi/2 "
            f"for convention {convention}" + at_row(locked)
        )


class CableGeometry(NamedTuple):
    """Cable frames at a pose: line vectors (anchor -> platform attachment),
    lengths, unit vectors, levers R r_i and the structure matrix A_m.

    A_m satisfies the rate identity Ldot = A_m^T [v; R omega_b]; because its
    columns use the anchor->platform direction, positive tensions apply the
    wrench ``-A_m T`` (:func:`tension_wrench_matrix`)."""

    vectors: np.ndarray   # (N, 3)
    lengths: np.ndarray   # (N,)
    units: np.ndarray     # (N, 3), vectors / lengths
    levers: np.ndarray    # (N, 3), R r_i
    structure: np.ndarray  # (6, N), columns [units_i ; levers_i x units_i]


def _cable_frames(model: RobotModel, p, R) -> CableGeometry:
    """Batched cable frames for positions p (..., 3) and rotations R (..., 3, 3).

    Lengths are not checked: a collapsed cable yields non-finite units.
    """
    levers = np.einsum("...ij,nj->...ni", R, model.platform.r_body)
    vec = np.asarray(p, float)[..., None, :] + levers - model.platform.a_world
    lengths = np.sqrt(np.add.reduce(vec * vec, axis=-1))   # np.linalg.norm's own sum
    units = vec / lengths[..., None]
    structure = np.concatenate([units.swapaxes(-1, -2), np.cross(levers, units).swapaxes(-1, -2)],
                               axis=-2)
    return CableGeometry(vectors=vec, lengths=lengths, units=units, levers=levers,
                         structure=structure)


def cable_geometry(model: RobotModel, q) -> CableGeometry:
    """Cable frames at the platform poses ``q[..., 0:6]``; batched.

    Vectors run from the static anchor to the platform attachment point, so
    a positive tension pulls the platform along ``-units``.  Raises
    SingularityError at gimbal lock and GeometryError (naming the 1-based
    cable) when a length collapses, each naming the first such row of a stack.
    """
    q = np.asarray(q, dtype=float)
    check_euler_regular(q[..., 3:6], model.euler_convention)
    with np.errstate(divide="ignore", invalid="ignore"):   # a collapsed cable raises below
        geo = _cable_frames(model, q[..., 0:3], rotation(q[..., 3:6], model.euler_convention))
    short = geo.lengths <= CABLE_LENGTH_EPS
    if np.any(short):
        rows = np.any(short, axis=-1)
        row = first_row(rows)
        bad = int(np.argmax(short[row])) + 1
        raise GeometryError(f"cable {bad} has near-zero length "
                            f"({geo.lengths[row][bad - 1]:.3e} m)" + at_row(rows))
    return geo


def tension_wrench_matrix(model: RobotModel, q) -> np.ndarray:
    """6xN map from cable tensions to the platform wrench [F; M] (world).

    Columns are [u_i ; (R r_i) x u_i] with u_i the unit pull direction
    (attachment -> anchor), i.e. the negative of the structure matrix
    ``cable_geometry(model, q).structure``.
    """
    return -cable_geometry(model, q).structure


def arm_chain(model: RobotModel, q: np.ndarray) -> dict:
    """Forward pass over the bodies of the platform + arm tree; batched.

    Body 0 is the platform and body j the arm link j.  Returns body
    rotations, joint and COM positions, world axes (Euler-rate axes, then
    joint axes), per-body world levers and the world Euler-rate Jacobian
    needed by the velocity and mass-matrix assembly.
    """
    q = np.asarray(q, dtype=float)
    bodies = model.bodies
    m = model.n_arm
    # one rotation per axis: the Euler angles, then the joints (prismatic: I)
    Rk = basic_rotation(bodies.axis, q[..., 3:] * bodies.revolute)
    R_gm, W_euler = _compose(Rk, bodies.order[:3])
    R_body = np.empty(q.shape[:-1] + (m + 1, 3, 3))
    R_body[..., 0, :, :] = R_gm
    R = R_gm @ model.mount_rotation
    for j in range(m):
        R = R_body[..., j + 1, :, :] = R @ Rk[..., 3 + j, :, :]
    # columns: lever to the outboard joint, lever to the COM, joint axis.
    # slide[0] is zero, so the Euler angle in q[..., 5] drops out.
    levers = R_body @ (bodies.frame + q[..., 5:, None, None] * bodies.slide)
    # p_m, arm base, joints 2..m, tip
    p_joint = np.add.accumulate(np.concatenate([q[..., None, 0:3], levers[..., 0]], axis=-2),
                                axis=-2)
    return {
        "R_gm": R_gm,
        "W_euler": W_euler,
        "R_body": R_body,
        "p_joint": p_joint,
        "p_com": p_joint[..., :-1, :] + levers[..., 1],
        "levers": levers,
        "axes": np.concatenate([W_euler.swapaxes(-1, -2), levers[..., 1:, :, 2]], axis=-2),
    }


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: _skew(v) @ w = v x w; batched."""
    return np.tensordot(v, _SKEW, axes=1)


def velocity_jacobians(model: RobotModel, q: np.ndarray):
    """Geometric Jacobians of every body, batched.

    Returns ``(Jv, Jw_body, chain)`` where ``Jv[..., b, :, :]`` maps qdot to
    the world COM velocity of body b (0 the platform, j the arm link j) and
    ``Jw_body`` to its body-frame angular velocity.
    """
    q = np.asarray(q, dtype=float)
    chain = arm_chain(model, q)
    bodies = model.bodies
    axes = chain["axes"][..., None, :, :]                     # (..., 1, 3+m, 3)
    # revolute axis k moves body b by z_k x (p_com_b - p_k), prismatic by z_k
    spin = axes * bodies.turns[..., None]
    origin = chain["p_joint"].take(bodies.origin, axis=-2)
    lever = chain["p_com"][..., :, None, :] - origin[..., None, :, :]
    Jv = np.empty(q.shape[:-1] + (model.n_arm + 1, 3, model.nq))
    Jw = np.zeros(Jv.shape)
    Jv[..., 0:3] = _EYE
    Jv[..., 3:] = (np.cross(spin, lever) + axes * bodies.slides[..., None]).swapaxes(-1, -2)
    Jw[..., 3:] = spin.swapaxes(-1, -2)
    return Jv, chain["R_body"].swapaxes(-1, -2) @ Jw, chain
