"""Energies, equations of motion, and inverse/forward dynamics.

The generalized coordinates are ``q = [p_m, euler, theta_1..theta_m]`` with
``qdot`` their literal time derivatives (Euler-angle rates, not body
rates).  One batched pass over the platform + arm chain gives the mass
matrix ``M`` and gravity vector ``G`` from the bodies' geometric Jacobians,
and the velocity-product force ``h = C(q, qdot) qdot`` from a base-to-tip
recursion of body velocities and bias accelerations (the accelerations at
``qddot = 0``), as in the recursive Newton-Euler algorithm.  The Euler-rate
floating base counts as three revolute axes along the columns of
``W = R E_b``.  :func:`dyn_terms` keeps the Christoffel symbols of a
finite-differenced ``M`` as the test oracle for ``h``.  The pass serves the
reference schedule's inverse dynamics, the energies, :func:`forward_dynamics`
and the quadrotor; the closed loop's plant derivative runs on the planar
kernel of ``sim.PlanarPlant``, which the tests check against this pass.  It
calls ufunc and array methods where a numpy function only wraps one
(``np.add.accumulate``, not ``np.cumsum``), and ``np.cross`` for cross
products: the pass runs a few dozen times per closed-loop run.

Wrench pairing: a world wrench ``w = [F; M]`` maps to generalized forces
through ``S(q)^T w`` with ``S = blkdiag(I, R E_b)``, the Jacobian from
``qdot`` to the world twist.  At zero Euler angles ``S`` is the identity,
so the familiar form "platform force block = A_m T" holds there verbatim.
The rotational platform inertia appears here as ``E_b^T I_m E_b`` (the
energy form); the equivalent world-frame Newton-Euler form
``(R I R^T)(R omega_dot) + ...`` is recovered by the same change of
variables and both are exercised by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DivergenceError, ValidationError, at_row
from .kinematics import (
    _cable_frames,
    check_euler_regular,
    rotation,
    tension_wrench_matrix,
    velocity_jacobians,
)
from .model import QuadrotorParams, RobotModel

CONDITION_LIMIT = 1e12
_FD_SCALE = 1e-6


@dataclass(frozen=True)
class DynTerms:
    """Inertia matrix, Coriolis matrix, and gravity vector at one state."""

    M: np.ndarray
    C: np.ndarray
    G: np.ndarray


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Symmetric positive-definite inertia matrix M(q); batched."""
    q = np.asarray(q, dtype=float)
    return _dynamics_core(model, q, None)[0]


def _dynamics_core(model: RobotModel, q: np.ndarray, qdot: np.ndarray | None):
    """Batched (M, G, h, chain) with h = C(q, qdot) qdot, from one chain pass.

    Summed over the bodies (platform and arm links), with ``Jv`` and
    ``Jw_b`` their COM and body-frame angular Jacobians:
    ``M = Jv^T m Jv + Jw_b^T I Jw_b``, ``G = Jv^T m g e_z`` and
    ``h = Jv^T m a + Jw_b^T (I alpha_b + omega_b x I omega_b)``, where
    ``a`` and ``alpha`` are the bias accelerations (those at qddot = 0).
    With ``qdot`` None, h is None and its recursion is skipped.
    """
    bodies = model.bodies
    Jv, Jw, chain = velocity_jacobians(model, q)
    rows = q.shape[:-1] + (6 * (model.n_arm + 1), q.shape[-1])
    JT = np.concatenate([Jv, Jw], axis=-2).reshape(rows).swapaxes(-1, -2)
    K = np.concatenate([bodies.mass[:, None, None] * Jv, bodies.inertia @ Jw], axis=-2)
    M = JT @ K.reshape(rows)
    G = model.gravity * (bodies.mass @ Jv[..., 2, :])
    if qdot is None:
        return M, G, None, chain

    # Base to tip, every revolute axis (Euler-rate axes first) adds spin s_k
    # to the angular velocity and omega_k x s_k to the bias acceleration.
    rates = qdot[..., 3:] * bodies.revolute
    spins = (chain["axes"] * rates[..., None]).take(bodies.order, axis=-2)
    omega = np.add.accumulate(spins, axis=-2)
    alpha = np.add.accumulate(np.cross(omega, spins), axis=-2)
    omega, alpha = omega[..., 2:, :], alpha[..., 2:, :]      # per body

    # Lever r on body b: alpha x r + omega x (omega x r + 2 v), v the slide
    # velocity of a prismatic axis 2+b; the COM adds to the inboard joint's.
    slide = 2.0 * (qdot[..., 5:] - rates[..., 2:])[..., None] * chain["levers"][..., 2]
    levers = chain["levers"][..., 0:2].swapaxes(-1, -2)     # (..., m+1, 2, 3)
    om = omega[..., None, :]
    acc = (np.cross(alpha[..., None, :], levers)
           + np.cross(om, np.cross(om, levers) + slide[..., None, :]))
    step = acc[..., 0, :]
    force = bodies.mass[:, None] * (np.add.accumulate(step, axis=-2) - step + acc[..., 1, :])
    rot = chain["R_body"].swapaxes(-1, -2) @ np.concatenate([omega[..., None], alpha[..., None]],
                                                            axis=-1)
    moments = bodies.inertia @ rot
    torque = moments[..., 1] + np.cross(rot[..., 0], moments[..., 0])
    h = (JT @ np.concatenate([force, torque], axis=-1).reshape(rows[:-1] + (1,)))[..., 0]
    return M, G, h, chain


def _energy_terms(model: RobotModel, q: np.ndarray, qdot: np.ndarray):
    """Kinetic energy, gravity potential (datum z = 0), cable lengths and the
    pass's arm chain; batched over leading axes of q and qdot."""
    M, _, _, chain = _dynamics_core(model, q, None)
    ke = 0.5 * (qdot[..., None, :] @ M @ qdot[..., None])[..., 0, 0]
    # sum of m_b z_b as a stacked product: one state rounds as the plain dot did
    mz = (chain["p_com"][..., None, :, 2] @ model.bodies.mass[:, None])[..., 0, 0]
    L = _cable_frames(model, q[..., 0:3], chain["R_gm"]).lengths
    return ke, model.gravity * mz, L, chain


def energies(model: RobotModel, q, qdot, L0) -> tuple[float, float]:
    """Total kinetic and potential energy (gravity datum at z = 0).

    Potential energy includes the elastic term 0.5 (L-L0)^T K_c (L-L0)
    with per-cable stiffness EA_i / L0_i.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    L0 = np.asarray(L0, dtype=float)
    if L0.shape != (model.n_cables,):
        raise ValidationError(f"L0 must have length {model.n_cables}")
    if model.n_cables and np.any(L0 <= 0):
        raise ValidationError("unstretched cable lengths must be positive")
    ke, ve, L, _ = _energy_terms(model, q, qdot)
    kc = model.platform.axial_stiffness / L0
    return float(ke), float(ve + 0.5 * np.sum(kc * (L - L0) ** 2))


def dyn_terms(model: RobotModel, q, qdot) -> DynTerms:
    """Full (M, C, G) with C from Christoffel symbols of finite-differenced M.

    Test oracle for the analytic velocity-product force: satisfies
    M = M^T, M positive definite away from singularities, and
    Mdot = C + C^T to differencing accuracy.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    check_euler_regular(q[3:6], model.euler_convention)
    nq = q.shape[-1]
    scale = _FD_SCALE * np.maximum(1.0, np.abs(q))
    pts = np.concatenate([q[None], q + np.diag(scale), q - np.diag(scale)], axis=0)
    Mb, Gb, _, _ = _dynamics_core(model, pts, None)
    dM = (Mb[1:nq + 1] - Mb[nq + 1:]) / (2.0 * scale[:, None, None])   # dM[k] = dM/dq_k
    C = 0.5 * (
        np.einsum("kij,k->ij", dM, qdot)
        + np.einsum("jik,k->ij", dM, qdot)
        - np.einsum("ijk,k->ij", dM, qdot)
    )
    return DynTerms(M=Mb[0], C=C, G=Gb[0])


def inverse_dynamics(model: RobotModel, q, qdot, qddot, tau_d=None) -> np.ndarray:
    """Generalized forces tau = M qddot + C qdot + G + tau_d.

    The first six entries are the platform block (the cable-side wrench in
    generalized coordinates); the trailing entries are the joint torques.
    Broadcasts over leading axes of the states.  Raises DivergenceError
    when tau overflows (a finite state at an extreme rate), naming the
    first such row.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    qddot = np.asarray(qddot, dtype=float)
    check_euler_regular(q[..., 3:6], model.euler_convention)
    M, G, h, _ = _dynamics_core(model, q, qdot)
    tau = (M @ qddot[..., None])[..., 0] + h + G
    if tau_d is not None:
        tau = tau + np.asarray(tau_d, dtype=float)
    bad = ~np.all(np.isfinite(tau), axis=-1)
    if np.any(bad):
        raise DivergenceError("inverse dynamics produced non-finite generalized forces tau"
                              + at_row(bad))
    return tau


def accelerations(model: RobotModel, q, qdot, wrench, tau_arm) -> np.ndarray:
    """Solve M qddot = S^T w + [0; tau_arm] - C qdot - G; batched.

    ``q`` and ``qdot`` are float arrays of shape (..., nq) and ``wrench`` the
    world wrench w = [F; M] on the platform.  A near-singular M raises
    ConditioningError instead of returning meaningless accelerations.
    """
    M, G, h, chain = _dynamics_core(model, q, qdot)
    rhs = np.zeros(wrench.shape[:-1] + q.shape[-1:])     # S^T w, W = R E_b
    rhs[..., 0:3] = wrench[..., 0:3]
    rhs[..., 3:6] = (chain["W_euler"].swapaxes(-1, -2) @ wrench[..., 3:6, None])[..., 0]
    rhs[..., 6:] += tau_arm
    rhs -= h + G
    try:
        cond = np.linalg.cond(M)
    except np.linalg.LinAlgError:   # the SVD of a non-finite M does not converge
        raise ConditioningError("inertia matrix has non-finite entries") from None
    if not np.all(np.isfinite(cond)) or np.max(cond) > CONDITION_LIMIT:
        raise ConditioningError(
            f"inertia matrix near-singular (condition number {np.max(cond):.3e})"
        )
    return np.linalg.solve(M, rhs[..., None])[..., 0]   # cannot raise: cond(M) is finite


def forward_dynamics(model: RobotModel, q, qdot, T, tau_a) -> np.ndarray:
    """Accelerations from cable tensions and joint torques.

    Solves M qddot = [cable wrench; tau_a] - C qdot - G, where the
    cable wrench is mapped into generalized coordinates (see module notes
    on the tension sign convention).
    """
    q = np.asarray(q, dtype=float)
    W = tension_wrench_matrix(model, q)
    return accelerations(model, q, np.asarray(qdot, dtype=float),
                         W @ np.asarray(T, dtype=float), np.asarray(tau_a, dtype=float))


# ---------------------------------------------------------------------------
# Quadrotor variant: thrust columns replace cable columns.

_ROTOR_MOMENT_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def quadrotor_structure_matrix(params: QuadrotorParams, model: RobotModel,
                               q) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (6x4) and full (6x8) thrust maps of the quadrotor at q.

    The full map pairs [F_1..F_4, M_1..M_4] with the platform wrench, all
    thrust axes along the body +Z direction and rotor drag moments
    alternating in sign.  The reduced map folds M_i = kappa F_i into the
    thrust columns.  Both are wrench maps in the pull/thrust direction,
    matching :func:`cablearm.kinematics.tension_wrench_matrix`.
    """
    q = np.asarray(q, dtype=float)
    check_euler_regular(q[3:6], model.euler_convention)
    R = rotation(q[3:6], model.euler_convention)
    u = R[:, 2]
    rho = (R @ params.rotor_positions.T).T         # (4,3) world rotor arms
    A_full = np.zeros((6, 8))
    A_full[0:3, 0:4] = u[:, None]
    A_full[3:6, 0:4] = np.cross(rho, u).T
    A_full[3:6, 4:8] = u[:, None] * _ROTOR_MOMENT_SIGNS
    d, kappa = params.arm_length, params.moment_ratio
    top = R @ np.array([[0.0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]])
    bottom = R @ np.array(
        [[0.0, d, 0, -d], [-d, 0, d, 0], [kappa, -kappa, kappa, -kappa]]
    )
    return np.vstack([top, bottom]), A_full


def hybrid_forward_dynamics_quadrotor(
    params: QuadrotorParams, model: RobotModel, q, qdot, F, tau_a
) -> np.ndarray:
    """Whole-body accelerations of the quadrotor + arm under rotor thrusts F."""
    q = np.asarray(q, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.shape != (4,):
        raise ValueError("F must be the 4 rotor thrusts")
    A_tilde, _ = quadrotor_structure_matrix(params, model, q)
    return accelerations(model, q, np.asarray(qdot, dtype=float), A_tilde @ F,
                         np.asarray(tau_a, dtype=float))
