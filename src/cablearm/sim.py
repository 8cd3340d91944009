"""Planar reduction, reference trajectories, and closed-loop simulation.

The in-plane reduction keeps (p_mx, p_mz, beta, plus the Y-axis arm
joints) free and pins the out-of-plane coordinates at zero, which the
mirror-symmetric cable layout makes an invariant manifold (verified by
test against the full 3-D model).  The 10-dim state is
``[p_mx, dp_mx, p_mz, dp_mz, beta, dbeta, th2, dth2, th3, dth3]``;
inputs are ``[T_low_A, T_low_B, tau_2, tau_3]`` with the two
length-commanded upper groups driven by the exogenous unstretched lengths
(L01, L02).  :class:`PlanarPlant` evaluates the derivative with a planar
kernel that never assembles the 9-DoF 3-D system; the tests check it
against the 3-D forward dynamics.

Closed loop (:func:`simulate`).  An architecture fixes two things
(:class:`Architecture`): the design model, from which the tension/length
feedforward and the MPC's linearization come, and the MPC's reach.

* independent: platform-only design model, so the arm reaction (mostly
  its weight) is invisible to the design path; MPC over the 6 platform
  states and 2 lower tensions, arm joints on PID.
* integrated1: coupled design model; the same 6-state MPC, arm on PID.
* integrated2: coupled design model; one MPC over all 10 states and 4
  inputs, no PID.

A run has three parts.  :func:`setup_run` resolves the scenario document
(:func:`resolve_scenario` holds its defaults and checks) into a
:class:`RunSetup`: the plant, the schedule and its linearizations, the
controller settings, the substep rule, the PID's joint reference and the
noise scale.  The reference is known before the loop, so the design path
runs in blocks over its distinct rows (``-0.0`` counted as ``0.0``): one
:func:`optimize_tensions` call per ``SCHEDULE_BLOCK`` rows and one
:func:`linearize` call per ``LINEARIZE_BLOCK`` points, each block row
bit-equal to its one-row call.  A :class:`RunState` holds what passes from
one period to the next; :func:`run_period` advances it by one period.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import control, dynamics
from .control import MpcParams, PidGains, linearize, pid_step
from .errors import (CableRobotError, ConditioningError, DivergenceError, ReductionError,
                     ScenarioError, ValidationError)
from .kinematics import arm_chain, check_euler_regular
from .model import RobotModel, _check, _field, _number, _number_array, _object
from .stiffness import optimize_tensions


class Architecture(str, Enum):
    """Closed-loop architecture: fixes the design model and the MPC's reach."""

    INDEPENDENT = "independent"
    INTEGRATED_I = "integrated1"
    INTEGRATED_II = "integrated2"

    @property
    def mpc_size(self) -> tuple[int, int]:
        """(states, inputs) of the MPC: all 10 and 4 for integrated2, else
        the 6 platform states and 2 lower tensions (the arm is on PID)."""
        return (10, 4) if self is Architecture.INTEGRATED_II else (6, 2)

    def design_model(self, model: RobotModel) -> RobotModel:
        """The model the feedforward and the MPC's linearization see."""
        return model.platform_only() if self is Architecture.INDEPENDENT else model

    @property
    def default_substeps(self) -> int | None:
        """RK4 substeps per period when none are set: 10 where the arm is on
        PID (they are also its sample rate), else None, error-controlled
        (:func:`rk4_held`)."""
        return None if self is Architecture.INTEGRATED_II else 10


# ---------------------------------------------------------------------------
# Planar plant


def _turnable(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constants (A, A_perp) with ``cos(phi) A + sin(phi) A_perp = [R a; P R a]``
    for planar vectors ``a`` of shape (2, ...) in (x, z): R turns by phi
    about y, (a_x, a_z) -> cos(phi) (a_x, a_z) + sin(phi) (a_z, -a_x), and
    P by -90 deg, so that P (e_y x r) = -r."""
    perp = a[::-1] * np.array([1.0, -1.0]).reshape((2,) + (1,) * (a.ndim - 1))
    return np.concatenate([a, perp]), np.concatenate([perp, -a])


def _mirror_partners(arr: np.ndarray) -> np.ndarray | None:
    """Per row, the first row equal to it with all y-entries negated (itself
    when its y-entries vanish); None when some row has no such partner."""
    flip = np.ones(arr.shape[1])
    flip[1::3] = -1.0
    match = np.all(np.abs(arr[:, None, :] - arr * flip) < 1e-12, axis=-1)
    return np.argmax(match, axis=0) if np.all(np.any(match, axis=0)) else None


class PlantLaw(NamedTuple):
    """What :meth:`PlanarPlant.f` holds fixed while the state moves: cable i
    pulls with tension ``k[..., i] L + c[..., i]`` at length L, and the free
    joints take torques ``tau``.  Built by :meth:`PlanarPlant.law`, once per
    held input."""

    k: np.ndarray      # (..., N) EA / L0 of the elastic cables, 0 for the commanded ones
    c: np.ndarray      # (..., N) -EA of the elastic cables, the commanded tension of the others
    tau: np.ndarray    # (..., free joints)


class PlanarPlant:
    """In-plane forward dynamics of a mirror-symmetric cable robot.

    The derivative comes in two parts: :meth:`law` builds what the inputs
    fix (a :class:`PlantLaw`), once per held input, and :meth:`f` ``(x,
    law)`` evaluates what depends on the state, a planar kernel over the
    coordinates ``(x, z, beta, free joints)``: in the x-z plane every body
    turns about y by ``phi_b`` (beta plus the free joints upstream), so its
    inertia enters through ``I_yy`` alone and ``omega x I omega`` vanishes.
    The checks below reject the models for which this kernel would differ
    from the 3-D equations of motion restricted to the plane.
    """

    def __init__(self, model: RobotModel):
        p = model.platform
        partner = _mirror_partners(np.hstack([p.a_world, p.r_body]))
        if partner is None:
            raise ReductionError("cable layout is not mirror-symmetric about the x-z plane")
        group = np.zeros(model.n_cables, dtype=int)
        for g in p.actuator_groups:
            group[p.group_indices(g)] = g
        for i, j in enumerate(partner):
            for name, value in (("EA", p.axial_stiffness), ("actuator group", group)):
                if value[i] != value[j]:
                    raise ReductionError(f"mirror cables {i + 1} and {j + 1} differ in {name} "
                                         f"({value[i]:g} and {value[j]:g})")
        if np.any(np.abs(model.mount_offset[1]) > 1e-12) or not np.allclose(
            model.mount_rotation, np.eye(3), atol=1e-12
        ):
            raise ReductionError("arm mount must lie in the x-z plane with identity rotation")
        free = []
        for j, link in enumerate(model.arm):
            if link.joint_kind != "revolute":
                raise ReductionError("planar reduction supports revolute joints only")
            if link.joint_axis == "Y":
                free.append(j)
            elif link.joint_axis != "Z":
                raise ReductionError("arm joints must rotate about Y (free) or Z (held)")
            # the last link's joint offset places only the tip, which may leave the plane
            y = [link.com_offset[1], link.joint_offset[1] if j < model.n_arm - 1 else 0.0]
            if np.any(np.abs(y) > 1e-12):
                raise ReductionError(f"arm link {j + 1}: joint and COM offsets must lie in the "
                                     "x-z plane (no y component)")
        if np.any(np.abs(model.bodies.inertia[:, 1, [0, 2]]) > 1e-12):
            raise ReductionError("body inertias must have zero xy and yz products")
        low, pos = model.platform.actuation_layout()
        if len(low) != 2 or len(pos) != 2:
            raise ReductionError(
                "planar control expects 2 force-commanded and 2 length-commanded actuator groups"
            )
        self.model = model
        self.free_joints = tuple(free)
        self.n_states = 6 + 2 * len(free)
        self.n_inputs = 2 + len(free)
        self.low_groups = low
        self.pos_groups = pos
        self.low_idx = [model.platform.group_indices(g) for g in self.low_groups]
        self.pos_idx = [model.platform.group_indices(g) for g in self.pos_groups]
        self._q_pos = np.array([0, 2, 4] + [6 + j for j in free])
        # per cable: length-commanded or not, in the second length-commanded
        # group or not, and the input it takes when force-commanded
        cables = np.arange(model.n_cables)
        self._elastic = np.isin(cables, np.concatenate(self.pos_idx))
        self._second = np.isin(cables, self.pos_idx[1])
        self._input = np.isin(cables, self.low_idx[1]).astype(int)
        self._kernel_constants(model, free)

    def _kernel_constants(self, model: RobotModel, free: list[int]):
        """Constants of :meth:`f`, planar vectors with their (x, z) axis first
        (see :func:`_turnable`).  The angle map ``_angles`` is stored
        transposed, (states, columns), so that ``x @ _angles`` gives the
        angles of a single state and of a stack alike."""
        bodies, p = model.bodies, model.platform
        B, K, N = model.n_arm + 1, 1 + len(free), model.n_cables
        # turn[b, k] = 1: angle k (beta, then the free joints) turns body b
        turn = np.zeros((B, K))
        turn[:, 0] = 1.0
        for k, j in enumerate(free):
            turn[j + 1:, k + 1] = 1.0
        # The columns the kernel turns: per body, in its frame, the lever to
        # its COM and the lever from its COM to its outboard joint, whose
        # running sum is COM_0 (the platform origin), joint 1, COM_1, joint 2,
        # ..., the tip; then the cable attachment levers r_i, turned by beta.
        com, out = bodies.frame[:, [0, 2], 1].T, bodies.frame[:, [0, 2], 0].T
        levers = np.stack([com, out - com], axis=-1).reshape(2, 2 * B)
        self._cols = _turnable(np.concatenate([levers, p.r_body[:, [0, 2]].T], axis=1))
        self._n_levers = 2 * B
        # x @ _angles: the angle of every column, then the rate of every lever column
        lever_turn = np.repeat(turn, 2, axis=0).T
        self._angles = np.zeros((self.n_states, 4 * B + N))
        self._angles[4::2, :2 * B] = lever_turn
        self._angles[4, 2 * B:2 * B + N] = 1.0
        self._angles[5::2, 2 * B + N:] = lever_turn
        # J holds the rows P v_COM of every body, P turning by -90 deg about y,
        # flattened as (axis, body): constant (P e_z, P e_x) in the (x, z)
        # columns, and running sum @ _to_J = pivot_k - COM_b in the column of
        # angle k where it turns body b (it moves COM_b by e_y x (COM_b - pivot_k));
        # beta pivots about the platform origin, free joint j about joint j + 1
        pivot = [0] + [2 * j + 1 for j in free]
        to_J = np.zeros((2 * B, B, 2 + K))
        for b, k in zip(*np.nonzero(turn)):
            to_J[pivot[k], b, 2 + k] += 1.0
            to_J[2 * b, b, 2 + k] -= 1.0
        self._to_J = to_J.reshape(2 * B, B * (2 + K))
        J0 = np.zeros((2, B, 2 + K))
        J0[0, :, 1] = 1.0      # P e_z
        J0[1, :, 0] = -1.0     # P e_x
        self._J0 = J0.reshape(2, B * (2 + K))
        self._mass2 = np.concatenate([bodies.mass, bodies.mass])[:, None]
        # the angular rates are turn @ [beta, free joints]', so their part of M,
        # turn^T I_yy turn, is constant
        rot_rows = np.zeros((B, 2 + K))
        rot_rows[:, 2:] = turn
        self._M_rot = rot_rows.T @ (bodies.inertia[:, 1, 1, None] * rot_rows)
        self._gravity = np.outer([model.gravity, 0.0], np.ones(B))    # P g e_z per body
        # cables: anchors a_i in (x, z); the y component of a cable vector,
        # r_iy - a_iy, is the same at every planar state
        self._anchor = p.a_world[:, [0, 2]].T
        self._vy2 = (p.r_body[:, 1] - p.a_world[:, 1]) ** 2
        self._ea = p.axial_stiffness

    def embed(self, x):
        """Planar state -> full (q, qdot); broadcasts over leading axes."""
        x = np.asarray(x, dtype=float)
        q, qdot = np.zeros((2,) + x.shape[:-1] + (self.model.nq,))
        q[..., self._q_pos] = x[..., 0::2]
        qdot[..., self._q_pos] = x[..., 1::2]
        return q, qdot

    def law(self, u, L01, L02) -> PlantLaw:
        """The :class:`PlantLaw` of inputs ``u = [T_low_A, T_low_B, tau...]``
        and upper unstretched lengths (L01, L02): elastic upper groups,
        commanded lower groups, and the free joints' torques ``u[..., 2:]``.
        Broadcasts over leading axes of u and the lengths."""
        u = np.asarray(u, dtype=float)
        L0 = np.where(self._second, np.asarray(L02, dtype=float)[..., None],
                      np.asarray(L01, dtype=float)[..., None])
        return PlantLaw(k=np.where(self._elastic, self._ea / L0, 0.0),
                        c=np.where(self._elastic, -self._ea, u.take(self._input, axis=-1)),
                        tau=u[..., 2:])

    def f(self, x, law: PlantLaw):
        """State derivative under a :class:`PlantLaw`, the planar kernel;
        broadcasts over leading axes of x and of the law's arrays.

        With J stacking every body's COM-velocity rows (turned by P) and its
        angular rate ``turn @ [beta, free joints]'``, ``M = J^T diag(m, m)
        J + turn^T I_yy turn``, and gravity with the velocity term is ``J^T m
        (g e_z + a)`` for the COM accelerations ``a = -sum w^2 lever`` at zero
        accelerations of the coordinates.  Each cable pulls the platform back
        along its vector with tension ``k L + c`` at its length L.
        """
        x = np.asarray(x, dtype=float)
        k, c, tau = law
        shape, nl = x.shape[:-1], self._n_levers
        ang = x @ self._angles                          # column angles, lever rates
        phi = ang[..., None, :-nl]
        rot = np.cos(phi) * self._cols[0] + np.sin(phi) * self._cols[1]     # [R l; P R l]
        pts = np.add.accumulate(rot[..., 0:2, :nl], axis=-1)
        J = (pts @ self._to_J + self._J0).reshape(shape + (nl, -1))
        mJ = self._mass2 * J
        M = J.swapaxes(-1, -2) @ mJ + self._M_rot
        # -P a at the COMs, as a running sum of w^2 P R l
        cen = np.add.accumulate(ang[..., None, -nl:] ** 2 * rot[..., 2:4, :nl], axis=-1)[..., 0::2]
        rhs = ((cen - self._gravity).reshape(shape + (1, nl)) @ mJ)[..., 0, :]
        # cables: vectors anchor -> attachment and their moments (R r x vec)_y
        # = P R r . vec, each pulling the platform back along its vector
        vec = rot[..., 0:2, nl:] + (x[..., 0:3:2, None] - self._anchor)
        L = np.sqrt(np.add.reduce(vec * vec, axis=-2) + self._vy2)
        moment = np.add.reduce(rot[..., 2:4, nl:] * vec, axis=-2)
        lines = np.concatenate([vec, moment[..., None, :]], axis=-2)
        rhs[..., 0:3] -= (lines @ (k + c / L)[..., None])[..., 0]
        rhs[..., 3:] += tau
        out = np.empty(x.shape)
        out[..., 0::2] = x[..., 1::2]
        try:
            out[..., 1::2] = np.linalg.solve(M, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ConditioningError("planar mass matrix is singular") from None
        return out

    def f_inputs(self, x, u, L01, L02):
        """:meth:`f` under the :meth:`law` of ``u`` and (L01, L02), built per
        row: the ``plant(x, u, *exogenous)`` that :func:`linearize` takes."""
        return self.f(x, self.law(u, L01, L02))

    def record(self, x, u, L01, L02):
        """``(tensions, ke, ve, tip)`` at states x from one 3-D chain pass: the
        tensions of :meth:`law` for ``u`` and (L01, L02), kinetic and potential
        energy (elastic part over the length-commanded groups only) and the tip
        of :meth:`end_effector`.  Broadcasts over leading axes of x, u and lengths."""
        q, qd = self.embed(x)
        ke, ve, L, chain = dynamics._energy_terms(self.model, q, qd)
        ea = self.model.platform.axial_stiffness
        for idx, L0 in zip(self.pos_idx, (L01, L02)):
            L0 = np.asarray(L0, dtype=float)[..., None]
            ve = ve + 0.5 * np.sum(ea[idx] / L0 * (L[..., idx] - L0) ** 2, axis=-1)
        law = self.law(u, L01, L02)
        return law.k * L + law.c, ke, ve, self._tip(q, chain)

    def end_effector(self, x):
        """World (x, z) of the arm tip (platform position for an empty arm);
        broadcasts over leading axes of x.  Raises SingularityError at
        gimbal lock."""
        q, _ = self.embed(x)
        return self._tip(q, arm_chain(self.model, q))

    def _tip(self, q, chain):
        """:meth:`end_effector` from the :func:`arm_chain` pass at q."""
        if not self.model.arm:
            return q[..., [0, 2]]
        check_euler_regular(q[..., 3:6], self.model.euler_convention)
        return chain["p_joint"][..., -1, [0, 2]]


# ---------------------------------------------------------------------------
# Quintic reference trajectories


@dataclass(frozen=True)
class TrajectorySpec:
    """Piecewise-quintic reference: rest-to-rest blends between waypoints,
    built and checked by :func:`quintic_trajectory`."""

    times: np.ndarray            # (W,) strictly increasing, W >= 2
    positions: np.ndarray        # (W, 5) planar position coordinates

    def sample_pva(self, t):
        """Planar positions, velocities, accelerations at times t, any shape."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2)
        t0 = self.times[seg]
        t1 = self.times[seg + 1]
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        # rest-to-rest quintic blend: 10 s^3 - 15 s^4 + 6 s^5
        b = s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
        db = 30.0 * s**2 * (1.0 - s) ** 2 / (t1 - t0)
        ddb = (60.0 * s - 180.0 * s**2 + 120.0 * s**3) / (t1 - t0) ** 2
        p0 = self.positions[seg]
        dp = self.positions[seg + 1] - p0
        pos = p0 + b[..., None] * dp
        vel = db[..., None] * dp
        acc = ddb[..., None] * dp
        # clamp outside the time range: hold the boundary waypoint at rest
        before = t < self.times[0]
        after = t > self.times[-1]
        for m, w in ((before, 0), (after, -1)):
            if np.any(m):
                pos[m] = self.positions[w]
                vel[m] = 0.0
                acc[m] = 0.0
        if scalar:
            return pos[0], vel[0], acc[0]
        return pos, vel, acc

    def sample(self, t):
        """Full 10-state reference [pos, vel interleaved] at times t."""
        pos, vel, _ = self.sample_pva(t)
        out = np.empty(pos.shape[:-1] + (10,))
        out[..., 0::2] = pos
        out[..., 1::2] = vel
        return out


def quintic_trajectory(waypoints) -> TrajectorySpec:
    """Build a rest-to-rest quintic spline through (time, 10-state) waypoints.

    Waypoint velocity entries must be zero: segments blend between resting
    configurations with zero velocity and acceleration at every knot.
    """
    times = np.array([float(t) for t, _ in waypoints])
    states = np.array([np.asarray(x, dtype=float) for _, x in waypoints])
    if states.ndim != 2 or states.shape[1] != 10:
        raise ValueError("waypoints must carry 10-state vectors")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
        raise ValueError("waypoint times and states must be finite")
    if np.any(np.abs(states[:, 1::2]) > 0):
        raise ValueError("waypoint velocity entries must be zero (rest-to-rest blends)")
    if len(times) < 2:
        raise ValueError("need at least two waypoints")
    if np.any(np.diff(times) <= 0):
        raise ValueError("waypoint times must be strictly increasing")
    return TrajectorySpec(times=times, positions=states[:, 0::2])


def case_study_trajectory() -> TrajectorySpec:
    """Bundled pick-style reference: platform holds position while the arm
    raises joint 3 to 0.6 rad, then joint 2 to 0.8 rad, then both to 1.0 rad.

    The final segment's end time doubles as the undefined last-ramp time
    reference (documented assumption), giving 1.0 rad end values.
    """
    base = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]

    def wp(th2, th3):
        x = list(base)
        x[6] = th2
        x[8] = th3
        return x

    return quintic_trajectory(
        [
            (0.0, wp(0.0, 0.0)),
            (1.0, wp(0.0, 0.0)),
            (3.0, wp(0.0, 0.6)),
            (5.0, wp(0.8, 0.6)),
            (6.0, wp(1.0, 1.0)),
        ]
    )


def rk4_step(f, x, inputs, dt):
    """Classical fourth-order step of ``f(x, *inputs)`` with the inputs held
    constant (zero-order hold); for the plant, ``inputs`` is ``(law,)``, a
    :class:`PlantLaw` built once for the period.

    ``dt`` is one step for every row of ``x`` or, for a stack of states, a
    (rows, 1) array of one step per row; each row equals its own scalar call.
    Every step must be finite and positive (ValueError).
    """
    if not (np.all((0 < dt) & (dt < np.inf)) if isinstance(dt, np.ndarray) else 0 < dt < np.inf):
        raise ValueError("dt must be finite and positive")
    k1 = f(x, *inputs)
    k2 = f(x + 0.5 * dt * k1, *inputs)
    k3 = f(x + 0.5 * dt * k2, *inputs)
    k4 = f(x + dt * k3, *inputs)
    x_next = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(x_next).all():
        raise DivergenceError("integration produced non-finite state")
    return x_next


HELD_TOL = 1e-8     # accepted error estimate (max norm) per held-input period
MAX_SUBSTEPS = 64   # most RK4 substeps one period may take, fixed or error-controlled


def rk4_held(f, x, inputs, Ts: float):
    """Integrate one period ``Ts`` with the inputs held, by RK4 step doubling
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).

    With x_n the state after n RK4 steps of ``Ts / n``, |x_2n - x_n|_inf / 15
    estimates the error of x_2n.  Starting at n = 1, n doubles until the
    estimate is at most ``HELD_TOL``, and x_2n is accepted: plain RK4 at 2n
    substeps.  The one-step solve and the first half step of the two-step
    solve run as one stacked call.  Returns ``(x_2n, 2n, estimate)``; raises
    DivergenceError when 2n would pass ``MAX_SUBSTEPS``.
    """
    pair = rk4_step(f, np.stack([x, x]), inputs, np.array([[Ts], [Ts / 2]]))
    coarse, fine, n = pair[0], rk4_step(f, pair[1], inputs, Ts / 2), 2
    while (err := float(np.max(np.abs(fine - coarse))) / 15.0) > HELD_TOL:
        if 2 * n > MAX_SUBSTEPS:
            raise DivergenceError(f"RK4 error estimate {err:.2e} above {HELD_TOL:.0e} "
                                  f"at {n} substeps")
        coarse, fine, n = fine, x, 2 * n
        for _ in range(n):
            fine = rk4_step(f, fine, inputs, Ts / n)
    return fine, n, err


# ---------------------------------------------------------------------------
# Reference schedules (Algorithm-1 style tension/length feedforward)

SCHEDULE_BLOCK = 64      # reference rows per optimize_tensions call
LINEARIZE_BLOCK = 4      # linearization points per linearize call (29 plant rows each)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first occurrence of each distinct row, in order, and
    each row's position among them; ``-0.0`` counts as ``0.0``."""
    seen: dict[bytes, int] = {}
    slot = np.array([seen.setdefault(r.tobytes(), len(seen)) for r in rows + 0.0], dtype=int)
    return np.unique(slot, return_index=True)[1], slot


def reference_schedule(model: RobotModel, plant: PlanarPlant, traj: TrajectorySpec,
                       times) -> dict:
    """Feedforward along the reference: optimal lower tensions, upper
    unstretched lengths, and joint torques at each controller period.

    The distinct reference rows of the coordinates ``model`` has (the
    trajectory holds repeat one row) are optimized once each, in
    first-occurrence order, by one :func:`optimize_tensions` call per block
    of ``SCHEDULE_BLOCK`` rows.  Besides ``x``, ``u`` and ``L0`` at each
    time, returns ``slot``, each time's index into those distinct rows.
    """
    times = np.asarray(times, dtype=float)
    n = len(plant._q_pos)
    rows = np.concatenate([planar[:, :n] for planar in traj.sample_pva(times)], axis=1)
    first, slot = _distinct_rows(rows)
    q, qd, qdd = (np.zeros((len(first), model.nq)) for _ in range(3))
    for i, full in enumerate((q, qd, qdd)):
        full[:, plant._q_pos] = rows[first, i * n:(i + 1) * n]
    joints = [6 + j for j in plant.free_joints]
    u, L0 = [np.zeros((0, 2 + len(joints)))], [np.zeros((0, 2))]
    for b in range(0, len(first), SCHEDULE_BLOCK):
        blk = slice(b, b + SCHEDULE_BLOCK)
        res = optimize_tensions(model, q[blk], qd[blk], qdd[blk])
        u.append(np.column_stack([res.scan_tensions[g] for g in plant.low_groups]
                                 + [res.tau_ref[:, joints]]))
        L0.append(np.column_stack([res.group_L0[g] for g in plant.pos_groups]))
    return {"x": traj.sample(times), "u": np.concatenate(u)[slot],
            "L0": np.concatenate(L0)[slot], "slot": slot}


# ---------------------------------------------------------------------------
# Closed-loop simulation


TRACE_CABLES = 12       # cable tensions a trace records, its columns T1..T12


@dataclass(frozen=True)
class SimTrace:
    """Uniformly sampled closed-loop record (one row per controller period)."""

    t: np.ndarray            # (K+1,)
    x: np.ndarray            # (K+1, 10)
    u: np.ndarray            # (K+1, 4) applied inputs (held on [t_k, t_{k+1}))
    tensions: np.ndarray     # (K+1, TRACE_CABLES)
    L0: np.ndarray           # (K+1, 2) upper-group unstretched lengths
    ke: np.ndarray
    ve: np.ndarray
    x_ref: np.ndarray        # (K+1, 10)
    p_e: np.ndarray          # (K+1, 2) end-effector (x, z)
    p_e_ref: np.ndarray


def controller_params(architecture, controller: dict) -> tuple[MpcParams, PidGains]:
    """MPC parameters and joint PID gains from a scenario ``controller`` object.

    ``du_bound`` has one entry per input of ``architecture.mpc_size``.  Omitted
    fields take the defaults written here, the package's one copy of them
    (see the README's scenario schema).  An unknown field is a
    ModelParseError; a value of the wrong JSON type or an unusable setting
    is a ScenarioError.
    """
    arch = Architecture(architecture)
    p = arch.mpc_size[1]
    controller = _object(controller, "$.controller", ("Ts_s", "Np", "Nc", "Q_scale", "R_scale",
                                                      "P_scale", "du_bound", "pid"))
    pid = _field(controller, "pid", "$.controller", ("Kp", "Ki", "Kd"), {})

    def mpc(key, kind, default):
        return _field(controller, key, "$.controller", kind, default, ScenarioError)

    def gain(key, default):
        return _field(pid, key, "$.controller.pid", "number", default, ScenarioError)

    du = np.asarray(mpc("du_bound", "numeric", [80.0, 80.0, 2.0, 2.0][:p]), dtype=float)
    if du.shape != (p,):
        raise ScenarioError(f"du_bound must have {p} entries for {arch.value}")
    try:
        params = MpcParams(
            Ts=mpc("Ts_s", "number", 0.01),
            Np=mpc("Np", "whole", 50),
            Nc=mpc("Nc", "whole", 50),
            Q_scale=mpc("Q_scale", "number", 1.0),
            R_scale=mpc("R_scale", "number", 1e-4),
            P_scale=mpc("P_scale", "number", 1.0),
            du_bound=du,
        )
        gains = PidGains(Kp=gain("Kp", 400.0), Ki=gain("Ki", 100.0), Kd=gain("Kd", 10.0))
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid controller settings: {exc}") from None
    return params, gains


_SCENARIO_FIELDS = ("model", "architecture", "trajectory", "t_end_s", "seed", "noise_std",
                    "controller", "integrator_substeps")


def _build_trajectory(ref) -> TrajectorySpec:
    """The reference a scenario's ``trajectory`` names: ``"case_study"`` or
    ``{"waypoints": [[t, state10], ...]}``, each time a number and each
    state 10 numbers (ScenarioError naming the first waypoint that is not)."""
    if ref == "case_study":
        return case_study_trajectory()
    if not isinstance(ref, dict):
        raise ScenarioError("trajectory must be 'case_study' or "
                            "{'waypoints': [[t, state10], ...]}")
    waypoints = []
    for i, wp in enumerate(_field(_object(ref, "$.trajectory", ("waypoints",)), "waypoints",
                                  "$.trajectory", "array", error=ScenarioError), start=1):
        try:
            t, x = wp
            state = _number_array(x)
            waypoints.append((_number(t), _check(state.shape == (10,), state)))
        except (TypeError, ValueError):
            raise ScenarioError(f"$.trajectory.waypoints[{i}]: expected [time, state] with a "
                                "number time and a state of 10 numbers") from None
    try:
        return quintic_trajectory(waypoints)
    except ValueError as exc:
        raise ScenarioError(f"$.trajectory.waypoints: {exc}") from None


def _resolve(doc: dict) -> tuple[dict, Architecture, int, TrajectorySpec, MpcParams, PidGains]:
    """The resolved scenario (:func:`resolve_scenario`) with the architecture,
    period count, trajectory, MPC parameters and PID gains it names."""
    doc = _object(doc, "$", _SCENARIO_FIELDS)

    def value(key, kind, default):
        return _field(doc, key, "$", kind, default, ScenarioError)

    cfg = {
        "model": _field(doc, "model", "$", "string", "hcdr9dof"),
        "architecture": value("architecture", "string", "integrated2"),
        "trajectory": doc.get("trajectory", "case_study"),
        "t_end_s": value("t_end_s", "number", 6.0),
        "seed": value("seed", "whole", 0),
        "noise_std": value("noise_std", "numeric", 0.0),
        "controller": dict(_field(doc, "controller", "$", "object", {})),
        "integrator_substeps": value("integrator_substeps", "whole", None),
    }
    traj = _build_trajectory(cfg["trajectory"])
    try:
        arch = Architecture(cfg["architecture"])
    except ValueError:
        raise ScenarioError("architecture must be one of "
                            f"{tuple(a.value for a in Architecture)}") from None
    params, gains = controller_params(arch, cfg["controller"])
    if cfg["seed"] < 0:
        raise ScenarioError("seed must be non-negative")
    t_end, Ts = cfg["t_end_s"], params.Ts
    # the (periods, 10) float64 reference must have a byte size numpy can index
    if (t_end / Ts + 1 + params.Np) * 80 > np.iinfo(np.intp).max:
        raise ScenarioError(f"$.t_end_s: {t_end} s holds more controller periods "
                            f"({Ts} s) than an array can index")
    K = round(t_end / Ts) if t_end > 0 else 0
    if K < 1 or abs(K * Ts - t_end) > 1e-9 * t_end:
        raise ScenarioError(f"$.t_end_s: {t_end} s must be a positive whole number of "
                            f"controller periods ({Ts} s)")
    if cfg["integrator_substeps"] is None:
        cfg["integrator_substeps"] = arch.default_substeps
    elif not 1 <= cfg["integrator_substeps"] <= MAX_SUBSTEPS:
        raise ScenarioError(f"integrator_substeps must be from 1 to {MAX_SUBSTEPS}")
    noise = np.asarray(cfg["noise_std"], dtype=float)
    if noise.shape not in ((), (4,)) or not np.all(np.isfinite(noise) & (noise >= 0)):
        raise ScenarioError(
            "noise_std must be a non-negative number or a list of 4 finite non-negative entries"
        )
    return cfg, arch, K, traj, params, gains


def resolve_scenario(doc: dict) -> dict:
    """Fill scenario defaults and validate the fields, each error naming its
    JSON path; :func:`controller_params` reads and checks the controller
    and :func:`_build_trajectory` the trajectory.
    An omitted (or null) ``integrator_substeps`` takes the architecture's
    default, :attr:`Architecture.default_substeps`; a written one is at
    most ``MAX_SUBSTEPS``.  ``t_end_s`` must be a positive whole number of
    controller periods, no more than an array can index.  A resolved
    scenario resolves to itself."""
    return _resolve(doc)[0]


@dataclass(frozen=True)
class RunSetup:
    """What a closed-loop run fixes before its first period (:func:`setup_run`)."""

    arch: Architecture
    plant: PlanarPlant           # the simulated plant, always the coupled system
    periods: int                 # K
    x_ref: np.ndarray            # (K+1+Np, 10) reference at the period times, and
    u_ref: np.ndarray            # (K+1+Np, p_d) its feedforward inputs, ...
    L0: np.ndarray               # (K+1+Np, 2) upper unstretched lengths and ...
    slot: np.ndarray             # (K+1+Np,) distinct rows, scheduled on the design model
    table: list                  # per slot of periods 0..K-1, the design plant's (A, B)
    mpc: MpcParams
    pid: PidGains
    substeps: int | None         # RK4 substeps per period; None: error-controlled
    refs: np.ndarray | None      # (K, substeps, 4) PID joint reference; None: no PID
    noise_std: np.ndarray        # (4,) input noise per channel


@dataclass
class RunState:
    """What a closed-loop run carries from one period to the next."""

    x: np.ndarray                # (10,) plant state
    x_prev: np.ndarray           # (s,) MPC states at the last period's start
    u_prev: np.ndarray           # (p,) the MPC's last input, before noise
    rng: np.random.Generator     # input noise
    integral: np.ndarray | None = None      # the PID's integral and last error
    e_prev: np.ndarray | None = None
    design: control.MpcDesign | None = None     # the live MPC design
    u: np.ndarray | None = None  # (4,) the input applied over the last substep


def setup_run(model: RobotModel, scenario: dict) -> tuple[RunSetup, RunState]:
    """The set-up of a scenario document's run on ``model`` and its state
    before the first period.  The scenario is resolved and checked first;
    its ``model`` field, which the command line resolves, is not read."""
    cfg, arch, K, traj, mpc_params, pid_gains = _resolve(scenario)
    substeps = cfg["integrator_substeps"]
    plant = PlanarPlant(model)
    if plant.n_states != 10:
        raise ValidationError("closed-loop simulation expects the 10-state planar plant")
    if model.n_cables != TRACE_CABLES:
        raise ValidationError(f"closed-loop simulation records {TRACE_CABLES} cable tensions; "
                              f"the model has {model.n_cables} cables")
    (s, p), Ts = arch.mpc_size, mpc_params.Ts
    model_d = arch.design_model(model)
    plant_d = plant if model_d is model else PlanarPlant(model_d)
    sched = reference_schedule(model_d, plant_d, traj, np.arange(K + 1 + mpc_params.Np) * Ts)
    x_ref, u_ref, L0_ref, slot = sched["x"], sched["u"], sched["L0"], sched["slot"]
    # One linearization of the design plant per slot of periods 0..K-1 (slots
    # are numbered by first occurrence, so 0..max), cut to the MPC's size.
    x_d, first = x_ref[:, :plant_d.n_states], np.unique(slot[:K], return_index=True)[1]
    table = []
    for b in range(0, len(first), LINEARIZE_BLOCK):
        rows = first[b:b + LINEARIZE_BLOCK]
        lin = linearize(plant_d.f_inputs, x_d[rows], u_ref[rows], tuple(L0_ref[rows].T))
        table += zip(lin.A[:, :s, :s], lin.B[:, :s, :p])
    state = RunState(x=x_ref[0], x_prev=x_ref[0, :s], u_prev=u_ref[0, :p],
                     rng=np.random.default_rng(cfg["seed"]))
    refs = None
    if p < plant.n_inputs:  # the joint reference at every substep time, and the PID's memory
        dt = Ts / substeps
        refs = traj.sample(np.arange(K)[:, None] * Ts + np.arange(substeps) * dt)[..., 6:10]
        state.integral, state.e_prev = np.zeros(2), refs[0, 0, 0::2] - state.x[6:10:2]
    noise_std = np.broadcast_to(np.asarray(cfg["noise_std"], dtype=float), (4,))
    return RunSetup(arch, plant, K, x_ref, u_ref, L0_ref, slot, table, mpc_params, pid_gains,
                    substeps, refs, noise_std), state


def run_period(run: RunSetup, state: RunState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``state`` over controller period k; return the trace row of
    the period's start: its state and the input applied from it.

    The MPC design is rebuilt when the slot differs from the last period's.
    The plant takes ``substeps`` RK4 steps, the joints outside the MPC on
    PID torques set at the start of each, or (no PID) one :func:`rk4_held`
    call.  The :class:`PlantLaw` is built once per period, the PID changing
    only its torques.  Input noise is zero-mean Gaussian, held per period.
    """
    (s, p), Ts, Np = run.arch.mpc_size, run.mpc.Ts, run.mpc.Np
    w = state.rng.normal(0.0, 1.0, 4) * run.noise_std
    if k == 0 or run.slot[k] != run.slot[k - 1]:
        state.design = control.mpc_design(*run.table[run.slot[k]], run.mpc)
    state.u_prev = control.mpc_step(state.design, state.x[:s], state.x_prev, state.u_prev,
                                    run.x_ref[k:k + Np + 1, :s], run.u_ref[k:k + Np + 1, :p])
    state.x_prev = state.x[:s]
    u = state.u_prev + w[:p]
    law = run.plant.law(u, *run.L0[k])
    dt = None if run.substeps is None else Ts / run.substeps
    for n in range(run.substeps or 1):     # a held period: one rk4_held call
        if run.refs is not None:    # u holds the lower tensions only; the PID the torques
            tau, state.integral, state.e_prev = pid_step(
                run.refs[k, n] - state.x[6:10], state.integral, state.e_prev, run.pid, dt)
            law = PlantLaw(law.k, law.c, tau + w[2:])
        if n == 0:
            row = state.x, np.concatenate([u[:2], law.tau])
        state.x = (rk4_held(run.plant.f, state.x, (law,), Ts)[0] if dt is None
                   else rk4_step(run.plant.f, state.x, (law,), dt))
    state.u = np.concatenate([u[:2], law.tau])
    return row


def simulate(model: RobotModel, scenario: dict) -> SimTrace:
    """Run a scenario document on ``model``: :func:`setup_run`, then one
    :func:`run_period` per controller period, whose rows and the final state
    make the trace.  An error in period k is re-raised as its class,
    prefixed ``period k (t = ... s)``."""
    run, state = setup_run(model, scenario)
    K, Ts, plant = run.periods, run.mpc.Ts, run.plant
    rows = []
    try:
        for k in range(K):
            rows.append(run_period(run, state, k))
    except CableRobotError as exc:
        raise type(exc)(f"period {k} (t = {k * Ts:.2f} s): {exc}") from None
    rows.append((state.x, state.u))

    X, U = (np.array(col) for col in zip(*rows))
    L0, x_ref = run.L0[:K + 1], run.x_ref[:K + 1]
    # One record call per block of 64 rows: a whole-run batch would hold
    # about 10 kB of dynamics temporaries per row at once.
    blocks = [plant.record(X[b], U[b], L0[b, 0], L0[b, 1])
              for b in (slice(i, i + 64) for i in range(0, K + 1, 64))]
    tensions, ke, ve, p_e = (np.concatenate(col) for col in zip(*blocks))
    return SimTrace(t=np.arange(K + 1) * Ts, x=X, u=U, tensions=tensions, L0=L0, ke=ke, ve=ve,
                    x_ref=x_ref, p_e=p_e, p_e_ref=plant.end_effector(x_ref))


def config_digest(config: dict) -> str:
    """Stable hash of a scenario configuration (sorted-key JSON, sha256)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
