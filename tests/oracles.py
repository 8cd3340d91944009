"""Test oracles built on package code."""

from dataclasses import dataclass, field

import numpy as np

from cablearm.kinematics import check_euler_regular, velocity_jacobians
from cablearm.sim import PlantLaw


@dataclass(frozen=True)
class LinkKinematics:
    """Positions, rotations, and velocities of every arm link.

    ``p_joint[j]`` is the arm base for j=0 and the outboard end of link j
    (the next joint, or the tip for the last link) for j >= 1.  Angular
    velocities are expressed in each link's own frame and are identical
    for the link body and its outboard joint.
    """

    p_joint: np.ndarray     # (m+1, 3) world
    p_com: np.ndarray       # (m, 3) world
    rotations: np.ndarray   # (m+1, 3, 3): R_g^{a0} .. R_g^{am}
    v_com: np.ndarray       # (m, 3) world
    omega: np.ndarray       # (m, 3) link body frame
    tip: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tip", self.p_joint[-1])


def link_kinematics(model, q, qdot) -> LinkKinematics:
    """Positions, rotations, COM velocities, and body angular rates of the
    arm links of one state, from the package's geometric Jacobians.

    Raises SingularityError at gimbal lock.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    check_euler_regular(q[3:6], model.euler_convention)
    Jv, Jw, chain = velocity_jacobians(model, q)
    R_base = chain["R_gm"] @ model.mount_rotation
    return LinkKinematics(
        p_joint=chain["p_joint"][1:],
        p_com=chain["p_com"][1:],
        rotations=np.concatenate([R_base[None], chain["R_body"][1:]]),
        v_com=Jv[1:] @ qdot,
        omega=Jw[1:] @ qdot,
    )


def elastic_law(plant, L0) -> PlantLaw:
    """The :class:`PlantLaw` of the unforced conservative system: every cable
    elastic at the fixed unstretched lengths L0 (one per cable) and no joint
    torque, so that :func:`cablearm.dynamics.energies` at L0 is conserved."""
    ea = plant.model.platform.axial_stiffness
    return PlantLaw(k=ea / np.asarray(L0, dtype=float), c=-ea,
                    tau=np.zeros(len(plant.free_joints)))
