import numpy as np
import pytest
from hypothesis import given, strategies as st

from cablearm.errors import GeometryError, SingularityError
from cablearm.kinematics import (
    _cable_frames,
    arm_chain,
    cable_geometry,
    check_euler_regular,
    euler_frames,
    rotation,
    tension_wrench_matrix,
)
from cablearm.model import ArmLink
from oracles import link_kinematics

angles = st.floats(-1.2, 1.2)


def explicit_axis_rotation(axis, t):
    """Independent rotation-matrix construction for the oracle."""
    c, s = np.cos(t), np.sin(t)
    if axis == 0:
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def body_rate(euler, euler_rates, convention="XYZ"):
    """Body-frame angular velocity E(euler) @ rates, checked for gimbal lock."""
    check_euler_regular(euler, convention)
    return euler_frames(euler, convention)[2] @ np.asarray(euler_rates, dtype=float)


class TestRotation:
    def test_identity(self):
        assert np.array_equal(rotation([0, 0, 0], "XYZ"), np.eye(3))

    def test_single_axis_exact(self):
        R = rotation([np.pi / 2, 0, 0], "XYZ")
        assert np.allclose(R, explicit_axis_rotation(0, np.pi / 2), atol=1e-15)

    @given(a=angles, b=angles, g=angles)
    def test_matches_explicit_product(self, a, b, g):
        expected = (
            explicit_axis_rotation(0, a)
            @ explicit_axis_rotation(1, b)
            @ explicit_axis_rotation(2, g)
        )
        assert np.allclose(rotation([a, b, g], "XYZ"), expected, atol=1e-14)

    @given(a=angles, b=angles, g=angles)
    def test_zxy_convention(self, a, b, g):
        expected = (
            explicit_axis_rotation(2, g)
            @ explicit_axis_rotation(0, a)
            @ explicit_axis_rotation(1, b)
        )
        assert np.allclose(rotation([a, b, g], "ZXY"), expected, atol=1e-14)

    @given(a=angles, b=angles, g=angles)
    def test_orthonormal(self, a, b, g):
        R = rotation([a, b, g], "XYZ")
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(R), 1.0)


class TestCableGeometry:
    def test_home_pose_first_length(self, hcdr):
        geo = cable_geometry(hcdr, np.zeros(9))
        # hand arithmetic: [0.153-1.5, -0.065, 0.048-0.5]
        expected_vec = np.array([-1.347, -0.065, -0.452])
        assert np.allclose(geo.vectors[0], expected_vec, atol=1e-15)
        assert np.isclose(geo.lengths[0], np.linalg.norm(expected_vec))
        assert np.isclose(geo.lengths[0], 1.42230, atol=5e-6)

    @given(dx=st.floats(-0.2, 0.2))
    def test_translation_shifts_all_vectors(self, dx, hcdr):
        base = cable_geometry(hcdr, np.zeros(9))
        moved = cable_geometry(hcdr, np.r_[dx, np.zeros(8)])
        assert np.allclose(moved.vectors - base.vectors, [dx, 0, 0], atol=1e-14)

    def test_unit_norms(self, hcdr, rng):
        for _ in range(10):
            q = np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.2, 3), np.zeros(3)]
            geo = cable_geometry(hcdr, q)
            assert np.allclose(np.linalg.norm(geo.units, axis=1), 1.0, atol=1e-12)
            assert np.allclose(geo.units * geo.lengths[:, None], geo.vectors)

    def test_degenerate_cable_raises(self, hcdr):
        # place the platform so attachment 1 lands on its anchor
        collapsed = np.zeros(9)
        collapsed[0:3] = hcdr.platform.a_world[0] - hcdr.platform.r_body[0]
        near_gimbal = np.zeros(9)
        near_gimbal[4] = np.pi / 2 - 1e-9
        stack = np.zeros((3, 9))
        stack[1] = near_gimbal
        for q, error, match in ((collapsed, GeometryError, "cable 1"),
                                (near_gimbal, SingularityError, "middle Euler angle"),
                                (stack, SingularityError, "at row 1$")):
            with pytest.raises(error, match=match):
                cable_geometry(hcdr, q)


class TestDerivativePrimitives:
    """The primitives of the 3-D dynamics pass and the cable geometry return
    the bits of the numpy routines and the functions they stand in for."""

    def test_cable_lengths_are_np_norm(self, hcdr, rng):
        p = rng.normal(0, 0.1, (3, 4, 3))
        R = rotation(rng.normal(0, 0.3, (3, 4, 3)), "XYZ")
        for geo in (_cable_frames(hcdr, p, R), _cable_frames(hcdr, p[1, 2], R[1, 2])):
            assert geo.lengths.tobytes() == np.linalg.norm(geo.vectors, axis=-1).tobytes()

    @pytest.mark.parametrize("convention", ["XYZ", "ZXY", "YZX"])
    def test_arm_chain_frames_are_euler_frames(self, hcdr, rng, convention):
        """arm_chain builds the platform frames from one rotation call over
        all the axes; they equal euler_frames' for a stack and one state."""
        from dataclasses import replace

        model = replace(hcdr, euler_convention=convention)
        q = rng.normal(0, 0.4, (5, model.nq))
        for qi in (q, q[3]):
            chain = arm_chain(model, qi)
            R, W, _ = euler_frames(qi[..., 3:6], convention)
            assert chain["R_gm"].tobytes() == R.tobytes()
            assert chain["W_euler"].tobytes() == W.tobytes()


class TestStructureMatrix:
    def test_shape(self, hcdr):
        A = cable_geometry(hcdr, np.zeros(9)).structure
        assert A.shape == (6, 12)
        assert np.allclose(np.linalg.norm(A[0:3], axis=0), 1.0, atol=1e-12)

    def test_rate_identity_finite_difference(self, hcdr, rng):
        """Ldot = A^T [v; R omega_b] against direct length differencing."""
        for _ in range(5):
            q = np.r_[rng.normal(0, 0.05, 3), rng.normal(0, 0.1, 3), np.zeros(3)]
            v = rng.normal(0, 1, 3)
            om_b = rng.normal(0, 1, 3)
            R, _, e_rates = euler_frames(q[3:6], "XYZ")
            twist = np.concatenate([v, R @ om_b])
            rates = cable_geometry(hcdr, q).structure.T @ twist
            dt = 1e-6
            de = np.linalg.solve(e_rates, om_b)      # euler rates giving omega_b
            dq = np.r_[v, de, np.zeros(3)]
            fd = (cable_geometry(hcdr, q + dt * dq).lengths
                  - cable_geometry(hcdr, q - dt * dq).lengths) / (2 * dt)
            assert np.max(np.abs(rates - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_mirror_cables_sign_pattern(self, hcdr):
        """Cables 1 and 7 differ only by the y-sign flip of their mounts."""
        A = cable_geometry(hcdr, np.zeros(9)).structure
        signs = np.array([1, -1, 1, -1, 1, -1])
        assert np.allclose(A[:, 6], signs * A[:, 0], atol=1e-14)

    def test_wrench_matrix_is_negated(self, hcdr):
        q = np.r_[0.02, 0, 0.05, 0, 0.05, 0, np.zeros(3)]
        assert np.allclose(tension_wrench_matrix(hcdr, q), -cable_geometry(hcdr, q).structure)


class TestCableRates:
    def test_zero_twist(self, hcdr):
        rates = cable_geometry(hcdr, np.zeros(9)).structure.T @ np.zeros(6)
        assert np.array_equal(rates, np.zeros(12))

    def test_pure_vertical_translation(self, hcdr):
        geo = cable_geometry(hcdr, np.zeros(9))
        rates = geo.structure.T @ np.array([0, 0, 1, 0, 0, 0])
        assert np.allclose(rates, geo.units[:, 2], atol=1e-14)


class TestEulerRates:
    def test_aligned_axes(self):
        om = body_rate([0, 0, 0], [0.3, 0, 0])
        assert np.allclose(om, [0.3, 0, 0])

    @given(a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5), g=st.floats(-0.5, 0.5))
    def test_against_rotation_derivative(self, a, b, g):
        euler = np.array([a, b, g])
        rates = np.array([0.7, -0.4, 0.2])
        om = body_rate(euler, rates)
        dt = 1e-6
        R1 = rotation(euler + dt * rates, "XYZ")
        R0 = rotation(euler - dt * rates, "XYZ")
        Omega = rotation(euler, "XYZ").T @ ((R1 - R0) / (2 * dt))
        fd = np.array([Omega[2, 1], Omega[0, 2], Omega[1, 0]])
        assert np.max(np.abs(om - fd)) <= 1e-6

    def test_gimbal_lock_raises(self):
        with pytest.raises(SingularityError):
            body_rate([0, np.pi / 2, 0], [1, 0, 0])

    def test_zxy_singularity_is_middle_axis(self):
        # ZXY convention: the middle rotation is about X
        with pytest.raises(SingularityError):
            body_rate([np.pi / 2, 0, 0], [1, 0, 0], "ZXY")
        body_rate([0, np.pi / 2, 0], [1, 0, 0], "ZXY")  # regular here


class TestLinkKinematics:
    def test_joint1_position_at_zero(self, hcdr):
        lk = link_kinematics(hcdr, np.zeros(9), np.zeros(9))
        assert np.allclose(lk.p_joint[1], [0, 0, 0.148], atol=1e-15)
        assert np.allclose(lk.p_joint[0], [0, 0, 0.048], atol=1e-15)
        assert np.allclose(lk.tip, [0, 0, 0.348], atol=1e-15)

    def test_omega_from_platform_yaw_rate(self, hcdr):
        q = np.zeros(9)
        qd = np.zeros(9)
        qd[5] = 0.9                     # gamma rate only
        lk = link_kinematics(hcdr, q, qd)
        om = body_rate(q[3:6], qd[3:6])
        for j in range(3):
            R_chain = np.eye(3)
            for k in range(j + 1):
                R_chain = R_chain @ rotation_joint(hcdr.arm[k], q[6 + k])
            expected = R_chain.T @ om
            assert np.allclose(lk.omega[j], expected, atol=1e-14), j

    def test_third_link_closed_form(self, hcdr, rng):
        """Explicit chain formula for the last link's body angular velocity."""
        for _ in range(50):
            q = rng.normal(0, 0.4, 9)
            qd = rng.normal(0, 1.0, 9)
            lk = link_kinematics(hcdr, q, qd)
            om_m = body_rate(q[3:6], qd[3:6])
            Rz1 = explicit_axis_rotation(2, q[6])
            Ry2 = explicit_axis_rotation(1, q[7])
            Ry3 = explicit_axis_rotation(1, q[8])
            expected = (
                (Rz1 @ Ry2 @ Ry3).T @ (om_m + np.array([0, 0, qd[6]]))
                + (Ry2 @ Ry3).T @ np.array([0, qd[7], 0])
                + np.array([0, qd[8], 0])
            )
            assert np.max(np.abs(lk.omega[2] - expected)) <= 1e-10

    @given(seed=st.integers(0, 2**31))
    def test_omega_against_rotation_differencing(self, seed, hcdr):
        r = np.random.default_rng(seed)
        q = r.normal(0, 0.3, 9)
        qd = r.normal(0, 0.8, 9)
        lk = link_kinematics(hcdr, q, qd)
        dt = 1e-6
        lk1 = link_kinematics(hcdr, q + dt * qd, qd)
        lk0 = link_kinematics(hcdr, q - dt * qd, qd)
        for j in range(3):
            R = lk.rotations[j + 1]
            Omega = R.T @ (lk1.rotations[j + 1] - lk0.rotations[j + 1]) / (2 * dt)
            fd = np.array([Omega[2, 1], Omega[0, 2], Omega[1, 0]])
            assert np.max(np.abs(lk.omega[j] - fd)) <= 1e-6, j

    @given(seed=st.integers(0, 2**31))
    def test_velocity_against_position_differencing(self, seed, hcdr):
        r = np.random.default_rng(seed)
        q = r.normal(0, 0.3, 9)
        qd = r.normal(0, 0.8, 9)
        lk = link_kinematics(hcdr, q, qd)
        dt = 1e-6
        lk1 = link_kinematics(hcdr, q + dt * qd, qd)
        lk0 = link_kinematics(hcdr, q - dt * qd, qd)
        fd = (lk1.p_com - lk0.p_com) / (2 * dt)
        assert np.max(np.abs(lk.v_com - fd)) <= 1e-6

    def test_prismatic_joint(self, hcdr):
        """Prismatic link: no rotation, offsets shift along the declared axis."""
        from dataclasses import replace

        slider = ArmLink(
            mass=0.3,
            inertia=0.01 * np.eye(3),
            joint_kind="prismatic",
            joint_axis="Z",
            joint_offset=np.array([0.0, 0.0, 0.1]),
            com_offset=np.array([0.0, 0.0, 0.05]),
        )
        model = replace(hcdr, arm=(hcdr.arm[0], slider))
        q = np.zeros(8)
        lk0 = link_kinematics(model, q, np.zeros(8))
        q2 = q.copy()
        q2[7] = 0.2
        lk1 = link_kinematics(model, q2, np.zeros(8))
        assert np.allclose(lk1.p_joint[2] - lk0.p_joint[2], [0, 0, 0.2], atol=1e-15)
        assert np.allclose(lk1.rotations[2], lk0.rotations[2])
        qd = np.zeros(8)
        qd[7] = 1.0
        lk = link_kinematics(model, q, qd)
        assert np.allclose(lk.omega[1], 0.0, atol=1e-15)
        assert np.allclose(lk.v_com[1], [0, 0, 1.0], atol=1e-14)


def rotation_joint(link, theta):
    axis = {"X": 0, "Y": 1, "Z": 2}[link.joint_axis]
    return explicit_axis_rotation(axis, theta)

