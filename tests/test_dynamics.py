from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cablearm.dynamics import (
    _dynamics_core,
    dyn_terms,
    energies,
    forward_dynamics,
    hybrid_forward_dynamics_quadrotor,
    inverse_dynamics,
    mass_matrix,
    quadrotor_structure_matrix,
)
from cablearm.errors import ConditioningError
from cablearm.kinematics import (
    cable_geometry,
    euler_frames,
    rotation,
    tension_wrench_matrix,
)
from cablearm.model import ArmLink, builtin_quadrotor_arm
from cablearm.sim import PlanarPlant
from cablearm.stiffness import generalized_to_wrench
from oracles import link_kinematics


def random_state(rng, scale_q=0.3, scale_qd=0.8, n=9):
    return rng.normal(0, scale_q, n), rng.normal(0, scale_qd, n)


def coriolis_force(model, q, qdot):
    """The analytic velocity-product force h = C(q, qdot) qdot of the
    package's one dynamics pass."""
    return _dynamics_core(model, np.asarray(q, float), np.asarray(qdot, float))[2]




def recover_tensions(model, q, tau):
    """Invert the platform block of generalized forces into cable tensions."""
    R, _, E_b = euler_frames(q[3:6], model.euler_convention)
    E_w = R @ E_b
    wrench = np.concatenate([tau[0:3], np.linalg.solve(E_w.T, tau[3:6])])
    W = tension_wrench_matrix(model, q)
    return np.linalg.pinv(W) @ wrench


class TestEnergies:
    def test_zero_velocity_zero_kinetic(self, hcdr):
        ke, _ = energies(hcdr, np.zeros(9), np.zeros(9), np.full(12, 1.0))
        assert ke == 0.0

    def test_zero_potential_datum(self, hcdr):
        """Unstretched cables and all masses at z = 0 give V = 0."""
        flat = replace(
            hcdr,
            mount_offset=np.zeros(3),
            arm=tuple(
                replace(l, joint_offset=np.zeros(3), com_offset=np.zeros(3))
                for l in hcdr.arm
            ),
        )
        q = np.zeros(9)
        L = cable_geometry(flat, q).lengths
        ke, ve = energies(flat, q, np.zeros(9), L)
        assert ke == 0.0
        assert abs(ve) < 1e-12

    def test_elastic_term_by_direct_summation(self, hcdr):
        """Stationary platform with stretched upper cables: elastic part
        equals the per-cable sum computed independently."""
        q = np.zeros(9)
        L = cable_geometry(hcdr, q).lengths
        L0 = L.copy()
        upper = np.array([1, 2, 5, 6, 7, 8, 11, 12]) - 1
        L0[upper] = 1.005
        _, ve = energies(hcdr, q, np.zeros(9), L0)
        _, ve_grav = energies(hcdr, q, np.zeros(9), L)
        expected = sum(
            0.5 * (100.0 / 1.005) * (L[i] - 1.005) ** 2 for i in upper
        )
        assert np.isclose(ve - ve_grav, expected, rtol=1e-12)

    def test_kinetic_is_quadratic_form(self, hcdr, rng):
        q, qd = random_state(rng)
        ke, _ = energies(hcdr, q, qd, np.full(12, 1.0))
        assert np.isclose(ke, 0.5 * qd @ mass_matrix(hcdr, q) @ qd)


class TestDynTerms:
    def test_armless_platform_block(self, hcdr):
        model = hcdr.platform_only()
        terms = dyn_terms(model, np.zeros(6), np.zeros(6))
        assert np.allclose(terms.M[0:3, 0:3], 10.0 * np.eye(3), atol=1e-12)
        assert np.allclose(terms.M[0:3, 3:6], 0.0, atol=1e-12)

    def test_property1_oracle(self, hcdr, rng):
        """|Mdot - (C + C^T)| with Mdot by independent central differences."""
        for _ in range(10):
            q, qd = random_state(rng)
            terms = dyn_terms(hcdr, q, qd)
            h = 1e-6
            Mdot = (mass_matrix(hcdr, q + h * qd) - mass_matrix(hcdr, q - h * qd)) / (2 * h)
            err = np.linalg.norm(Mdot - (terms.C + terms.C.T))
            assert err <= 1e-5 * (1 + np.linalg.norm(Mdot))

    def test_mass_symmetry_and_positive_definite(self, hcdr, rng):
        Q = rng.normal(0, 0.25, (1000, 9))
        M = mass_matrix(hcdr, Q)
        assert np.max(np.abs(M - np.swapaxes(M, -1, -2))) <= 1e-10
        assert np.linalg.eigvalsh(M).min() > 0

    def test_gravity_per_link_oracle(self, hcdr):
        """Arm gravity terms equal g * sum_j m_j d(z_com_j)/dq by direct
        per-link differentiation; at rest the inverse dynamics is G alone."""
        q = np.zeros(9)
        G = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        h = 1e-7
        expected = np.zeros(9)
        expected[2] = hcdr.platform.mass * hcdr.gravity
        for i in range(9):
            e = np.zeros(9)
            e[i] = h
            z1 = link_kinematics(hcdr, q + e, np.zeros(9)).p_com[:, 2]
            z0 = link_kinematics(hcdr, q - e, np.zeros(9)).p_com[:, 2]
            expected[i] += hcdr.gravity * np.sum(
                [l.mass for l in hcdr.arm] * (z1 - z0) / (2 * h)
            )
        assert np.allclose(G, expected, atol=1e-6)

    def test_coriolis_vector_matches_full_matrix(self, hcdr, rng):
        q, qd = random_state(rng)
        terms = dyn_terms(hcdr, q, qd)
        assert np.allclose(coriolis_force(hcdr, q, qd), terms.C @ qd, atol=1e-8)


def _offset_prismatic_model(hcdr):
    """Off-centre, tilted arm mount with a prismatic middle joint."""
    slider = ArmLink(
        mass=0.3,
        inertia=np.diag([0.01, 0.02, 0.03]),
        joint_kind="prismatic",
        joint_axis="X",
        joint_offset=np.array([0.02, 0.0, 0.1]),
        com_offset=np.array([0.01, 0.01, 0.05]),
    )
    return replace(
        hcdr,
        mount_offset=np.array([0.03, -0.02, 0.048]),
        mount_rotation=rotation([0.1, -0.2, 0.3], "XYZ"),
        arm=(hcdr.arm[0], slider, hcdr.arm[2]),
    )


ORACLE_MODELS = {
    "zyx_convention": lambda hcdr: replace(hcdr, euler_convention="ZYX"),
    "prismatic_offset_mount": _offset_prismatic_model,
    "platform_only": lambda hcdr: hcdr.platform_only(),
    "quadrotor_arm": lambda hcdr: builtin_quadrotor_arm()[1],
}


class TestAnalyticCoriolisOracle:
    """The analytic velocity-product force against the Christoffel oracle,
    on models the bundled one does not exercise."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_christoffel_oracle(self, name, hcdr, rng):
        model = ORACLE_MODELS[name](hcdr)
        for _ in range(5):
            q, qd = random_state(rng, n=model.nq)
            terms = dyn_terms(model, q, qd)
            assert np.allclose(coriolis_force(model, q, qd), terms.C @ qd, atol=1e-8)

    def test_batched_rows_equal_single_rows(self, hcdr, rng):
        model = _offset_prismatic_model(hcdr)
        Q = rng.normal(0, 0.3, (6, model.nq))
        Qd = rng.normal(0, 0.8, (6, model.nq))
        batch = coriolis_force(model, Q, Qd)
        M_batch = mass_matrix(model, Q)
        for k in range(6):
            assert np.allclose(batch[k], coriolis_force(model, Q[k], Qd[k]), rtol=0, atol=1e-14)
            assert np.allclose(M_batch[k], mass_matrix(model, Q[k]), rtol=0, atol=1e-14)


class TestInverseForward:
    def test_static_platform_gravity_wrench(self, hcdr):
        model = hcdr.platform_only()
        tau = inverse_dynamics(model, np.zeros(6), np.zeros(6), np.zeros(6))
        expected = np.zeros(6)
        expected[2] = 10.0 * 9.81
        assert np.allclose(tau, expected, atol=1e-9)

    def test_disturbance_additivity(self, hcdr, rng):
        q, qd = random_state(rng)
        qdd = rng.normal(0, 1, 9)
        tau_d = rng.normal(0, 1, 9)
        base = inverse_dynamics(hcdr, q, qd, qdd)
        assert np.allclose(inverse_dynamics(hcdr, q, qd, qdd, tau_d), base + tau_d)

    def test_round_trip(self, hcdr, rng):
        for _ in range(30):
            q, qd = random_state(rng)
            qdd = rng.normal(0, 1, 9)
            tau = inverse_dynamics(hcdr, q, qd, qdd)
            T = recover_tensions(hcdr, q, tau)
            qdd2 = forward_dynamics(hcdr, q, qd, T, tau[6:9])
            assert np.linalg.norm(qdd2 - qdd) <= 1e-8 * max(1.0, np.linalg.norm(qdd))

    def test_equilibrium_inputs_give_zero_acceleration(self, hcdr):
        q = np.zeros(9)
        tau = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        T = recover_tensions(hcdr, q, tau)
        qdd = forward_dynamics(hcdr, q, np.zeros(9), T, tau[6:9])
        assert np.linalg.norm(qdd) <= 1e-9

    def test_free_fall(self, hcdr):
        model = hcdr.platform_only()
        qdd = forward_dynamics(model, np.zeros(6), np.zeros(6), np.zeros(12), np.zeros(0))
        expected = np.zeros(6)
        expected[2] = -9.81
        assert np.allclose(qdd, expected, atol=1e-9)

    def test_near_singular_inertia_raises(self, hcdr):
        model = hcdr.platform_only()
        q = np.zeros(6)
        q[4] = np.pi / 2 - 1e-5    # regular but catastrophically conditioned
        with pytest.raises(ConditioningError, match="condition number"):
            forward_dynamics(model, q, np.zeros(6), np.zeros(12), np.zeros(0))


class TestCableTensions:
    """The elastic law T = (EA / L0) (L - L0) of the plant's length-commanded
    cables (all upper cables share one length at the home pose)."""

    UPPER = np.array([1, 2, 5, 6, 7, 8, 11, 12]) - 1

    def test_unstretched_zero(self, hcdr):
        L = cable_geometry(hcdr, np.zeros(9)).lengths
        T = PlanarPlant(hcdr).record(np.zeros(10), np.zeros(2), L[0], L[4])[0]
        assert np.allclose(T, 0.0)

    def test_known_stretch_value(self, hcdr):
        """EA=100, L0=1.005, L=1.015 -> T = (100/1.005)*0.010."""
        L = cable_geometry(hcdr, np.zeros(9)).lengths
        L0 = L[0] - 0.010
        L0ref = 1.005
        T = PlanarPlant(hcdr).record(np.zeros(10), np.zeros(2), L0, L0)[0]
        assert np.allclose(T[self.UPPER], 100.0 / L0 * 0.010)
        assert np.isclose(100.0 / L0ref * 0.010, 0.9950248756218906)


class TestEnergyConsistency:
    def test_conservative_three_dimensional_run(self, hcdr):
        """Unforced elastic-suspension system conserves K + V over 0.5 s."""
        L0 = np.full(12, 1.3)
        tau_a = np.zeros(3)
        ea = hcdr.platform.axial_stiffness

        def f(x):
            q, qd = x[:9], x[9:]
            T = ea / L0 * (cable_geometry(hcdr, q).lengths - L0)
            return np.concatenate([qd, forward_dynamics(hcdr, q, qd, T, tau_a)])

        x = np.zeros(18)
        x[3:6] = [0.01, 0.02, -0.01]
        x[6:9] = [0.1, 0.2, -0.1]
        dt = 1e-3
        e0 = sum(energies(hcdr, x[:9], x[9:], L0))
        for _ in range(500):
            k1 = f(x)
            k2 = f(x + dt / 2 * k1)
            k3 = f(x + dt / 2 * k2)
            k4 = f(x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        e1 = sum(energies(hcdr, x[:9], x[9:], L0))
        assert abs(e1 - e0) / abs(e0) <= 1e-6


@pytest.fixture(scope="module")
def quad():
    return builtin_quadrotor_arm()


class TestQuadrotor:
    def test_reduced_matrix_level_pose(self, quad):
        params, body = quad
        A_tilde, A_full = quadrotor_structure_matrix(params, body, np.zeros(8))
        d, k = params.arm_length, params.moment_ratio
        expected = np.array(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [1, 1, 1, 1],
                [0, d, 0, -d],
                [-d, 0, d, 0],
                [k, -k, k, -k],
            ],
            dtype=float,
        )
        assert np.allclose(A_tilde, expected, atol=1e-15)
        assert A_full.shape == (6, 8)
        # moment columns carry the alternating drag signs along the thrust axis
        assert np.allclose(A_full[3:6, 4:8], np.outer([0, 0, 1], [1, -1, 1, -1]))

    def test_reduced_equals_full_with_drag_ratio(self, quad, rng):
        params, body = quad
        q = np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.2, 3), np.zeros(2)]
        A_tilde, A_full = quadrotor_structure_matrix(params, body, q)
        F = rng.uniform(0.5, 2.0, 4)
        M = params.moment_ratio * F
        full = A_full @ np.concatenate([F, M])
        assert np.allclose(A_tilde @ F, full, atol=1e-12)

    def test_tilted_pose_rotates_blocks(self, quad):
        params, body = quad
        euler = np.array([0.2, -0.1, 0.4])
        A_tilde, _ = quadrotor_structure_matrix(params, body, np.r_[np.zeros(3), euler, 0, 0])
        R = rotation(euler, "ZXY")
        level, _ = quadrotor_structure_matrix(params, body, np.zeros(8))
        assert np.allclose(A_tilde[0:3], R @ level[0:3], atol=1e-14)
        assert np.allclose(A_tilde[3:6], R @ level[3:6], atol=1e-14)

    def test_equal_thrusts_produce_no_moment(self, quad):
        params, body = quad
        A_tilde, _ = quadrotor_structure_matrix(params, body, np.r_[0, 0, 0, 0.1, 0.2, -0.3, 0, 0])
        for F in (0.5, 1.7):
            wrench = A_tilde @ np.full(4, F)
            assert np.allclose(wrench[3:6], 0.0, atol=1e-14)

    def test_hover_equilibrium(self, quad):
        params, body = quad
        total_mass = body.platform.mass + sum(l.mass for l in body.arm)
        F = np.full(4, total_mass * body.gravity / 4)
        qdd = hybrid_forward_dynamics_quadrotor(
            params, body, np.zeros(8), np.zeros(8), F, np.zeros(2)
        )
        assert np.linalg.norm(qdd) <= 1e-9

    def test_zero_thrust_free_fall(self, quad):
        params, body = quad
        body_only = replace(body, arm=())
        qdd = hybrid_forward_dynamics_quadrotor(
            params, body_only, np.zeros(6), np.zeros(6), np.zeros(4), np.zeros(0)
        )
        expected = np.zeros(6)
        expected[2] = -body.gravity
        assert np.allclose(qdd, expected, atol=1e-12)

    def test_round_trip_with_inverse_dynamics(self, quad, rng):
        params, body = quad
        for _ in range(10):
            q = rng.normal(0, 0.2, 8)
            qd = rng.normal(0, 0.5, 8)
            F = rng.uniform(0.3, 2.0, 4)
            tau_a = rng.normal(0, 0.1, 2)
            qdd = hybrid_forward_dynamics_quadrotor(params, body, q, qd, F, tau_a)
            tau = inverse_dynamics(body, q, qd, qdd)
            R, _, E_b = euler_frames(q[3:6], "ZXY")
            E_w = R @ E_b
            wrench = np.concatenate([tau[0:3], np.linalg.solve(E_w.T, tau[3:6])])
            A_tilde, _ = quadrotor_structure_matrix(params, body, q)
            F2 = np.linalg.lstsq(A_tilde, wrench, rcond=None)[0]
            assert np.linalg.norm(F2 - F) <= 1e-8 * max(1.0, np.linalg.norm(F))
            assert np.allclose(tau[6:], tau_a, atol=1e-8)


class TestWrenchMapping:
    @given(b=st.floats(-0.8, 0.8))
    def test_identity_at_zero_euler_and_planar_exactness(self, b, hcdr):
        euler = np.array([0.0, b, 0.0])
        gen = np.array([1.0, 2.0, 3.0, 0.4, 0.5, 0.6])
        wrench = generalized_to_wrench(hcdr, euler, gen)
        assert np.allclose(wrench[0:3], gen[0:3])
        # beta channel pairs exactly with the world y-moment in-plane
        assert np.isclose(wrench[4], gen[4], atol=1e-12)

    def test_power_pairing(self, hcdr, rng):
        """tau^T qdot equals wrench^T twist for consistent twists."""
        q, qd = random_state(rng)
        gen = rng.normal(0, 1, 6)
        wrench = generalized_to_wrench(hcdr, q[3:6], gen)
        R, _, E_b = euler_frames(q[3:6], hcdr.euler_convention)
        om_w = R @ E_b @ qd[3:6]
        twist_power = wrench[0:3] @ qd[0:3] + wrench[3:6] @ om_w
        assert np.isclose(gen @ qd[0:6], twist_power, rtol=1e-12)
