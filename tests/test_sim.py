from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from cablearm import cli, control, dynamics, sim
from cablearm.dynamics import forward_dynamics, inverse_dynamics
from cablearm.errors import (
    DivergenceError,
    IterationLimitError,
    ReductionError,
    ScenarioError,
    SingularityError,
)
from cablearm.kinematics import cable_geometry
from cablearm.model import builtin_hcdr9dof
from cablearm.sim import (
    Architecture,
    PlanarPlant,
    case_study_trajectory,
    controller_params,
    quintic_trajectory,
    reference_schedule,
    rk4_held,
    rk4_step,
    run_period,
    setup_run,
    simulate,
)
from cablearm.stiffness import optimize_tensions
from oracles import elastic_law, link_kinematics


def _with_link(model, j, **change):
    """``model`` with arm link j's fields replaced."""
    arm = list(model.arm)
    arm[j] = replace(arm[j], **change)
    return replace(model, arm=tuple(arm))


@st.composite
def planar_variants(draw):
    """Models derived from the bundled one that PlanarPlant accepts: link
    masses, an xz inertia product on every body, joint, COM and mount
    offsets in the x-z plane, except that the last link's joint offset,
    which places only the tip, also gets a y component; each joint about Y
    (free) or Z (held), any Euler convention, and one EA per mirror pair of
    cables (cable i and cable i + 6)."""
    hcdr = builtin_hcdr9dof()
    unit = st.floats(-1.0, 1.0)

    def xz_product(inertia):
        out = inertia.copy()
        out[0, 2] = out[2, 0] = 0.5 * draw(unit) * np.sqrt(out[0, 0] * out[2, 2])
        return out

    def in_plane(offset, y=0.0):
        return offset + 0.05 * np.array([draw(unit), y, draw(unit)])

    last = len(hcdr.arm) - 1
    arm = tuple(replace(link, mass=link.mass * draw(st.floats(0.5, 2.0)),
                        inertia=xz_product(link.inertia), joint_axis=draw(st.sampled_from("YZ")),
                        joint_offset=in_plane(link.joint_offset, draw(unit) if j == last else 0.0),
                        com_offset=in_plane(link.com_offset))
                for j, link in enumerate(hcdr.arm))
    ea = np.tile([draw(st.floats(50.0, 500.0)) for _ in range(6)], 2)
    platform = replace(hcdr.platform, inertia=xz_product(hcdr.platform.inertia),
                       axial_stiffness=ea)
    return replace(hcdr, arm=arm, platform=platform, mount_offset=in_plane(hcdr.mount_offset),
                   euler_convention=draw(st.sampled_from(("XYZ", "XZY", "YXZ", "YZX", "ZXY",
                                                          "ZYX"))))


@st.composite
def off_plane_variants(draw):
    """One change of each kind that takes a :func:`planar_variants` model
    out of the plane, as (model, the words of the ReductionError that names
    it, the planar model whose free joints embed its states): an xy or yz
    inertia product on one body; a y component in one link's COM offset or
    in a joint offset of a link before the last; one cable's world or body
    anchor moved off its mirror image; and, in place of one free joint, a
    joint about X or one that slides along y."""
    model = draw(planar_variants())
    m = len(model.arm)

    def size():
        return draw(st.floats(0.05, 0.3)) * draw(st.sampled_from((-1.0, 1.0)))

    body = draw(st.integers(0, m))
    a, b = draw(st.sampled_from(((0, 1), (1, 2))))
    inertia = model.bodies.inertia[body].copy()
    inertia[a, b] = inertia[b, a] = size() * np.sqrt(inertia[a, a] * inertia[b, b])
    tilted = (replace(model, platform=replace(model.platform, inertia=inertia)) if body == 0
              else _with_link(model, body - 1, inertia=inertia))
    j, field = draw(st.sampled_from([(j, "com_offset") for j in range(m)]
                                    + [(j, "joint_offset") for j in range(m - 1)]))
    lifted = _with_link(model, j, **{field: getattr(model.arm[j], field) + [0, 0.1 * size(), 0]})
    field = draw(st.sampled_from(("a_world", "r_body")))
    anchors = getattr(model.platform, field).copy()
    anchors[draw(st.integers(0, model.n_cables - 1)), draw(st.integers(0, 2))] += 0.1 * size()
    moved = replace(model, platform=replace(model.platform, **{field: anchors}))
    j = draw(st.integers(0, m - 1))
    free = _with_link(model, j, joint_axis="Y")
    return [(tilted, "xy and yz products", model), (lifted, "no y component", model),
            (moved, "mirror", model), (_with_link(free, j, joint_axis="X"), "rotate about Y", free),
            (_with_link(free, j, joint_kind="prismatic"), "revolute", free)]


def _assert_kernel_matches_3d(model, rng, n_states):
    """On ``n_states`` random planar states, f under the inputs' law and
    under the all-elastic law gives the accelerations of the 3-D forward
    dynamics, whose out-of-plane accelerations vanish."""
    plant = PlanarPlant(model)
    L0 = cable_geometry(model, np.zeros(model.nq)).lengths * 0.9
    kc = model.platform.axial_stiffness / L0
    held = np.setdiff1d(np.arange(model.nq), plant._q_pos)
    for _ in range(n_states):
        x = rng.normal(0, 0.2, plant.n_states)
        u = np.concatenate([rng.uniform(10, 60, 2), rng.normal(0, 1, plant.n_inputs - 2)])
        L01, L02 = rng.uniform(0.8, 0.9, 2)
        q, qd = plant.embed(x)
        tau = np.zeros(model.n_arm)
        tau[list(plant.free_joints)] = u[2:]
        T = plant.record(x, u[:2], L01, L02)[0]
        T_elastic = kc * (cable_geometry(model, q).lengths - L0)
        for xdot, qdd in ((plant.f(x, plant.law(u, L01, L02)),
                           forward_dynamics(model, q, qd, T, tau)),
                          (plant.f(x, elastic_law(plant, L0)),
                           forward_dynamics(model, q, qd, T_elastic, np.zeros(model.n_arm)))):
            scale = np.max(np.abs(qdd))
            assert np.max(np.abs(qdd[held])) <= 1e-12 * scale
            assert np.array_equal(xdot[0::2], x[1::2])
            np.testing.assert_allclose(xdot[1::2], qdd[plant._q_pos], rtol=0,
                                       atol=1e-12 * scale)


class TestPlanarReduce:
    def test_dimensions(self, hcdr):
        plant = PlanarPlant(hcdr)
        assert plant.n_states == 10
        assert plant.n_inputs == 4
        assert plant.free_joints == (1, 2)

    def test_platform_only_dimensions(self, hcdr):
        plant = PlanarPlant(hcdr.platform_only())
        assert plant.n_states == 6
        assert plant.n_inputs == 2

    def test_rejects_asymmetric_layout(self, hcdr):
        a_world = hcdr.platform.a_world.copy()
        a_world[0] += [0, 0.01, 0]
        broken = replace(hcdr, platform=replace(hcdr.platform, a_world=a_world))
        with pytest.raises(ReductionError, match="mirror"):
            PlanarPlant(broken)

    @pytest.mark.parametrize("field", ["EA", "actuator group"])
    def test_rejects_mirror_cables_that_differ(self, hcdr, field):
        """Cable 1 and its mirror partner, cable 7, must share EA, and cable 2
        and cable 8 an actuator group: otherwise the 3-D dynamics leaves the
        plane."""
        if field == "EA":
            ea = hcdr.platform.axial_stiffness.copy()
            ea[0] = 200.0
            platform, pair = replace(hcdr.platform, axial_stiffness=ea), "1 and 7"
        else:
            groups = dict(hcdr.platform.actuator_groups)
            groups[1], groups[2] = (5, 6, 8, 12), (1, 2, 7, 11)
            platform, pair = replace(hcdr.platform, actuator_groups=groups), "2 and 8"
        with pytest.raises(ReductionError, match=f"mirror cables {pair} differ in {field}"):
            PlanarPlant(replace(hcdr, platform=platform))

    def test_rejects_x_axis_joint(self, hcdr):
        arm = (replace(hcdr.arm[0], joint_axis="X"),) + hcdr.arm[1:]
        with pytest.raises(ReductionError):
            PlanarPlant(replace(hcdr, arm=arm))

    @pytest.mark.parametrize("body, entry", [(0, (0, 1)), (2, (1, 2))])
    def test_rejects_out_of_plane_inertia_products(self, hcdr, body, entry):
        """An xy or yz product couples the plane to the out-of-plane axes."""
        inertia = np.diag([0.1, 0.2, 0.3])
        inertia[entry] = inertia[entry[::-1]] = 0.01
        if body == 0:
            model = replace(hcdr, platform=replace(hcdr.platform, inertia=inertia))
        else:
            arm = list(hcdr.arm)
            arm[body - 1] = replace(arm[body - 1], inertia=inertia)
            model = replace(hcdr, arm=tuple(arm))
        with pytest.raises(ReductionError, match="xy and yz products"):
            PlanarPlant(model)

    @pytest.mark.parametrize("field", ["joint_offset", "com_offset"])
    def test_rejects_out_of_plane_link_offsets(self, hcdr, field):
        link = hcdr.arm[1]
        arm = (hcdr.arm[0], replace(link, **{field: getattr(link, field) + [0, 0.01, 0]}),
               hcdr.arm[2])
        with pytest.raises(ReductionError, match="link 2.*no y component"):
            PlanarPlant(replace(hcdr, arm=arm))

    @staticmethod
    def _variant(hcdr):
        """A planar model unlike hcdr: a free joint after the held one, x
        offsets, xz inertia products and Euler convention ZYX."""
        def skewed(link, dx):
            inertia = link.inertia.copy()
            inertia[0, 2] = inertia[2, 0] = 0.02
            return replace(link, inertia=inertia, joint_offset=link.joint_offset + [dx, 0, 0],
                           com_offset=link.com_offset + [0.5 * dx, 0, 0.01])

        platform_inertia = hcdr.platform.inertia.copy()
        platform_inertia[0, 2] = platform_inertia[2, 0] = 0.005
        arm = (skewed(hcdr.arm[1], 0.03), skewed(hcdr.arm[0], -0.02), skewed(hcdr.arm[2], 0.05))
        return replace(hcdr, arm=arm, mount_offset=np.array([0.02, 0.0, 0.048]),
                       platform=replace(hcdr.platform, inertia=platform_inertia),
                       euler_convention="ZYX")

    @pytest.mark.parametrize("which", ["hcdr", "platform_only", "variant"])
    def test_kernel_matches_3d_forward_dynamics(self, hcdr, which):
        """60 random planar states of each hand-built model."""
        model = {"hcdr": hcdr, "platform_only": hcdr.platform_only(),
                 "variant": self._variant(hcdr)}[which]
        _assert_kernel_matches_3d(model, np.random.default_rng(7), 60)

    @given(planar_variants(), st.integers(0, 2**32 - 1))
    def test_kernel_matches_3d_forward_dynamics_on_generated_models(self, model, seed):
        """5 random planar states of each generated model, and a (2, 3) stack
        of states under one law: ``f`` and ``record`` are bit-equal row by row
        to the single-state calls, and ``record``'s tensions are the law's at
        the embedded state's cable lengths."""
        rng = np.random.default_rng(seed)
        _assert_kernel_matches_3d(model, rng, 5)
        plant = PlanarPlant(model)
        x = rng.normal(0, 0.2, (2, 3, plant.n_states))
        u = np.concatenate([rng.uniform(10, 60, 2), rng.normal(0, 1, plant.n_inputs - 2)])
        L0 = rng.uniform(0.8, 0.9, 2)
        law = plant.law(u, *L0)
        F = plant.f(x, law)
        stacked = plant.record(x, u[:2], *L0)
        for i in np.ndindex(2, 3):
            assert np.array_equal(F[i], plant.f(x[i], law))
            single = plant.record(x[i], u[:2], *L0)
            for got, want in zip(stacked, single):
                assert np.array_equal(got[i], want)
        L = cable_geometry(model, plant.embed(x)[0]).lengths
        assert np.array_equal(stacked[0], law.k * L + law.c)
        # the tip is the 3-D tip's x and z; its y is the last joint offset's
        tip = link_kinematics(model, *plant.embed(x[0, 0])).tip
        assert np.array_equal(plant.end_effector(x[0, 0]), tip[[0, 2]])
        assert np.isclose(tip[1], model.arm[-1].joint_offset[1], rtol=0, atol=1e-15)

    @given(off_plane_variants(), st.integers(0, 2**32 - 1))
    def test_rejects_generated_models_that_leave_the_plane(self, variants, seed):
        """Each generated off-plane model is refused, and the refusal is
        needed: at a random planar state with nonzero rates, under elastic
        tensions, its 3-D forward dynamics accelerates out of the plane."""
        rng = np.random.default_rng(seed)
        for model, words, base in variants:
            with pytest.raises(ReductionError, match=words):
                PlanarPlant(model)
            plant = PlanarPlant(base)
            held = np.setdiff1d(np.arange(model.nq), plant._q_pos)
            q, qd = plant.embed(rng.normal(0, 0.2, plant.n_states))
            L0 = cable_geometry(model, np.zeros(model.nq)).lengths * 0.9
            T = model.platform.axial_stiffness / L0 * (cable_geometry(model, q).lengths - L0)
            qdd = forward_dynamics(model, q, qd, T, np.zeros(model.n_arm))
            assert np.max(np.abs(qdd[held])) > 1e-9 * np.max(np.abs(qdd)), words

    def test_stacked_kernel_matches_3d_forward_dynamics(self, hcdr):
        """A (2, 3) stack with per-row lengths and inputs matches the 3-D
        forward dynamics row by row."""
        plant = PlanarPlant(hcdr)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 0.2, (2, 3, 10))
        u = np.concatenate([rng.uniform(10, 60, (2, 3, 2)), rng.normal(0, 1, (2, 3, 2))], axis=-1)
        L01, L02 = rng.uniform(0.8, 0.9, (2, 3)), rng.uniform(0.8, 0.9, (2, 3))
        F = plant.f(x, plant.law(u, L01, L02))
        for i in np.ndindex(2, 3):
            q, qd = plant.embed(x[i])
            T = plant.record(x[i], u[i][:2], L01[i], L02[i])[0]
            qdd = forward_dynamics(hcdr, q, qd, T, np.array([0.0, *u[i][2:]]))
            np.testing.assert_allclose(F[i][1::2], qdd[plant._q_pos], rtol=0,
                                       atol=1e-12 * np.max(np.abs(qdd)))

    def test_out_of_plane_accelerations_vanish(self, hcdr, rng):
        """Planar inputs on the full 3-D model leave the plane invariant."""
        plant = PlanarPlant(hcdr)
        for _ in range(5):
            x = rng.normal(0, 0.1, 10)
            u = np.array([*rng.uniform(10, 60, 2), *rng.normal(0, 1, 2)])
            q, qd = plant.embed(x)
            T = plant.record(x, u[:2], 0.85, 0.82)[0]
            qdd = forward_dynamics(hcdr, q, qd, T, np.array([0.0, u[2], u[3]]))
            assert np.max(np.abs(qdd[[1, 3, 5, 6]])) <= 1e-9

    def test_matches_full_model(self, hcdr, rng):
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.1, 10)
        u = np.array([30.0, 35.0, 0.4, -0.2])
        q, qd = plant.embed(x)
        T = plant.record(x, u[:2], 0.85, 0.82)[0]
        qdd = forward_dynamics(hcdr, q, qd, T, np.array([0.0, u[2], u[3]]))
        xdot = plant.f(x, plant.law(u, 0.85, 0.82))
        assert np.allclose(xdot[1::2], qdd[[0, 2, 4, 7, 8]], atol=1e-12)

    def test_end_effector_batch_matches_link_kinematics(self, hcdr, rng):
        """Batched tips equal the single-state tips of link_kinematics."""
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.3, (2, 3, 10))
        tips = plant.end_effector(x)
        assert tips.shape == (2, 3, 2)
        for i in np.ndindex(2, 3):
            tip = link_kinematics(hcdr, *plant.embed(x[i])).tip
            assert np.array_equal(tips[i], tip[[0, 2]])
            assert np.array_equal(plant.end_effector(x[i]), tip[[0, 2]])
        x[1, 2, 4] = np.pi / 2
        with pytest.raises(SingularityError):
            plant.end_effector(x)
        with pytest.raises(SingularityError):
            plant.record(x, np.zeros(2), 0.85, 0.82)
        assert np.array_equal(PlanarPlant(hcdr.platform_only()).end_effector(x[..., :6]),
                              x[..., [0, 2]])

    def test_batched_tensions_and_energies_match_single_rows(self, hcdr, rng):
        """The trace's derived columns come from batched calls; every row
        equals the single-state call bit for bit."""
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.1, (6, 10)) + [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        u = rng.uniform(10, 60, (6, 2))
        L01, L02 = rng.uniform(0.8, 0.9, 6), rng.uniform(0.8, 0.9, 6)
        T, ke, ve, tip = plant.record(x, u, L01, L02)
        assert np.array_equal(tip, plant.end_effector(x))
        for i in range(6):
            T_i, ke_i, ve_i, tip_i = plant.record(x[i], u[i], L01[i], L02[i])
            assert np.array_equal(T[i], T_i)
            assert (ke[i], ve[i]) == (ke_i, ve_i)
            assert np.array_equal(tip[i], tip_i)

    def test_batched_derivative_matches_single_rows(self, hcdr, rng):
        """A (2, 3) stack of states with per-row lengths gives, row by row,
        the bits of the single-state derivative."""
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.1, (2, 3, 10)) + [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        u = np.concatenate([rng.uniform(10, 60, (2, 3, 2)), rng.normal(0, 1, (2, 3, 2))], axis=-1)
        L01, L02 = rng.uniform(0.8, 0.9, (2, 3)), rng.uniform(0.8, 0.9, (2, 3))
        F = plant.f(x, plant.law(u, L01, L02))
        assert F.shape == (2, 3, 10)
        for i, j in np.ndindex(2, 3):
            one = plant.f(x[i, j], plant.law(u[i, j], L01[i, j], L02[i, j]))
            assert F[i, j].tobytes() == one.tobytes()

    def test_law_tensions_equal_full_tensions(self, hcdr, rng):
        """At the cable lengths of a state, the law's tensions ``k L + c``
        equal the tensions of ``record`` and EA / L0 (L - L0) on the elastic upper
        groups, the commanded tension on the lower ones; the kernel's
        ``k + c / L`` is that tension over L."""
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.1, (4, 10)) + [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        u = np.concatenate([rng.uniform(10, 60, (4, 2)), rng.normal(0, 1, (4, 2))], axis=-1)
        L01, L02 = rng.uniform(0.8, 0.9, 4), rng.uniform(0.8, 0.9, 4)
        law = plant.law(u, L01, L02)
        L = cable_geometry(hcdr, plant.embed(x)[0]).lengths
        T = law.k * L + law.c
        np.testing.assert_allclose(T, plant.record(x, u, L01, L02)[0], rtol=1e-12)
        ea = hcdr.platform.axial_stiffness
        for i, (low, pos, L0) in enumerate(zip(plant.low_idx, plant.pos_idx, (L01, L02))):
            assert np.array_equal(T[:, low], np.repeat(u[:, i, None], len(low), axis=1))
            L0 = L0[:, None]
            np.testing.assert_allclose(T[:, pos], ea[pos] / L0 * (L[:, pos] - L0), rtol=1e-9)
        np.testing.assert_allclose((law.k + law.c / L) * L, T, rtol=1e-12)
        assert np.array_equal(law.tau, u[:, 2:])

    def test_law_built_once_equals_law_per_call(self, hcdr, rng):
        """RK4 steps under one law give the bits of steps that rebuild the
        law from the inputs at every derivative call."""
        plant = PlanarPlant(hcdr)
        x = np.array([0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]) + rng.normal(0, 0.01, 10)
        u = np.array([30.0, 35.0, 0.4, 0.2])
        once, per_call = x, x
        law = plant.law(u, 1.005, 1.01)
        for _ in range(5):
            once = rk4_step(plant.f, once, (law,), 0.001)
            per_call = rk4_step(plant.f_inputs, per_call, (u, 1.005, 1.01), 0.001)
        assert once.tobytes() == per_call.tobytes()

    def test_stacked_law_matches_single_rows(self, hcdr, rng):
        """The law of linearize's stencils, (points, stencil) inputs with
        (points, 1) lengths, gives row by row the law fields and the
        derivative bits of the single-row law."""
        plant = PlanarPlant(hcdr)
        x = rng.normal(0, 0.1, (2, 5, 10)) + [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        u = np.concatenate([rng.uniform(10, 60, (2, 5, 2)), rng.normal(0, 1, (2, 5, 2))], axis=-1)
        L01, L02 = rng.uniform(0.8, 0.9, (2, 1)), rng.uniform(0.8, 0.9, (2, 1))
        law = plant.law(u, L01, L02)
        F = plant.f(x, law)
        for i, j in np.ndindex(2, 5):
            one = plant.law(u[i, j], L01[i, 0], L02[i, 0])
            assert np.array_equal(law.k[i, 0], one.k) and np.array_equal(law.c[i, j], one.c)
            assert np.array_equal(law.tau[i, j], one.tau)
            assert F[i, j].tobytes() == plant.f(x[i, j], one).tobytes()

    def test_energies_share_kinetic_and_gravity_terms(self, hcdr, rng):
        """The planar energies equal the full-model ones once the force-
        commanded cables are given their current length as L0 (no stretch)."""
        from cablearm.dynamics import energies
        from cablearm.kinematics import cable_geometry

        plant = PlanarPlant(hcdr)
        for _ in range(3):
            x = rng.normal(0, 0.1, 10)
            q, qd = plant.embed(x)
            L0 = cable_geometry(hcdr, q).lengths.copy()
            for idx, L0_group in zip(plant.pos_idx, (0.85, 0.82)):
                L0[idx] = L0_group
            _, ke, ve, _ = plant.record(x, np.zeros(2), 0.85, 0.82)
            ke_full, ve_full = energies(hcdr, q, qd, L0)
            assert ke > 0.0
            assert np.isclose(ke, ke_full, rtol=1e-12)
            assert np.isclose(ve, ve_full, rtol=1e-12)

    def test_equilibrium_from_optimal_tensions(self, hcdr):
        plant = PlanarPlant(hcdr)
        q = np.zeros(9)
        q[0], q[2] = 0.05, 0.1
        res = optimize_tensions(hcdr, q)
        tau = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        x_eq = np.zeros(10)
        x_eq[0], x_eq[2] = 0.05, 0.1
        u_eq = np.array([res.scan_tensions[3], res.scan_tensions[4], tau[7], tau[8]])
        f = plant.f(x_eq, plant.law(u_eq, res.group_L0[1], res.group_L0[2]))
        assert np.linalg.norm(f) <= 1e-6


class TestQuintic:
    def test_constant_for_equal_waypoints(self):
        wp = [0.1, 0, 0.2, 0, 0, 0, 0.3, 0, 0.4, 0]
        traj = quintic_trajectory([(0.0, wp), (2.0, wp)])
        for t in (0.0, 0.7, 1.3, 2.0):
            assert np.allclose(traj.sample(t), wp)

    def test_knot_boundary_conditions(self):
        traj = case_study_trajectory()
        for t_knot in traj.times:
            pos, vel, acc = traj.sample_pva(t_knot)
            idx = np.flatnonzero(traj.times == t_knot)[0]
            assert np.max(np.abs(pos - traj.positions[idx])) <= 1e-12
            assert np.max(np.abs(vel)) <= 1e-9
            assert np.max(np.abs(acc)) <= 1e-9

    def test_case_study_values(self):
        traj = case_study_trajectory()
        assert np.isclose(traj.sample(3.0)[8], 0.6)    # third joint at t_B
        assert np.isclose(traj.sample(5.0)[6], 0.8)    # second joint at t_C
        assert np.isclose(traj.sample(6.0)[6], 1.0)
        assert np.isclose(traj.sample(6.0)[8], 1.0)
        x0 = traj.sample(1.0)
        assert np.allclose(x0[[0, 2]], [0.05, 0.1])

    def test_platform_reference_constant(self):
        traj = case_study_trajectory()
        xs = traj.sample(np.linspace(0, 6, 121))
        assert np.ptp(xs[:, 0]) == 0.0
        assert np.ptp(xs[:, 2]) == 0.0
        assert np.ptp(xs[:, 4]) == 0.0

    def test_hold_beyond_end(self):
        traj = case_study_trajectory()
        end = traj.sample(6.0)
        later = traj.sample(8.5)
        assert np.allclose(later, end)
        assert np.allclose(later[1::2], 0.0)

    def test_nonincreasing_times_rejected(self):
        wp = np.zeros(10)
        with pytest.raises(ValueError, match="increasing"):
            quintic_trajectory([(0.0, wp), (0.0, wp)])

    def test_nonzero_waypoint_velocity_rejected(self):
        wp = np.zeros(10)
        wp2 = np.zeros(10)
        wp2[1] = 0.5
        with pytest.raises(ValueError, match="velocity"):
            quintic_trajectory([(0.0, wp), (1.0, wp2)])


class TestRk4:
    def test_constant_state(self):
        def f(x):
            return np.zeros_like(x)

        x = np.array([1.0, 2.0])
        assert np.array_equal(rk4_step(f, x, (), 0.1), x)

    def test_linear_system_convergence_order(self):
        """Step-halving order estimate against the exact matrix exponential."""
        rng = np.random.default_rng(5)
        A = rng.normal(0, 1, (4, 4))
        x0 = rng.normal(0, 1, 4)

        def f(x):
            return x @ A.T

        errs = []
        for dt in (0.1, 0.05, 0.025):
            steps = int(round(1.0 / dt))
            x = x0.copy()
            for _ in range(steps):
                x = rk4_step(f, x, (), dt)
            exact = scipy.linalg.expm(A) @ x0
            errs.append(np.linalg.norm(x - exact))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 3.9

    def test_divergence_detected(self):
        def f(x):
            return np.full_like(x, np.inf)

        with pytest.raises(DivergenceError):
            rk4_step(f, np.zeros(2), (), 0.01)

    def test_per_row_dt_matches_scalar_calls(self, hcdr):
        """A stack of plant states with one step per row equals, row by row
        and bit for bit, the scalar-step call on each state."""
        plant = PlanarPlant(hcdr)
        rng = np.random.default_rng(11)
        x = np.array([0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]) + rng.normal(0, 0.01, (3, 10))
        inputs = (plant.law(np.array([30.0, 35.0, 0.4, 0.2]), 1.005, 1.01),)
        dt = np.array([[0.01], [0.005], [0.0025]])
        stacked = rk4_step(plant.f, x, inputs, dt)
        for i in range(3):
            assert stacked[i].tobytes() == rk4_step(plant.f, x[i], inputs, dt[i, 0]).tobytes(), i

    def test_nonpositive_row_dt_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rk4_step(lambda x: x, np.zeros((2, 1)), (), np.array([[0.1], [0.0]]))

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        """A NaN or infinite step is an input error, not a divergence."""
        with pytest.raises(ValueError, match="finite and positive"):
            rk4_step(lambda x: -x, np.ones(2), (), dt)
        with pytest.raises(ValueError, match="finite and positive"):
            rk4_step(lambda x: -x, np.ones((2, 1)), (), np.array([[0.1], [dt]]))
        with pytest.raises(ValueError, match="finite and positive"):
            rk4_held(lambda x: -x, np.ones(1), (), dt)


class TestRk4Held:
    @pytest.mark.parametrize("lam, n", [(-0.02, 2), (-0.5, 16), (-2.0, 64), (-5.0, 128)])
    def test_linear_ode_doubling_and_estimate(self, monkeypatch, lam, n):
        """On x' = lam x over Ts = 1 the loop doubles n as |lam Ts| grows,
        returns plain RK4 at its substep count, and its estimate is within
        10% of the exact error of the accepted state."""
        monkeypatch.setattr(sim, "MAX_SUBSTEPS", 256)

        def f(x):
            return lam * x

        x0 = np.array([1.0])
        x, substeps, estimate = rk4_held(f, x0, (), 1.0)
        assert substeps == n and estimate <= sim.HELD_TOL
        plain = x0
        for _ in range(n):
            plain = rk4_step(f, plain, (), 1.0 / n)
        assert x.tobytes() == plain.tobytes()
        exact_error = abs(x[0] - np.exp(lam))
        assert 0.9 * estimate <= exact_error <= 1.1 * estimate

    def test_cap_raises(self):
        """x' = -5x over Ts = 1 needs 128 substeps, past the cap of 64."""
        with pytest.raises(DivergenceError, match="at 64 substeps"):
            rk4_held(lambda x: -5.0 * x, np.array([1.0]), (), 1.0)

    def test_default_run_equals_two_substeps(self, hcdr):
        """Along the first 0.5 s of the case study every period accepts two
        substeps, so the error-controlled run is bit-identical to a fixed
        two-substep run."""
        held = simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.5})
        fixed = simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.5,
                                "integrator_substeps": 2})
        for name in ("x", "u", "tensions", "ke", "ve", "p_e"):
            assert getattr(held, name).tobytes() == getattr(fixed, name).tobytes(), name

    def test_too_small_tolerance_names_the_period(self, hcdr, monkeypatch):
        """From period 2 on the tolerance is 1e-30, which period 2 cannot
        meet within the cap; the error names that period and its start."""
        periods, held = iter(range(10)), sim.rk4_held

        def tightening(*args):
            if next(periods) == 2:
                monkeypatch.setattr(sim, "HELD_TOL", 1e-30)
            return held(*args)

        monkeypatch.setattr(sim, "rk4_held", tightening)
        with pytest.raises(DivergenceError,
                           match=r"period 2 \(t = 0.02 s\).*above 1e-30 at 64 substeps"):
            simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.1})


class TestFailureNamesThePeriod:
    """Every package error raised inside the closed loop is re-raised as the
    same class with the period and its start time in front."""

    def test_qp_failure(self, hcdr, monkeypatch):
        """The QP (one solve per period) gives up from period 2 on."""
        solves, solve = iter(range(10)), control.solve_qp_active_set

        def failing(*args, **kwargs):
            if next(solves) >= 2:
                raise IterationLimitError("active-set QP did not converge within 500 iterations")
            return solve(*args, **kwargs)

        monkeypatch.setattr(control, "solve_qp_active_set", failing)
        with pytest.raises(IterationLimitError,
                           match=r"^period 2 \(t = 0.02 s\): active-set QP did not converge"):
            simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.1})

    def test_fixed_substep_divergence(self, hcdr, monkeypatch):
        """The fixed-substep RK4 of the independent architecture diverges in
        the first substep of period 2."""
        substeps = Architecture.INDEPENDENT.default_substeps
        steps, step = iter(range(10 * substeps)), sim.rk4_step

        def diverging(*args):
            if next(steps) == 2 * substeps:
                raise DivergenceError("integration produced non-finite state")
            return step(*args)

        monkeypatch.setattr(sim, "rk4_step", diverging)
        with pytest.raises(DivergenceError,
                           match=r"^period 2 \(t = 0.02 s\): integration produced non-finite"):
            simulate(hcdr, {"architecture": "independent", "t_end_s": 0.1})


ZERO_WIDTH_BOX = (
    "ROADMAP item 7: with controller.du_bound [0, 0, 0, 0], a 0.6 s case_study_integrated2 "
    "run ends in IterationLimitError at period 51 (t = 0.51 s), although z = 0 is the only "
    "feasible increment; under a raised cap that QP needs 1043 passes (621 adds, 421 drops, "
    "279 re-adds) to return exactly 0")


@pytest.mark.xfail(strict=True, raises=IterationLimitError, reason=ZERO_WIDTH_BOX)
def test_zero_width_box_holds_the_input(hcdr):
    """A zero-width increment box leaves z = 0 as the only feasible
    increment, so every recorded MPC input equals the first."""
    doc = {**cli.load_scenario("case_study_integrated2"), "t_end_s": 0.52,
           "controller": {"du_bound": [0.0, 0.0, 0.0, 0.0]}}
    trace = simulate(hcdr, doc)
    assert np.all(trace.u == trace.u[0])


class TestEnergyDrift:
    def test_conservative_planar_run_short(self, hcdr):
        """Unforced all-elastic system conserves energy (short variant of the
        acceptance run)."""
        plant = PlanarPlant(hcdr)
        from cablearm.kinematics import cable_geometry

        L = cable_geometry(hcdr, np.zeros(9)).lengths
        L0 = L * 0.8
        law = elastic_law(plant, L0)
        x = np.zeros(10)
        x[0], x[2], x[6], x[8] = 0.01, 0.02, 0.3, 0.2

        def energy(x):
            q, qd = plant.embed(x)
            from cablearm.dynamics import energies

            ke, ve = energies(hcdr, q, qd, L0)
            return ke + ve

        e0 = energy(x)
        dt = 1e-4
        for _ in range(2000):
            x = rk4_step(plant.f, x, (law,), dt)
        assert abs(energy(x) - e0) / abs(e0) <= 1e-5


class TestReferenceSchedule:
    def test_feedforward_consistency(self, hcdr):
        plant = PlanarPlant(hcdr)
        traj = case_study_trajectory()
        times = np.array([0.0, 2.0, 4.0])
        sched = reference_schedule(hcdr, plant, traj, times)
        for k in range(3):
            x_r = sched["x"][k]
            u_r = sched["u"][k]
            L01, L02 = sched["L0"][k]
            pos, vel, acc = traj.sample_pva(times[k])
            xdot = plant.f(x_r, plant.law(u_r, L01, L02))
            # accelerations reproduce the reference accelerations
            assert np.max(np.abs(xdot[1::2] - acc)) <= 1e-6

    def test_cache_reuses_holds(self, hcdr):
        plant = PlanarPlant(hcdr)
        traj = case_study_trajectory()
        times = np.arange(0, 50) * 0.01     # all inside the initial hold
        sched = reference_schedule(hcdr, plant, traj, times)
        assert np.ptp(sched["u"], axis=0).max() == 0.0
        assert np.ptp(sched["L0"], axis=0).max() == 0.0

    def test_empty_times(self, hcdr):
        sched = reference_schedule(hcdr, PlanarPlant(hcdr), case_study_trajectory(), [])
        assert sched["u"].shape == (0, 4) and sched["L0"].shape == (0, 2)

    def test_distinct_rows_fold_negative_zero(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 1.0], [0.0, 1.0], [2.0, -0.0]])
        first, slot = sim._distinct_rows(rows)
        assert first.tolist() == [0, 2, 4]
        assert slot.tolist() == [0, 0, 1, 0, 2]

    @pytest.mark.parametrize("platform_only", [False, True])
    def test_blocks_match_the_per_row_path(self, hcdr, platform_only):
        """The schedule of the 6 s reference (651 periods, several blocks)
        equals one one-row optimization per period, bit for bit."""
        model = hcdr.platform_only() if platform_only else hcdr
        plant = PlanarPlant(model)
        traj = case_study_trajectory()
        times = np.arange(651) * 0.01
        sched = reference_schedule(model, plant, traj, times)
        pos, vel, acc = traj.sample_pva(times)
        n = len(plant._q_pos)
        memo = {}
        for k in range(len(times)):
            key = np.concatenate([pos[k, :n], vel[k, :n], acc[k, :n]]).tobytes()
            if key not in memo:   # equal inputs give equal bits; skip repeats
                q, qd, qdd = (np.zeros(model.nq) for _ in range(3))
                q[plant._q_pos], qd[plant._q_pos], qdd[plant._q_pos] = (
                    pos[k, :n], vel[k, :n], acc[k, :n])
                res = optimize_tensions(model, q, qd, qdd)
                memo[key] = (
                    [res.scan_tensions[g] for g in plant.low_groups]
                    + list(res.tau_ref[[6 + j for j in plant.free_joints]]),
                    [res.group_L0[g] for g in plant.pos_groups],
                )
            u, L0 = memo[key]
            assert sched["u"][k].tobytes() == np.array(u).tobytes(), k
            assert sched["L0"][k].tobytes() == np.array(L0).tobytes(), k

    def test_one_inverse_dynamics_per_new_row(self, hcdr, monkeypatch):
        """The arm torques come from the tension optimizer's own inverse
        dynamics, so each new row evaluates it once (the rows of one block
        go in one stacked call)."""
        rows = []
        real = dynamics.inverse_dynamics

        def counted(model, q, *args, **kwargs):
            rows.extend(np.reshape(q, (-1, model.nq)))
            return real(model, q, *args, **kwargs)

        monkeypatch.setattr(dynamics, "inverse_dynamics", counted)
        times = np.array([0.0, 1.5, 2.0, 2.5])    # the hold, then three ramp rows
        reference_schedule(hcdr, PlanarPlant(hcdr), case_study_trajectory(), times)
        assert len(rows) == 4


class TestSimulate:
    def test_regulation_at_equilibrium(self, hcdr):
        """Constant reference at a true equilibrium: state pinned over 6 s."""
        hold = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        trace = simulate(hcdr, {"architecture": "integrated1", "t_end_s": 6.0,
                                "trajectory": {"waypoints": [[0.0, hold], [6.0, hold]]}})
        assert np.max(np.abs(trace.x - trace.x_ref)) <= 1e-6

    def test_regulation_integrated2(self, hcdr):
        hold = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        trace = simulate(hcdr, {"architecture": "integrated2", "t_end_s": 1.0,
                                "trajectory": {"waypoints": [[0.0, hold], [1.0, hold]]}})
        assert np.max(np.abs(trace.x - trace.x_ref)) <= 1e-6

    def test_independent_cannot_remove_arm_gravity_sag(self, hcdr):
        """With the published weights the decoupled design leaves a
        persistent z offset of roughly the arm-weight deflection."""
        hold = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
        trace = simulate(hcdr, {"architecture": "independent", "t_end_s": 1.5,
                                "trajectory": {"waypoints": [[0.0, hold], [1.5, hold]]}})
        z_err = np.abs(trace.x[:, 2] - trace.x_ref[:, 2])
        x_err = np.abs(trace.x[:, 0] - trace.x_ref[:, 0])
        assert z_err[-1] > 5e-3
        assert z_err[-1] > 10 * x_err[-1]

    @pytest.mark.parametrize("arch", ["independent", "integrated2"])
    def test_stepping_by_hand_gives_the_trace(self, hcdr, arch):
        """setup_run and one run_period per period give simulate's rows; the
        last row is the state after the last period and its applied input."""
        doc = {"architecture": arch, "t_end_s": 0.1, "noise_std": 0.01, "seed": 3}
        run, state = setup_run(hcdr, doc)
        rows = [run_period(run, state, k) for k in range(run.periods)] + [(state.x, state.u)]
        trace = simulate(hcdr, doc)
        assert np.array_equal(np.array([x for x, _ in rows]), trace.x)
        assert np.array_equal(np.array([u for _, u in rows]), trace.u)

    def test_same_seed_identical_traces(self, hcdr):
        doc = {"architecture": "integrated2", "t_end_s": 0.3, "noise_std": 0.01, "seed": 13}
        t1 = simulate(hcdr, doc)
        t2 = simulate(hcdr, doc)
        for name in ("t", "x", "u", "tensions", "L0", "ke", "ve", "x_ref", "p_e"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name

    def test_different_seed_differs_with_noise(self, hcdr):
        doc = {"architecture": "integrated2", "t_end_s": 0.2, "noise_std": 0.05}
        t1 = simulate(hcdr, dict(doc, seed=1))
        t2 = simulate(hcdr, dict(doc, seed=2))
        assert not np.array_equal(t1.u, t2.u)

    def test_trace_alignment(self, hcdr):
        trace = simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.2})
        assert len(trace.t) == 21
        assert np.allclose(np.diff(trace.t), 0.01)
        for arr in (trace.x, trace.u, trace.tensions, trace.L0, trace.x_ref, trace.p_e):
            assert len(arr) == 21

    @pytest.mark.parametrize("arch", ["integrated2", "independent"])
    def test_one_law_per_period(self, hcdr, monkeypatch, arch):
        """The loop builds the plant law once per period (10 in 0.1 s), held
        over the step-doubling substeps and, under the PID, over its 10
        substeps; the linearization's stacked laws are not counted."""
        built, law = [], PlanarPlant.law

        def counted(self, u, L01, L02):
            if np.ndim(u) == 1:     # one state's input, not a stack of rows
                built.append(u)
            return law(self, u, L01, L02)

        monkeypatch.setattr(PlanarPlant, "law", counted)
        simulate(hcdr, {"architecture": arch, "t_end_s": 0.1})
        assert len(built) == 10

    def test_independent_schedules_only_the_design_model(self, hcdr, monkeypatch):
        """Every tension optimization runs on the platform-only model, once
        per distinct schedule row: the schedule of a 0.3 s run (0-0.8 s)
        lies in the hold, which is one row once -0.0 counts as 0.0."""
        rows = []
        real = sim.optimize_tensions

        def counted(model, q, qd, qdd, **kwargs):
            assert model.n_arm == 0
            rows.extend(np.concatenate([q, qd, qdd], axis=-1))
            return real(model, q, qd, qdd, **kwargs)

        monkeypatch.setattr(sim, "optimize_tensions", counted)
        simulate(hcdr, {"architecture": "independent", "t_end_s": 0.3})
        assert len(rows) == 1

    def test_batched_pid_reference_matches_single_times(self):
        """The PID reference of a period's substeps comes from one sample
        call; its rows equal the single-time calls at all 600 periods of
        the case study, bit for bit."""
        traj = case_study_trajectory()
        Ts, substeps = 0.01, 10
        dt = Ts / substeps
        for k in range(600):
            refs = traj.sample(k * Ts + np.arange(substeps) * dt)
            for n in range(substeps):
                assert refs[n].tobytes() == traj.sample(k * Ts + n * dt).tobytes(), (k, n)

    def test_period_is_the_mpc_period(self, hcdr):
        trace = simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.2,
                                "controller": {"Ts_s": 0.02}})
        assert len(trace.t) == 11
        assert np.allclose(np.diff(trace.t), 0.02)
        assert len(trace.x) == len(trace.tensions) == 11

    @pytest.mark.parametrize("T_end", [0.305, 0.004, 0.0])
    def test_rejects_partial_periods(self, hcdr, monkeypatch, T_end):
        """t_end_s must be a positive whole number of periods, checked before
        the schedule is computed."""
        monkeypatch.setattr(sim, "reference_schedule", None)
        with pytest.raises(ScenarioError, match="whole number"):
            simulate(hcdr, {"architecture": "integrated2", "t_end_s": T_end})

    @pytest.mark.parametrize("substeps", [0, -1, 2.5, True, "2", 65])
    def test_rejects_bad_substeps(self, hcdr, monkeypatch, substeps):
        """integrator_substeps is null or a whole number from 1 to
        MAX_SUBSTEPS (64), checked before the schedule is computed."""
        monkeypatch.setattr(sim, "reference_schedule", None)
        with pytest.raises(ScenarioError, match="substeps"):
            simulate(hcdr, {"architecture": "integrated2", "t_end_s": 0.1,
                            "integrator_substeps": substeps})

    def test_default_substeps(self):
        assert Architecture("independent").default_substeps == 10
        assert Architecture("integrated1").default_substeps == 10
        assert Architecture("integrated2").default_substeps is None

    @pytest.mark.parametrize("arch, s, p", [
        ("independent", 6, 2), ("integrated1", 6, 2), ("integrated2", 10, 4),
    ])
    def test_controller_defaults(self, arch, s, p):
        params, gains = controller_params(arch, {})
        assert (params.Ts, params.Np, params.Nc) == (0.01, 50, 50)
        assert (params.Q_scale, params.R_scale, params.P_scale) == (1.0, 1e-4, 1.0)
        assert np.array_equal(params.du_bound, [80.0, 80.0, 2.0, 2.0][:p])
        assert (gains.Kp, gains.Ki, gains.Kd) == (400.0, 100.0, 10.0)

    def test_architecture_enum_round_trip(self):
        assert Architecture("independent") is Architecture.INDEPENDENT
        assert Architecture("integrated2").value == "integrated2"
