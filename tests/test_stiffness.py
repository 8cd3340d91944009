from collections import Counter

import numpy as np
import pytest
from dataclasses import replace

from cablearm import redundancy, sim, stiffness
from cablearm.dynamics import inverse_dynamics
from cablearm.errors import (
    GeometryError,
    InfeasibleError,
    SingularityError,
    ValidationError,
)
from cablearm.kinematics import cable_geometry, tension_wrench_matrix
from cablearm.model import builtin_hcdr9dof, model_from_dict, model_to_dict
from cablearm.sim import PlanarPlant, case_study_trajectory
from cablearm.stiffness import (
    generalized_to_wrench,
    objective_JK,
    optimize_tensions,
    position_controlled_cables,
    stiffness_Kk,
    stiffness_KT,
    stiffness_landscape,
)
from cablearm.redundancy import resolve

HOME = cable_geometry(builtin_hcdr9dof(), np.zeros(9))   # cable frames at the home pose
UPPER = (1, 2, 5, 6, 7, 8, 11, 12)


def reference_rows(model, times, traj=None):
    """(q, qdot, qddot) stacks of a reference (the case study's by default)
    at ``times``."""
    plant = PlanarPlant(model)
    traj = case_study_trajectory() if traj is None else traj
    pos, vel, acc = traj.sample_pva(np.asarray(times, dtype=float))
    rows = [np.zeros((len(times), model.nq)) for _ in range(3)]
    for full, planar in zip(rows, (pos, vel, acc)):
        full[:, plant._q_pos] = planar[:, :len(plant._q_pos)]
    return rows


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestKT:
    def test_zero_tension(self, hcdr):
        assert np.allclose(stiffness_KT(hcdr, HOME, np.zeros(12)), 0.0)

    def test_linearity(self, hcdr, rng):
        T1 = rng.uniform(5, 60, 12)
        T2 = rng.uniform(5, 60, 12)
        K1 = stiffness_KT(hcdr, HOME, T1)
        K2 = stiffness_KT(hcdr, HOME, T2)
        K12 = stiffness_KT(hcdr, HOME, T1 + T2)
        assert np.allclose(K12, K1 + K2, atol=1e-10)
        assert np.allclose(stiffness_KT(hcdr, HOME, 2 * T1), 2 * K1, atol=1e-10)


class TestKk:
    def test_empty_subset(self, hcdr):
        assert np.allclose(stiffness_Kk(hcdr, HOME, (), T=np.zeros(12)), 0.0)

    def test_full_subset_positive_semidefinite(self, hcdr):
        K = stiffness_Kk(hcdr, HOME, None, T=np.zeros(12))
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-10

    def test_doubling_stiffness_doubles_Kk(self, hcdr):
        stiff = replace(
            hcdr,
            platform=replace(hcdr.platform, axial_stiffness=2 * hcdr.platform.axial_stiffness),
        )
        L0 = np.full(12, 1.0)
        K1 = stiffness_Kk(hcdr, HOME, None, L0=L0)
        K2 = stiffness_Kk(stiff, HOME, None, L0=L0)
        assert np.allclose(K2, 2 * K1, atol=1e-10)

    @pytest.mark.parametrize("subset", [(1, 13), (0, 2)])
    def test_rejects_cable_index_outside_one_to_n(self, hcdr, subset):
        """Indices are 1-based: N + 1 (13) and 0 name no cable."""
        with pytest.raises(ValidationError, match="in 1..N"):
            stiffness_Kk(hcdr, HOME, subset, T=np.zeros(12))

    def test_coefficient_recovery_from_tension(self, hcdr):
        """K_k from tension equals K_k from L0 = EA L / (EA + T), the
        elastic law T = (EA / L0)(L - L0) solved for L0."""
        T = np.full(12, 20.0)
        ea = hcdr.platform.axial_stiffness
        L0 = ea * HOME.lengths / (ea + T)
        K_T = stiffness_Kk(hcdr, HOME, None, T=T)
        K_L0 = stiffness_Kk(hcdr, HOME, None, L0=L0)
        assert np.allclose(K_T, K_L0, rtol=1e-12)


class TestDefinitionOracle:
    def test_fd_of_cable_force_balance(self, hcdr):
        """K_T + K_k matches d(A_m K_c (L - L0))/dP at a consistent equilibrium."""
        res = optimize_tensions(hcdr, np.zeros(9))
        ea = hcdr.platform.axial_stiffness
        L0 = ea * HOME.lengths / (ea + res.T_opt)
        Kc = ea / L0

        def balance(dpose):
            geo = cable_geometry(hcdr, np.r_[dpose, np.zeros(3)])
            A = geo.structure
            L = geo.lengths
            return A @ (Kc * (L - L0))

        h = 1e-6
        K_fd = np.zeros((6, 6))
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            K_fd[:, i] = (balance(e) - balance(-e)) / (2 * h)
        K = stiffness_KT(hcdr, HOME, res.T_opt) + stiffness_Kk(hcdr, HOME, None, L0=L0)
        assert np.linalg.norm(K - K_fd) <= 1e-4 * np.linalg.norm(K_fd)


class TestStiffnessOfLambda:
    def test_affinity_identity(self, hcdr, rng):
        """K(l1+l2) - K(l1) - K(l2) + K(0) = 0 for the distribution
        T(l) = W^+ w + N_W l."""
        total = hcdr.platform.mass + sum(l.mass for l in hcdr.arm)
        w = np.array([0, 0, total * hcdr.gravity, 0, 0, 0])
        W = tension_wrench_matrix(hcdr, np.zeros(9))

        T_min_norm, N = resolve(W, w)

        def K(lam):
            T = T_min_norm + N @ lam
            return stiffness_KT(hcdr, HOME, T) + stiffness_Kk(hcdr, HOME, UPPER, T=T)

        for _ in range(5):
            l1 = rng.normal(0, 5, 6)
            l2 = rng.normal(0, 5, 6)
            K12 = K(l1 + l2)
            assert np.max(np.abs(K12 - K(l1) - K(l2) + K(np.zeros(6)))) <= 1e-10 * max(
                1, np.abs(K12).max())


class TestObjective:
    def test_identity_weight_is_eig_norm(self, rng):
        X = rng.normal(0, 1, (6, 6))
        K = X + X.T
        eigs = np.linalg.eigvalsh(K)
        assert np.isclose(objective_JK(K), np.sum(eigs**2))

    def test_zero_matrix(self):
        assert objective_JK(np.zeros((6, 6))) == 0.0

    def test_quadratic_scaling(self, rng):
        X = rng.normal(0, 1, (6, 6))
        K = X + X.T
        assert np.isclose(objective_JK(3 * K), 9 * objective_JK(K))


class TestLandscape:
    def test_monotone_positive_corner(self, hcdr):
        land = stiffness_landscape(hcdr, np.zeros(9), {1: 1.005, 2: 1.005}, resolution=20)
        J = land["J_K"]
        assert np.all(np.diff(J, axis=0) > 0)
        assert np.all(np.diff(J, axis=1) > 0)
        assert np.all(land["min_eig"] > 0)
        assert np.unravel_index(np.argmax(J), J.shape) == (19, 19)

    def test_matrix_matches_direct_assembly(self, hcdr):
        """Interpolated grid stiffness equals a from-scratch assembly."""
        land = stiffness_landscape(hcdr, np.zeros(9), {1: 1.005, 2: 1.005}, resolution=5)
        ta = land["axis_a"][3]
        tb = land["axis_b"][1]
        T = land["T_base"].copy()
        T[hcdr.platform.group_indices(3)] = ta
        T[hcdr.platform.group_indices(4)] = tb
        L0 = HOME.lengths.copy()
        upper = np.asarray(UPPER) - 1
        L0[upper] = 1.005
        K = stiffness_KT(hcdr, HOME, T) + stiffness_Kk(hcdr, HOME, UPPER, L0=L0)
        J_direct = objective_JK(K)
        assert np.isclose(J_direct, land["J_K"][3, 1], rtol=1e-12)

    def test_one_eigen_decomposition(self, hcdr, monkeypatch):
        """J_K and min_eig come from one eigenvalue pass over the grid."""
        calls = Counter()

        def counted(K):
            calls["eigvalsh"] += 1
            return eigvalsh(K)

        eigvalsh = stiffness._eigvalsh
        monkeypatch.setattr(stiffness, "_eigvalsh", counted)
        stiffness_landscape(hcdr, np.zeros(9), {1: 1.005, 2: 1.005}, resolution=5)
        assert calls["eigvalsh"] == 1

    def test_rejects_empty_grid(self, hcdr):
        with pytest.raises(ValidationError, match="resolution"):
            stiffness_landscape(hcdr, np.zeros(9), {1: 1.005, 2: 1.005}, resolution=0)

    def test_requires_lengths_for_position_groups(self, hcdr):
        with pytest.raises(ValidationError):
            stiffness_landscape(hcdr, np.zeros(9), {1: 1.005}, resolution=4)


class TestOptimizeTensions:
    def test_bounds_respected(self, hcdr):
        res = optimize_tensions(hcdr, np.zeros(9))
        assert res.T_opt.min() >= 5.0 - 1e-9
        assert res.T_opt.max() <= 80.0 + 1e-9
        assert res.is_stable

    def test_balances_reference_wrench(self, hcdr):
        from cablearm.stiffness import generalized_to_wrench
        from cablearm.dynamics import inverse_dynamics

        q = np.zeros(9)
        q[0], q[2], q[7] = 0.05, 0.1, 0.4
        res = optimize_tensions(hcdr, q)
        tau = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        w = generalized_to_wrench(hcdr, q[3:6], tau[0:6])
        W = tension_wrench_matrix(hcdr, q)
        assert np.linalg.norm(W @ res.T_opt - w) <= 1e-8 * (1 + np.linalg.norm(w))

    def test_infeasible_bounds(self, hcdr):
        narrow = replace(hcdr, platform=replace(
            hcdr.platform, tension_min=np.full(12, 5.0), tension_max=np.full(12, 6.0)
        ))
        with pytest.raises(InfeasibleError):
            optimize_tensions(narrow, np.zeros(9))

    def test_one_force_group_and_no_length_group(self, hcdr):
        """A model whose one actuator group holds all 12 cables, force
        commanded, leaves the balance no unknown but the scanned tension:
        the least-squares system has no column, and at the bundled pose no
        common tension balances the platform."""
        doc = model_to_dict(hcdr)
        doc["platform"]["actuator_groups"] = {"1": list(range(1, 13))}
        doc["platform"]["tension_controlled_groups"] = [1]
        model = model_from_dict(doc)
        assert model.platform.actuation_layout() == ((1,), ())
        with pytest.raises(InfeasibleError, match=r"no statically consistent tensions.*"
                                                  r"\(scanned group 1\)"):
            optimize_tensions(model, np.zeros(9))

    @pytest.mark.parametrize("t", [0.0, 1.5, 6.0])
    def test_matches_brute_force_scan(self, hcdr, t):
        """The chosen scan tension is the argmax of J_K over a scan that
        solves the balance per grid point by least squares and assembles K
        from the public functions.  The case-study reference at t = 0 s
        holds the home pose, at 1.5 s joint 3 accelerates (qddot != 0), at 6 s
        both joints are raised to 1 rad."""
        plant = PlanarPlant(hcdr)
        pos, vel, acc = case_study_trajectory().sample_pva(t)
        q, qd, qdd = (np.zeros(9) for _ in range(3))
        for full, planar in ((q, pos), (qd, vel), (qdd, acc)):
            full[plant._q_pos] = planar[:len(plant._q_pos)]
        res = optimize_tensions(hcdr, q, qd, qdd)

        p = hcdr.platform
        pose = cable_geometry(hcdr, q)
        tau = inverse_dynamics(hcdr, q, qd, qdd)
        w = generalized_to_wrench(hcdr, q[3:6], tau[0:6])
        W = tension_wrench_matrix(hcdr, q)
        L = pose.lengths
        lead, other = sorted(p.tension_controlled_groups)
        upper = [g for g in sorted(p.actuator_groups) if g not in (lead, other)]
        # unknowns: the other force-group tension, 1/L0 of each upper group
        A = np.column_stack(
            [W[:, p.group_indices(other)].sum(axis=1)]
            + [W[:, p.group_indices(g)] @ (p.axial_stiffness[p.group_indices(g)]
                                           * L[p.group_indices(g)]) for g in upper]
        )
        best_J, best_t = -np.inf, None
        for tl in np.linspace(5.0, 80.0, stiffness.SCAN_POINTS):
            rhs = w - tl * W[:, p.group_indices(lead)].sum(axis=1)
            for g in upper:
                rhs = rhs + W[:, p.group_indices(g)] @ p.axial_stiffness[p.group_indices(g)]
            xi = np.linalg.lstsq(A, rhs, rcond=None)[0]
            if np.linalg.norm(A @ xi - rhs) > 1e-7 * (1 + np.linalg.norm(w)) or np.any(xi[1:] <= 0):
                continue
            T = np.empty(12)
            T[p.group_indices(lead)] = tl
            T[p.group_indices(other)] = xi[0]
            for g, eta in zip(upper, xi[1:]):
                idx = p.group_indices(g)
                T[idx] = p.axial_stiffness[idx] * (L[idx] * eta - 1.0)
            if T.min() < 5.0 - 1e-9 or T.max() > 80.0 + 1e-9:
                continue
            J = objective_JK(stiffness_KT(hcdr, pose, T)
                             + stiffness_Kk(hcdr, pose, position_controlled_cables(hcdr), T=T))
            if J > best_J:
                best_J, best_t = J, tl
        assert best_t is not None
        assert np.isclose(res.scan_tensions[lead], best_t, rtol=0, atol=1e-9)
        assert np.isclose(res.J_K, best_J, rtol=1e-9)

    def test_scan_range_of_one_tension(self, hcdr):
        """A first force group pinned at Tmin == Tmax (its optimum here, 28 N)
        scans one tension and returns the bundled model's T_opt bit for bit."""
        q = np.zeros(9)
        q[0], q[2] = 0.05, 0.1
        res = optimize_tensions(hcdr, q)
        lead = min(hcdr.platform.tension_controlled_groups)
        idx = hcdr.platform.group_indices(lead)
        tmin, tmax = hcdr.platform.tension_min.copy(), hcdr.platform.tension_max.copy()
        tmin[idx] = tmax[idx] = res.scan_tensions[lead]
        pinned = replace(hcdr, platform=replace(hcdr.platform, tension_min=tmin, tension_max=tmax))
        got = optimize_tensions(pinned, q)
        assert bits(got.T_opt) == bits(res.T_opt)
        assert np.isclose(got.J_K, res.J_K, rtol=1e-12)

    def test_unstretched_lengths_shared_per_group(self, hcdr):
        res = optimize_tensions(hcdr, np.zeros(9))
        ea = hcdr.platform.axial_stiffness
        L0 = ea * HOME.lengths / (ea + res.T_opt)
        for g, l0 in res.group_L0.items():
            idx = hcdr.platform.group_indices(g)
            assert np.allclose(L0[idx], l0, atol=1e-9)

    def test_position_controlled_cables(self, hcdr):
        assert position_controlled_cables(hcdr) == UPPER


class TestBatchedOptimizer:
    """optimize_tensions over a stack of reference rows."""

    TIMES = [0.0, 0.5, 1.5, 2.0, 3.0, 5.5, 6.0]   # two hold rows, then ramps

    def test_block_call_matches_one_row_calls(self, hcdr):
        q, qd, qdd = reference_rows(hcdr, self.TIMES)
        block = optimize_tensions(hcdr, q, qd, qdd)
        for i in range(len(self.TIMES)):
            one = optimize_tensions(hcdr, q[i], qd[i], qdd[i])
            assert np.ndim(one.J_K) == 0 and np.ndim(one.is_stable) == 0
            for name in ("T_opt", "K", "eigs", "J_K", "lambda_opt", "tau_ref", "is_stable",
                         "sym_error"):
                assert bits(getattr(block, name)[i]) == bits(getattr(one, name)), name
            for name in ("group_L0", "scan_tensions"):
                per_row = getattr(one, name)
                assert all(np.ndim(v) == 0 for v in per_row.values())
                assert {g: bits(v[i]) for g, v in getattr(block, name).items()} == {
                    g: bits(v) for g, v in per_row.items()}, name

    def test_infeasible_row_is_named(self, hcdr):
        """With every cable at 30-80 N only the late rows of the reference
        are feasible: the block names its first infeasible row."""
        narrow = replace(hcdr, platform=replace(
            hcdr.platform, tension_min=np.full(12, 30.0), tension_max=np.full(12, 80.0)
        ))
        q, qd, qdd = reference_rows(hcdr, [6.0, 5.5, 1.5, 0.0])
        optimize_tensions(narrow, q[:2], qd[:2], qdd[:2])
        with pytest.raises(InfeasibleError, match="at row 2$"):
            optimize_tensions(narrow, q, qd, qdd)
        with pytest.raises(InfeasibleError, match=r"group 3\)$"):
            optimize_tensions(narrow, q[2], qd[2], qdd[2])

    def test_one_svd_and_one_K_assembly_per_call(self, hcdr, monkeypatch):
        """A block takes one SVD of its wrench-map stack and one K_T and one
        K_k call, at both scan ends together; K at the optimum comes from
        the line between them."""
        calls = Counter()
        for module, name in ((redundancy, "_svd_rank"), (stiffness, "stiffness_KT"),
                             (stiffness, "stiffness_Kk")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        q, qd, qdd = reference_rows(hcdr, [0.0, 1.5, 2.0, 2.5])   # the hold, then three ramp rows
        optimize_tensions(hcdr, q, qd, qdd)
        assert calls == {"_svd_rank": 1, "stiffness_KT": 1, "stiffness_Kk": 1}

    def test_gimbal_lock_and_collapsed_cable_are_named(self, hcdr):
        q = np.zeros((3, 9))
        q[1, 4] = np.pi / 2
        with pytest.raises(SingularityError, match="at row 1$"):
            optimize_tensions(hcdr, q)
        q[1, 4] = 0.0
        q[2, 0:3] = hcdr.platform.a_world[4] - hcdr.platform.r_body[4]   # cable 5 at zero length
        with pytest.raises(GeometryError, match="cable 5 .* at row 2$"):
            optimize_tensions(hcdr, q)


class TestArgmaxShortcut:
    """The optimizer evaluates J_K at the first and last feasible scan
    points only; the full scan must agree."""

    @staticmethod
    def full_scan(K_a, K_b, frac, feasible):
        K = K_a[..., None, :, :] + frac[:, None, None] * (K_b - K_a)[..., None, :, :]
        J = np.where(feasible, objective_JK(K), -np.inf)
        best = np.argmax(J, axis=-1)
        return best, np.take_along_axis(J, best[..., None], axis=-1)[..., 0]

    @pytest.mark.parametrize("platform_only, reference, distinct", [
        (False, "case_study", 501),
        (True, "case_study", 1),       # the platform holds still throughout
        (False, "platform_move", 101),
        (True, "platform_move", 101),
    ])
    def test_matches_full_scan_on_the_reference(self, hcdr, platform_only, reference, distinct,
                                                monkeypatch):
        """Every distinct row of the 6 s case-study reference (651 periods)
        and of a 1 s platform move, on both design models, 76 points: the
        scan each ``optimize_tensions`` block hands ``_stiffest``."""
        model = hcdr.platform_only() if platform_only else hcdr
        if reference == "case_study":
            q, qd, qdd = reference_rows(model, np.arange(651) * 0.01)
        else:
            rest = [0.05, 0, 0.1, 0, 0, 0, 0, 0, 0, 0]
            move = sim.quintic_trajectory([(0.0, rest), (1.0, [0.07, 0, 0.12, 0, 0.03, 0,
                                                               0.5, 0, 0.3, 0])])
            q, qd, qdd = reference_rows(model, np.arange(101) * 0.01, move)
        first, _ = sim._distinct_rows(np.concatenate([q, qd, qdd], axis=1))
        assert len(first) == distinct
        stiffest, scans = stiffness._stiffest, []

        def spy(*args):
            scans.append(args)
            return stiffest(*args)

        monkeypatch.setattr(stiffness, "_stiffest", spy)
        for b in range(0, len(first), 64):
            rows = first[b:b + 64]
            optimize_tensions(model, q[rows], qd[rows], qdd[rows])
        assert len(scans) == -(-len(first) // 64)
        for scan in scans:
            best, J = stiffest(*scan)
            full_best, full_J = self.full_scan(*scan)
            assert np.array_equal(best, full_best)
            assert bits(J) == bits(full_J)

    def test_first_feasible_end_wins(self):
        """K(t) = (1 - 2t) I is stiffest at t = 0 and t = 1; with the
        points 0.1..0.7 feasible the first end is the stiffer one."""
        frac = np.linspace(0.0, 1.0, 11)
        feasible = (frac > 0.05) & (frac < 0.75)
        K_a, K_b = np.eye(6), -np.eye(6)
        best, J = stiffness._stiffest(K_a, K_b, frac, feasible)
        assert best == 1
        assert bits(J) == bits(self.full_scan(K_a, K_b, frac, feasible)[1])
        assert np.isclose(J, 6 * 0.8**2)
