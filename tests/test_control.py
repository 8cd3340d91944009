import numpy as np
import pytest

from cablearm.control import (
    LtvModel,
    MpcParams,
    PidGains,
    PidState,
    linearize,
    mpc_step,
    pid_step,
    select_states,
    solve_qp_active_set,
    zoh_discretize,
)
from cablearm.errors import InfeasibleError


def double_integrator(x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.stack([x[..., 1], u[..., 0]], axis=-1)


class TestLinearize:
    def test_double_integrator_exact(self):
        ltv = linearize(double_integrator, np.zeros(2), np.zeros(1))
        assert np.max(np.abs(ltv.A - [[0, 1], [0, 0]])) <= 1e-9
        assert np.max(np.abs(ltv.B - [[0], [1]])) <= 1e-9
        assert np.allclose(ltv.C_out, np.eye(2))

    def test_equilibrium_offset_reported(self, hcdr):
        """At a consistent reference the drift term f_r is ~0."""
        from cablearm import sim as S
        from cablearm.stiffness import optimize_tensions
        from cablearm.dynamics import inverse_dynamics

        plant = S.PlanarPlant(hcdr)
        q = np.zeros(9)
        q[0], q[2] = 0.05, 0.1
        res = optimize_tensions(hcdr, q, scan_points=39)
        tau = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        x_r = np.zeros(10)
        x_r[0], x_r[2] = 0.05, 0.1
        u_r = np.array([res.scan_tensions[3], res.scan_tensions[4], tau[7], tau[8]])
        ltv = linearize(plant.f, x_r, u_r, (res.group_L0[1], res.group_L0[2]))
        assert np.linalg.norm(ltv.f_r) <= 1e-8
        assert ltv.A.shape == (10, 10)
        assert ltv.B.shape == (10, 4)

    def test_gradient_step_consistency(self):
        """Central-difference Jacobian is step-size converged (Richardson)."""

        def plant(x, u):
            x = np.asarray(x, dtype=float)
            u = np.asarray(u, dtype=float)
            return np.stack(
                [np.sin(x[..., 1]) + u[..., 0] ** 2, np.cos(x[..., 0]) * u[..., 0]],
                axis=-1,
            )

        x0, u0 = np.array([0.3, -0.2]), np.array([0.4])
        A1 = linearize(plant, x0, u0, step=1e-6).A
        A2 = linearize(plant, x0, u0, step=5e-7).A
        A3 = linearize(plant, x0, u0, step=2.5e-7).A
        assert np.max(np.abs(A1 - A2)) <= 4 * max(np.max(np.abs(A2 - A3)), 1e-10)

    def test_nonfinite_plant_raises(self):
        def bad(x, u):
            return np.full(np.asarray(x).shape, np.nan)

        with pytest.raises(ArithmeticError):
            linearize(bad, np.zeros(2), np.zeros(1))


def _random_ltv(rng, s=4, p=2):
    A = rng.normal(0, 0.5, (s, s))
    B = rng.normal(0, 0.5, (s, p))
    return LtvModel(A=A, B=B, C_out=np.eye(s), x_r=np.zeros(s), u_r=np.zeros(p),
                    f_r=np.zeros(s))


class TestMpc:
    def test_fixed_point_at_equilibrium_reference(self, rng):
        ltv = _random_ltv(rng)
        params = MpcParams(
            Ts=0.01, Np=12, Nc=12, Q=np.eye(4), R=1e-4 * np.eye(2), P=np.eye(4),
            du_min=-80 * np.ones(2), du_max=80 * np.ones(2),
        )
        xr = rng.normal(0, 1, 4)
        ur = rng.normal(0, 1, 2)
        xw = np.tile(xr, (13, 1))
        uw = np.tile(ur, (13, 1))
        u = mpc_step(ltv, xr, xr, ur, xw, uw, params)
        assert np.max(np.abs(u - ur)) <= 1e-8

    def test_unconstrained_matches_batch_least_squares(self, rng):
        """Condensed solution vs normal equations assembled by explicit loops."""
        s, p, Np, Nc = 4, 2, 3, 3
        ltv = _random_ltv(rng, s, p)
        params = MpcParams(
            Ts=0.05, Np=Np, Nc=Nc, Q=np.eye(s), R=0.1 * np.eye(p), P=2 * np.eye(s),
            du_min=-np.inf * np.ones(p), du_max=np.inf * np.ones(p),
        )
        x_now = rng.normal(0, 1, s)
        x_prev = rng.normal(0, 1, s)
        u_prev = rng.normal(0, 1, p)
        xw = rng.normal(0, 1, (Np + 1, s))
        uw = rng.normal(0, 1, (Np + 1, p))
        u_fast = mpc_step(ltv, x_now, x_prev, u_prev, xw, uw, params)

        Ad, Bd = zoh_discretize(ltv.A, ltv.B, params.Ts)
        nz = Nc * p

        def predict(z):
            dus = z.reshape(Nc, p)
            dx = x_now - x_prev
            x = x_now.copy()
            u = u_prev.copy()
            ex, eu = [xw[0] - x], []
            for j in range(Np):
                u = u + dus[j]
                eu.append(uw[j] - u)
                dx = Ad @ dx + Bd @ dus[j]
                x = x + dx
                ex.append(xw[j + 1] - x)
            return np.concatenate(ex), np.concatenate(eu)

        ex0, eu0 = predict(np.zeros(nz))
        Mx, Mu = [], []
        for k in range(nz):
            e = np.zeros(nz)
            e[k] = 1.0
            ex1, eu1 = predict(e)
            Mx.append(ex1 - ex0)
            Mu.append(eu1 - eu0)
        Mx = np.array(Mx).T
        Mu = np.array(Mu).T
        Wx = np.kron(np.eye(Np + 1), np.eye(s))
        Wx[-s:, -s:] = 2 * np.eye(s)
        Wu = np.kron(np.eye(Np), 0.1 * np.eye(p))
        H = Mx.T @ Wx @ Mx + Mu.T @ Wu @ Mu
        g = Mx.T @ Wx @ ex0 + Mu.T @ Wu @ eu0
        z_ref = np.linalg.solve(H, -g)
        u_ref = u_prev + z_ref[:p]
        assert np.max(np.abs(u_fast - u_ref)) <= 1e-6 * max(1.0, np.max(np.abs(u_ref)))

    def test_increment_bound_activation(self, rng):
        """Large reference jumps clip delta-u at the stated bounds."""
        ltv = _random_ltv(rng)
        params = MpcParams(
            Ts=0.05, Np=4, Nc=4, Q=np.eye(4), R=1e-6 * np.eye(2), P=np.eye(4),
            du_min=-np.array([80.0, 2.0]), du_max=np.array([80.0, 2.0]),
        )
        u_prev = np.zeros(2)
        xw = np.tile(1e4 * np.ones(4), (5, 1))
        uw = np.zeros((5, 2))
        u = mpc_step(ltv, np.zeros(4), np.zeros(4), u_prev, xw, uw, params)
        du = u - u_prev
        assert abs(du[0]) <= 80.0 + 1e-9
        assert abs(du[1]) <= 2.0 + 1e-9
        assert max(abs(du[0]) - 80.0, abs(du[1]) - 2.0) > -1e-6  # at least one active

    def test_state_increment_bounds_enforced(self, rng):
        ltv = _random_ltv(rng)
        params = MpcParams(
            Ts=0.05, Np=4, Nc=4, Q=np.eye(4), R=1e-6 * np.eye(2), P=np.eye(4),
            du_min=-np.full(2, np.inf), du_max=np.full(2, np.inf),
            dx_min=-np.full(4, 0.5), dx_max=np.full(4, 0.5),
        )
        xw = np.tile(100.0 * np.ones(4), (5, 1))
        uw = np.zeros((5, 2))
        u = mpc_step(ltv, np.zeros(4), np.zeros(4), np.zeros(2), xw, uw, params)
        Ad, Bd = zoh_discretize(ltv.A, ltv.B, params.Ts)
        dx = Ad @ np.zeros(4) + Bd @ u
        assert np.all(dx <= 0.5 + 1e-7)

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="control horizon"):
            MpcParams(Ts=0.01, Np=5, Nc=6, Q=np.eye(2), R=np.eye(1), P=np.eye(2),
                      du_min=-np.ones(1), du_max=np.ones(1))


class TestActiveSetQp:
    def test_monotone_under_bound_relaxation(self, rng):
        """Optimal objective never increases when the box is enlarged."""
        n = 6
        X = rng.normal(0, 1, (n, n))
        H = X @ X.T + np.eye(n)
        g = rng.normal(0, 3, n)

        def obj(z):
            return 0.5 * z @ H @ z + g @ z

        eye = np.eye(n)
        A = np.vstack([eye, -eye])
        prev = None
        for bound in (0.1, 0.5, 2.0, 10.0):
            b = np.full(2 * n, bound)
            z = solve_qp_active_set(H, g, A, b)
            val = obj(z)
            if prev is not None:
                assert val <= prev + 1e-10
            prev = val

    def test_matches_unconstrained_inside_box(self, rng):
        n = 5
        X = rng.normal(0, 1, (n, n))
        H = X @ X.T + np.eye(n)
        g = rng.normal(0, 0.1, n)
        z_free = np.linalg.solve(H, -g)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.full(2 * n, 10.0)
        z = solve_qp_active_set(H, g, A, b)
        assert np.allclose(z, z_free, atol=1e-9)

    def test_infeasible_origin_reports_row(self):
        H = np.eye(2)
        g = np.zeros(2)
        A = np.array([[1.0, 0.0]])
        b = np.array([-1.0])      # z=0 violates
        with pytest.raises(InfeasibleError, match="row 0"):
            solve_qp_active_set(H, g, A, b)


class TestPid:
    def test_zero_error_zero_torque(self):
        gains = PidGains(400, 100, 10)
        tau, _ = pid_step([0, 0], [0, 0], [0, 0], [0, 0], PidState.zero(2), gains, 0.01)
        assert np.array_equal(tau, [0, 0])

    def test_integral_increment_trapezoid(self):
        gains = PidGains(0.0, 100.0, 0.0)
        state = PidState(integral=np.zeros(2), prev_error=np.array([0.2, -0.1]))
        tau, state2 = pid_step([0.2, -0.1], [0, 0], [0, 0], [0, 0], state, gains, 0.01)
        # constant error: integral term grows by Ki * e * dt
        assert np.allclose(tau, 100.0 * np.array([0.2, -0.1]) * 0.01)
        assert np.allclose(state2.integral, np.array([0.2, -0.1]) * 0.01)

    def test_table_gains_converge_on_double_integrator(self):
        """0.2-rad step response of theta'' = tau with the case-study gains."""
        gains = PidGains(400, 100, 10)
        dt = 1e-3
        theta = np.zeros(2)
        dtheta = np.zeros(2)
        state = PidState.zero(2)
        target = np.array([0.2, -0.2])
        for _ in range(2000):
            tau, state = pid_step(target, [0, 0], theta, dtheta, state, gains, dt)
            dtheta = dtheta + dt * tau
            theta = theta + dt * dtheta
        assert np.max(np.abs(target - theta)) < 1e-3

    def test_anti_windup_freezes_integral(self):
        gains = PidGains(0.0, 100.0, 0.0)
        state = PidState.zero(2)
        for _ in range(50):
            tau, state = pid_step([10, 10], [0, 0], [0, 0], [0, 0], state, gains, 0.1,
                                  limits=[1.0, 1.0])
        assert np.all(np.abs(tau) <= 1.0)
        assert np.all(state.integral <= 0.011)  # frozen near the first step

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            pid_step([0, 0], [0, 0], [0, 0], [0, 0], PidState.zero(2), PidGains(1, 0, 0), 0.0)

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError):
            PidGains(-1, 0, 0)


class TestSelectStates:
    def test_partition(self):
        x = np.arange(1.0, 11.0)
        assert np.array_equal(select_states(x, "platform"), np.arange(1.0, 7.0))
        assert np.array_equal(select_states(x, "arm"), np.arange(7.0, 11.0))

    def test_concatenation_recovers_state(self):
        x = np.arange(10.0)
        both = np.concatenate([select_states(x, "platform"), select_states(x, "arm")])
        assert np.array_equal(both, x)

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            select_states(np.zeros(10), "everything")
