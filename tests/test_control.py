import numpy as np
import pytest
import scipy.linalg

from cablearm import control
from cablearm.control import (
    MpcParams,
    PidGains,
    linearize,
    mpc_design,
    mpc_step,
    pid_step,
    solve_qp_active_set,
    zoh_discretize,
)
from cablearm.errors import ConditioningError, DivergenceError, InfeasibleError, IterationLimitError


def double_integrator(x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.stack([x[..., 1], u[..., 0]], axis=-1)


class TestLinearize:
    def test_double_integrator_exact(self):
        ltv = linearize(double_integrator, np.zeros(2), np.zeros(1))
        assert np.max(np.abs(ltv.A - [[0, 1], [0, 0]])) <= 1e-9
        assert np.max(np.abs(ltv.B - [[0], [1]])) <= 1e-9

    def test_equilibrium_offset_reported(self, hcdr):
        """At a consistent reference the drift term f_r is ~0."""
        from cablearm import sim as S
        from cablearm.stiffness import optimize_tensions
        from cablearm.dynamics import inverse_dynamics

        plant = S.PlanarPlant(hcdr)
        q = np.zeros(9)
        q[0], q[2] = 0.05, 0.1
        res = optimize_tensions(hcdr, q)
        tau = inverse_dynamics(hcdr, q, np.zeros(9), np.zeros(9))
        x_r = np.zeros(10)
        x_r[0], x_r[2] = 0.05, 0.1
        u_r = np.array([res.scan_tensions[3], res.scan_tensions[4], tau[7], tau[8]])
        ltv = linearize(plant.f_inputs, x_r, u_r, (res.group_L0[1], res.group_L0[2]))
        assert np.linalg.norm(ltv.f_r) <= 1e-8
        assert ltv.A.shape == (10, 10)
        assert ltv.B.shape == (10, 4)

    def test_broadcasts_over_points(self, hcdr):
        """A block of schedule points linearized in one call equals one
        call per point, bit for bit."""
        from cablearm import sim as S

        plant = S.PlanarPlant(hcdr)
        sched = S.reference_schedule(hcdr, plant, S.case_study_trajectory(),
                                     np.array([0.0, 1.5, 2.0, 3.5]))
        x, u, L0 = sched["x"], sched["u"], sched["L0"]
        block = linearize(plant.f_inputs, x, u, (L0[:, 0], L0[:, 1]))
        assert block.A.shape == (4, 10, 10) and block.B.shape == (4, 10, 4)
        for i in range(4):
            one = linearize(plant.f_inputs, x[i], u[i], (L0[i, 0], L0[i, 1]))
            for name in ("A", "B", "f_r"):
                assert getattr(block, name)[i].tobytes() == getattr(one, name).tobytes(), name

    def test_gradient_step_consistency(self, monkeypatch):
        """Central-difference Jacobian is step-size converged (Richardson)."""

        def plant(x, u):
            x = np.asarray(x, dtype=float)
            u = np.asarray(u, dtype=float)
            return np.stack(
                [np.sin(x[..., 1]) + u[..., 0] ** 2, np.cos(x[..., 0]) * u[..., 0]],
                axis=-1,
            )

        x0, u0 = np.array([0.3, -0.2]), np.array([0.4])

        def jacobian(step):
            monkeypatch.setattr(control, "LINEARIZE_STEP", step)
            return linearize(plant, x0, u0).A

        A1, A2, A3 = jacobian(1e-6), jacobian(5e-7), jacobian(2.5e-7)
        assert np.max(np.abs(A1 - A2)) <= 4 * max(np.max(np.abs(A2 - A3)), 1e-10)

    def test_nonfinite_plant_raises(self):
        def bad(x, u):
            return np.full(np.asarray(x).shape, np.nan)

        with pytest.raises(DivergenceError):
            linearize(bad, np.zeros(2), np.zeros(1))


def _batch_least_squares(ltv, x_now, x_prev, u_prev, xw, uw, params):
    """Unconstrained MPC input from normal equations built by simulating
    the velocity-form prediction one unit increment at a time; ``ltv`` is
    the model's (A, B)."""
    Np, Nc = params.Np, params.Nc
    A, B = ltv
    s, p = B.shape
    Ad, Bd = zoh_discretize(A, B, params.Ts)
    nz = Nc * p

    def predict(z):
        dus = np.vstack([z.reshape(Nc, p), np.zeros((Np - Nc, p))])
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
    Wx = np.kron(np.eye(Np + 1), params.Q_scale * np.eye(s))
    Wx[-s:, -s:] = params.P_scale * np.eye(s)
    Wu = np.kron(np.eye(Np), params.R_scale * np.eye(p))
    H = Mx.T @ Wx @ Mx + Mu.T @ Wu @ Mu
    g = Mx.T @ Wx @ ex0 + Mu.T @ Wu @ eu0
    return u_prev + np.linalg.solve(H, -g)[:p]


def _random_ltv(rng, s=4, p=2):
    """A random model's (A, B)."""
    return rng.normal(0, 0.5, (s, s)), rng.normal(0, 0.5, (s, p))


def _design_hessian(design):
    """The QP Hessian whose inverse factor ``design`` holds."""
    params = design.params
    return control._hessian(design.cum.reshape(params.Np, -1, design.cum.shape[1]), params)


class TestMpc:
    def test_fixed_point_at_equilibrium_reference(self, rng):
        ltv = _random_ltv(rng)
        params = MpcParams(
            Ts=0.01, Np=12, Nc=12, Q_scale=1.0, R_scale=1e-4, P_scale=1.0,
            du_bound=80 * np.ones(2),
        )
        xr = rng.normal(0, 1, 4)
        ur = rng.normal(0, 1, 2)
        xw = np.tile(xr, (13, 1))
        uw = np.tile(ur, (13, 1))
        u = mpc_step(mpc_design(*ltv, params), xr, xr, ur, xw, uw)
        assert np.max(np.abs(u - ur)) <= 1e-8

    def test_unconstrained_matches_batch_least_squares(self, rng):
        """Condensed solution vs normal equations assembled by explicit loops."""
        s, p, Np, Nc = 4, 2, 3, 3
        ltv = _random_ltv(rng, s, p)
        params = MpcParams(
            Ts=0.05, Np=Np, Nc=Nc, Q_scale=1.0, R_scale=0.1, P_scale=2.0,
            du_bound=np.inf * np.ones(p),
        )
        x_now = rng.normal(0, 1, s)
        x_prev = rng.normal(0, 1, s)
        u_prev = rng.normal(0, 1, p)
        xw = rng.normal(0, 1, (Np + 1, s))
        uw = rng.normal(0, 1, (Np + 1, p))
        u_fast = mpc_step(mpc_design(*ltv, params), x_now, x_prev, u_prev, xw, uw)
        u_ref = _batch_least_squares(ltv, x_now, x_prev, u_prev, xw, uw, params)
        assert np.max(np.abs(u_fast - u_ref)) <= 1e-6 * max(1.0, np.max(np.abs(u_ref)))

    @pytest.mark.parametrize("Np, Nc", [(7, 2), (6, 5), (1, 1)])
    def test_short_control_horizon_matches_batch_least_squares(self, rng, Np, Nc):
        """Nc < Np and a terminal scale unlike the state scale: the Hessian
        assembled from the step-response Gram blocks still matches explicit
        loops."""
        s, p = 4, 2
        ltv = _random_ltv(rng, s, p)
        params = MpcParams(
            Ts=0.05, Np=Np, Nc=Nc, Q_scale=0.7, R_scale=0.15, P_scale=2.3,
            du_bound=np.full(p, np.inf),
        )
        x_now, x_prev = rng.normal(0, 1, s), rng.normal(0, 1, s)
        u_prev = rng.normal(0, 1, p)
        xw = rng.normal(0, 1, (Np + 1, s))
        uw = rng.normal(0, 1, (Np + 1, p))
        u_fast = mpc_step(mpc_design(*ltv, params), x_now, x_prev, u_prev, xw, uw)
        u_ref = _batch_least_squares(ltv, x_now, x_prev, u_prev, xw, uw, params)
        assert np.max(np.abs(u_fast - u_ref)) <= 1e-6 * max(1.0, np.max(np.abs(u_ref)))

    def test_increment_bound_activation(self, rng):
        """Large reference jumps clip delta-u at the stated bounds."""
        ltv = _random_ltv(rng)
        params = MpcParams(
            Ts=0.05, Np=4, Nc=4, Q_scale=1.0, R_scale=1e-6, P_scale=1.0,
            du_bound=np.array([80.0, 2.0]),
        )
        u_prev = np.zeros(2)
        xw = np.tile(1e4 * np.ones(4), (5, 1))
        uw = np.zeros((5, 2))
        u = mpc_step(mpc_design(*ltv, params), np.zeros(4), np.zeros(4), u_prev, xw, uw)
        du = u - u_prev
        assert abs(du[0]) <= 80.0 + 1e-9
        assert abs(du[1]) <= 2.0 + 1e-9
        assert max(abs(du[0]) - 80.0, abs(du[1]) - 2.0) > -1e-6  # at least one active

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="control horizon"):
            MpcParams(Ts=0.01, Np=5, Nc=6, Q_scale=1.0, R_scale=1.0, P_scale=1.0,
                      du_bound=np.ones(1))


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
            z = solve_qp_active_set(control._inverse_factor(H), g, A, b)
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
        z = solve_qp_active_set(control._inverse_factor(H), g, A, b)
        assert np.allclose(z, z_free, atol=1e-9)

    def test_unbound_box_returns_the_free_minimizer_unsolved(self, rng, monkeypatch):
        """A box that does not bind returns Li^T (Li (-g)) bit for bit and
        solves no working-set system, not even an empty one."""
        n = 5
        X = rng.normal(0, 1, (n, n))
        Li = control._inverse_factor(X @ X.T + np.eye(n))
        g = rng.normal(0, 0.1, n)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
        z = solve_qp_active_set(Li, g, np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, 10.0))
        assert solves == []
        assert np.array_equal(z, Li.T @ (Li @ -g))

    def test_infeasible_origin_reports_row(self):
        """z = 0 need not be feasible: the box 1 <= z <= 2 solves.  Two rows
        that contradict each other (z_0 <= -1 and -z_0 <= -1) end in an
        InfeasibleError naming the row that no step can meet."""
        Li = control._inverse_factor(np.eye(2))
        g = np.zeros(2)
        A = np.vstack([np.eye(2), -np.eye(2)])
        z = solve_qp_active_set(Li, g, A, np.array([2.0, 2.0, -1.0, -1.0]))
        assert np.array_equal(z, [1.0, 1.0])
        with pytest.raises(InfeasibleError, match="row 1,"):
            solve_qp_active_set(Li, g, A[[0, 2]], np.array([-1.0, -1.0]))


def _kkt_step(H, Aw, r):
    """Step d and multipliers of min 0.5 d^T H d - r^T d s.t. Aw d = 0,
    from the full (n + k) KKT system by dense LU."""
    n, k = r.size, Aw.shape[0]
    KKT = np.zeros((n + k, n + k))
    KKT[:n, :n] = H
    KKT[:n, n:] = Aw.T
    KKT[n:, :n] = Aw
    sol = np.linalg.solve(KKT, np.concatenate([r, np.zeros(k)]))
    return sol[:n], sol[n:]


def _cho_solve_step(H, Aw, r):
    """The same step in range-space form, every H solve by
    ``scipy.linalg.cho_solve``, projected onto null(Aw) as
    ``solve_qp_active_set`` does."""
    cho = scipy.linalg.cho_factor(H)
    y = scipy.linalg.cho_solve(cho, r)
    if not len(Aw):
        return y, np.zeros(0)
    Y = scipy.linalg.cho_solve(cho, Aw.T)
    lam = np.linalg.solve(Aw @ Y, Aw @ y)
    d = y - Y @ lam
    return d - Aw.T @ np.linalg.solve(Aw @ Aw.T, Aw @ d), lam


def _dense_kkt_qp(H, g, A_ineq, b_ineq, tol=1e-9, max_iter=600, step=_kkt_step):
    """Reference primal active-set loop, the method ``solve_qp_active_set``
    used before its dual one: from z = 0 (which must be feasible), each
    iteration steps to the minimizer on the working set, up to the first
    blocking row, and drops the most negative multiplier once the step
    vanishes.  Each equality subproblem is solved by ``step`` (the full KKT
    system by dense LU unless given)."""
    n = g.size
    z = np.zeros(n)
    active = []
    for _ in range(max_iter):
        k = len(active)
        d, lam = step(H, A_ineq[active], -(g + H @ z))
        if np.linalg.norm(d, ord=np.inf) <= tol:
            if k == 0 or np.all(lam >= -tol):
                return z
            active.pop(int(np.argmin(lam)))
            continue
        mask = np.ones(A_ineq.shape[0], dtype=bool)
        mask[active] = False
        Ad = A_ineq[mask] @ d
        slack = b_ineq[mask] - A_ineq[mask] @ z
        blocking = Ad > tol
        alpha = 1.0
        add_row = None
        if np.any(blocking):
            ratios = slack[blocking] / Ad[blocking]
            j = int(np.argmin(ratios))
            if ratios[j] < alpha:
                alpha = max(ratios[j], 0.0)
                add_row = np.flatnonzero(mask)[np.flatnonzero(blocking)[j]]
        z = z + alpha * d
        if add_row is not None:
            active.append(int(add_row))
    raise IterationLimitError("oracle did not converge")


def _box_qp(rng, n, g_scale, bound):
    X = rng.normal(0, 1, (n, n))
    H = X @ X.T + 0.1 * np.eye(n)
    g = rng.normal(0, g_scale, n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, bound)
    return H, g, A, b


def _captured_qp(monkeypatch, *mpc_args):
    """The (Li, g, A, b) that ``mpc_step`` hands to the QP solver."""
    seen = []
    solve = control.solve_qp_active_set

    def spy(Li, g, A, b):
        seen.append((Li, g, A, b))
        return solve(Li, g, A, b)

    monkeypatch.setattr(control, "solve_qp_active_set", spy)
    mpc_step(*mpc_args)
    monkeypatch.undo()
    return seen[0]


class TestRangeSpaceQp:
    @pytest.mark.parametrize("n, g_scale, bound", [
        (6, 3.0, 0.5), (12, 10.0, 0.2), (20, 1.0, 0.05), (8, 1e3, 0.1), (30, 5.0, 1.0),
    ])
    def test_matches_dense_kkt_oracle_on_box_qps(self, rng, n, g_scale, bound):
        for _ in range(5):
            H, g, A, b = _box_qp(rng, n, g_scale, bound)
            z = solve_qp_active_set(control._inverse_factor(H), g, A, b)
            z_ref = _dense_kkt_qp(H, g, A, b)
            assert np.max(np.abs(z - z_ref)) <= 1e-9 * max(1.0, np.max(np.abs(z_ref)))
            assert np.all(A @ z <= b + 1e-12)

    def test_full_working_set(self, rng):
        """A gradient that pushes every coordinate out of the box leaves all
        n bounds active (k = n), where null(A_W) is empty."""
        n = 8
        H = np.diag(rng.uniform(1.0, 2.0, n))
        g = 1e3 * np.where(rng.random(n) < 0.5, -1.0, 1.0)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.full(2 * n, 0.25)
        z = solve_qp_active_set(control._inverse_factor(H), g, A, b)
        assert np.max(np.abs(np.abs(z) - 0.25)) <= 1e-12
        assert np.max(np.abs(z - _dense_kkt_qp(H, g, A, b))) <= 1e-12

    def test_matches_oracle_at_criterion_7_scale(self, monkeypatch):
        """The bound case of acceptance criterion 7 (R = 1e-6, |g| ~ 6e4):
        every increment ends on a bound."""
        r = np.random.default_rng(42)
        s, p = 4, 2
        ltv = r.normal(0, 0.4, (s, s)), r.normal(0, 0.4, (s, p))
        params = MpcParams(Ts=0.02, Np=5, Nc=5, Q_scale=1.0, R_scale=1e-6, P_scale=1.0,
                           du_bound=np.array([80.0, 2.0]))
        design = mpc_design(*ltv, params)
        Li, g, A, b = _captured_qp(monkeypatch, design, np.zeros(s), np.zeros(s), np.zeros(p),
                                   np.tile(1e5 * np.ones(s), (6, 1)), np.zeros((6, p)))
        assert np.max(np.abs(g)) > 1e4
        z = solve_qp_active_set(Li, g, A, b)
        z_ref = _dense_kkt_qp(_design_hessian(design), g, A, b)
        assert np.max(np.abs(z - z_ref)) <= 1e-9 * np.max(np.abs(z_ref))
        assert np.array_equal(A @ z >= b - 1e-7, A @ z_ref >= b - 1e-7)
        assert np.count_nonzero(A @ z >= b - 1e-7) == g.size

    @pytest.mark.parametrize("bounded", [False, True])
    def test_indefinite_hessian_raises_conditioning_error(self, bounded):
        """An indefinite H is refused when it is factored, before the QP
        runs, whether or not the QP has bounds."""
        H = np.diag([1.0, -1.0])
        g = np.array([0.5, 0.5])
        A, b = (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)) if bounded else (None, None)
        with pytest.raises(ConditioningError, match="not positive definite"):
            solve_qp_active_set(control._inverse_factor(H), g, A, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_hessian_raises_conditioning_error(self, bad):
        with pytest.raises(ConditioningError, match="not positive definite"):
            control._inverse_factor(np.diag([1.0, bad, 1.0]))


@pytest.fixture(scope="module", params=["integrated2", "independent"])
def case_study_design(request, hcdr):
    """The case study's linearization (A, B) at t = 1.5 s on the
    architecture's design model, its default MPC parameters and their
    design."""
    from cablearm import sim as S

    arch = S.Architecture(request.param)
    model = arch.design_model(hcdr)
    plant = S.PlanarPlant(model)
    sched = S.reference_schedule(model, plant, S.case_study_trajectory(), np.array([1.5]))
    s, p = arch.mpc_size
    lin = linearize(plant.f_inputs, sched["x"][0, :plant.n_states], sched["u"][0],
                    tuple(sched["L0"][0]))
    ltv = (lin.A[:s, :s], lin.B[:s, :p])
    params, _ = S.controller_params(arch, {})
    return ltv, params, mpc_design(*ltv, params)


def _relative(E, ref):
    return np.linalg.norm(E - ref, 1) / np.linalg.norm(ref, 1)


class TestExpm:
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_matches_scipy_from_small_to_large_norms(self, shift):
        """1-norms 1e-3 .. 1e3 of random 6x6 matrices (shifted left by
        ``shift``, or not); every norm above ``_THETA13`` needs squaring.
        At norm 1e3 the relative condition number of exp is at least 1e3,
        and each of the two results lies within 8e-14 of a 50-digit one."""
        r = np.random.default_rng(7)
        squared = 0
        for norm in 10.0 ** np.arange(-3, 4):
            X = r.normal(0, 1, (6, 6)) - shift * np.eye(6)
            A = X * (norm / np.linalg.norm(X, 1))
            squared += norm > control._THETA13
            assert _relative(control._expm(A), scipy.linalg.expm(A)) <= 1e-13, norm
        assert squared == 3

    def test_case_study_zoh(self, case_study_design):
        """The augmented matrix of the case study's zero-order hold."""
        (A, B), params, _ = case_study_design
        s, p = B.shape
        aug = np.zeros((s + p, s + p))
        aug[:s] = np.hstack([A, B]) * params.Ts
        assert np.linalg.norm(aug, 1) > control._THETA13     # takes squarings
        ref = scipy.linalg.expm(aug)
        assert _relative(control._expm(aug), ref) <= 1e-13
        Ad, Bd = zoh_discretize(A, B, params.Ts)
        assert _relative(Ad, ref[:s, :s]) <= 1e-13
        assert _relative(Bd, ref[:s, s:]) <= 1e-13

    @pytest.mark.parametrize("n", [1, 4, 14])
    def test_zero_is_identity(self, n):
        assert np.array_equal(control._expm(np.zeros((n, n))), np.eye(n))

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_nonfinite_norm_raises_divergence_error(self, entry):
        """Column sums that overflow, an infinite entry and a NaN entry all
        end in the package's error, not an OverflowError or a NaN result."""
        A = np.full((2, 2), 1e308) if entry == 1e308 else np.array([[0.0, entry], [0.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                       match="matrix exponential"):
            zoh_discretize(A, np.zeros((2, 1)), 1.0)


class TestInverseFactor:
    def test_backward_error_on_case_study_hessian(self, case_study_design, rng):
        """Normwise backward error of H^-1 g = Li^T (Li g) on the case
        study's Hessian (cond(H) ~ 1.7e9 on integrated2)."""
        _, _, design = case_study_design
        H = _design_hessian(design)
        for _ in range(3):
            g = rng.normal(0, 1, H.shape[0])
            x = design.Li.T @ (design.Li @ g)
            err = np.linalg.norm(H @ x - g) / (
                np.linalg.norm(H, 2) * np.linalg.norm(x) + np.linalg.norm(g))
            assert err <= 1e-15

    @pytest.mark.parametrize("n", [1, 19, 20, 21, 45, 100])
    def test_is_the_inverse_cholesky_factor(self, rng, n):
        """Whole and partial diagonal blocks: Li is lower triangular and
        inverts the Cholesky factor."""
        X = rng.normal(0, 1, (n, n))
        H = X @ X.T + np.eye(n)
        Li = control._inverse_factor(H)
        assert not np.triu(Li, 1).any()
        assert np.max(np.abs(Li @ np.linalg.cholesky(H) - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("scale, bounded", [(1.0, False), (1e3, False), (10.0, True),
                                                (100.0, True)])
    def test_qp_matches_cho_solve_reference(self, case_study_design, rng, scale, bounded):
        """The case study's QP against the primal reference loop solved by
        ``cho_solve``, without bounds and with increment bounds active."""
        _, params, design = case_study_design
        H = _design_hessian(design)
        A, b = params._box
        if not bounded:
            A, b = A[:0], b[:0]
        g = rng.normal(0, scale, H.shape[0])
        z = solve_qp_active_set(design.Li, g, A, b)
        if bounded:
            z_ref = _dense_kkt_qp(H, g, A, b, step=_cho_solve_step)
            assert np.any(A @ z_ref >= b - 1e-9)
        else:   # the solver's one solve when nothing bounds z
            z_ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -g)
        assert np.max(np.abs(z - z_ref)) <= 1e-6 * np.max(np.abs(z_ref))


@pytest.mark.parametrize("case_study_design", ["integrated2"], indirect=True)
class TestCaseStudyBox:
    """The case study's integrated2 QP (n = 200, cond(H) ~ 1.7e9) on its
    default increment box (400 rows) under large random gradients, where
    almost every increment ends on a bound."""

    @staticmethod
    def assert_kkt(H, g, A, b, z):
        """A z <= b exactly; on the rows that hold with equality (unit rows,
        so each multiplier is -a^T (H z + g)) the multipliers are
        nonnegative and H z + g + A_act^T lam vanishes."""
        assert np.all(A @ z <= b)
        r = H @ z + g
        act = A[A @ z == b]
        lam = -(act @ r)
        assert lam.min() >= -1e-9
        assert np.max(np.abs(r + act.T @ lam)) <= 1e-8 * np.max(np.abs(g))
        return len(act)

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_kkt_where_most_increments_bind(self, case_study_design, rng, scale):
        """The primal method gave up here (IterationLimitError after 500
        iterations): with one row added per iteration, a working set of
        ~200 rows left too few iterations for the drops."""
        _, params, design = case_study_design
        H = _design_hessian(design)
        A, b = params._box
        for _ in range(2):
            g = rng.normal(0, scale, H.shape[0])
            z = solve_qp_active_set(design.Li, g, A, b)
            assert self.assert_kkt(H, g, A, b, z) >= 190

    def test_matches_primal_oracle(self, case_study_design, rng):
        """At gradient scale 1e2, where the primal oracle converges."""
        _, params, design = case_study_design
        H = _design_hessian(design)
        A, b = params._box
        g = rng.normal(0, 1e2, H.shape[0])
        z = solve_qp_active_set(design.Li, g, A, b)
        self.assert_kkt(H, g, A, b, z)
        z_ref = _dense_kkt_qp(H, g, A, b)
        assert np.max(np.abs(z - z_ref)) <= 1e-6 * np.max(np.abs(z_ref))


class TestMpcDesign:
    def test_designs_of_one_ltv_step_bit_identically(self):
        """Two designs of one linearization give bit-identical steps, and a
        second linearization a different step.  Seed 2 puts an increment
        bound in the final working set of every solve, so the active-set
        iterations run on each path."""
        rng = np.random.default_rng(2)
        s, p, Np = 4, 2, 6
        params = MpcParams(Ts=0.05, Np=Np, Nc=4, Q_scale=1.0, R_scale=1e-2, P_scale=1.0,
                           du_bound=np.full(p, 0.3))
        x_now = rng.normal(0, 0.1, s)
        x_prev = x_now + rng.normal(0, 0.01, s)
        u_prev = rng.normal(0, 1, p)
        xw = np.tile(x_now + rng.normal(0, 0.05, s), (Np + 1, 1))
        uw = np.tile(u_prev, (Np + 1, 1))
        lin_a, lin_b = _random_ltv(rng), _random_ltv(rng)

        def step(ltv):
            return mpc_step(mpc_design(*ltv, params), x_now, x_prev, u_prev, xw, uw)

        first_a = step(lin_a)
        assert np.array_equal(first_a, step(lin_a))
        assert not np.array_equal(first_a, step(lin_b))

    def test_design_inputs_are_read_only(self):
        """``du_bound``, from which the box rows were built, cannot be
        edited in place."""
        params = MpcParams(Ts=0.05, Np=3, Nc=3, Q_scale=1.0, R_scale=1.0, P_scale=1.0,
                           du_bound=np.ones(2))
        with pytest.raises(ValueError):
            params.du_bound[0] = 1.0


class TestPid:
    def test_zero_error_zero_torque(self):
        gains = PidGains(400, 100, 10)
        tau, _, _ = pid_step(np.zeros(4), np.zeros(2), np.zeros(2), gains, 0.01)
        assert np.array_equal(tau, [0, 0])

    def test_integral_increment_trapezoid(self):
        gains = PidGains(0.0, 100.0, 0.0)
        err = np.array([0.2, 0.0, -0.1, 0.0])      # (e, edot) per joint
        tau, integral, _ = pid_step(err, np.zeros(2), np.array([0.2, -0.1]), gains, 0.01)
        # constant error: integral term grows by Ki * e * dt
        assert np.allclose(tau, 100.0 * np.array([0.2, -0.1]) * 0.01)
        assert np.allclose(integral, np.array([0.2, -0.1]) * 0.01)

    def test_table_gains_converge_on_double_integrator(self):
        """0.2-rad step response of theta'' = tau with the case-study gains."""
        gains = PidGains(400, 100, 10)
        dt = 1e-3
        theta = np.zeros(2)
        dtheta = np.zeros(2)
        integral = np.zeros(2)
        target = np.array([0.2, -0.2])
        e_prev = target - theta
        for _ in range(2000):
            err = np.stack([target - theta, -dtheta], axis=-1).ravel()
            tau, integral, e_prev = pid_step(err, integral, e_prev, gains, dt)
            dtheta = dtheta + dt * tau
            theta = theta + dt * dtheta
        assert np.max(np.abs(target - theta)) < 1e-3

    def test_broadcasts_over_leading_axes(self):
        """A (3, 4) stack of interleaved errors equals the row-by-row calls."""
        rng = np.random.default_rng(0)
        err, integral, e_prev = rng.normal(size=(3, 4)), *rng.normal(size=(2, 3, 2))
        gains = PidGains(400, 100, 10)
        stacked = pid_step(err, integral, e_prev, gains, 0.01)
        for i in range(3):
            for got, want in zip(stacked, pid_step(err[i], integral[i], e_prev[i], gains, 0.01)):
                assert np.array_equal(got[i], want)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            pid_step(np.zeros(4), np.zeros(2), np.zeros(2), PidGains(1, 0, 0), 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        """NaN and infinite steps raise instead of returning NaN torques."""
        with pytest.raises(ValueError, match="finite and positive"):
            pid_step(np.zeros(4), np.zeros(2), np.zeros(2), PidGains(1, 1, 0), dt)

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError):
            PidGains(-1, 0, 0)

