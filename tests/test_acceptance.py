"""Acceptance suite: one test per release criterion.

Each test prints a single ``[ACCEPTANCE] #n`` line (run with ``-s`` to see
them live); stated runtime budgets are asserted.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cablearm import metrics
from cablearm.cli import run_scenario
from cablearm.control import MpcParams, mpc_design, mpc_step, zoh_discretize
from cablearm.dynamics import (
    dyn_terms,
    forward_dynamics,
    energies,
    hybrid_forward_dynamics_quadrotor,
    inverse_dynamics,
    mass_matrix,
    quadrotor_structure_matrix,
)
from cablearm.kinematics import cable_geometry, tension_wrench_matrix
from cablearm.model import builtin_hcdr9dof, builtin_quadrotor_arm
from cablearm.redundancy import resolve
from cablearm.sim import (
    PlanarPlant,
    case_study_trajectory,
    reference_schedule,
    rk4_step,
    simulate,
)
from cablearm.stiffness import (
    optimize_tensions,
    stiffness_Kk,
    stiffness_KT,
    stiffness_landscape,
)
from oracles import elastic_law


def _report(num, name, detail):
    print(f"[ACCEPTANCE] #{num} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def model():
    return builtin_hcdr9dof()


def _random_states(n, seed=12345):
    r = np.random.default_rng(seed)
    qs = r.normal(0.0, 0.25, (n, 9))
    qds = r.normal(0.0, 0.8, (n, 9))
    return qs, qds


def test_criterion_01_property1_suite(model):
    """Mdot = C + C^T and M symmetric positive definite at 100 states."""
    t0 = time.perf_counter()
    qs, qds = _random_states(100)
    worst = 0.0
    for q, qd in zip(qs, qds):
        terms = dyn_terms(model, q, qd)
        assert np.linalg.norm(terms.M - terms.M.T) <= 1e-10
        assert np.linalg.eigvalsh(terms.M).min() > 0
        h = 1e-6
        Mdot = (mass_matrix(model, q + h * qd) - mass_matrix(model, q - h * qd)) / (2 * h)
        err = np.linalg.norm(Mdot - (terms.C + terms.C.T))
        bound = 1e-5 * (1 + np.linalg.norm(Mdot))
        assert err <= bound
        worst = max(worst, err / bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, "inertia/Coriolis consistency", f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_dynamics_round_trip(model):
    """forward(inverse(qddot)) recovers qddot to 1e-8 relative at 100 states."""
    from cablearm.kinematics import euler_frames

    t0 = time.perf_counter()
    qs, qds = _random_states(100, seed=777)
    r = np.random.default_rng(6)
    worst = 0.0
    for q, qd in zip(qs, qds):
        qdd = r.normal(0, 1.0, 9)
        tau = inverse_dynamics(model, q, qd, qdd)
        R, _, E_b = euler_frames(q[3:6], model.euler_convention)
        E_w = R @ E_b
        wrench = np.concatenate([tau[0:3], np.linalg.solve(E_w.T, tau[3:6])])
        W = tension_wrench_matrix(model, q)
        T = np.linalg.pinv(W) @ wrench
        qdd2 = forward_dynamics(model, q, qd, T, tau[6:9])
        rel = np.linalg.norm(qdd2 - qdd) / max(1.0, np.linalg.norm(qdd))
        assert rel <= 1e-8
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "dynamics round trip", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_energy_conservation(model):
    """Unforced conservative planar system: |dE|/E0 <= 1e-4 over 2 s at 1e-4."""
    plant = PlanarPlant(model)
    L = cable_geometry(model, np.zeros(9)).lengths
    L0 = L * 0.8
    law = elastic_law(plant, L0)
    x = np.zeros(10)
    x[0], x[2], x[6], x[8] = 0.01, 0.02, 0.3, 0.2

    def energy(state):
        q, qd = plant.embed(state)
        ke, ve = energies(model, q, qd, L0)
        return ke + ve

    e0 = energy(x)
    dt = 1e-4
    for _ in range(20000):
        x = rk4_step(plant.f, x, (law,), dt)
    drift = abs(energy(x) - e0) / abs(e0)
    assert drift <= 1e-4
    _report(3, "energy conservation", f"|dE|/E0 = {drift:.2e} over 2 s")


def test_criterion_04_stiffness_definition_oracle(model):
    """K_T + K_k matches the finite-differenced cable force balance."""
    pose = cable_geometry(model, np.zeros(9))
    res = optimize_tensions(model, np.zeros(9))
    ea = model.platform.axial_stiffness
    L0 = ea * pose.lengths / (ea + res.T_opt)
    Kc = ea / L0

    def balance(dpose):
        p2 = cable_geometry(model, np.r_[dpose, np.zeros(3)])
        return p2.structure @ (
            Kc * (p2.lengths - L0)
        )

    h = 1e-6
    K_fd = np.zeros((6, 6))
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        K_fd[:, i] = (balance(e) - balance(-e)) / (2 * h)
    K = stiffness_KT(model, pose, res.T_opt) + stiffness_Kk(model, pose, None, L0=L0)
    rel = np.linalg.norm(K - K_fd) / np.linalg.norm(K_fd)
    assert rel <= 1e-4
    _report(4, "stiffness definition oracle", f"rel err {rel:.2e}")


def test_criterion_05_stiffness_grid_reproduction(model):
    """76x76 tension grid: J_K monotone, eigenvalues positive, corner argmax."""
    t0 = time.perf_counter()
    land = stiffness_landscape(model, np.zeros(9), {1: 1.005, 2: 1.005}, resolution=76)
    J = land["J_K"]
    assert np.all(np.diff(J, axis=0) > 0)
    assert np.all(np.diff(J, axis=1) > 0)
    assert np.all(land["min_eig"] > 0)
    assert np.unravel_index(np.argmax(J), J.shape) == (75, 75)
    assert np.isclose(land["axis_a"][75], 80.0) and np.isclose(land["axis_b"][75], 80.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        5, "stiffness grid reproduction",
        f"J range [{J.min():.3e}, {J.max():.3e}], min eig {land['min_eig'].min():.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_redundancy_suite(model):
    """Null-space annihilation and bounded optimal tensions along the path."""
    W = tension_wrench_matrix(model, np.zeros(9))
    _, N = resolve(W, np.zeros(6))
    assert np.linalg.norm(W @ N) <= 1e-10
    assert np.linalg.norm(N.T @ N - np.eye(N.shape[1])) <= 1e-10

    plant = PlanarPlant(model)
    traj = case_study_trajectory()
    times = np.arange(0, 601) * 0.01
    sched = reference_schedule(model, plant, traj, times)
    tmin, tmax = np.inf, -np.inf
    for k in range(len(times)):
        L0 = sched["L0"][k]
        T = plant.record(sched["x"][k], sched["u"][k][0:2], L0[0], L0[1])[0]
        tmin = min(tmin, T.min())
        tmax = max(tmax, T.max())
    assert tmin >= 5.0 - 1e-9
    assert tmax <= 80.0 + 1e-9
    _report(6, "redundancy suite", f"tensions within [{tmin:.2f}, {tmax:.2f}] N")


def test_criterion_07_mpc_suite():
    """Fixed point at reference, batch least-squares equivalence, bounds."""
    r = np.random.default_rng(42)
    # fixed point for both controller dimensions used by the architectures
    for s, p, du in ((6, 2, [80.0, 80.0]), (10, 4, [80.0, 80.0, 2.0, 2.0])):
        A = r.normal(0, 0.4, (s, s))
        B = r.normal(0, 0.4, (s, p))
        params = MpcParams(Ts=0.01, Np=50, Nc=50, Q_scale=1.0, R_scale=1e-4, P_scale=1.0,
                           du_bound=np.array(du))
        xr = r.normal(0, 1, s)
        ur = r.normal(0, 1, p)
        xw = np.tile(xr, (51, 1))
        uw = np.tile(ur, (51, 1))
        u = mpc_step(mpc_design(A, B, params), xr, xr, ur, xw, uw)
        assert np.max(np.abs(u - ur)) <= 1e-8

    # unconstrained equivalence with an independently assembled least squares
    s, p, Np = 4, 2, 5
    A = r.normal(0, 0.4, (s, s))
    B = r.normal(0, 0.4, (s, p))
    params = MpcParams(Ts=0.02, Np=Np, Nc=Np, Q_scale=1.0, R_scale=0.05, P_scale=1.0,
                       du_bound=np.full(p, np.inf))
    x_now, x_prev = r.normal(0, 1, s), r.normal(0, 1, s)
    u_prev = r.normal(0, 1, p)
    xw = r.normal(0, 1, (Np + 1, s))
    uw = r.normal(0, 1, (Np + 1, p))
    u_fast = mpc_step(mpc_design(A, B, params), x_now, x_prev, u_prev, xw, uw)
    Ad, Bd = zoh_discretize(A, B, params.Ts)
    nz = Np * p

    def predict(z):
        dus = z.reshape(Np, p)
        dx = x_now - x_prev
        xx, uu = x_now.copy(), u_prev.copy()
        ex, eu = [xw[0] - xx], []
        for j in range(Np):
            uu = uu + dus[j]
            eu.append(uw[j] - uu)
            dx = Ad @ dx + Bd @ dus[j]
            xx = xx + dx
            ex.append(xw[j + 1] - xx)
        return np.concatenate(ex), np.concatenate(eu)

    ex0, eu0 = predict(np.zeros(nz))
    Mx, Mu = [], []
    for k in range(nz):
        e = np.zeros(nz)
        e[k] = 1.0
        ex1, eu1 = predict(e)
        Mx.append(ex1 - ex0)
        Mu.append(eu1 - eu0)
    Mx, Mu = np.array(Mx).T, np.array(Mu).T
    H = Mx.T @ Mx + 0.05 * Mu.T @ Mu
    g = Mx.T @ ex0 + 0.05 * Mu.T @ eu0
    u_ref = u_prev + np.linalg.solve(H, -g)[:p]
    rel = np.max(np.abs(u_fast - u_ref)) / max(1.0, np.max(np.abs(u_ref)))
    assert rel <= 1e-6

    # increment bounds activate at the published limits
    params_b = MpcParams(Ts=0.02, Np=5, Nc=5, Q_scale=1.0, R_scale=1e-6, P_scale=1.0,
                         du_bound=np.array([80.0, 2.0]))
    xw_big = np.tile(1e5 * np.ones(s), (6, 1))
    u = mpc_step(mpc_design(A, B, params_b), np.zeros(s), np.zeros(s), np.zeros(p), xw_big,
                 np.zeros((6, p)))
    assert np.abs(u[0]) <= 80.0 + 1e-9
    assert np.abs(u[1]) <= 2.0 + 1e-9
    _report(7, "MPC suite", f"QP equivalence rel err {rel:.2e}")


@pytest.fixture(scope="module")
def case_study_runs(model):
    t0 = time.perf_counter()
    traces = {
        arch: simulate(model, {"architecture": arch, "t_end_s": 6.0, "noise_std": 0.0,
                               "seed": 0})
        for arch in ("independent", "integrated1", "integrated2")
    }
    return traces, time.perf_counter() - t0


# (rmse_2d, rmse_x, rmse_z) of each 6 s case study [m]; a round-off change
# has moved RMSE_2D by at most 1.6e-10 relative, a change of method moves it
# further and must update these values.
CASE_STUDY_RMSE = {
    "independent": (0.019106977105693757, 0.0007117521975856491, 0.019093715796741538),
    "integrated1": (0.0008984738992579111, 0.0008213734663508759, 0.00036414416983175993),
    "integrated2": (0.0007086215917271823, 0.0006303428114597413, 0.00032374758733154195),
}


def test_criterion_08_case_study_ordering(case_study_runs):
    """Tracking quality orders integrated2 < integrated1 < independent, and
    each architecture's RMSE stays at its recorded value."""
    traces, elapsed = case_study_runs
    reports = {a: metrics.rmse(t.p_e, t.p_e_ref, t.tensions) for a, t in traces.items()}
    r_ind = reports["independent"]
    r_i1 = reports["integrated1"]
    r_i2 = reports["integrated2"]
    assert r_i2.rmse_2d < r_i1.rmse_2d < r_ind.rmse_2d
    assert r_ind.rmse_z > r_ind.rmse_x     # dominant error in the vertical axis
    for arch, want in CASE_STUDY_RMSE.items():
        r = reports[arch]
        assert np.allclose((r.rmse_2d, r.rmse_x, r.rmse_z), want, rtol=1e-6, atol=0), arch
    assert elapsed < 300.0
    detail = ", ".join(
        f"{a}={reports[a].rmse_2d:.5f}" for a in ("integrated2", "integrated1", "independent")
    )
    _report(8, "case-study ordering", f"RMSE_2D {detail}; {elapsed:.0f}s for 3 runs")


def test_criterion_09_quadrotor_variant():
    """Hover equilibrium and the printed reduced thrust map."""
    params, body = builtin_quadrotor_arm()
    total = body.platform.mass + sum(l.mass for l in body.arm)
    F = np.full(4, total * body.gravity / 4)
    qdd = hybrid_forward_dynamics_quadrotor(params, body, np.zeros(8), np.zeros(8), F,
                                            np.zeros(2))
    residual = np.linalg.norm(qdd)
    assert residual <= 1e-9
    A_tilde, _ = quadrotor_structure_matrix(params, body, np.zeros(8))
    d, k = params.arm_length, params.moment_ratio
    expected = np.array([
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 1, 1, 1],
        [0, d, 0, -d],
        [-d, 0, d, 0],
        [k, -k, k, -k],
    ], dtype=float)
    assert np.array_equal(A_tilde, expected)
    _report(9, "quadrotor variant", f"hover residual {residual:.2e}, thrust map exact")


def test_criterion_10_quintic_boundary_conditions():
    """Knot values exact, boundary derivatives zero, published waypoint values."""
    traj = case_study_trajectory()
    worst = 0.0
    for idx, t_knot in enumerate(traj.times):
        pos, vel, acc = traj.sample_pva(t_knot)
        worst = max(worst, np.max(np.abs(pos - traj.positions[idx])))
        worst = max(worst, np.max(np.abs(vel)), np.max(np.abs(acc)))
    assert worst <= 1e-9
    assert np.isclose(traj.sample(3.0)[8], 0.6, atol=1e-12)
    assert np.isclose(traj.sample(5.0)[6], 0.8, atol=1e-12)
    _report(10, "quintic boundary conditions", f"worst knot residual {worst:.2e}")


def test_criterion_11_artifact_determinism(tmp_path):
    """Identical scenario + seed give byte-identical trace and summary."""
    scenario = {
        "model": "hcdr9dof",
        "architecture": "integrated2",
        "trajectory": "case_study",
        "t_end_s": 1.5,
        "seed": 11,
        "noise_std": 0.002,
    }
    r1 = run_scenario(scenario, tmp_path / "a")
    r2 = run_scenario(scenario, tmp_path / "b")
    t_same = Path(r1["trace"]).read_bytes() == Path(r2["trace"]).read_bytes()
    s_same = Path(r1["summary"]).read_bytes() == Path(r2["summary"]).read_bytes()
    assert t_same and s_same
    digest = json.loads(Path(r1["summary"]).read_text())["config_hash"]
    _report(11, "artifact determinism", f"config {digest}, byte-identical artifacts")
