"""LTV linearization, model predictive control, and joint PID.

MPC bookkeeping (velocity form): the quadratic program is posed in input
increments ``du(k) = u(k) - u(k-1)`` with state increments
``dx(k) = x(k) - x(k-1)`` propagated by the discretized linear model.
Absolute states and inputs are recovered by accumulation from the measured
``x(0)``, ``x(-1)`` and the last applied input, so tracking errors
``e_x = x_ref - x`` and ``e_u = u_ref - u`` are affine in the decision
vector.  Increments beyond the control horizon are fixed at zero.  This
accumulation gives the controller implicit integral action.

The MPC's work is split by how often its inputs change:

* per ``MpcParams``, once at construction: the input-accumulation weight
  ``U^T R U`` and the increment box rows of the QP;
* per linearization, in the :class:`MpcDesign` that :func:`mpc_design`
  builds from the model's ``A`` and ``B`` and the caller holds while the
  linearization lasts: the zero-order-hold model, its step response and
  the inverse Cholesky factor of the Hessian ``H`` (assembled from the
  block-Toeplitz Gram structure of the step response, then dropped);
* per period (:func:`mpc_step`): the free response of the measured
  increment, the gradient ``g`` and the dual active-set QP, which sees
  ``H`` only through the design's inverse factor.

``MpcParams.du_bound`` is a read-only copy, so the box rows built from it
cannot go stale through an in-place edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DivergenceError, InfeasibleError, IterationLimitError


class LtvModel(NamedTuple):
    """Continuous-time linearization dx/dt = A (x - x_r) + B (u - u_r) + f_r
    about the point (x_r, u_r) that :func:`linearize` was given."""

    A: np.ndarray
    B: np.ndarray
    f_r: np.ndarray   # plant drift at the linearization point


LINEARIZE_STEP = 1e-6  # central-difference step, relative to max(1, |coordinate|)


def linearize(plant, x_r, u_r, exogenous=()) -> LtvModel:
    """Jacobians of a plant by central differences, step scaled per coordinate.

    ``plant(x, u, *exogenous)`` must return the state derivative and accept
    batched ``x`` / ``u`` (leading axes broadcast).  Broadcasts over leading
    axes of ``x_r`` and ``u_r``: the exogenous values then carry the same
    leading shape, every field of the result gains it, and all the points'
    stencils go to the plant in one call.  Raises DivergenceError on
    non-finite plant output.
    """
    x_r = np.asarray(x_r, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    s, p = x_r.shape[-1], u_r.shape[-1]
    if x_r.ndim > 1:    # a stencil axis after the points' leading axes
        exogenous = tuple(np.asarray(e, dtype=float)[..., None] for e in exogenous)
    hx = LINEARIZE_STEP * np.maximum(1.0, np.abs(x_r))
    hu = LINEARIZE_STEP * np.maximum(1.0, np.abs(u_r))
    X = np.repeat(x_r[..., None, :], 2 * s + 2 * p + 1, axis=-2)
    U = np.repeat(u_r[..., None, :], 2 * s + 2 * p + 1, axis=-2)
    dX, dU = hx[..., None] * np.eye(s), hu[..., None] * np.eye(p)    # diag(hx), diag(hu)
    X[..., 0:s, :] += dX
    X[..., s:2 * s, :] -= dX
    U[..., 2 * s:2 * s + p, :] += dU
    U[..., 2 * s + p:2 * s + 2 * p, :] -= dU
    F = np.asarray(plant(X, U, *exogenous), dtype=float)
    if not np.all(np.isfinite(F)):
        raise DivergenceError("plant returned non-finite derivatives during linearization")
    A = np.swapaxes(F[..., 0:s, :] - F[..., s:2 * s, :], -1, -2) / (2.0 * hx[..., None, :])
    B = np.swapaxes(F[..., 2 * s:2 * s + p, :] - F[..., 2 * s + p:2 * s + 2 * p, :], -1, -2) / (
        2.0 * hu[..., None, :])
    return LtvModel(A=A, B=B, f_r=F[..., -1, :])


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and the
# 1-norm up to which it meets double precision unscaled (Higham 2005,
# Algorithm 2.3 and Table 2.3).  Rows of _PADE13_TERMS weigh (I, A^2, A^4,
# A^6) into U_1, U_2, V_1 and V_2 of _expm, divided by b_0 so that
# exp(0) = I exactly.
_PADE13_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
             1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
             33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE13_TERMS = np.array([[_PADE13_B[1], _PADE13_B[3], _PADE13_B[5], _PADE13_B[7]],
                          [0.0, _PADE13_B[9], _PADE13_B[11], _PADE13_B[13]],
                          [_PADE13_B[0], _PADE13_B[2], _PADE13_B[4], _PADE13_B[6]],
                          [0.0, _PADE13_B[8], _PADE13_B[10], _PADE13_B[12]]]) / _PADE13_B[0]
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005,
    Algorithm 2.3, always at degree 13): exp(A) = r13(A / 2^s)^(2^s) with
    the fewest squarings ``s`` that bring the 1-norm within ``_THETA13``,
    where r13 = (V - U)^-1 (V + U) with U = A (A^6 U_2 + U_1) and
    V = A^6 V_2 + V_1.  Raises DivergenceError when the 1-norm is not
    finite (a NaN or infinite entry, or column sums that overflow)."""
    n = A.shape[0]
    norm = np.linalg.norm(A, 1)     # cannot raise: a norm solves nothing
    if not np.isfinite(norm):
        raise DivergenceError(f"matrix exponential of a matrix with 1-norm {norm}")
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    powers = np.empty((4, n, n))
    powers[0] = np.eye(n)
    powers[1] = A @ A
    powers[2] = powers[1] @ powers[1]
    powers[3] = powers[2] @ powers[1]
    U1, U2, V1, V2 = (_PADE13_TERMS @ powers.reshape(4, n * n)).reshape(4, n, n)
    U = A @ (powers[3] @ U2 + U1)
    V = powers[3] @ V2 + V1
    # cannot raise: V - U, the Pade denominator at a 1-norm <= _THETA13, is regular
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def zoh_discretize(A: np.ndarray, B: np.ndarray, Ts: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    s, p = A.shape[0], B.shape[1]
    aug = np.zeros((s + p, s + p))
    aug[:s, :s] = A * Ts
    aug[:s, s:] = B * Ts
    E = _expm(aug)
    return E[:s, :s], E[:s, s:]


@dataclass(frozen=True)
class MpcParams:
    """Horizon, weight scales and increment bound of one MPC instance, as a
    scenario's ``controller`` object writes them: the weights are
    ``Q_scale * I``, ``R_scale * I`` and ``P_scale * I``, and each input's
    increments satisfy ``|du| <= du_bound`` (an infinite entry bounds
    nothing).  Construction also builds the parameter-only parts of the QP.
    """

    Ts: float
    Np: int
    Nc: int
    Q_scale: float
    R_scale: float
    P_scale: float
    du_bound: np.ndarray
    _URU: np.ndarray = field(init=False, repr=False, compare=False)
    _box: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.Ts < np.inf:
            raise ValueError("Ts must be finite and positive")
        if not (0 < self.Nc <= self.Np):
            raise ValueError("control horizon must satisfy 0 < Nc <= Np")
        for name, positive in (("Q_scale", False), ("R_scale", True), ("P_scale", False)):
            w = getattr(self, name)
            if not (0 < w < np.inf if positive else 0 <= w < np.inf):
                raise ValueError(f"{name} must be finite and "
                                 + ("positive" if positive else "non-negative"))
        du_bound = np.array(self.du_bound, dtype=float)
        du_bound.setflags(write=False)
        object.__setattr__(self, "du_bound", du_bound)
        if not np.all(self.du_bound >= 0):
            raise ValueError("du_bound entries must be non-negative, not NaN (Infinity means "
                             "no bound)")

        # u(j) - u(-1) sums du(0..min(j, Nc-1)), so the input weights see
        # du(i)^T R du(l) once for every j >= max(i, l)
        lag = np.arange(self.Nc)
        p = self.du_bound.size
        object.__setattr__(self, "_URU", np.kron(self.Np - np.maximum.outer(lag, lag),
                                                 self.R_scale * np.eye(p)))
        up = np.tile(self.du_bound, self.Nc)
        rows = np.eye(self.Nc * p)[np.isfinite(up)]
        object.__setattr__(self, "_box", (np.vstack([rows, -rows]),
                                          np.tile(up[np.isfinite(up)], 2)))


FACTOR_BLOCK = 20      # largest diagonal block when inverting the Cholesky factor


def _inverse_factor(H) -> np.ndarray:
    """``Li = L^-1`` for the Cholesky factor of ``H = L L^T``, so that
    ``H^-1 r = Li^T (Li r)``.

    Blocked forward substitution: the diagonal blocks of L (at most
    ``FACTOR_BLOCK`` rows each, L padded with identity to whole blocks)
    are inverted in one batched call and written into Li in one
    assignment, and each block row of Li below the first follows from the
    rows above it.  Raises ConditioningError when H is not
    positive definite.
    """
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"QP Hessian is not positive definite ({exc})") from None
    if not np.all(np.isfinite(L.diagonal())):   # a NaN or inf in H reaches the pivots
        raise ConditioningError("QP Hessian is not positive definite (non-finite pivot)")
    n = L.shape[0]
    nb = -(-n // FACTOR_BLOCK)
    b = -(-n // nb)
    if nb * b > n:
        L = np.pad(L, (0, nb * b - n))
        L[n:, n:] = np.eye(nb * b - n)
    blocks = np.arange(nb)
    try:
        D = np.tril(np.linalg.inv(L.reshape(nb, b, nb, b)[blocks, :, blocks, :]))
    except np.linalg.LinAlgError:
        raise ConditioningError("QP Hessian: a diagonal block of its Cholesky factor is "
                                "singular") from None
    Li = np.zeros(L.shape)
    Li.reshape(nb, b, nb, b)[blocks, :, blocks, :] = D
    D = -D
    for i in range(1, nb):
        lo, hi = i * b, (i + 1) * b
        Li[lo:hi, :lo] = D[i] @ (L[lo:hi, :lo] @ Li[:lo, :lo])
    return np.ascontiguousarray(Li[:n, :n])


QP_TOL = 1e-9          # feasibility, falling-multiplier and dependent-row tolerance of the QP
QP_MAX_ITER = 500      # active-set iterations before IterationLimitError


def solve_qp_active_set(Li, g, A_ineq, b_ineq):
    """Minimize 0.5 z^T H z + g^T z subject to A z <= b (dual active set).

    H is positive definite and given by the inverse of its Cholesky factor,
    ``Li`` (:func:`_inverse_factor`, which refuses any other H), so that
    H^-1 r = Li^T (Li r) takes two matrix products.  The dual method of
    Goldfarb & Idnani (1983) starts at the unconstrained minimizer and
    raises the multiplier t of the most violated row a: z moves by -t y,
    with y = H^-1 a - Y dlam, Y = H^-1 A_W^T and (A_W Y) dlam = A_W H^-1 a,
    and the working multipliers by -t dlam, until the row holds and joins
    the working set W or a working multiplier reaches 0 and its row leaves.
    W is one flag per row, and the multipliers and the columns of Y are
    kept by row, so a row joins or leaves by one assignment.  Projecting
    each y onto null(A_W), and z on return onto A_W z = b_W, removes the
    cancellation error that would move the working rows.  When no row is
    violated at the unconstrained minimizer ``Li^T (Li (-g))``, that returns
    bit for bit, before any working-set array is built.  Ties break toward
    the lowest row index.  Raises InfeasibleError naming a violated row that
    no step can meet, and ConditioningError when the working-set system is
    singular.
    """
    g = np.asarray(g, dtype=float)
    A_ineq, b_ineq = np.asarray(A_ineq, dtype=float), np.asarray(b_ineq, dtype=float)

    def h_solve(rhs):
        return Li.T @ (Li @ rhs)

    z = h_solve(-g)
    viol = A_ineq @ z - b_ineq
    if not viol.size or viol.max() <= QP_TOL:
        return z
    W = np.zeros(b_ineq.size, dtype=bool)     # the working set, one flag per row
    lam = np.zeros(b_ineq.size)               # multipliers, by row
    Y = np.zeros((g.size, b_ineq.size))       # columns H^-1 a, by row
    row = None                                # the violated row being added, multiplier t_row
    for _ in range(QP_MAX_ITER):
        # C-ordered: the F-ordered Y[:, W] gives the products below other round-off
        Aw, Yw = A_ineq[W], np.ascontiguousarray(Y[:, W])
        try:
            if row is None:
                row, t_row = int(np.argmax(viol)), 0.0
                if viol[row] <= QP_TOL:
                    return z - Aw.T @ np.linalg.solve(Aw @ Aw.T, Aw @ z - b_ineq[W])
            a, y0 = A_ineq[row], h_solve(A_ineq[row])
            dlam = np.linalg.solve(Aw @ Yw, Aw @ y0)
            y = y0 - Yw @ dlam
            y = y - Aw.T @ np.linalg.solve(Aw @ Aw.T, Aw @ y)
        except np.linalg.LinAlgError:
            raise ConditioningError(
                f"active-set QP: singular working-set system ({Aw.shape[0]} rows)") from None
        # the t at which the row holds (inf when a lies in the span of A_W),
        # and at which each falling working multiplier reaches 0 (inf: no drop)
        ay = a @ y
        t_add = (a @ z - b_ineq[row]) / ay if ay > QP_TOL * (a @ y0) else np.inf
        falls = dlam > QP_TOL
        ratios = np.append(np.where(falls, lam[W], np.inf) / np.where(falls, dlam, 1.0), np.inf)
        j = int(np.argmin(ratios))
        t = min(t_add, ratios[j])
        if t == np.inf:
            raise InfeasibleError(f"QP infeasible: constraint row {row}, violated by "
                                  f"{a @ z - b_ineq[row]:.3e}, conflicts with the working set")
        t = max(t, 0.0)
        z, t_row = z - t * y, t_row + t
        lam[W] -= t * dlam
        if t_add <= ratios[j]:
            W[row], lam[row], Y[:, row], row = True, t_row, y0, None
            viol = A_ineq @ z - b_ineq
        else:
            W[np.flatnonzero(W)[j]] = False
    raise IterationLimitError(f"active-set QP did not converge within {QP_MAX_ITER} iterations")


@dataclass(frozen=True)
class MpcDesign:
    """The part of one MPC that changes only with the linearization."""

    params: MpcParams
    S: np.ndarray              # (Np, s, s): free response x(j) - x(0) = S[j-1] dx0
    cum: np.ndarray            # (Np*s, p): rows m*s.. hold sum_{t<=m} Ad^t Bd
    Li: np.ndarray             # inverse Cholesky factor of the QP Hessian: H^-1 = Li^T Li


def _hessian(cum, params: MpcParams) -> np.ndarray:
    """QP Hessian (2x scale, symmetrized) from the step response ``cum``.

    Block (i, l) of the state part sums cum[a]^T W cum[b] over the steps
    that both du(i) and du(l) reach, so the Q part is a suffix sum along
    the block diagonals of one small Gram matrix and the terminal P part
    is the Gram matrix of the last prediction step.
    """
    Np, s, p = cum.shape
    nz = params.Nc * p
    Y = cum[::-1].transpose(1, 0, 2).reshape(s, Np * p)   # block i = cum[Np-1-i]
    X = Y[:, p:]                                           # block i = cum[Np-2-i]
    E = X.T @ (params.Q_scale * X)
    for r in range(Np - 3, -1, -1):
        E[r * p:(r + 1) * p, :-p] += E[(r + 1) * p:(r + 2) * p, p:]
    H = (Y[:, :nz].T * params.P_scale) @ Y[:, :nz]
    H += params._URU
    m = min(nz, E.shape[0])
    H[:m, :m] += E[:m, :m]
    return H + H.T


def mpc_design(A, B, params: MpcParams) -> MpcDesign:
    """The design of the linearization dx/dt = A dx + B du under ``params``,
    for :func:`mpc_step` to use in every period that keeps it."""
    Np = params.Np
    Ad, Bd = zoh_discretize(A, B, params.Ts)
    s, p = Bd.shape
    Apow = np.empty((Np + 1, s, s))
    Apow[0], Apow[1] = np.eye(s), Ad
    m = 1
    while m < Np:                          # Ad^(m+j) = Ad^m Ad^j, j = 1..min(m, Np-m)
        k = min(m, Np - m)
        Apow[m + 1:m + k + 1] = Apow[m] @ Apow[1:k + 1]
        m += k
    markov = Apow[:Np] @ Bd                # Ad^t Bd: response of dx(t+1) to du(0)
    cum = np.cumsum(markov, axis=0)        # response of x(t+1) - x(0) to du(0)
    return MpcDesign(params=params, S=np.cumsum(Apow[1:], axis=0), cum=cum.reshape(Np * s, p),
                     Li=_inverse_factor(_hessian(cum, params)))


def mpc_step(
    design: MpcDesign,
    x_now,
    x_prev,
    u_prev,
    x_ref_window,
    u_ref_window,
) -> np.ndarray:
    """One receding-horizon solve under ``design``; returns the input to
    apply now.

    ``x_ref_window`` has Np+1 rows, ``u_ref_window`` at least Np rows.
    Raises IterationLimitError or ConditioningError from the QP; its
    increment box contains 0, so the QP is never infeasible.
    """
    x_now = np.asarray(x_now, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    xr = np.asarray(x_ref_window, dtype=float)
    ur = np.asarray(u_ref_window, dtype=float)
    params = design.params
    Np, Nc = params.Np, params.Nc
    s = x_now.size
    dx0 = x_now - x_prev

    # e_x(j) = rtil[j-1] - Phi[j] z for j = 1..Np, Phi[j] block i = cum[j-1-i];
    # e_u(j) = stil[j] - (du(0) + .. + du(min(j, Nc-1)))
    rtil = xr[1:Np + 1] - x_now - design.S @ dx0
    stil = ur[:Np] - u_prev
    v = np.zeros((Np + Nc - 1, s))         # weighted e_x, zero past the horizon
    v[:Np - 1] = params.Q_scale * rtil[:-1]
    v[Np - 1] = params.P_scale * rtil[-1]
    windows = np.ndarray((Nc, Np * s), float, v, 0, v.strides)    # window i: v[i:i+Np]
    gx = windows @ design.cum              # Phi^T W rtil
    gu = np.cumsum((params.R_scale * stil)[::-1], axis=0)[::-1][:Nc]
    g = -2.0 * (gx + gu).ravel()

    z = solve_qp_active_set(design.Li, g, *params._box)
    return u_prev + z[:u_prev.size]


@dataclass(frozen=True)
class PidGains:
    """Scalar gains applied elementwise to the joint channels."""

    Kp: float
    Ki: float
    Kd: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.Kp, self.Ki, self.Kd])):
            raise ValueError("PID gains must be finite")
        if min(self.Kp, self.Ki, self.Kd) < 0:
            raise ValueError("PID gains must be nonnegative")


def pid_step(err, integral, prev_error, gains: PidGains, dt: float):
    """One PID update of the joint torques: ``(tau, integral, e)``.

    ``err`` interleaves the free joints' angle and rate errors on its last
    axis (e0, edot0, e1, ...), leading axes broadcast; the integral advances
    by the trapezoid rule from ``prev_error``, the last call's ``e``.  ``dt``
    must be finite and positive (ValueError)."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be finite and positive")
    e, edot = err[..., 0::2], err[..., 1::2]
    integral = integral + 0.5 * (e + prev_error) * dt
    return gains.Kp * e + gains.Ki * integral + gains.Kd * edot, integral, e
