import numpy as np
import pytest
from hypothesis import given, strategies as st

from cablearm.errors import RankDeficiencyError
from cablearm.kinematics import tension_wrench_matrix
from cablearm.redundancy import resolve


@pytest.fixture(scope="module")
def W(hcdr):
    return tension_wrench_matrix(hcdr, np.zeros(9))


@pytest.fixture(scope="module")
def gravity_wrench(hcdr):
    total = hcdr.platform.mass + sum(l.mass for l in hcdr.arm)
    return np.array([0, 0, total * hcdr.gravity, 0, 0, 0])


class TestPinv:
    """The minimum-norm tensions of :func:`resolve`."""

    def test_zero_wrench(self, W):
        assert np.allclose(resolve(W, np.zeros(6))[0], 0.0)

    def test_residual(self, W, gravity_wrench):
        T, _ = resolve(W, gravity_wrench)
        assert np.linalg.norm(W @ T - gravity_wrench) <= 1e-8

    def test_minimum_norm_by_sampling(self, W, gravity_wrench):
        T, N = resolve(W, gravity_wrench)
        r = np.random.default_rng(3)
        for lam in r.normal(0, 5, (1000, N.shape[1])):
            other = T + N @ lam
            assert np.linalg.norm(T) <= np.linalg.norm(other) + 1e-12

    def test_rank_deficiency_reports_rank(self):
        A = np.zeros((6, 8))
        A[0] = 1.0
        A[1] = 2.0
        with pytest.raises(RankDeficiencyError, match="rank 1"):
            resolve(A, np.zeros(6))


class TestStacks:
    """resolve broadcasts over stacks of wrench maps."""

    def test_rows_equal_single_calls(self, hcdr, gravity_wrench):
        q = np.zeros((3, 6))
        q[1, 0], q[2, 2], q[2, 4] = 0.05, 0.1, 0.2
        W = tension_wrench_matrix(hcdr, q)
        T, N = resolve(W, gravity_wrench)
        for i in range(3):
            T_i, N_i = resolve(W[i], gravity_wrench)
            assert T[i].tobytes() == T_i.tobytes()
            assert N[i].tobytes() == N_i.tobytes()

    def test_rank_deficient_row_is_named(self, W):
        A = np.stack([W, W, W])
        A[1, 1] = 2.0 * A[1, 0]
        with pytest.raises(RankDeficiencyError, match=r"rank 5 < 6\) at row 1$"):
            resolve(A, np.zeros(6))


class TestNullSpace:
    """The null-space basis of :func:`resolve`."""

    @pytest.fixture(scope="class")
    def N(self, W):
        return resolve(W, np.zeros(6))[1]

    def test_dimensions(self, N):
        assert N.shape == (12, 6)

    def test_annihilation(self, W, N):
        assert np.linalg.norm(W @ N) <= 1e-10

    def test_orthonormal(self, N):
        assert np.linalg.norm(N.T @ N - np.eye(6)) <= 1e-10

    def test_sign_normalized_and_reproducible(self, W, N):
        assert np.array_equal(N, resolve(W.copy(), np.zeros(6))[1])
        for k in range(N.shape[1]):
            lead = np.argmax(np.abs(N[:, k]) > 1e-12)
            assert N[lead, k] > 0

    def test_full_column_rank_gives_empty_basis(self):
        A = np.eye(4) + np.triu(np.ones((4, 4)), k=1)
        T, N = resolve(A, np.arange(4.0))
        assert N.shape == (4, 0)
        assert np.allclose(A @ T, np.arange(4.0), rtol=0, atol=1e-12)


class TestDistribute:
    """Tensions T = W^+ tau_m + N_W lam: the minimum-norm solution plus
    antagonistic tension from the null space."""

    def test_zero_lambda_equals_pinv(self, W, gravity_wrench):
        """The minimum-norm tensions have zero null-space coordinates."""
        T, N = resolve(W, gravity_wrench)
        lam = N.T @ T
        assert np.allclose(lam, 0.0, atol=1e-10)

    @given(seed=st.integers(0, 2**31))
    def test_wrench_invariance(self, seed, W, gravity_wrench):
        lam = np.random.default_rng(seed).normal(0, 10, 6)
        T_min_norm, N = resolve(W, gravity_wrench)
        T = T_min_norm + N @ lam
        res = np.linalg.norm(W @ T - gravity_wrench)
        assert res <= 1e-8 * (1 + np.linalg.norm(gravity_wrench))

    def test_optimizer_lambda_is_feasible(self, hcdr, gravity_wrench):
        """The stiffness optimizer's distribution keeps every cable in bounds."""
        from cablearm.stiffness import optimize_tensions

        res = optimize_tensions(hcdr, np.zeros(9))
        W = tension_wrench_matrix(hcdr, np.zeros(9))
        T_min_norm, N = resolve(W, gravity_wrench)
        T = T_min_norm + N @ res.lambda_opt
        assert np.allclose(T, res.T_opt, atol=1e-8)
        assert T.min() >= 5.0 - 1e-8
        assert T.max() <= 80.0 + 1e-8
