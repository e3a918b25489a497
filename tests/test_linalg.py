import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lowrank_sde.errors import DimensionMismatch, NotPSD
from lowrank_sde.linalg import reduced_qr, solve_spsd_minnorm, sym_eig

# derandomized so every tier-1 run checks the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def minnorm_problems(draw):
    """(C, X0, Q): C = G G^T of size k <= 6 and rank r <= k, a right-hand
    side block X0, and an orthonormal basis Q of range(C)."""
    k = draw(st.integers(1, 6))
    r = draw(st.integers(1, k))
    cols = draw(st.integers(1, 4))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = scale * rng.standard_normal((k, r))
    x0 = rng.standard_normal((k, cols))
    q, _ = np.linalg.qr(g)
    return g @ g.T, x0, q


def range_condition(c, rank):
    """lambda_max / lambda_rank, which bounds the solve's forward error."""
    lam = np.linalg.eigvalsh(c)
    return lam[-1] / lam[-rank]


class TestReducedQR:
    def test_identity(self):
        q, r, deficient = reduced_qr(np.eye(3))
        assert deficient == -1
        assert_allclose(q, np.eye(3), atol=1e-15)
        assert_allclose(r, np.eye(3), atol=1e-15)

    def test_single_column_hand_values(self):
        # norm of (3, 4) is 5, so q = (0.6, 0.8), r = (5)
        q, r, _ = reduced_qr(np.array([[3.0], [4.0]]))
        assert_allclose(q, np.array([[0.6], [0.8]]), rtol=1e-15)
        assert_allclose(r, np.array([[5.0]]), rtol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(2, 12)
            k = rng.integers(1, n + 1)
            a = rng.standard_normal((n, k))
            q, r, _ = reduced_qr(a)
            assert_allclose(q.T @ q, np.eye(k), atol=1e-12)
            assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)

    def test_sign_convention_positive_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((6, 4))
            _, r, _ = reduced_qr(a)
            assert np.all(np.diagonal(r) > 0)
            # strict upper triangularity below the diagonal
            assert_allclose(np.tril(r, -1), 0.0, atol=1e-14)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 3))
        q1, r1, _ = reduced_qr(a)
        q2, r2, _ = reduced_qr(a.copy())
        assert np.array_equal(q1, q2)
        assert np.array_equal(r1, r2)

    def test_zero_column_reported(self):
        # a rank-deficient input still factors, and names its column
        a = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        q, r, deficient = reduced_qr(a)
        assert deficient == 1 and isinstance(deficient, int)
        assert_allclose(q @ r, a, atol=1e-14)

    def test_duplicated_column_reported(self):
        col = np.array([1.0, 2.0, 3.0])
        a = np.stack([col, col], axis=1)
        assert reduced_qr(a)[2] == 1

    def test_wide_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            reduced_qr(np.ones((2, 3)))

    def test_stack_factors_each_matrix_alone(self):
        # a stack gives each matrix its own bits and its own verdict, a
        # rank-deficient matrix in it included
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 6, 3))
        a[3, :, 2] = a[3, :, 0]
        q, r, deficient = reduced_qr(a)
        assert deficient.tolist() == [-1, -1, -1, 2, -1]
        for s in range(5):
            q_s, r_s, deficient_s = reduced_qr(a[s])
            assert np.array_equal(q[s], q_s) and np.array_equal(r[s], r_s)
            assert deficient_s == deficient[s]


class TestSymEig:
    def test_diagonal(self):
        eigenvalues, _ = sym_eig(np.diag([3.0, 1.0]))
        assert_allclose(eigenvalues, [3.0, 1.0])

    def test_hand_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1, roots 3 and 1
        eigenvalues, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(eigenvalues, [3.0, 1.0], rtol=1e-14)

    def test_zero_matrix(self):
        eigenvalues, _ = sym_eig(np.zeros((4, 4)))
        assert_allclose(eigenvalues, np.zeros(4))

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = rng.integers(2, 9)
            c = rng.standard_normal((k, k))
            c = c + c.T
            lam, v = sym_eig(c)
            assert np.all(np.diff(lam) <= 1e-14)
            rebuilt = v @ np.diag(lam) @ v.T
            assert np.linalg.norm(rebuilt - c) <= 1e-12 * max(np.linalg.norm(c), 1.0)
            assert_allclose(v.T @ v, np.eye(k), atol=1e-12)

    def test_asymmetric_rounding_tolerated(self):
        c = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        eigenvalues, _ = sym_eig(c)
        assert_allclose(eigenvalues, [3.0, 1.0], rtol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            sym_eig(np.ones((2, 3)))


class TestSolveSpsdMinnorm:
    def test_identity_gramian(self):
        b = np.arange(6.0).reshape(2, 3)
        assert_allclose(solve_spsd_minnorm(np.eye(2), b), b, rtol=1e-14)

    def test_singular_diagonal_pseudo_inverse(self):
        c = np.diag([1.0, 0.0])
        b = np.ones((2, 2))
        expected = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert_allclose(solve_spsd_minnorm(c, b), expected, atol=1e-15)

    @PROPERTY
    @given(minnorm_problems())
    def test_forward_multiply_oracle(self, problem):
        # X = solve(C, C X0) reproduces C X0, and X0 itself when C is
        # nonsingular
        c, x0, q = problem
        x = solve_spsd_minnorm(c, c @ x0)
        scale = np.linalg.norm(c) * np.linalg.norm(x0)
        assert np.linalg.norm(c @ x - c @ x0) <= 1e-10 * scale
        if q.shape[1] == c.shape[0]:
            assert np.linalg.norm(x - x0) \
                <= 1e-13 * range_condition(c, q.shape[1]) * np.linalg.norm(x0)

    def test_agrees_with_direct_solve_when_spd(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            g = rng.standard_normal((k, k))
            c = g @ g.T + np.eye(k)
            b = rng.standard_normal((k, 3))
            x = solve_spsd_minnorm(c, b)
            direct = np.linalg.solve(c, b)
            resid = np.linalg.norm(c @ x - b) / np.linalg.norm(b)
            assert resid <= 1e-10
            assert_allclose(x, direct, rtol=1e-8, atol=1e-12)

    @PROPERTY
    @given(minnorm_problems())
    def test_minimal_norm_among_solutions(self, problem):
        # every X0 + N with C N = 0 solves C X = C X0; the minimal-norm
        # solution has no null-space part, so it lies in range(C) and is
        # no longer than X0
        c, x0, q = problem
        x = solve_spsd_minnorm(c, c @ x0)
        assert np.linalg.norm(x - q @ (q.T @ x)) \
            <= 1e-8 * np.linalg.norm(x0)
        slack = 1e-13 * range_condition(c, q.shape[1])
        assert np.linalg.norm(x) <= np.linalg.norm(x0) * (1.0 + slack)

    def test_negative_eigenvalue_raises(self):
        c = np.diag([1.0, -1e-3])
        with pytest.raises(NotPSD):
            solve_spsd_minnorm(c, np.ones((2, 1)))

    def test_tiny_negative_rounding_tolerated(self):
        c = np.diag([1.0, -1e-14])
        x = solve_spsd_minnorm(c, np.ones((2, 1)))
        assert np.all(np.isfinite(x))

    def test_zero_matrix_returns_zero(self):
        x = solve_spsd_minnorm(np.zeros((3, 3)), np.ones((3, 2)))
        assert_allclose(x, np.zeros((3, 2)))

    def test_threshold_truncates_small_modes(self):
        c = np.diag([1.0, 1e-15])
        b = np.ones((2, 1))
        x = solve_spsd_minnorm(c, b)
        # the 1e-15 mode sits below 1e-12 * 1 and must be zeroed, not amplified
        assert_allclose(x, np.array([[1.0], [0.0]]), atol=1e-14)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_stack_solves_each_matrix_alone(self, k, cols, n, seed):
        # Gramians of random rank and scale: each solution of the stack
        # keeps the bits of its matrix solved alone
        rng = np.random.default_rng(seed)
        c = np.stack([g @ g.T for g in (
            rng.uniform(1e-3, 1e3) * rng.standard_normal(
                (k, rng.integers(1, k + 1))) for _ in range(n))])
        b = rng.standard_normal((n, k, cols))
        x = solve_spsd_minnorm(c, b)
        for s in range(n):
            assert np.array_equal(x[s], solve_spsd_minnorm(c[s], b[s]))

    def test_stack_with_a_negative_matrix_raises(self):
        c = np.stack([np.eye(2), np.diag([1.0, -1e-3])])
        with pytest.raises(NotPSD):
            solve_spsd_minnorm(c, np.ones((2, 2, 1)))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            solve_spsd_minnorm(np.eye(2), np.ones((3, 1)))
        # a right-hand side is a (k, d) block, never a vector
        with pytest.raises(DimensionMismatch):
            solve_spsd_minnorm(np.eye(2), np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_spsd_minnorm(np.stack([np.eye(2)] * 3), np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            solve_spsd_minnorm(np.ones((2, 3)), np.ones((2, 1)))
