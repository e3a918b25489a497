import numpy as np
import pytest
from numpy.testing import assert_allclose

from lowrank_sde.ensemble import (
    EnsembleState,
    _write_csv,
    expectation_outer,
    gramian,
    init_rank_k,
    load_snapshot,
    mean_square_norm,
    reconstruct,
    save_snapshot,
    sigma_min,
)
from lowrank_sde.errors import DimensionMismatch, RankTooLarge
from lowrank_sde.linalg import sym_eig


def random_state(rng, k, d, m_paths, t=0.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return EnsembleState(t=t, u=q.T, y=rng.standard_normal((k, m_paths)))


class TestExpectationOuter:
    def test_single_column(self):
        a = np.array([[1.0], [0.0]])
        assert_allclose(expectation_outer(a, a), [[1.0, 0.0], [0.0, 0.0]])

    def test_zero(self):
        z = np.zeros((3, 5))
        assert_allclose(expectation_outer(z, z), np.zeros((3, 3)))

    def test_two_orthonormal_columns(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert_allclose(expectation_outer(a, a), 0.5 * np.eye(2))

    def test_matches_explicit_sequential_sum(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 40))
        b = rng.standard_normal((5, 40))
        acc = np.zeros((3, 5))
        for j in range(40):
            acc += np.outer(a[:, j], b[:, j])
        assert_allclose(expectation_outer(a, b), acc / 40, rtol=1e-12, atol=1e-14)

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation_outer(np.ones((2, 3)), np.ones((2, 4)))


class TestGramian:
    def test_scaled_orthonormal_rows(self):
        # rows orthonormal in the sample inner product scaled by sqrt(M)
        m = 8
        y = np.zeros((2, m))
        y[0, 0] = np.sqrt(m)
        y[1, 1] = np.sqrt(m)
        assert_allclose(gramian(y), np.eye(2), atol=1e-14)

    def test_zero(self):
        assert_allclose(gramian(np.zeros((2, 4))), np.zeros((2, 2)))

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.standard_normal((4, 30))
            c = gramian(y)
            assert np.array_equal(c, c.T)
            assert sym_eig(c)[0][-1] >= -1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 50))
        perm = rng.permutation(50)
        assert_allclose(gramian(y), gramian(y[:, perm]), rtol=1e-12, atol=1e-12)


class TestInitRankK:
    def test_exact_low_rank_roundtrip(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        samples = q @ rng.standard_normal((2, 20))
        state = init_rank_k(samples, 2)
        assert np.linalg.norm(reconstruct(state) - samples) <= 1e-10 * np.linalg.norm(samples)

    def test_full_rank_retained(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((5, 20))
        state = init_rank_k(samples, 5)
        assert np.linalg.norm(reconstruct(state) - samples) <= 1e-10 * np.linalg.norm(samples)

    def test_orthonormal_rows_and_sign_convention(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            samples = rng.standard_normal((6, 15))
            state = init_rank_k(samples, 3)
            assert_allclose(state.u @ state.u.T, np.eye(3), atol=1e-12)
            for row in state.u:
                assert row[np.argmax(np.abs(row))] > 0

    def test_frobenius_optimal_vs_svd_tail(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 25))
        noisy = base + 1e-6 * rng.standard_normal((6, 25))
        state = init_rank_k(noisy, 3)
        err = np.linalg.norm(noisy - reconstruct(state))
        tail = np.sqrt(np.sum(np.linalg.svd(noisy, compute_uv=False)[3:] ** 2))
        assert err <= tail * (1 + 1e-8)
        assert err <= 2e-6 * np.sqrt(6 * 25)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            init_rank_k(np.ones((3, 5)), 4)


class TestReconstructAndNorm:
    def test_identity_modes_embed(self):
        y = np.arange(6.0).reshape(2, 3)
        state = EnsembleState(t=0.0, u=np.eye(4)[:2], y=y)
        x = reconstruct(state)
        assert_allclose(x[:2], y)
        assert_allclose(x[2:], 0.0)

    def test_rank_one_basis_vector(self):
        state = EnsembleState(t=0.0, u=np.eye(3)[:1], y=np.ones((1, 4)))
        x = reconstruct(state)
        assert_allclose(x[0], 1.0)
        assert_allclose(x[1:], 0.0)

    def test_mean_square_norm_values(self):
        assert mean_square_norm(np.zeros((3, 2))) == 0.0
        assert mean_square_norm(np.array([[3.0], [4.0]])) == 25.0
        assert mean_square_norm(np.eye(2)) == 1.0

    def test_norm_invariant_under_orthonormal_factor(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 7, 40)
        assert_allclose(
            mean_square_norm(reconstruct(state)),
            mean_square_norm(state.y),
            rtol=1e-12,
        )


class TestEnsembleStateValidation:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            EnsembleState(t=0.0, u=np.ones((2, 3)), y=np.ones((2, 4)))

    def test_rank_exceeding_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            EnsembleState(t=0.0, u=np.ones((3, 2)), y=np.ones((3, 4)))

    def test_non_finite_rejected(self):
        y = np.ones((1, 3))
        y[0, 1] = np.nan
        with pytest.raises(ValueError):
            EnsembleState(t=0.0, u=np.eye(2)[:1], y=y)

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            EnsembleState(t=0.0, u=np.eye(2), y=np.ones((3, 4)))


class TestSnapshotRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        state = random_state(rng, 3, 6, 11, t=0.625)
        path = tmp_path / "snap.csv"
        save_snapshot(state, path)
        back = load_snapshot(path)
        assert back.t == state.t
        assert np.array_equal(back.u, state.u)
        assert np.array_equal(back.y, state.y)

    def test_header_layout(self, tmp_path):
        state = EnsembleState(t=1.5, u=np.eye(3)[:2], y=np.ones((2, 4)))
        path = tmp_path / "snap.csv"
        save_snapshot(state, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1.5,2,3,4"
        assert len(lines) == 1 + 2 + 2


def test_csv_writer_format_contract(tmp_path):
    # every CSV byte the package writes rests on this one number format
    path = tmp_path / "rows.csv"
    _write_csv(path, "name,a,b", [
        ("dlr_em", 2000, np.int64(2000)),
        ("1e-3", 0.1, np.float64(0.1)),
        ("x", -0.0, float("nan")),
        ("y", float("inf"), -np.inf),
    ])
    assert path.read_bytes() == (b"name,a,b\n"
                                 b"dlr_em,2000,2000\n"
                                 b"1e-3,0.10000000000000001,"
                                 b"0.10000000000000001\n"
                                 b"x,-0,nan\n"
                                 b"y,inf,-inf\n")
    _write_csv(path, None, [(1.5, 2)])
    assert path.read_bytes() == b"1.5,2\n"
    # save_snapshot: a values line t,k,d,M, then u's rows, then y's rows
    state = EnsembleState(t=0.25, u=np.array([[0.6, 0.8]]),
                          y=np.array([[0.1, -0.0, 2000.0]]))
    save_snapshot(state, path)
    assert path.read_bytes() == (b"0.25,1,2,3\n"
                                 b"0.59999999999999998,0.80000000000000004\n"
                                 b"0.10000000000000001,-0,2000\n")


def test_sigma_min_nan_and_clamp_rule():
    # a non-finite Gramian has no floor; rounding below 0 reads as 0
    assert np.isnan(sigma_min(np.array([[1.0, np.inf], [np.inf, 1.0]])))
    assert sigma_min(np.diag([1.0, -1e-18])) == 0.0
    assert sigma_min(np.diag([2.0, 0.5])) == 0.5


def test_gramian_sigma_min_on_seeded_cloud():
    rng = np.random.default_rng(10)
    samples = np.vstack(
        [
            0.1 - rng.uniform(-1e-4, 1e-4, size=200),
            0.1 - rng.uniform(-1e-4, 1e-4, size=200),
            np.zeros(200),
        ]
    )
    state = init_rank_k(samples, 2)
    sigma = sigma_min(gramian(state.y))
    assert sigma > 0.0
    # fluctuation scale: variance of U(-1e-4, 1e-4) is (2e-4)^2 / 12
    assert 1e-10 < sigma < 1e-8
