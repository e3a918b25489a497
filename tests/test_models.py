import numpy as np
import pytest
from numpy.testing import assert_allclose

from lowrank_sde.errors import SpecError
from lowrank_sde.models import (
    MODEL_BUILDERS,
    build_model,
    gbm_oracle,
    laplacian_model,
    sadr_model,
    stability_model,
    toy_example_1,
    toy_example_2,
    toy_example_3,
)
from lowrank_sde.noise import generate

import reference


def drift(model, t, x):
    """a(t, x) for one state: ``drift_many`` on a one-column cloud."""
    return model.drift_many(t, np.reshape(x, (model.d, 1)))[:, 0]


def diffusion(model, t, x):
    """b(t, x) as the model applies it: ``diffusion_dw`` on m copies of
    the state x with the m unit increments, one per column."""
    cloud = np.repeat(np.reshape(x, (model.d, 1)), model.m, axis=1)
    return model.diffusion_dw(t, cloud, np.eye(model.m))


def forcing(model, t):
    """laplacian_model's forcing at t: its drift at u = 0."""
    return drift(model, t, np.zeros(model.d))


def linear_growth_holds(model, rng, scale=5.0, n_points=10000):
    xs = scale * rng.standard_normal((model.d, n_points))
    cloud = xs[:, ::max(1, n_points // 200)]
    return reference.empirical_c_lgb(model, 0.3, cloud) <= model.c_lgb


class TestToyExample1:
    def test_drift_at_origin(self):
        model, _ = toy_example_1()
        assert_allclose(drift(model, 0.0, np.zeros(3)), np.zeros(3))

    def test_diffusion_at_origin_is_elliptic(self):
        model, _ = toy_example_1(sigma_b=1e-8)
        b = diffusion(model, 0.0, np.zeros(3))
        assert_allclose(b @ b.T, 1e-8 * np.eye(3), rtol=1e-12)

    def test_drift_hand_value(self):
        model, _ = toy_example_1()
        assert_allclose(
            drift(model, 0.0, np.ones(3)), [0.001, 0.001, -12.0], rtol=1e-14
        )

    def test_linear_drift_flag_consistent(self):
        model, _ = toy_example_1()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert_allclose(drift(model, 1.0, x), model.a_mat(1.0) @ x, rtol=1e-12)

    def test_sigma_b_lower_certified(self):
        model, _ = toy_example_1(sigma_b=1e-8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(3) * 3
            b = diffusion(model, 0.5, x)
            lam = np.linalg.eigvalsh(b @ b.T)
            assert lam[0] >= 1e-8 * (1 - 1e-12)

    def test_linear_growth_certificate(self):
        model, _ = toy_example_1()
        assert linear_growth_holds(model, np.random.default_rng(2))

    def test_initial_law_rank_two(self):
        _, law = toy_example_1()
        samples = law(42, 500)
        assert samples.shape == (3, 500)
        assert_allclose(samples[2], 0.0)
        assert np.all(np.abs(samples[:2] - 0.1) <= 1e-4)
        assert np.linalg.matrix_rank(samples) == 2

    def test_initial_law_deterministic(self):
        _, law = toy_example_1()
        assert np.array_equal(law(7, 100), law(7, 100))
        assert not np.array_equal(law(7, 100), law(8, 100))


class TestToyExample2:
    def test_additive_noise_constant_in_x(self):
        model, _ = toy_example_2()
        rng = np.random.default_rng(3)
        b0 = diffusion(model, 0.0, np.zeros(3))
        for _ in range(5):
            assert np.array_equal(diffusion(model, 0.2, rng.standard_normal(3)), b0)

    def test_degenerate_third_row(self):
        model, _ = toy_example_2(sigma_b=1e-19)
        b = diffusion(model, 0.0, np.ones(3))
        assert np.linalg.eigvalsh(b @ b.T)[0] == 0.0
        assert model.sigma_b_lower is None

    def test_drift_third_column(self):
        model, _ = toy_example_2()
        assert_allclose(
            drift(model, 0.0, np.array([0.0, 0.0, 1.0])),
            [0.001, 0.001, -4.0],
            rtol=1e-14,
        )

    def test_initial_law_second_component_narrow(self):
        _, law = toy_example_2()
        samples = law(11, 2000)
        assert np.all(np.abs(samples[0] - 0.1) <= 1e-4)
        assert np.all(np.abs(samples[1] - 0.1) <= 1e-9)
        assert np.any(np.abs(samples[1] - 0.1) > 0)


class TestToyExample3:
    def test_drift_at_origin(self):
        model, _ = toy_example_3()
        assert_allclose(drift(model, 0.0, np.zeros(3)), np.zeros(3))

    def test_drift_at_sine_peak(self):
        model, _ = toy_example_3()
        x = np.array([np.pi / 2, 0.0, 0.0])
        assert_allclose(drift(model, 0.0, x), [-3.0, -3.0, -4.0], rtol=1e-14)

    def test_drift_is_nonlinear(self):
        model, _ = toy_example_3()
        x = np.array([np.pi / 2, 0.0, 0.0])
        assert not np.allclose(drift(model, 0.0, 2 * x), 2 * drift(model, 0.0, x))
        assert not model.is_linear_drift

    def test_linear_growth_certificate(self):
        model, _ = toy_example_3()
        assert linear_growth_holds(model, np.random.default_rng(4))


class TestStabilityModel:
    def test_diagonal_drift_values(self):
        model, _ = stability_model(d=10)
        a0 = model.a_mat(0.0)
        assert_allclose(np.diag(a0), -22.0)
        assert_allclose(a0, np.diag(np.diag(a0)))
        a16 = model.a_mat(1.0 / 6.0)
        assert_allclose(np.diag(a16)[:3], -22.0)
        assert_allclose(np.diag(a16)[3:], -21.0, rtol=1e-12)

    def test_zero_solution(self):
        model, _ = stability_model()
        assert_allclose(drift(model, 0.7, np.zeros(10)), np.zeros(10))
        assert_allclose(diffusion(model, 0.7, np.zeros(10)), np.zeros((10, 10)))

    def test_diffusion_diagonal_scaling(self):
        model, _ = stability_model()
        x = np.arange(1.0, 11.0)
        assert_allclose(diffusion(model, 0.0, x), 0.1 * np.diag(x))

    def test_ams_matrices(self):
        # the linear test SDE whose margin test_08 reads is this model's
        model, _ = stability_model(d=10)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((10, 5))
        dw = rng.standard_normal((10, 5))
        for t in (0.0, 0.37):
            a_mat, b_mats = reference.stability_ams_matrices(t)
            assert len(b_mats) == 10
            assert_allclose(sum(np.linalg.norm(b, 2) ** 2 for b in b_mats),
                            0.1, rtol=1e-12)
            assert_allclose(model.a_mat(t), a_mat, rtol=1e-15)
            assert_allclose(model.drift_many(t, x), a_mat @ x, rtol=1e-14)
            assert_allclose(model.diffusion_dw(t, x, dw),
                            sum(b @ x * w for b, w in zip(b_mats, dw)),
                            rtol=1e-14)

    def test_initial_law_rank_four(self):
        _, law = stability_model(d=10)
        samples = law(5, 400)
        assert samples.shape == (10, 400)
        centered = samples - 1.0
        assert np.linalg.matrix_rank(centered, tol=1e-10) == 3
        assert np.linalg.matrix_rank(samples, tol=1e-10) == 4
        assert abs(samples.mean() - 1.0) < 0.005

    def test_dimension_floor(self):
        with pytest.raises(SpecError):
            stability_model(d=2)


class TestSadrModel:
    def test_additive_noise(self):
        model, _ = sadr_model()
        rng = np.random.default_rng(5)
        b0 = diffusion(model, 0.0, np.zeros(25))
        assert np.array_equal(diffusion(model, 1.0, rng.standard_normal(25)), b0)
        assert b0.shape == (25, 5)

    def test_drift_zero_field(self):
        model, _ = sadr_model()
        assert_allclose(drift(model, 0.0, np.zeros(25)), np.zeros(25))

    def test_constant_field_leaves_only_reaction(self):
        # diffusion and advection stencils vanish on constants under the
        # ghost reflection, leaving r sin(c) ones
        model, _ = sadr_model()
        c = 0.8
        out = drift(model, 0.0, np.full(25, c))
        assert_allclose(out, 0.1 * np.sin(c) * np.ones(25), atol=1e-12)

    def test_noise_profiles_are_sines(self):
        model, _ = sadr_model()
        b = diffusion(model, 0.0, np.zeros(25))
        x = (np.arange(25) + 0.5) * 0.04
        for i in range(1, 6):
            assert_allclose(b[:, i - 1], 0.5 * np.sin(i * np.pi * x), rtol=1e-12)

    def test_initial_law_shape_and_scale(self):
        _, law = sadr_model()
        samples = law(21, 300)
        assert samples.shape == (25, 300)
        # leading profile coefficient is 0.5 / (2 pi)^2, about 0.0127
        assert np.max(np.abs(samples)) < 0.05
        assert np.linalg.matrix_rank(samples, tol=1e-12) == 5

    def test_linear_growth_certificate(self):
        model, _ = sadr_model()
        assert linear_growth_holds(model, np.random.default_rng(6))


class TestLaplacianModel:
    def test_forcing_window_at_zero(self):
        model, _ = laplacian_model()
        x = np.arange(26) / 25.0
        f = forcing(model, 0.0)
        inside = (x > 0.0) & (x < 0.12)
        assert_allclose(f[inside], 3.0)
        assert_allclose(f[~inside], 0.0)

    def test_forcing_periodicity(self):
        # probe times are chosen so the window edges fall strictly between
        # grid points; the support test is then immune to rounding in the
        # modular reduction of t
        model, _ = laplacian_model()
        period = 2.0 * (1.0 - 0.12) / 0.4
        assert_allclose(forcing(model, period), forcing(model, 0.0))
        assert_allclose(forcing(model, period + 0.05), forcing(model, 0.05))
        # reflection: t and period - t see the same window
        assert_allclose(forcing(model, period - 1.05), forcing(model, 1.05))

    def test_forcing_window_slides(self):
        model, _ = laplacian_model()
        f_mid = forcing(model, 1.05)
        x = np.arange(26) / 25.0
        lo = 0.4 * 1.05
        inside = (x > lo) & (x < 0.12 + lo)
        assert inside.sum() == 3
        assert_allclose(f_mid[inside], 3.0)
        assert_allclose(f_mid[~inside], 0.0)

    def test_gamma_coefficients(self):
        # gamma_1 = exp(-2 pi) / (2 pi), approximately 2.9721e-4; on
        # u = psi_1 the trapezoidal <u, psi_1> is exactly 1, so channel
        # 1 loads gamma_1 on every interior node
        model, _ = laplacian_model()
        gamma_1 = np.exp(-2.0 * np.pi) / (2.0 * np.pi)
        assert_allclose(gamma_1, 2.972127e-4, rtol=1e-6)
        x = np.arange(26) / 25.0
        psi_1 = np.cos(2.0 * np.pi * x) + np.sin(2.0 * np.pi * x)
        b = diffusion(model, 0.0, psi_1)
        assert_allclose(b[1:-1, 0], gamma_1, rtol=1e-12)

    def test_dirichlet_rows_zero(self):
        model, law = laplacian_model()
        rng = np.random.default_rng(7)
        u = rng.standard_normal(26)
        a = drift(model, 1.3, u)
        b = diffusion(model, 1.3, u)
        assert a[0] == 0.0 and a[-1] == 0.0
        assert_allclose(b[0], 0.0)
        assert_allclose(b[-1], 0.0)
        samples = law(3, 50)
        assert_allclose(samples[0], 0.0, atol=1e-20)
        assert_allclose(samples[-1], 0.0, atol=1e-12)

    def test_noise_linear_in_state(self):
        model, _ = laplacian_model()
        rng = np.random.default_rng(8)
        u = rng.standard_normal(26)
        assert_allclose(diffusion(model, 0.0, 2 * u), 2 * diffusion(model, 0.0, u), rtol=1e-12)

    def test_constant_profile_loads_constant_direction(self):
        model, _ = laplacian_model(noise_profile="constant")
        rng = np.random.default_rng(9)
        u = rng.standard_normal(26)
        b = diffusion(model, 0.0, u)
        for col in range(26):
            assert np.ptp(b[1:-1, col]) <= 1e-15 * max(1.0, abs(b[1, col]))

    def test_trig_profile_option(self):
        model, _ = laplacian_model(noise_profile="trig")
        rng = np.random.default_rng(10)
        u = rng.standard_normal(26)
        b = diffusion(model, 0.0, u)
        x = np.arange(26) / 25.0
        psi1 = np.cos(2 * np.pi * x) + np.sin(2 * np.pi * x)
        coeff = b[1, 0] / psi1[1]
        assert_allclose(b[1:-1, 0], coeff * psi1[1:-1], rtol=1e-10)

    def test_initial_rank(self):
        # fourteen random coefficients but only thirteen distinct spatial
        # modes: the tiny fourteenth channel rides on the same sin(8 pi x)
        # shape as the eighth, so the sample matrix has spatial rank 13 and
        # a rank-14 factorization of it is deliberately overparametrized
        _, law = laplacian_model()
        samples = law(12, 300)
        assert np.linalg.matrix_rank(samples, tol=1e-12) == 13


class TestGbmOracle:
    def test_zero_sigma_exact_exponential(self):
        model, law = gbm_oracle(mu=0.3, sigma=0.0)
        grid = generate(1, 0.0, 1.0, 10, 1, 4)
        vals = reference.gbm_exact_values(0.3, 0.0, grid)
        assert_allclose(vals[-1, 0], np.exp(0.3), rtol=1e-12)

    def test_zero_drift_constant(self):
        grid = generate(2, 0.0, 1.0, 5, 1, 3)
        vals = reference.gbm_exact_values(0.0, 0.0, grid)
        assert_allclose(vals, 1.0)

    def test_exact_solution_uses_grid_paths(self):
        grid = generate(3, 0.0, 2.0, 8, 1, 6)
        vals = reference.gbm_exact_values(0.1, 0.5, grid)
        w = np.cumsum(grid.increments[:, 0, :], axis=0)
        expected_last = np.exp((0.1 - 0.125) * 2.0 + 0.5 * w[-1])
        assert_allclose(vals[-1, 0], expected_last, rtol=1e-12)

    def test_drift_diffusion_contract(self):
        model, law = gbm_oracle(mu=0.2, sigma=0.4)
        assert_allclose(drift(model, 0.0, np.array([2.0])), [0.4])
        assert_allclose(diffusion(model, 0.0, np.array([2.0])), [[0.8]])
        assert_allclose(law(0, 5), np.ones((1, 5)))


class TestPurityAndRegistry:
    def test_evaluation_purity(self):
        for build in (toy_example_1, toy_example_3, stability_model, sadr_model,
                      laplacian_model):
            model, _ = build()
            rng = np.random.default_rng(13)
            x = rng.standard_normal((model.d, 4))
            dw = rng.standard_normal((model.m, 4))
            assert np.array_equal(model.drift_many(0.5, x), model.drift_many(0.5, x))
            assert np.array_equal(
                model.diffusion_dw(0.5, x, dw), model.diffusion_dw(0.5, x, dw)
            )

    def test_vectorized_matches_per_path(self):
        # b(t, x_j) is the test oracle's, written from each model's
        # formula and independent of diffusion_dw
        for build in (toy_example_1, toy_example_2, toy_example_3,
                      stability_model, sadr_model, laplacian_model,
                      gbm_oracle):
            model, law = build()
            rng = np.random.default_rng(14)
            x = rng.standard_normal((model.d, 6))
            dw = rng.standard_normal((model.m, 6))
            many_a = model.drift_many(0.25, x)
            many_b = model.diffusion_dw(0.25, x, dw)
            for j in range(6):
                assert_allclose(many_a[:, j], drift(model, 0.25, x[:, j]), rtol=1e-13, atol=1e-16)
                assert_allclose(
                    many_b[:, j],
                    reference.diffusion_matrix(model.name, 0.25, x[:, j])
                    @ dw[:, j],
                    rtol=1e-12,
                    atol=1e-18,
                )

    def test_every_noise_channel_is_read(self):
        # a channel b never reads is a row of normals drawn for nothing
        rng = np.random.default_rng(15)
        for name in MODEL_BUILDERS:
            model, _ = build_model(name, {})
            b = diffusion(model, 0.25, rng.standard_normal(model.d))
            assert b.shape == (model.d, model.m)
            assert np.all(np.any(b != 0.0, axis=0)), name

    def test_registry_dispatch(self):
        model, _ = build_model("toy_example_1", {"sigma_b": 1e-6})
        assert model.sigma_b_lower == 1e-6
        model, _ = build_model("stability_model", {"d": 12})
        assert model.d == 12

    def test_registry_rejects_unknown(self):
        with pytest.raises(SpecError):
            build_model("no_such_model")
        with pytest.raises(SpecError):
            build_model("toy_example_1", {"bogus": 1})
