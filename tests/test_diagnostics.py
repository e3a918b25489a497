"""Tests for bound evaluators, the stability-margin oracle, and error
metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lowrank_sde.diagnostics import (
    BoundTrace,
    ErrorReport,
    dt_condition,
    fit_order,
    gramian_bound_refined,
    k1_bound,
    k4_bound,
    l2_sup_error,
    l2_sup_errors,
    relative_l2_sup_error,
    write_bound_trace_csv,
    write_error_report_csv,
)
from lowrank_sde.ensemble import init_rank_k, mean_square_norm, reconstruct
from lowrank_sde.errors import DimensionMismatch, IncomparableTrajectories
from lowrank_sde.integrators import integrate
from lowrank_sde.models import MODEL_BUILDERS, build_model, gbm_oracle
from lowrank_sde.noise import BrownianGrid, coarsen, generate

import reference


def synthetic_trajectory(node_indices, node_values, n_steps,
                         seed=5, t0=0.0, t1=1.0, coarsen_factor=1):
    grid = BrownianGrid(seed=seed, t0=t0, t1=t1, n_steps=n_steps, m=1,
                        m_paths=1, increments=None,
                        coarsen_factor=coarsen_factor)
    return reference.recorded(grid, node_indices, node_values)


class TestGrowthEnvelopes:
    def test_k1_at_zero_time(self):
        assert k1_bound(0.0, 3.5, 2.0) == 3.5

    def test_k1_unit_crossing(self):
        c = 0.8
        t = np.log(2.0) / (1.0 + 7.0 * c)
        assert_allclose(k1_bound(t, 0.0, c), 1.0, rtol=1e-12)

    def test_k1_monotone_in_time(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t1, t2 = np.sort(rng.uniform(0.0, 4.0, size=2))
            if t1 == t2:
                continue
            assert k1_bound(t2, 1.0, 0.5) > k1_bound(t1, 1.0, 0.5)

    def test_k1_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            k1_bound(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            k1_bound(0.1, 1.0, 0.0)

    def test_k4_at_zero_time(self):
        assert k4_bound(0.0, 2.25, 1.0, 10.0) == 2.25

    def test_k4_below_k1_for_short_horizons(self):
        # rate 1 + c(2+T) <= 1 + 7c exactly when T <= 5
        for t_final in (0.5, 2.0, 5.0):
            for t in (0.3, 1.1, t_final):
                k4 = k4_bound(t, 1.0, 0.7, t_final)
                k1 = k1_bound(t, 1.0, 0.7)
                assert k4 <= k1 + 1e-12


class TestGramianBounds:
    def test_refined_bound_zero_noise(self):
        assert gramian_bound_refined(0.5, 0.0, 1.0, 2.0, 0.1, 10) == 0.0

    def test_refined_bound_large_n_limit(self):
        sigma_0, sigma_b, c, k_bound, dt = 1.0, 1e-4, 2.0, 3.0, 0.05
        cap = sigma_b ** 2 / (4.0 * c * (1.0 + k_bound))
        limit = min(sigma_0, cap) + 0.5 * sigma_b * dt
        assert_allclose(gramian_bound_refined(sigma_0, sigma_b, c, k_bound,
                                              dt, 100000),
                        limit, rtol=1e-9)

    def test_refined_bound_recurrence_oracle(self):
        # when sigma_0 is above the fixed-point cap the closed form
        # satisfies the proof's recurrence with equality, so iterating
        # twenty steps from the n=0 value must land on the n=20 value
        sigma_b, c, k_bound, dt = 1e-3, 1.5, 4.0, 0.02
        a_const = sigma_b / (2.0 * c * (1.0 + k_bound))
        sigma_0 = 1.0
        assert sigma_0 >= 0.5 * sigma_b * a_const
        value = gramian_bound_refined(sigma_0, sigma_b, c, k_bound, dt, 0)
        decay = 1.0 - dt / (dt + a_const)
        for n in range(20):
            value = decay * value + 0.5 * sigma_b * dt
            closed = gramian_bound_refined(sigma_0, sigma_b, c, k_bound,
                                           dt, n + 1)
            assert_allclose(value, closed, rtol=1e-12)

    @pytest.mark.parametrize("sigma_0, dt, n", [
        (-1.0, 0.1, 0), (1.0, 0.0, 0), (1.0, 0.1, -1)])
    def test_refined_bound_rejects_bad_inputs(self, sigma_0, dt, n):
        with pytest.raises(ValueError, match="non-negative with dt > 0"):
            gramian_bound_refined(sigma_0, 1e-3, 1.0, 1.0, dt, n)

    def test_refined_bound_monotone_in_n(self):
        # A/dt = 10 here, so the geometric term is far from saturation
        # over thirty steps and the bound increases strictly
        vals = [gramian_bound_refined(1.0, 0.4, 1.0, 1.0, 0.01, n)
                for n in range(30)]
        assert np.all(np.diff(vals) > 0.0)


class TestDtCondition:
    def test_values(self):
        assert dt_condition(0.0, 2.0, 1.0) == 0.0
        c, sup = 2.0, 1.5
        assert_allclose(dt_condition(c * (1.0 + sup), c, sup), 1.0,
                        rtol=1e-12)
        base = dt_condition(1e-6, 3.0, 2.0)
        assert_allclose(dt_condition(4e-6, 3.0, 2.0), 2.0 * base, rtol=1e-12)


class TestAmsMargin:
    def test_neutral_and_scalar_cases(self):
        assert reference.ams_margin(np.zeros((2, 2)), [], 0.5) == 1.0
        assert_allclose(reference.ams_margin(np.array([[-1.0]]), [], 1.0),
                        0.0, atol=1e-14)

    def test_stability_model_threshold(self):
        a_mat, b_mats = reference.stability_ams_matrices(0.0)
        below = reference.ams_margin(a_mat, b_mats, 0.0907)
        above = reference.ams_margin(a_mat, b_mats, 0.0911)
        assert below < 1.0
        assert above >= 1.0
        assert_allclose(below, 0.99989116, rtol=1e-6)
        assert_allclose(above, 1.01752764, rtol=1e-6)
        assert_allclose(reference.ams_margin(a_mat, b_mats, 0.0909),
                        1.00869004, rtol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reference.ams_margin(np.zeros((2, 3)), [], 0.1)
        with pytest.raises(DimensionMismatch):
            reference.ams_margin(np.zeros((2, 2)), [np.zeros((3, 3))], 0.1)


class TestEmpiricalGrowthConstant:
    def test_below_certified_constant(self):
        # every registered model certifies c_lgb, at or above the
        # empirical ratio on its initial law and on a wide Gaussian cloud
        rng = np.random.default_rng(3)
        for name in MODEL_BUILDERS:
            model, law = build_model(name)
            clouds = (law(3, 300), 10.0 * rng.normal(size=(model.d, 300)))
            for t in (0.0, 0.37, 1.3):
                for cloud in clouds:
                    emp = reference.empirical_c_lgb(model, t, cloud)
                    assert 0.0 < emp <= model.c_lgb, (name, t)


class TestL2SupError:
    def test_identical_trajectories_zero(self):
        vals = [np.ones((2, 5)), 2.0 * np.ones((2, 5))]
        a = synthetic_trajectory([0, 4], vals, 4)
        b = synthetic_trajectory([0, 4], [v.copy() for v in vals], 4)
        assert l2_sup_error(a, b) == 0.0

    def test_constant_offset_single_path(self):
        base = [np.zeros((3, 1)), np.zeros((3, 1))]
        offset = np.array([[0.3], [0.0], [0.4]])
        a = synthetic_trajectory([0, 2], [v + offset for v in base], 2)
        b = synthetic_trajectory([0, 2], base, 2)
        assert_allclose(l2_sup_error(a, b), 0.5, rtol=1e-12)

    def test_offset_on_one_of_m_paths(self):
        m_paths = 16
        base = [np.zeros((1, m_paths))]
        bumped = np.zeros((1, m_paths))
        bumped[0, 3] = 2.0
        a = synthetic_trajectory([1], [bumped], 2)
        b = synthetic_trajectory([1], base, 2)
        assert_allclose(l2_sup_error(a, b), 2.0 / np.sqrt(m_paths),
                        rtol=1e-12)

    def test_matches_across_different_grids(self):
        # node 2 of a 4-step grid and node 1 of a 2-step grid both sit
        # at the midpoint; matching is by exact fraction
        cloud = np.arange(6.0).reshape(2, 3)
        a = synthetic_trajectory([0, 2, 4], [cloud, cloud + 1.0, cloud], 4)
        b = synthetic_trajectory([1], [cloud], 2, coarsen_factor=2)
        assert_allclose(l2_sup_error(a, b), np.sqrt(2.0), rtol=1e-12)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(9)
        trajs = []
        for _ in range(3):
            vals = [rng.normal(size=(3, 40)) for _ in range(3)]
            trajs.append(synthetic_trajectory([0, 5, 10], vals, 10))
        a, b, c = trajs
        assert l2_sup_error(a, a) == 0.0
        assert_allclose(l2_sup_error(a, b), l2_sup_error(b, a), rtol=1e-14)
        assert l2_sup_error(a, c) \
            <= l2_sup_error(a, b) + l2_sup_error(b, c) + 1e-12

    def test_incomparable_cases(self):
        vals = [np.zeros((2, 4))]
        a = synthetic_trajectory([0], vals, 4, seed=1)
        with pytest.raises(IncomparableTrajectories):
            l2_sup_error(a, synthetic_trajectory([0], vals, 4, seed=2))
        with pytest.raises(IncomparableTrajectories):
            l2_sup_error(a, synthetic_trajectory([0], vals, 4, t1=2.0))
        with pytest.raises(IncomparableTrajectories):
            # same seed but different root grids
            l2_sup_error(a, synthetic_trajectory([0], vals, 8, seed=1))
        with pytest.raises(IncomparableTrajectories):
            # no overlapping fractions: 1/4 vs 1/2
            l2_sup_error(synthetic_trajectory([1], vals, 4, seed=1),
                         synthetic_trajectory([1], vals, 2, seed=1,
                                              coarsen_factor=2))
        with pytest.raises(IncomparableTrajectories):
            l2_sup_error(a, synthetic_trajectory([0], [np.zeros((2, 5))], 4,
                                                 seed=1))

    def test_em_error_scales_with_root_dt_on_gbm(self):
        model, _ = gbm_oracle(mu=0.05, sigma=0.2)
        m_paths = 2000
        root = generate(71, 0.0, 1.0, 64, 1, m_paths)
        x0 = np.ones((1, m_paths))
        errors = {}
        for factor in (2, 4):
            grid = coarsen(root, factor)
            nodes = list(range(grid.n_steps + 1))
            traj = integrate(model, "em", x0, grid, record_nodes=nodes)
            exact_vals = reference.gbm_exact_values(0.05, 0.2, grid)
            exact = synthetic_trajectory(nodes, list(exact_vals),
                                         grid.n_steps, seed=71,
                                         coarsen_factor=factor)
            errors[factor] = l2_sup_error(traj, exact)
        ratio = errors[4] / errors[2]
        assert abs(ratio - np.sqrt(2.0)) <= 0.25 * np.sqrt(2.0)

    def test_relative_error(self):
        base = [2.0 * np.ones((1, 4))]
        bumped = [2.5 * np.ones((1, 4))]
        a = synthetic_trajectory([3], bumped, 3)
        ref = synthetic_trajectory([3], base, 3)
        assert_allclose(relative_l2_sup_error(a, ref), 0.25, rtol=1e-12)
        assert relative_l2_sup_error(ref, ref) == 0.0

    def test_folded_errors_on_a_zero_reference(self):
        # a zero reference leaves the relative error 0 for a zero
        # difference and inf for any other
        assert l2_sup_errors(np.zeros(4), np.zeros(4)) == (0.0, 0.0)
        assert l2_sup_errors(np.full(4, 4.0), np.zeros(4)) == (2.0, np.inf)
        assert l2_sup_errors(np.full(4, 4.0), np.full(4, 16.0)) == (2.0, 0.5)


class TestFitOrder:
    def test_exact_power_laws(self):
        dts = np.array([0.4, 0.2, 0.1, 0.05])
        assert_allclose(fit_order(dts, 3.0 * dts ** 0.5), 0.5, rtol=1e-12)
        assert_allclose(fit_order(dts, 0.7 * dts), 1.0, rtol=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(13)
        dts = 0.5 ** np.arange(2, 9)
        for _ in range(10):
            noise = 1.0 + 0.05 * rng.standard_normal(dts.size)
            errors = 2.0 * dts ** 0.5 * noise
            assert abs(fit_order(dts, errors) - 0.5) <= 0.1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05, 0.02], [1.0, -0.5, 0.1])


class TestSerialization:
    def test_bound_trace_csv_round_trip(self, tmp_path):
        trace = BoundTrace(
            times=np.array([0.0, 0.1, 0.2]),
            sigma_k_observed=np.array([1e-300, np.pi * 1e-9, 2e-9]),
            bound_simple=np.array([0.0, 1e-9, 1e-9]),
            bound_refined=np.array([0.0, 1.1e-9, 2.1e-9]),
            dt_condition=np.array([0.0, 0.3, 0.4]),
        )
        path = tmp_path / "trace.csv"
        write_bound_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,sigma_k,bound_simple,bound_refined,dt_hat"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3, 5)
        # 17 significant digits round-trip doubles exactly
        assert data[1, 1] == np.pi * 1e-9

    def test_bound_trace_validation(self):
        with pytest.raises(ValueError):
            BoundTrace(times=np.zeros(2), sigma_k_observed=np.zeros(3),
                       bound_simple=np.zeros(2), bound_refined=np.zeros(2),
                       dt_condition=np.zeros(2))
        with pytest.raises(ValueError):
            BoundTrace(times=np.zeros(2), sigma_k_observed=np.zeros(2),
                       bound_simple=np.array([-1.0, 0.0]),
                       bound_refined=np.zeros(2), dt_condition=np.zeros(2))

    def test_error_report_csv(self, tmp_path):
        report = ErrorReport(
            dt_values=np.array([0.1, 0.05, 0.025]),
            l2_sup_errors=np.array([3e-2, 2e-2, 1.4e-2]),
            relative_errors=np.array([0.3, 0.2, 0.14]),
            fitted_order=0.51, scheme="dlr_ps_em", reference="em_fine")
        path = tmp_path / "report.csv"
        write_error_report_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "dt,l2_sup,rel_l2_sup"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3, 3)
        assert_allclose(data[:, 0], report.dt_values)

    def test_error_report_validation(self):
        with pytest.raises(ValueError):
            ErrorReport(dt_values=np.array([0.05, 0.1]),
                        l2_sup_errors=np.zeros(2),
                        relative_errors=np.zeros(2),
                        fitted_order=0.5, scheme="em", reference="exact")
        with pytest.raises(ValueError):
            ErrorReport(dt_values=np.array([0.1, 0.05]),
                        l2_sup_errors=np.array([0.1, -0.1]),
                        relative_errors=np.zeros(2),
                        fitted_order=0.5, scheme="em", reference="exact")
