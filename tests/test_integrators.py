"""Tests for the one-step integrators and the stepping loop."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lowrank_sde.ensemble import (
    EnsembleState,
    expectation_outer,
    gramian,
    init_rank_k,
    mean_square_norm,
    reconstruct,
)
from lowrank_sde.errors import EnsembleUnderflow, ModelBlowUp, StepFailed
import lowrank_sde.integrators
from lowrank_sde.integrators import (
    Stepper,
    advance_all,
    dlr_step,
    em_step,
    integrate,
)
from lowrank_sde.linalg import reduced_qr, solve_spsd_minnorm
from lowrank_sde.models import (
    SdeModel,
    gbm_oracle,
    sadr_model,
    stability_model,
    toy_example_1,
    toy_example_2,
)
from lowrank_sde.noise import BrownianGrid, coarsen, generate

import reference

DLR_SCHEMES = ("dlr_em", "dlr_ps_em", "dlr_ps_sde")

# derandomized so every tier-1 run checks the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def zero_model(d=3, m=2):
    return SdeModel(
        name="zero", d=d, m=m,
        drift_many=lambda t, x: np.zeros_like(x),
        diffusion_dw=lambda t, x, dw: np.zeros_like(x),
    )


def cubic_blowup_model(d=2):
    def cubic_drift(t, x):
        # overflow to inf is the point: the stepper must detect it
        with np.errstate(over="ignore"):
            return x ** 3

    return SdeModel(
        name="cubic", d=d, m=1,
        drift_many=cubic_drift,
        diffusion_dw=lambda t, x, dw: np.zeros_like(x),
    )


def linear_model(rng, d, sigma):
    """Random linear drift x -> A x with multiplicative noise sigma x dW."""
    a_mat = rng.normal(size=(d, d))
    return SdeModel(
        name="linear", d=d, m=d,
        drift_many=lambda t, x: a_mat @ x,
        diffusion_dw=lambda t, x, dw: sigma * x * dw,
        a_mat=lambda t: a_mat,
    )


@st.composite
def step_setups(draw):
    """(d, k, M, dt, rng) with k <= d <= 6 and a few more paths than k."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, d))
    m_paths = draw(st.integers(k + 2, 60))
    dt = draw(st.floats(1e-3, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return d, k, m_paths, dt, rng


def rank_r_samples(rng, d, r, m_paths):
    return rng.normal(size=(d, r)) @ rng.normal(size=(r, m_paths))


def toy_state(k=2, m_paths=400, seed=7, sigma_b=1e-8):
    model, law = toy_example_1(sigma_b=sigma_b)
    return model, init_rank_k(law(seed, m_paths), k)


def sample_tangent_apply(u, y_ref, z):
    """Reference tangent projector built from public pieces only."""
    c_ref = gramian(y_ref)
    coeff = solve_spsd_minnorm(c_ref, expectation_outer(z, y_ref).T).T
    fluct = coeff @ y_ref
    fluct = fluct - u.T @ (u @ fluct)
    return fluct + u.T @ (u @ z)


class TestEmStep:
    def test_zero_dynamics_is_identity(self):
        model = zero_model()
        x = np.arange(12.0).reshape(3, 4)
        dw = np.ones((2, 4))
        out = em_step(model, x, 0.0, 0.5, dw)
        assert_allclose(out, x)

    def test_deterministic_euler_on_exponential_growth(self):
        model, _ = gbm_oracle(mu=0.05, sigma=0.0)
        x = np.array([[1.0]])
        out = em_step(model, x, 0.0, 0.1, np.zeros((1, 1)))
        assert_allclose(out[0, 0], 1.005, rtol=1e-14)

    def test_single_path_hand_computation(self):
        model, _ = toy_example_1(sigma_b=1e-8)
        x = np.array([[0.2], [-0.1], [0.3]])
        dw = np.array([[0.01], [-0.02], [0.005]])
        out = em_step(model, x, 0.0, 0.1, dw)
        # drift rows: (-0.0297, -0.0297, -1.6); diffusion scale
        # sqrt(1e-8) * (2.8, 2.8, 1) on the three channels
        root = np.sqrt(1e-8)
        expected = np.array([
            0.2 + (-0.0297) * 0.1 + root * 2.8 * 0.01,
            -0.1 + (-0.0297) * 0.1 + root * 2.8 * (-0.02),
            0.3 + (-1.6) * 0.1 + root * 1.0 * 0.005,
        ])
        assert_allclose(out[:, 0], expected, rtol=1e-13)

    def test_nonfinite_drift_raises_blowup_with_location(self):
        model = cubic_blowup_model()
        x = np.full((2, 3), 1e200)
        x[:, 0] = 0.0
        with pytest.raises(ModelBlowUp) as info:
            em_step(model, x, 2.5, 0.1, np.zeros((1, 3)))
        assert info.value.t == 2.5
        assert info.value.path == 1

    def test_rejects_bad_shapes(self):
        model = zero_model()
        with pytest.raises(ValueError):
            em_step(model, np.zeros((4, 5)), 0.0, 0.1, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            em_step(model, np.zeros((3, 5)), 0.0, 0.1, np.zeros((2, 4)))
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt must be positive"):
                em_step(model, np.zeros((3, 5)), 0.0, dt, np.zeros((2, 5)))
            with pytest.raises(ValueError, match="dt must be positive"):
                dlr_step(model, init_rank_k(np.ones((3, 5)), 1), dt,
                         np.zeros((2, 5)), scheme="dlr_em")


class TestDlrStepsShared:
    @PROPERTY
    @given(step_setups())
    def test_zero_dynamics_preserves_reconstruction(self, setup):
        d, k, m_paths, dt, rng = setup
        model = zero_model(d=d)
        state = init_rank_k(rank_r_samples(rng, d, k, m_paths), k)
        x = reconstruct(state)
        dw = rng.normal(size=(2, m_paths))
        for scheme in DLR_SCHEMES:
            new_state = dlr_step(model, state, dt, dw, scheme=scheme)
            err = np.linalg.norm(reconstruct(new_state) - x)
            assert err <= 1e-12 * max(np.linalg.norm(x), 1.0)

    @PROPERTY
    @given(step_setups())
    def test_orthonormality_after_steps(self, setup):
        d, k, m_paths, dt, rng = setup
        model = linear_model(rng, d, sigma=0.3)
        state = init_rank_k(rank_r_samples(rng, d, k, m_paths), k)
        for scheme in DLR_SCHEMES:
            current = state
            for _ in range(3):
                dw = np.sqrt(dt) * rng.normal(size=(d, m_paths))
                current = dlr_step(model, current, dt, dw, scheme=scheme)
                defect = current.u @ current.u.T - np.eye(k)
                assert np.linalg.norm(defect) <= 1e-10

    @PROPERTY
    @given(step_setups(), st.data())
    def test_factorization_consistency_debug_mode(self, setup, data):
        # samples of rank r <= k: with r < k the solve truncates and the
        # refactorization may need the SVD fallback, which must keep the
        # sample product (the debug checks raise StepFailed otherwise)
        d, k, m_paths, dt, rng = setup
        r = data.draw(st.integers(1, k))
        model = linear_model(rng, d, sigma=0.3)
        state = init_rank_k(rank_r_samples(rng, d, r, m_paths), k)
        dw = np.sqrt(dt) * rng.normal(size=(d, m_paths))
        # fast_linear acts on dlr_em only; the other schemes ignore it
        fast_linear = data.draw(st.booleans())
        for scheme in DLR_SCHEMES:
            dlr_step(model, state, dt, dw, scheme=scheme, debug=True,
                     rank_policy="svd", fast_linear=fast_linear)

    def test_full_rank_collapse_matches_em(self):
        # with k = d the tangent projector is the identity, so both
        # projector-splitting steps must reproduce plain Euler-Maruyama
        model, law = toy_example_1()
        samples = law(5, 300)
        state = init_rank_k(samples, 3)
        x = reconstruct(state)
        dw = generate(13, 0.0, 0.02, 1, model.m, 300).increments[0]
        reference = em_step(model, x, 0.0, 0.02, dw)
        scale = np.linalg.norm(reference)
        for scheme in ("dlr_ps_em", "dlr_ps_sde"):
            new_state = dlr_step(model, state, 0.02, dw, scheme=scheme)
            err = np.linalg.norm(reconstruct(new_state) - reference)
            assert err <= 1e-10 * scale

    def test_refactorization_eigenvalue_floor(self):
        # the unnormalized basis always satisfies B B^T = I + D D^T with
        # D orthogonal to the old rows, so the refactorization triangle
        # obeys lambda_min(R^T R) >= 1
        model, state = toy_state(m_paths=2000)
        dt = 0.05
        dw = generate(14, 0.0, dt, 1, model.m, 2000).increments[0]
        x = reconstruct(state)
        a = model.drift_many(0.0, x)
        bdw = model.diffusion_dw(0.0, x, dw)
        y_moved = state.y + state.u @ (a * dt + bdw)
        setups = [
            (gramian(state.y), expectation_outer(state.y, a) * dt),
            (gramian(y_moved), expectation_outer(y_moved, a * dt + bdw)),
            (gramian(y_moved), expectation_outer(y_moved, a) * dt),
        ]
        for c_mat, g in setups:
            g_orth = g - (g @ state.u.T) @ state.u
            basis = solve_spsd_minnorm(c_mat, c_mat @ state.u + g_orth)
            _, r, _ = reduced_qr(basis.T)
            lam = np.linalg.eigvalsh(r.T @ r)
            assert lam[0] >= 1.0 - 1e-10

    def test_gramian_floor_under_elliptic_noise(self):
        # uniformly elliptic diffusion keeps the coefficient Gramian
        # bounded below by sigma_b * dt, up to Monte-Carlo slack
        model, state = toy_state(m_paths=2000)
        dt = 0.05
        grid = generate(15, 0.0, 3 * dt, 3, model.m, 2000)
        floor = model.sigma_b_lower * dt * (1.0 - 0.2)
        for scheme in DLR_SCHEMES:
            current = state
            for i in range(3):
                current = dlr_step(model, current, dt, grid.increments[i],
                                   scheme=scheme)
                lam = np.linalg.eigvalsh(gramian(current.y))
                assert lam[0] >= floor

    def test_blowup_in_low_rank_step(self):
        model = cubic_blowup_model()
        samples = np.array([[1e140, 2e140, 3e140], [0.0, 1e140, 2e140]])
        state = init_rank_k(samples, 2)
        with pytest.raises(ModelBlowUp):
            dlr_step(model, state, 0.5, np.zeros((1, 3)), scheme="dlr_ps_em")

    @pytest.mark.parametrize("fault, error, what", [
        ("drift", ModelBlowUp, "non-finite drift"),
        ("diffusion", ModelBlowUp, "non-finite diffusion increment"),
        ("moved", ModelBlowUp, "non-finite coefficient samples"),
        ("moments", ModelBlowUp, "sample second moments overflowed"),
        ("underflow", EnsembleUnderflow, "ensemble underflowed")])
    def test_failure_names_its_cause_and_path(self, fault, error, what):
        # path 2 of 4 goes bad.  The drift and diffusion faults lie in the
        # row outside the basis span, which u @ w still carries into the
        # scanned y_moved, as 0 * inf is NaN; "moved" overflows y + u w
        # with a finite w, "moments" the Gramian with finite samples, and
        # "underflow" leaves the Gramian near 1e-300, where the solve's
        # kept eigenvalues can be subnormal (path 2 has the largest)
        def bad_row(x):
            out = np.zeros_like(x)
            out[1, 2] = np.inf
            return out

        drift = {"drift": bad_row, "moved": np.copy}.get(fault, np.zeros_like)
        noise = bad_row if fault == "diffusion" else np.zeros_like
        model = SdeModel(name="faulty", d=2, m=1,
                         drift_many=lambda t, x: drift(x),
                         diffusion_dw=lambda t, x, dw: noise(x))
        y = np.full((1, 4), 1e-160 if fault == "underflow" else 1.0)
        y[0, 2] = {"moved": 1e308, "moments": 1e160,
                   "underflow": 1e-150}.get(fault, 1.0)
        state = EnsembleState(t=0.5, u=np.array([[1.0, 0.0]]), y=y)
        for scheme in DLR_SCHEMES:
            with pytest.raises(error, match=what) as info:
                dlr_step(model, state, 1.0, np.zeros((1, 4)), scheme=scheme)
            assert (info.value.t, info.value.path) == (0.5, 2)

    def test_gramian_at_the_underflow_bound_is_solved(self):
        # the bound is exclusive: a Gramian whose largest entry is exactly
        # _UNDERFLOW_GRAMIAN is solved, one a float below it underflows
        bound = lowrank_sde.integrators._UNDERFLOW_GRAMIAN
        model = zero_model(d=2, m=1)
        y = np.sqrt(bound)
        assert gramian(np.array([[y]]))[0, 0] == bound
        for scheme in DLR_SCHEMES:
            for sample, fails in ((y, False), (np.nextafter(y, 0.0), True)):
                state = EnsembleState(t=0.0, u=np.array([[1.0, 0.0]]),
                                      y=np.array([[sample]]))
                if fails:
                    with pytest.raises(EnsembleUnderflow):
                        dlr_step(model, state, 1.0, np.zeros((1, 1)),
                                 scheme=scheme)
                else:
                    new = dlr_step(model, state, 1.0, np.zeros((1, 1)),
                                   scheme=scheme)
                    assert np.array_equal(new.y, state.y)

    def test_truncating_solve_passes_debug_under_loosened_tolerance(
            self, monkeypatch):
        # the second sample direction is 1e-7 of the first, so the moved
        # Gramian's eigenvalues are ~1e-14 apart, the solve drops that
        # direction and the projected-update identity misses by ~1e-7 of
        # the cloud: inside the truncated tolerance, outside the exact
        # one.  Samples of ~100 keep lambda_max far from 1.
        rng = np.random.default_rng(3)
        model = linear_model(rng, 3, 0.3)
        u = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        y = 100.0 * np.vstack([rng.normal(size=40),
                               1e-7 * rng.normal(size=40)])
        state = EnsembleState(t=0.0, u=u, y=y)
        dw = np.zeros((3, 40))
        for scheme in ("dlr_ps_em", "dlr_ps_sde"):
            dlr_step(model, state, 0.05, dw, scheme=scheme, debug=True,
                     rank_policy="svd")
        exact = lowrank_sde.integrators._IDENTITY_TOL
        loose = lowrank_sde.integrators._IDENTITY_TOL_TRUNCATED
        monkeypatch.setattr(lowrank_sde.integrators,
                            "_IDENTITY_TOL_TRUNCATED", exact)
        with pytest.raises(StepFailed,
                           match="projected-update identity") as info:
            dlr_step(model, state, 0.05, dw, scheme="dlr_ps_sde", debug=True,
                     rank_policy="svd")
        # the reported error is relative to the cloud's norm (~600 here),
        # so it lies between the two tolerances
        reported = float(re.search(r"relative error (\S+)\)",
                                   str(info.value)).group(1))
        assert exact < reported < loose

    @PROPERTY
    @given(step_setups(), st.sampled_from(DLR_SCHEMES))
    def test_overflowing_basis_solve_raises_at_every_rank(self, setup,
                                                          scheme):
        # samples of about 1e150 keep the Gramian finite but overflow
        # the norm of the basis solve's right-hand side: the step fails
        # whatever k is, also when the solve itself stays finite;
        # dlr_step alone raises it, not a RuntimeWarning
        d, k, m_paths, dt, rng = setup
        model = linear_model(rng, d, 0.3)
        state = init_rank_k(rng.normal(size=(d, m_paths)) * 1e150, k)
        grid = BrownianGrid(seed=1, t0=0.0, t1=dt, n_steps=1, m=d,
                            m_paths=m_paths, increments=None)
        stepper = Stepper(model, scheme, state, grid)
        dw = rng.normal(size=(d, m_paths)) * np.sqrt(dt)
        assert not stepper.advance(dw)
        assert stepper.error.startswith("ModelBlowUp at step 0")
        assert "basis solve overflowed" in stepper.error
        with pytest.raises(ModelBlowUp, match="basis solve overflowed"):
            dlr_step(model, state, dt, dw, scheme=scheme)


class TestDlrEmStep:
    def test_linear_fast_path_matches_solve_at_full_rank(self):
        model, law = toy_example_1()
        samples = law(8, 500)
        # the sampled initial law is rank 2 (third component zero); add
        # noise there so the old-samples Gramian is genuinely full rank
        samples[2] += 0.05 * np.random.default_rng(88).standard_normal(500)
        state = init_rank_k(samples, 3)
        dw = generate(16, 0.0, 0.01, 1, model.m, 500).increments[0]
        slow = dlr_step(model, state, 0.01, dw, scheme="dlr_em",
                        fast_linear=False)
        fast = dlr_step(model, state, 0.01, dw, scheme="dlr_em",
                        fast_linear=True)
        scale = np.linalg.norm(reconstruct(slow))
        assert np.linalg.norm(reconstruct(fast) - reconstruct(slow)) \
            <= 1e-9 * scale

    def test_linear_fast_path_close_at_low_rank(self):
        # the Gramian cancels exactly for drift x -> A x, so the two
        # code paths may differ only through the minimal-norm truncation
        model, state = toy_state(m_paths=500, seed=8)
        dw = generate(17, 0.0, 0.01, 1, model.m, 500).increments[0]
        slow = dlr_step(model, state, 0.01, dw, scheme="dlr_em",
                        fast_linear=False)
        fast = dlr_step(model, state, 0.01, dw, scheme="dlr_em",
                        fast_linear=True)
        scale = np.linalg.norm(reconstruct(slow))
        assert np.linalg.norm(reconstruct(fast) - reconstruct(slow)) \
            <= 1e-6 * scale


class TestProjectorSplittingIdentities:
    def test_ps_em_projected_update_identity(self):
        model, state = toy_state(m_paths=800)
        dt = 0.02
        dw = generate(18, 0.0, dt, 1, model.m, 800).increments[0]
        x = reconstruct(state)
        a = model.drift_many(0.0, x)
        bdw = model.diffusion_dw(0.0, x, dw)
        w = a * dt + bdw
        y_moved = state.y + state.u @ w
        new_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_em",
                             debug=True)
        rhs = x + sample_tangent_apply(state.u, y_moved, w)
        scale = max(np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(reconstruct(new_state) - rhs) <= 1e-8 * scale

    def test_ps_sde_projected_update_identity(self):
        model, state = toy_state(m_paths=800)
        dt = 0.02
        dw = generate(19, 0.0, dt, 1, model.m, 800).increments[0]
        x = reconstruct(state)
        a = model.drift_many(0.0, x)
        bdw = model.diffusion_dw(0.0, x, dw)
        y_moved = state.y + state.u @ (a * dt + bdw)
        new_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_sde",
                             debug=True)
        rhs = (x + sample_tangent_apply(state.u, y_moved, a) * dt
               + state.u.T @ (state.u @ bdw))
        scale = max(np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(reconstruct(new_state) - rhs) <= 1e-8 * scale

    @PROPERTY
    @given(step_setups())
    def test_schemes_coincide_without_diffusion(self, setup):
        d, k, m_paths, dt, rng = setup
        model = linear_model(rng, d, sigma=0.0)
        state = init_rank_k(rank_r_samples(rng, d, k, m_paths), k)
        dw = rng.normal(size=(d, m_paths))
        a_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_em")
        b_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_sde")
        scale = np.linalg.norm(reconstruct(a_state))
        assert np.linalg.norm(reconstruct(a_state) - reconstruct(b_state)) \
            <= 1e-12 * scale

    def test_ps_em_close_to_dlr_em_without_diffusion(self):
        # different Gramians weight the basis solve, so agreement is
        # only approximate; reported tolerance is deliberately loose
        model, law = toy_example_2(sigma_b=0.0)
        state = init_rank_k(law(9, 400), 2)
        dt = 1e-4
        dw = np.zeros((model.m, 400))
        a_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_em")
        b_state = dlr_step(model, state, dt, dw, scheme="dlr_em")
        scale = np.linalg.norm(reconstruct(a_state))
        assert np.linalg.norm(reconstruct(a_state) - reconstruct(b_state)) \
            <= 1e-6 * scale

    def test_nonexpansive_second_moment_update(self):
        # with the same sampled increments on both sides the per-step
        # second-moment bound reduces to non-expansiveness of the
        # tangent projector in the sample mean-square norm
        model, state = toy_state(m_paths=1000)
        dt = 0.05
        dw = generate(21, 0.0, dt, 1, model.m, 1000).increments[0]
        x = reconstruct(state)
        a = model.drift_many(0.0, x)
        bdw = model.diffusion_dw(0.0, x, dw)
        w = a * dt + bdw
        new_state = dlr_step(model, state, dt, dw, scheme="dlr_ps_em")
        x_new = reconstruct(new_state)
        lhs = mean_square_norm(x_new - x)
        rhs = mean_square_norm(w)
        assert lhs <= rhs * (1.0 + 1e-12)
        em_cloud = x + w
        assert mean_square_norm(x_new) \
            <= mean_square_norm(em_cloud) * (1.0 + 1e-12)

    def test_minimal_norm_independence_exact_null_direction(
            self, monkeypatch):
        # embed a rank-2 ensemble in a rank-3 container: the third
        # coefficient row is exactly zero, so the moved Gramian has an
        # exact null vector and any null component added to the basis
        # solve must leave the reconstruction unchanged
        model = zero_model(d=3, m=2)
        rng = np.random.default_rng(31)
        samples = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 300))
        base = init_rank_k(samples, 2)
        third = np.linalg.svd(base.u, full_matrices=True)[2][2:3, :]
        u_full = np.vstack([base.u, third])
        y_full = np.vstack([base.y, np.zeros((1, 300))])
        state = EnsembleState(t=0.0, u=u_full, y=y_full)
        dw = np.ones((2, 300))
        row = rng.normal(size=(1, 3))

        def add_null_component(c_mat):
            lam, vec = np.linalg.eigh(0.5 * (c_mat + c_mat.T))
            return vec[:, 0:1] @ row

        for scheme in ("dlr_ps_em", "dlr_ps_sde"):
            plain = dlr_step(model, state, 0.1, dw, scheme=scheme,
                             rank_policy="svd")
            with monkeypatch.context() as patch:
                patch.setattr(lowrank_sde.integrators, "solve_spsd_minnorm",
                              reference.offset_solve(add_null_component))
                bumped = dlr_step(model, state, 0.1, dw, scheme=scheme,
                                  rank_policy="svd")
            scale = max(np.linalg.norm(reconstruct(plain)), 1.0)
            assert np.linalg.norm(reconstruct(plain) - reconstruct(bumped)) \
                <= 1e-10 * scale

    def test_minimal_norm_independence_on_singular_pde_ensemble(
            self, monkeypatch):
        model, law = sadr_model()
        state = init_rank_k(law(3, 300), 14)
        dt = 0.01
        dw = generate(22, 0.0, dt, 1, model.m, 300).increments[0]
        rng = np.random.default_rng(5)
        row = rng.normal(size=(1, model.d))

        def add_null_component(c_mat):
            lam, vec = np.linalg.eigh(0.5 * (c_mat + c_mat.T))
            return vec[:, 0:1] @ row

        plain = dlr_step(model, state, dt, dw, scheme="dlr_ps_sde",
                         rank_policy="svd")
        monkeypatch.setattr(lowrank_sde.integrators, "solve_spsd_minnorm",
                            reference.offset_solve(add_null_component))
        bumped = dlr_step(model, state, dt, dw, scheme="dlr_ps_sde",
                          rank_policy="svd")
        scale = max(np.linalg.norm(reconstruct(plain)), 1.0)
        assert np.linalg.norm(reconstruct(plain) - reconstruct(bumped)) \
            <= 1e-8 * scale


class TestRankPolicy:
    def test_abort_policy_raises_on_overparametrized_ensemble(self):
        model, law = sadr_model()
        state = init_rank_k(law(3, 300), 14)
        dw = generate(23, 0.0, 0.01, 1, model.m, 300).increments[0]
        with pytest.raises(StepFailed):
            dlr_step(model, state, 0.01, dw, scheme="dlr_ps_sde",
                     rank_policy="abort")

    def test_svd_policy_continues_with_valid_state(self):
        model, law = sadr_model()
        state = init_rank_k(law(3, 300), 14)
        grid = generate(24, 0.0, 0.03, 3, model.m, 300)
        current = state
        for i in range(3):
            current = dlr_step(
                model, current, grid.dt, grid.increments[i],
                scheme="dlr_ps_sde", rank_policy="svd", debug=True)
            defect = current.u @ current.u.T - np.eye(14)
            assert np.linalg.norm(defect) <= 1e-10

    def test_unknown_policy_rejected(self):
        model, state = toy_state(m_paths=100)
        dw = np.zeros((model.m, 100))
        with pytest.raises(ValueError):
            dlr_step(model, state, 0.01, dw, scheme="dlr_ps_em",
                     rank_policy="drop")
        # a stepper checks its policy once, when it is built
        grid = BrownianGrid(seed=1, t0=0.0, t1=0.1, n_steps=1, m=model.m,
                            m_paths=100, increments=None)
        with pytest.raises(ValueError, match="rank_policy"):
            Stepper(model, "dlr_em", state, grid, rank_policy="drop")


class TestSampleTangentProjector:
    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(40)
        d, k, m_paths = 6, 3, 500
        u = reduced_qr(rng.normal(size=(d, k)))[0].T
        y = rng.normal(size=(k, m_paths))
        z1 = rng.normal(size=(d, m_paths))
        z2 = rng.normal(size=(d, m_paths))
        p_z1 = sample_tangent_apply(u, y, z1)
        p_p_z1 = sample_tangent_apply(u, y, p_z1)
        assert np.linalg.norm(p_p_z1 - p_z1) <= 1e-9 * np.linalg.norm(p_z1)
        p_z2 = sample_tangent_apply(u, y, z2)
        lhs = np.sum(p_z1 * z2) / m_paths
        rhs = np.sum(z1 * p_z2) / m_paths
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale

    def test_row_projector_idempotent_symmetric(self):
        rng = np.random.default_rng(41)
        u = reduced_qr(rng.normal(size=(5, 2)))[0].T
        p_row = u.T @ u
        assert_allclose(p_row @ p_row, p_row, atol=1e-12)
        assert_allclose(p_row, p_row.T, atol=1e-14)

    def test_reproduces_in_span_cloud_exactly(self):
        # a cloud already of the form u^T y is a fixed point
        rng = np.random.default_rng(42)
        u = reduced_qr(rng.normal(size=(6, 3)))[0].T
        y = rng.normal(size=(3, 400))
        x = u.T @ y
        assert np.linalg.norm(sample_tangent_apply(u, y, x) - x) \
            <= 1e-10 * np.linalg.norm(x)


class TestIntegrate:
    def test_zero_dynamics_constant_trajectory(self):
        model = zero_model()
        rng = np.random.default_rng(50)
        samples = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 150))
        state = init_rank_k(samples, 2)
        grid = generate(60, 0.0, 1.0, 20, model.m, 150)
        for scheme, init in (("em", reconstruct(state)),
                             ("dlr_em", state),
                             ("dlr_ps_em", state),
                             ("dlr_ps_sde", state)):
            traj = integrate(model, scheme, init, grid,
                             record_nodes=(0, 10, 20))
            assert not traj.failed
            assert traj.node_indices == [0, 10, 20]
            for value in traj.node_values:
                assert_allclose(value, reconstruct(state), atol=1e-12)
            assert_allclose(traj.mean_square_norms,
                            mean_square_norm(reconstruct(state)), rtol=1e-12)

    def test_records_and_times(self):
        model, state = toy_state(m_paths=200)
        grid = generate(61, 0.0, 0.5, 10, model.m, 200)
        traj = integrate(model, "dlr_ps_em", state, grid,
                         record_nodes=range(11))
        assert not traj.failed
        assert len(traj.node_states) == 11
        assert_allclose([s.t for s in traj.node_states],
                        grid.times(), atol=1e-12)
        assert np.all(np.isfinite(traj.sigma_min_gramians))
        assert np.all(np.isfinite(traj.mean_square_norms))
        assert traj.grid is grid
        assert traj.state.t == grid.times()[-1]

    def test_em_reference_strong_order_half_on_gbm(self):
        model, _ = gbm_oracle(mu=0.05, sigma=0.2)
        m_paths = 400
        root = generate(62, 0.0, 1.0, 128, 1, m_paths)
        x0 = np.ones((1, m_paths))
        errors = []
        dts = []
        for factor in (4, 8, 16, 32):
            grid = coarsen(root, factor)
            traj = integrate(model, "em", x0, grid,
                             record_nodes=(grid.n_steps,))
            exact = reference.gbm_exact_values(0.05, 0.2, grid,
                                     node_indices=[grid.n_steps])[0]
            err = np.sqrt(mean_square_norm(traj.node_values[0] - exact))
            errors.append(err)
            dts.append(grid.dt)
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 0.3 <= slope <= 0.7

    def test_full_rank_collapse_along_trajectory(self):
        model, law = toy_example_1()
        samples = law(6, 250)
        state = init_rank_k(samples, 3)
        grid = generate(63, 0.0, 0.5, 25, model.m, 250)
        nodes = (0, 12, 25)
        em_traj = integrate(model, "em", reconstruct(state), grid,
                            record_nodes=nodes)
        for scheme in ("dlr_ps_em", "dlr_ps_sde"):
            traj = integrate(model, scheme, state, grid, record_nodes=nodes)
            for got, want in zip(traj.node_values, em_traj.node_values):
                scale = max(np.linalg.norm(want), 1.0)
                assert np.linalg.norm(got - want) <= 1e-9 * scale

    def test_stability_model_contracts_at_small_dt(self):
        model, law = stability_model()
        state = init_rank_k(law(77, 200), 4)
        grid = generate(64, 0.0, 2.0, 40, model.m, 200)
        traj = integrate(model, "dlr_ps_em", state, grid)
        assert not traj.failed
        assert traj.mean_square_norms[-1] \
            < 1e-3 * traj.mean_square_norms[0]

    def test_blowup_annotated_not_raised(self):
        model = cubic_blowup_model()
        samples = np.array([[2.0, 2.1, 1.9, 2.0], [1.0, 1.1, 0.9, 1.0]])
        grid = generate(65, 0.0, 10.0, 20, 1, 4)
        traj = integrate(model, "em", samples, grid,
                         record_nodes=(0, grid.n_steps))
        assert traj.failed
        assert "ModelBlowUp" in traj.error
        assert len(traj.node_values) == 1
        finite = np.isfinite(traj.mean_square_norms)
        assert finite[0] and not finite[-1]
        # a low-rank run over the same explosion: the cloud collapses to
        # one direction before overflowing, so the svd policy is needed
        # to reach the blowup itself
        state = init_rank_k(samples, 2)
        low = integrate(model, "dlr_ps_em", state, grid, rank_policy="svd")
        assert low.failed
        assert "ModelBlowUp" in low.error

    def test_overflowing_basis_solve_fails_the_run(self):
        # past ~1e154 the norms of the basis solve overflow while the
        # samples are still finite; that is a blowup, not a bad record
        model, law = gbm_oracle(mu=800.0, sigma=0.1)
        samples = law(5, 50)
        state = init_rank_k(samples, 1)
        grid = generate(5, 0.0, 1.0, 100, model.m, 50)
        for scheme in ("dlr_em", "dlr_ps_em", "dlr_ps_sde"):
            traj = integrate(model, scheme, state, grid)
            assert traj.failed
            assert "ModelBlowUp" in traj.error
            assert "basis solve overflowed" in traj.error

    def test_programming_error_raises_instead_of_failing_the_run(self):
        # a drift of the wrong shape is a bug, not a numerical failure:
        # integrate must raise it rather than return a failed stepper
        model = SdeModel(
            name="bad_shape", d=3, m=1,
            drift_many=lambda t, x: np.zeros((4, x.shape[1])),
            diffusion_dw=lambda t, x, dw: np.zeros_like(x),
        )
        rng = np.random.default_rng(69)
        state = init_rank_k(rank_r_samples(rng, 3, 2, 40), 2)
        grid = generate(69, 0.0, 0.1, 2, model.m, 40)
        for scheme in ("em", "dlr_em", "dlr_ps_em", "dlr_ps_sde"):
            init = reconstruct(state) if scheme == "em" else state
            with pytest.raises(ValueError, match="broadcast"):
                integrate(model, scheme, init, grid)

    def test_recorded_states_round_trip(self):
        # a low-rank run keeps the factored state of each recorded node,
        # the very object it stepped from; a full-order run has none
        model, state = toy_state(m_paths=120)
        grid = generate(66, 0.0, 0.2, 4, model.m, 120)
        traj = integrate(model, "dlr_ps_sde", state, grid,
                         record_nodes=(0, 4))
        assert len(traj.node_states) == 2
        assert traj.node_states[0] is state
        last = traj.node_states[-1]
        assert last is traj.state
        assert_allclose(reconstruct(last), traj.node_values[-1], atol=1e-12)
        assert last.t == grid.times()[-1]
        full = integrate(model, "em", reconstruct(state), grid,
                         record_nodes=(0, 4))
        assert full.node_states == [] and len(full.node_values) == 2

    def test_rank_policy_threads_through(self):
        model, law = sadr_model()
        state = init_rank_k(law(3, 200), 14)
        grid = generate(67, 0.0, 0.05, 5, model.m, 200)
        aborted = integrate(model, "dlr_ps_sde", state, grid)
        assert aborted.failed
        assert "StepFailed" in aborted.error
        continued = integrate(model, "dlr_ps_sde", state, grid,
                              rank_policy="svd")
        assert not continued.failed
        assert continued.state.t == grid.times()[-1]

    def test_input_validation(self):
        model, state = toy_state(m_paths=50)
        grid = generate(68, 0.0, 0.1, 2, model.m, 50)
        with pytest.raises(ValueError):
            integrate(model, "midpoint", state, grid)
        with pytest.raises(TypeError):
            integrate(model, "dlr_em", reconstruct(state), grid)
        bad_paths = generate(68, 0.0, 0.1, 2, model.m, 49)
        with pytest.raises(ValueError):
            integrate(model, "dlr_em", state, bad_paths)
        bad_m = generate(68, 0.0, 0.1, 2, model.m + 1, 50)
        with pytest.raises(ValueError):
            integrate(model, "dlr_em", state, bad_m)
        lattice = BrownianGrid(seed=68, t0=0.0, t1=0.1, n_steps=2,
                               m=model.m, m_paths=50, increments=None)
        with pytest.raises(ValueError, match="stores its increments"):
            integrate(model, "dlr_em", state, lattice)

    def test_stepper_recording_nothing_matches_integrate(self):
        # record_nodes=() keeps no per-node diagnostics but steps
        # exactly like the recording loop
        model, state = toy_state(m_paths=80)
        grid = generate(70, 0.0, 0.3, 6, model.m, 80)
        for scheme in ("em", "dlr_em", "dlr_ps_em", "dlr_ps_sde"):
            init = reconstruct(state) if scheme == "em" else state
            full = integrate(model, scheme, init, grid,
                             record_nodes=(0, grid.n_steps))
            stepper = Stepper(model, scheme, init, grid, record_nodes=())
            for dw in grid.increments:
                assert stepper.advance(dw)
            assert stepper.node_values == []
            assert stepper.mean_square_norms is None
            assert stepper.sigma_min_gramians is None
            assert np.array_equal(stepper.cloud(), full.node_values[-1])
            if scheme != "em":
                assert stepper.state.t == full.state.t

    @pytest.mark.parametrize("scheme", ("dlr_em", "dlr_ps_em", "dlr_ps_sde"))
    def test_one_eigh_and_one_qr_per_low_rank_step(self, scheme, monkeypatch):
        # the basis solve's eigendecomposition and the refactorization's
        # QR are the only factorizations of a step that records nothing
        model, law = toy_example_2()
        state = init_rank_k(law(71, 200), 2)
        n = 20
        grid = generate(71, 0.0, 0.2, n, model.m, 200)
        stepper = Stepper(model, scheme, state, grid, record_nodes=())
        calls = dict.fromkeys(("eigh", "eigvalsh", "svd", "qr"), 0)
        reference.count_factorizations(monkeypatch, calls)
        for dw in grid.increments:
            assert stepper.advance(dw)
        assert calls == {"eigh": n, "eigvalsh": 0, "svd": 0, "qr": n}


@st.composite
def stacked_cells(draw):
    """Up to six low-rank cells on one d <= 6, each with its own rank
    (from at most two), path count M <= 64, scheme, dt, rank policy and
    linear shortcut.  When ``failure`` is set, cell ``victim`` is made
    to fail in the stacked phase of its first step, or, if its basis
    goes rank deficient under rank_policy "svd", to take the SVD
    fallback there."""
    d = draw(st.integers(1, 6))
    ranks = draw(st.lists(st.integers(1, d), min_size=1, max_size=2))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(ranks))
        cells.append(dict(
            k=k, m_paths=draw(st.integers(k, 64)),
            scheme=draw(st.sampled_from(("dlr_em", "dlr_ps_em",
                                         "dlr_ps_sde"))),
            dt=draw(st.floats(1e-3, 0.2)),
            rank_policy=draw(st.sampled_from(("abort", "svd"))),
            fast_linear=draw(st.booleans())))
    failure = draw(st.sampled_from((None, "rank", "non-finite")))
    victim = draw(st.integers(0, len(cells) - 1))
    return d, cells, failure, victim, draw(st.integers(0, 2 ** 32 - 1))


class TestStackedStep:
    @staticmethod
    def twin_steppers(rng, d, cell, failure):
        """Two equal two-step steppers of one cell and their increments.

        "rank" zeroes the samples of a model without dynamics, so the
        solve returns a zero basis that QR finds rank deficient;
        "non-finite" scales the samples to about 1e150, so the Gramian
        stays finite but the norms of the basis solve overflow (as in
        ``test_overflowing_basis_solve_fails_the_run``)."""
        k, m_paths, dt = cell["k"], cell["m_paths"], cell["dt"]
        options = dict(rank_policy=cell["rank_policy"],
                       fast_linear=cell["fast_linear"])
        if failure == "rank":
            model, samples = zero_model(d, d), np.zeros((d, m_paths))
        else:
            model = linear_model(rng, d, 0.3)
            samples = rng.normal(size=(d, m_paths))
        if failure == "non-finite":
            # the linear shortcut would skip the solve
            options["fast_linear"] = False
            samples = samples * 1e150
        state = init_rank_k(samples, k)
        grid = BrownianGrid(seed=1, t0=0.0, t1=2 * dt, n_steps=2, m=d,
                            m_paths=m_paths, increments=None)
        dws = rng.normal(size=(2, d, m_paths)) * np.sqrt(dt)
        return [Stepper(model, cell["scheme"], state, grid, **options)
                for _ in range(2)] + [dws]

    @PROPERTY
    @given(stacked_cells())
    # the middle cell leaves the QR stack for the SVD fallback
    @example((3, [dict(k=2, m_paths=20, scheme=scheme, dt=0.05,
                       rank_policy="svd", fast_linear=False)
                  for scheme in ("dlr_em", "dlr_ps_em", "dlr_ps_sde")],
              "rank", 1, 7))
    def test_stacked_advance_equals_each_cell_alone(self, setup):
        # the stack of one harness step changes no byte of any cell, and a
        # cell that fails in it fails alone with its own error
        d, cells, failure, victim, seed = setup
        rng = np.random.default_rng(seed)
        runs = [self.twin_steppers(rng, d, cell,
                                   failure if i == victim else None)
                for i, cell in enumerate(cells)]
        for step in range(2):
            advance_all([(stacked, dws[step])
                         for stacked, _, dws in runs if not stacked.failed])
            for _, alone, dws in runs:
                if not alone.failed:
                    alone.advance(dws[step])
        for stacked, alone, _ in runs:
            assert stacked.error == alone.error
            assert stacked.state.t == alone.state.t
            assert np.array_equal(stacked.state.u, alone.state.u)
            assert np.array_equal(stacked.state.y, alone.state.y)
        if failure == "non-finite" or (
                failure == "rank" and cells[victim]["rank_policy"] == "abort"):
            assert runs[victim][0].node == 0 and runs[victim][0].failed
            if failure == "non-finite":
                assert "basis solve overflowed" in runs[victim][0].error
        elif failure:
            assert runs[victim][0].node == 2

    def test_one_qr_per_settle_with_a_rank_deficient_cell(self,
                                                           monkeypatch):
        # a basis the stacked QR reports rank deficient takes the SVD
        # fallback; the stack is not factored again without it
        rng = np.random.default_rng(7)
        cells = [self.twin_steppers(rng, 3, dict(
                     k=2, m_paths=20, scheme=scheme, dt=0.05,
                     rank_policy="svd", fast_linear=False), failure)
                 for scheme, failure in (("dlr_em", None),
                                         ("dlr_ps_em", "rank"),
                                         ("dlr_ps_sde", None))]
        calls = dict.fromkeys(("qr", "svd"), 0)
        reference.count_factorizations(monkeypatch, calls)
        for step in range(2):
            advance_all([(stepper, dws[step]) for stepper, _, dws in cells])
            assert calls == {"qr": step + 1, "svd": step + 1}
        assert all(stepper.node == 2 for stepper, _, _ in cells)

    def test_non_finite_basis_rejected(self, monkeypatch):
        # the refactorization's orthonormality defect is the only check
        # of the new basis, so a NaN defect must fail too
        def nan_qr(a):
            q, r, deficient = reduced_qr(a)
            return np.full_like(q, np.nan), r, deficient

        monkeypatch.setattr(lowrank_sde.integrators, "reduced_qr", nan_qr)
        model, state = toy_state(m_paths=50)
        with pytest.raises(ValueError, match="non-finite"):
            dlr_step(model, state, 0.01, np.zeros((model.m, 50)),
                     scheme="dlr_ps_sde")

    @staticmethod
    def skewed_qr(requr_column=None):
        """``reduced_qr`` whose stacked call returns a basis 1e-9 off
        orthonormal, so the settle must re-orthonormalize; the second,
        2-d call optionally reports ``requr_column`` deficient."""
        def qr(a):
            q, r, deficient = reduced_qr(a)
            if np.ndim(a) == 3:
                return q + 1e-9, r, deficient
            return q, r, deficient if requr_column is None else requr_column
        return qr

    def test_lost_orthonormality_is_restored(self, monkeypatch):
        monkeypatch.setattr(lowrank_sde.integrators, "reduced_qr",
                            self.skewed_qr())
        model, state = toy_state(m_paths=50)
        with pytest.warns(UserWarning, match="basis lost orthonormality"):
            new = dlr_step(model, state, 0.01, np.zeros((model.m, 50)),
                           scheme="dlr_ps_sde")
        assert np.linalg.norm(new.u @ new.u.T - np.eye(2)) < 1e-14

    def test_rank_deficient_reorthonormalization_fails(self, monkeypatch):
        model, state = toy_state(m_paths=50)
        for column in (0, 1):
            monkeypatch.setattr(lowrank_sde.integrators, "reduced_qr",
                                self.skewed_qr(column))
            with pytest.warns(UserWarning,
                              match="basis lost orthonormality"):
                with pytest.raises(StepFailed, match=r"re-orthonormalization "
                                   r"found a rank-deficient basis "
                                   r"\(column %d\)" % column):
                    dlr_step(model, state, 0.01, np.zeros((model.m, 50)),
                             scheme="dlr_ps_sde")
