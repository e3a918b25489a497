"""Acceptance suite: one test per shipped guarantee.

Each test pins the model, path count, step sizes, and tolerances of one
end-to-end guarantee of the package, and `pytest -v` reports exactly one
pass/fail line per criterion.  Tests run the real experiment machinery
at desk scale, with fixed seeds so results are reproducible; the one
stand-in is test_10's basis solve, which adds a null-space offset.
"""

import numpy as np
import pytest

import lowrank_sde.integrators
from lowrank_sde.diagnostics import gramian_bound_refined
from lowrank_sde.ensemble import (
    expectation_outer,
    gramian,
    init_rank_k,
    mean_square_norm,
)
from lowrank_sde.harness import (
    STABLE_FACTOR,
    ExperimentSpec,
    run_experiment,
)
from lowrank_sde.integrators import dlr_step, integrate
from lowrank_sde.linalg import solve_spsd_minnorm
from lowrank_sde.models import SdeModel, build_model
from lowrank_sde.noise import generate

import reference

SEED = 20240817


def frobenius(a):
    return float(np.linalg.norm(a))


def low_rank_run(model, law, scheme, k, m_paths, t_final, n_steps, seed,
                 **kw):
    samples = law(seed, m_paths)
    state0 = init_rank_k(samples, k)
    grid = generate(seed, 0.0, t_final, n_steps, model.m, m_paths)
    return integrate(model, scheme, state0, grid,
                     record_nodes=range(n_steps + 1), **kw)


def test_01_orthonormality_and_factorization_invariants():
    # 500 steps at dt = 0.02, M = 2000: every step must keep the basis
    # orthonormal within 1e-10 (Frobenius) and preserve the factored
    # product within 1e-10 relative; debug mode enforces the latter at
    # every single step and fails the run otherwise.
    model, law = build_model("toy_example_1", {})
    for scheme in ("dlr_em", "dlr_ps_em", "dlr_ps_sde"):
        traj = low_rank_run(model, law, scheme, k=2, m_paths=2000,
                            t_final=10.0, n_steps=500, seed=SEED,
                            debug=True)
        assert not traj.failed, "%s: %s" % (scheme, traj.error)
        assert len(traj.node_states) == 501
        worst = max(frobenius(s.u @ s.u.T - np.eye(2))
                    for s in traj.node_states)
        assert worst <= 1e-10, \
            "%s basis orthonormality drift %.3e" % (scheme, worst)


def test_02_full_rank_splitting_matches_full_order_solver():
    # with k = d = 3 the tangent projector is the identity, so both
    # splitting schemes must reproduce the plain full-order update to
    # 1e-9 relative at every one of the 500 steps.
    model, law = build_model("toy_example_1", {})
    samples = law(SEED, 2000)
    grid = generate(SEED, 0.0, 10.0, 500, model.m, 2000)
    reference = integrate(model, "em", samples, grid,
                          record_nodes=range(501))
    assert not reference.failed
    for scheme in ("dlr_ps_em", "dlr_ps_sde"):
        traj = integrate(model, scheme, init_rank_k(samples, 3), grid,
                         record_nodes=range(501))
        assert not traj.failed, "%s: %s" % (scheme, traj.error)
        worst = max(
            frobenius(a - b) / frobenius(b)
            for a, b in zip(traj.node_values, reference.node_values))
        assert worst <= 1e-9, \
            "%s deviates from the full-order run by %.3e" % (scheme, worst)


def test_03_linear_drift_fast_path_matches_gramian_solve():
    # on the linear-drift model the shortcut basis update must agree
    # with the general Gramian-solve path to 1e-8 relative over a
    # 200-step run.
    model, law = build_model("toy_example_2", {})
    runs = {}
    for fast in (False, True):
        runs[fast] = low_rank_run(model, law, "dlr_em", k=2, m_paths=2000,
                                  t_final=4.0, n_steps=200, seed=SEED,
                                  fast_linear=fast)
        assert not runs[fast].failed
    worst = max(
        frobenius(a - b) / frobenius(b)
        for a, b in zip(runs[True].node_values, runs[False].node_values))
    assert worst <= 1e-8, "fast path deviates by %.3e" % worst


def test_04_gramian_lower_bound_under_elliptic_noise(tmp_path):
    # with a certified noise floor sigma_B = 1e-8 the smallest Gramian
    # eigenvalue must stay above 0.8 * sigma_B * dt at every step after
    # the first, for all three schemes and dt in {0.1, 0.05, 0.02}.
    spec = ExperimentSpec(
        name="floor", kind="singular_values", model="toy_example_1",
        schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=2,
        paths=2000, seed=SEED, t_final=10.0, dt_values=(0.1, 0.05, 0.02),
        output_dir=str(tmp_path / "floor"))
    out = run_experiment(spec)
    assert not out["failures"], out["failures"]
    assert out["violations"] == [], \
        "noise floor violated at %d nodes, first: %r" \
        % (len(out["violations"]), out["violations"][:1])
    for (scheme, dt), trace in out["traces"].items():
        observed = trace.sigma_k_observed[1:]
        assert observed.min() >= 0.8 * 1e-8 * dt, \
            "%s dt=%g: min sigma_k %.3e" % (scheme, dt, observed.min())


def sweep_spec(tmp_path, model, reference, rank=2, paths=2000,
               t_final=10.0, dt_values=(0.1, 0.05, 0.02, 0.01),
               fine_factor=10, **overrides):
    fields = dict(
        name=model, kind="convergence", model=model,
        schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=rank,
        paths=paths, seed=SEED, t_final=t_final, dt_values=dt_values,
        reference=reference, fine_factor=fine_factor,
        output_dir=str(tmp_path / model))
    fields.update(overrides)
    return ExperimentSpec(**fields)


def test_05_multiplicative_noise_convergence_order(tmp_path):
    # coupled sweep {0.1, 0.05, 0.02, 0.01} with a 10x finer reference:
    # the fitted order must land in [0.35, 0.75] for all three schemes.
    # The half order is the noise's share of the error (b db ~ sigma_b),
    # so the sweep raises toy_example_1's noise from its certified floor
    # 1e-8 to 1e-3.  The band holds only in a window of sigma_b: at this
    # seed dlr_em / dlr_ps_sde fit 1.09 / 1.12 at 1e-5 and 0.98 / 0.98
    # at 3e-4, where the first-order drift error dominates; 0.62 / 0.55
    # at 1e-3 and 0.42 / 0.40 at 3e-3; and 0.23 / 0.25 at 1e-2, where
    # the paths grow like geometric Brownian motion over T = 10.
    # dlr_ps_em fits ~0.0 at 1e-3: its basis solve carries the
    # increment's quadratic covariation (see integrators), so it
    # stays ~0.15 away from the reference at every dt.
    out = run_experiment(sweep_spec(tmp_path, "toy_example_1",
                                    "dlr_ps_sde_fine",
                                    model_overrides={"sigma_b": 1e-3}))
    assert not out["failures"], out["failures"]
    orders = {scheme: out["reports"][(scheme, "dlr_ps_sde_fine")].fitted_order
              for scheme in ("dlr_em", "dlr_ps_em", "dlr_ps_sde")}
    bad = {s: o for s, o in orders.items() if not 0.35 <= o <= 0.75}
    assert not bad, \
        "fitted orders outside [0.35, 0.75]: %s (all orders: %s)" % (
            {s: "%.3f" % o for s, o in bad.items()},
            {s: "%.3f" % o for s, o in orders.items()})


def test_06_additive_noise_convergence_order(tmp_path):
    # same sweep on the additive-noise model against the full-order
    # fine reference: fitted order in [0.75, 1.25] for all schemes.
    out = run_experiment(sweep_spec(tmp_path, "toy_example_2", "em_fine"))
    assert not out["failures"], out["failures"]
    for scheme in ("dlr_em", "dlr_ps_em", "dlr_ps_sde"):
        order = out["reports"][(scheme, "em_fine")].fitted_order
        assert 0.75 <= order <= 1.25, \
            "%s fitted order %.3f outside [0.75, 1.25]" % (scheme, order)


def test_07_plain_scheme_breaks_down_under_nonlinear_drift(tmp_path):
    # nonlinear drift with a near-singular Gramian: both splitting
    # schemes keep fitted order >= 0.75, while the plain scheme either
    # produces errors >= 10x theirs at the smallest dt (a collapsed run
    # counts as an infinite error) or fits an order <= 0.2.
    out = run_experiment(sweep_spec(tmp_path, "toy_example_3", "em_fine"))
    ps_small = []
    for scheme in ("dlr_ps_em", "dlr_ps_sde"):
        report = out["reports"][(scheme, "em_fine")]
        assert report.dt_values.size == 4, \
            "%s did not complete the sweep" % scheme
        assert report.fitted_order >= 0.75, \
            "%s fitted order %.3f < 0.75" % (scheme, report.fitted_order)
        ps_small.append(report.l2_sup_errors[-1])

    report = out["reports"][("dlr_em", "em_fine")]
    failed_dts = {f["dt"] for f in out["failures"]
                  if f["scheme"] == "dlr_em"}
    if 0.01 in failed_dts:
        plain_small = np.inf
    else:
        assert report.dt_values[-1] == 0.01
        plain_small = report.l2_sup_errors[-1]
    ratio = plain_small / max(ps_small)
    order_collapsed = (report.dt_values.size >= 3
                       and report.fitted_order <= 0.2)
    assert ratio >= 10.0 or order_collapsed, \
        "plain scheme error ratio %.2f and order %s show no breakdown" % (
            ratio, "%.3f" % report.fitted_order
            if report.dt_values.size else "n/a")


def test_08_mean_square_stability_triptych(tmp_path):
    # d = 10, M = 2000, horizon 120: dt = 0.0907 must classify stable
    # and dt = 0.0911 unstable for all three schemes; the one-step
    # mean-square margin must agree at these outer step sizes
    # (below/above 1, half-width 5e-4).  The three constant-rate axes
    # (a = -22, b = 0.1) decay slowest: at dt = 0.0907 they contract by
    # (1 + a dt)^2 + b^2 dt = 0.9917 per step, so even the full-order
    # scheme needs T >= 62.3 to cross the stable cut.
    # dt = 0.0909 sits 1.2e-5 above the per-axis threshold, where that
    # factor is 1.0005: within T = 120 the full-order norm can neither
    # fall below the stable cut nor exceed the unstable one (estimate
    # ~0.3 x 1.96), so all three schemes classify inconclusive.  The
    # splitting schemes' edge over the plain scheme
    # is that they escape the Gramian-dependent step restriction; on
    # this linear drift the Gramian cancels out of the plain scheme's
    # basis solve (see test_03), so that restriction never acts here.
    # test_07 checks the Gramian-driven split on a nonlinear drift.
    spec = ExperimentSpec(
        name="triptych", kind="stability", model="stability_model",
        schemes=("dlr_em", "dlr_ps_em", "dlr_ps_sde"), rank=4,
        paths=2000, seed=SEED, t_final=120.0,
        dt_values=(0.0911, 0.0909, 0.0907),
        output_dir=str(tmp_path / "triptych"))
    with pytest.warns(UserWarning, match="does not divide"):
        out = run_experiment(spec)
    got = out["classifications"]

    model, law = build_model("stability_model", {})
    a_mat, b_mats = reference.stability_ams_matrices(0.0)
    assert reference.ams_margin(a_mat, b_mats, 0.0907) < 1.0 + 5e-4
    assert reference.ams_margin(a_mat, b_mats, 0.0911) >= 1.0 - 5e-4

    # the premise of the verdicts: the constant-rate axes alone cross
    # the stable cut at dt = 0.0907 within the horizon, and do not
    # contract at all at dt = 0.0909
    samples = law(SEED, spec.paths)
    share = mean_square_norm(samples[:3]) / mean_square_norm(samples)
    rates = np.diag(a_mat)[:3]
    noise = np.array([b[i, i] for i, b in enumerate(b_mats[:3])])

    def axis_factors(dt):
        return (1.0 + rates * dt) ** 2 + noise ** 2 * dt

    n_stable = int(round(spec.t_final / 0.0907))
    estimate = share * axis_factors(0.0907).max() ** n_stable
    assert estimate < STABLE_FACTOR, \
        "horizon %g too short: constant axes keep %.3e of the initial " \
        "norm at dt=0.0907, above the stable cut %g" % (
            spec.t_final, estimate, STABLE_FACTOR)
    assert axis_factors(0.0909).min() > 1.0, \
        "constant axes contract at dt=0.0909 (factor %.6f)" \
        % axis_factors(0.0909).min()

    expected = {}
    for scheme in spec.schemes:
        expected[(scheme, 0.0907)] = "stable"
        expected[(scheme, 0.0909)] = "inconclusive"
        expected[(scheme, 0.0911)] = "unstable"
    mismatches = {
        "%s dt=%g" % key: "expected %s, got %s" % (expected[key], got[key])
        for key in expected if got[key] != expected[key]}
    assert not mismatches, "classification mismatches: %s" % mismatches


def sample_projector(u, y_ref, z):
    """Tangent projector onto span(rows of u) + span of y_ref modes."""
    c = gramian(y_ref)
    coeff = solve_spsd_minnorm(c, expectation_outer(y_ref, z))
    fitted = coeff.T @ y_ref
    in_span = u.T @ (u @ z)
    return in_span + fitted - u.T @ (u @ fitted)


def test_09_projector_self_adjoint_and_non_expansive():
    # 100 random ensembles (k <= 5, d <= 10, M = 500): the sample
    # tangent projector is idempotent and self-adjoint to 1e-9 in the
    # sample inner product, and never expands the sample norm beyond
    # 1e-12 slack.
    rng = np.random.default_rng(SEED)
    m_paths = 500
    for trial in range(100):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(k, 11))
        basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T
        y_ref = rng.standard_normal((k, m_paths))
        z = rng.standard_normal((d, m_paths))
        w = rng.standard_normal((d, m_paths))

        p_z = sample_projector(basis, y_ref, z)
        p_p_z = sample_projector(basis, y_ref, p_z)
        scale = np.sqrt(mean_square_norm(z))
        assert np.sqrt(mean_square_norm(p_p_z - p_z)) <= 1e-9 * scale, \
            "trial %d: projector not idempotent" % trial

        p_w = sample_projector(basis, y_ref, w)
        lhs = float(np.sum(p_z * w)) / m_paths
        rhs = float(np.sum(z * p_w)) / m_paths
        bound = 1e-9 * scale * np.sqrt(mean_square_norm(w))
        assert abs(lhs - rhs) <= bound, \
            "trial %d: projector not self-adjoint" % trial

        assert np.sqrt(mean_square_norm(p_z)) \
            <= np.sqrt(mean_square_norm(z)) + 1e-12, \
            "trial %d: projector expanded the sample norm" % trial


def test_10_minimal_norm_solve_independence(monkeypatch):
    # perturbing the basis solve inside the null space of its Gramian
    # must leave the splitting reconstructions unchanged (<= 1e-10
    # relative) while visibly changing the plain scheme (> 1e-6): its
    # moved ensemble leaves the old null space, so the dropped
    # component is not harmless there.  A noiseless linear model with
    # exactly rank-1 samples at basis rank 2 keeps every coefficient
    # cloud - before and after the move - proportional to one vector,
    # so both Gramians are exactly singular and the null space is
    # unambiguous.
    a_matrix = np.array([
        [-0.1, 0.1, 0.0],
        [-0.1, 0.1, 0.0],
        [-4.0, -4.0, -4.0],
    ])
    model = SdeModel(
        name="noiseless_linear", d=3, m=3,
        drift_many=lambda t, x: a_matrix @ x,
        diffusion_dw=lambda t, x, dw: np.zeros_like(x),
        a_mat=lambda t: a_matrix)
    rng = np.random.default_rng(SEED)
    direction = np.array([1.0, 0.5, 0.0])
    samples = np.outer(direction, 1.0 + 0.3 * rng.standard_normal(2000))
    state0 = init_rank_k(samples, 2)
    grid = generate(SEED, 0.0, 0.02, 1, model.m, 2000)
    dw = grid.increments[0]
    row = np.array([[0.6, -0.48, 0.64]])

    def null_space_offset(c_mat):
        null_vec = np.linalg.eigh(c_mat)[1][:, :1]
        return null_vec @ row

    # the minimal-norm solve zeroes the dead basis row, so the
    # refactorization must run with the svd policy that keeps the
    # factored product exact while dead directions stay zeroed
    for scheme, limit, side in (
            ("dlr_ps_em", 1e-10, "at most"),
            ("dlr_ps_sde", 1e-10, "at most"),
            ("dlr_em", 1e-6, "more than")):
        base = dlr_step(model, state0, 0.02, dw, scheme=scheme,
                        rank_policy="svd")
        with monkeypatch.context() as patch:
            patch.setattr(lowrank_sde.integrators, "solve_spsd_minnorm",
                          reference.offset_solve(null_space_offset))
            bumped = dlr_step(model, state0, 0.02, dw, scheme=scheme,
                              rank_policy="svd")
        base_x = base.u.T @ base.y
        change = frobenius(bumped.u.T @ bumped.y - base_x) \
            / frobenius(base_x)
        if side == "at most":
            assert change <= limit, \
                "%s changed by %.3e > %g" % (scheme, change, limit)
        else:
            assert change > limit, \
                "%s changed by %.3e <= %g" % (scheme, change, limit)


def test_11_pde_experiments_error_ordering(tmp_path):
    # advection-diffusion-reaction (d=25, k=18) and forced-heat
    # (d=26, k=14) sweeps at dt in {0.04, 0.02, 0.01}: both splitting
    # schemes' relative errors vs the fine full-order reference must
    # not exceed the plain scheme's at any dt (10% tie slack).  The
    # svd rank policy keeps the overparametrized bases running.
    cases = (
        ("sadr_model", 18, 10.0, 5),
        ("laplacian_model", 14, 4.0, 4),
    )
    for model_name, rank, t_final, fine_factor in cases:
        out = run_experiment(sweep_spec(
            tmp_path, model_name, "em_fine", rank=rank, paths=1000,
            t_final=t_final, dt_values=(0.04, 0.02, 0.01),
            fine_factor=fine_factor, rank_policy="svd"))
        assert not out["failures"], "%s: %s" % (model_name, out["failures"])
        plain = out["reports"][("dlr_em", "em_fine")].relative_errors
        for scheme in ("dlr_ps_em", "dlr_ps_sde"):
            split = out["reports"][(scheme, "em_fine")].relative_errors
            assert split.size == plain.size == 3
            worst = (split / plain).max()
            assert worst <= 1.10, \
                "%s: %s error exceeds the plain scheme by %.1f%%" % (
                    model_name, scheme, 100.0 * (worst - 1.0))


def test_12_refined_bound_matches_step_recurrence():
    # the closed-form accumulated floor must satisfy the one-step
    # recurrence s -> (1 - dt/(dt + A)) s + sigma_B dt / 2 with 1e-12
    # relative agreement across a 10x10x10 parameter grid (sigma_0
    # above the fixed-point cap so the floor term is the cap).
    k_bound = 3.7
    sigma_0 = 1.0
    checked = 0
    for sigma_b in np.logspace(-8.0, -1.0, 10):
        for c_lgb in np.logspace(-2.0, 2.0, 10):
            a_const = sigma_b / (2.0 * c_lgb * (1.0 + k_bound))
            assert sigma_0 >= 0.5 * sigma_b * a_const
            for dt in np.logspace(-3.0, -0.5, 10):
                decay = 1.0 - dt / (dt + a_const)
                value = gramian_bound_refined(sigma_0, sigma_b, c_lgb,
                                              k_bound, dt, 0)
                for n in range(5):
                    value = decay * value + 0.5 * sigma_b * dt
                    closed = gramian_bound_refined(sigma_0, sigma_b,
                                                   c_lgb, k_bound, dt,
                                                   n + 1)
                    assert closed == pytest.approx(value, rel=1e-12), \
                        "mismatch at sigma_b=%g c=%g dt=%g n=%d" % (
                            sigma_b, c_lgb, dt, n + 1)
                checked += 1
    assert checked == 1000
