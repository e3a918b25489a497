"""One-step integrators for SDE sample ensembles and a time-stepping loop.

Four steppers are provided.  ``em_step`` advances a full-order sample
cloud with explicit Euler-Maruyama.  The three low-rank steppers advance
a factored ensemble X = u^T y and share one step body: it moves every
sample by the projected Euler-Maruyama increment w = a dt + b dW, updates
the orthonormal basis by solving a small Gramian-weighted linear system,
and restores orthonormality with a QR refactorization.  The schemes
differ only in two choices, the samples whose Gramian weights the basis
solve and the part of the increment that enters its right-hand side
(Lubich & Oseledets, BIT 54, 2014, write them as variants of one
projected-increment map):

==============  ==============  ======================================
scheme          Gramian of      basis right-hand side
==============  ==============  ======================================
``dlr_em``      old samples     ``expectation_outer(y, a) * dt``
``dlr_ps_em``   moved samples   ``expectation_outer(y_moved, w)``
``dlr_ps_sde``  moved samples   ``expectation_outer(y_moved, a) * dt``
==============  ==============  ======================================

Each step entry returns the new ``EnsembleState``.  Outside debug mode
it factors only what the map needs: one eigendecomposition of the solve
Gramian and one QR, with an SVD only when QR finds the basis rank
deficient.  Finiteness checks turn an overflow into ``ModelBlowUp``.

``Stepper`` is the step loop of one scheme, fed one Brownian increment
at a time and collecting per-node diagnostics into a ``Trajectory``;
``integrate`` drives it over a stored increment grid.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ensemble import (
    ORTHONORMALITY_TOL,
    EnsembleState,
    expectation_outer,
    gramian,
    mean_square_norm,
    reconstruct,
)
from .errors import LowRankSdeError, ModelBlowUp, RankDeficient, StepFailed
from .linalg import (DEFAULT_PINV_RELATIVE_THRESHOLD, reduced_qr,
                     solve_spsd_minnorm)

SCHEMES = ("em", "dlr_em", "dlr_ps_em", "dlr_ps_sde")

_FACTORIZATION_TOL = 1e-10
_IDENTITY_TOL = 1e-8
# the projected-update identities hold exactly only when the Gramian
# solve keeps the full spectrum; truncated directions contribute up to
# sqrt(k * relative threshold) ~ 1e-5 of the cloud norm
_IDENTITY_TOL_TRUNCATED = 1e-5

RANK_POLICIES = ("abort", "svd")


@dataclass
class Trajectory:
    """Result of integrating one scheme over one increment grid.

    Sample values are stored only at the requested node indices;
    scalar diagnostics are kept at every grid node.  A run that records
    no node keeps no diagnostics either: ``times``, ``mean_square_norms``
    and ``sigma_min_gramians`` are None.
    Lineage fields (seed, endpoints, step counts, coarsening factor) let
    error metrics verify that two trajectories were driven by the same
    root noise before comparing them.
    """

    scheme: str
    model_name: str
    t0: float
    t1: float
    n_steps: int
    grid_seed: int
    coarsen_factor: int
    times: np.ndarray
    mean_square_norms: np.ndarray
    sigma_min_gramians: np.ndarray
    node_indices: list = field(default_factory=list)
    node_values: list = field(default_factory=list)
    node_states: list = field(default_factory=list)
    final_state: object = None
    completed: bool = True
    error: str = None

    @property
    def root_n_steps(self):
        """Step count of the finest grid this trajectory's noise came from."""
        return self.n_steps * self.coarsen_factor


def _first_bad_path(arr):
    bad = ~np.isfinite(arr)
    cols = bad.any(axis=0)
    return int(np.argmax(cols))


def _check_finite(arr, t, what):
    if not np.all(np.isfinite(arr)):
        j = _first_bad_path(np.atleast_2d(arr))
        raise ModelBlowUp(
            "non-finite %s at t=%.6g on path %d" % (what, t, j), t=t, path=j)


def em_step(model, x, t, dt, dw):
    """Advance a full-order sample cloud by one Euler-Maruyama step.

    Parameters
    ----------
    model : SdeModel
    x : ndarray of shape (d, M)
    t : float
    dt : float, positive
    dw : ndarray of shape (m, M)
        Brownian increments for this step.

    Returns
    -------
    ndarray of shape (d, M)
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != model.d:
        raise ValueError("x must have shape (d, M)")
    if dw.shape != (model.m, x.shape[1]):
        raise ValueError("dw must have shape (m, M)")
    a = model.drift_many(t, x)
    _check_finite(a, t, "drift")
    bdw = model.diffusion_dw(t, x, dw)
    _check_finite(bdw, t, "diffusion increment")
    out = x + a * dt + bdw
    _check_finite(out, t, "state")
    return out


def _moved_samples(model, state, dt, dw):
    """Common first stage of all low-rank steppers.

    Evaluates the model on the reconstructed cloud x and moves every
    sample by the basis-projected Euler-Maruyama increment.  Returns
    (x, a, w, y_moved): the cloud, the drift, the increment w = a dt +
    b dW, all (d, M), and the moved coefficients (k, M).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dw.shape != (model.m, state.m_paths):
        raise ValueError("dw must have shape (m, M)")
    if state.d != model.d:
        raise ValueError("state dimension does not match model")
    t = state.t
    x = reconstruct(state)
    a = model.drift_many(t, x)
    _check_finite(a, t, "drift")
    bdw = model.diffusion_dw(t, x, dw)
    _check_finite(bdw, t, "diffusion increment")
    w = a * dt + bdw
    y_moved = state.y + state.u @ w
    _check_finite(y_moved, t, "coefficient samples")
    return x, a, w, y_moved


def _without_row_span(g, u):
    """Right-multiply a (k, d) block by (I - u^T u)."""
    return g - (g @ u.T) @ u


def _basis_solve(c_mat, u, g_orth):
    """Solve C * u_new = C * u + g_orth for the unnormalized basis.

    The minimal-norm solution is used so a singular Gramian cannot
    abort the step.  Returns (u_new, relative_residual); the residual is
    not finite once the norms of the solve overflow.
    """
    rhs = c_mat @ u + g_orth
    u_new = solve_spsd_minnorm(c_mat, rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0.0:
        residual = np.linalg.norm(c_mat @ u_new - rhs) / rhs_norm
    else:
        residual = 0.0
    return u_new, residual


def _identity_tolerance(c_mat):
    """Debug-check tolerance, loosened when the solve truncated."""
    lam = np.linalg.eigvalsh(c_mat)
    if lam[0] <= DEFAULT_PINV_RELATIVE_THRESHOLD * max(lam[-1], 0.0):
        return _IDENTITY_TOL_TRUNCATED
    return _IDENTITY_TOL


def _refactor(u_new, y_moved, rank_policy):
    """Restore row orthonormality of the basis after the solve.

    QR of the transposed basis is the default.  If QR reports rank
    deficiency the behavior follows rank_policy: "abort" re-raises as
    StepFailed, "svd" refactors through a singular value decomposition,
    which keeps the sample product u^T y exact while zeroing the
    coefficient rows of the dead directions.

    Returns (u_plus, y_plus).
    """
    if rank_policy not in RANK_POLICIES:
        raise ValueError("rank_policy must be one of %r" % (RANK_POLICIES,))
    try:
        q, r = reduced_qr(u_new.T)
        u_plus = q.T
        y_plus = r @ y_moved
    except RankDeficient as exc:
        if rank_policy == "abort":
            raise StepFailed(
                "basis refactorization found a rank-deficient basis "
                "(column %s); rerun with rank_policy='svd' to continue "
                "with dead directions zeroed" % exc.column) from exc
        w, s, vt = np.linalg.svd(u_new.T, full_matrices=False)
        u_plus = w.T
        y_plus = (s[:, np.newaxis] * vt) @ y_moved
        # canonical signs: largest-magnitude entry of each basis row positive
        lead = np.argmax(np.abs(u_plus), axis=1)
        signs = np.where(u_plus[np.arange(u_plus.shape[0]), lead] < 0.0, -1.0, 1.0)
        u_plus = signs[:, np.newaxis] * u_plus
        y_plus = signs[:, np.newaxis] * y_plus

    defect = np.linalg.norm(u_plus @ u_plus.T - np.eye(u_plus.shape[0]))
    if defect > ORTHONORMALITY_TOL:
        warnings.warn(
            "basis lost orthonormality (defect %.3e), re-orthonormalizing"
            % defect)
        q2, r2 = reduced_qr(u_plus.T)
        u_plus = q2.T
        y_plus = r2 @ y_plus
    return u_plus, y_plus


def _tangent_apply(u, y_ref, c_ref, z):
    """Apply the sample tangent projector at (u, y_ref) to a cloud z.

    The projector keeps the component of z inside the span of the basis
    rows and, outside that span, the part correlated with the reference
    coefficient samples:

        P[z] = (I - u^T u) E[z y_ref^T] C_ref^+ y_ref + u^T u z

    where C_ref is the Gramian of y_ref.  The same minimal-norm solve
    as the steppers is used so the two agree on singular Gramians.
    """
    cross = expectation_outer(z, y_ref)
    coeff = solve_spsd_minnorm(c_ref, cross.T).T
    fluct = coeff @ y_ref
    fluct = fluct - u.T @ (u @ fluct)
    return fluct + u.T @ (u @ z)


def _check_identity(lhs, rhs, what, tol):
    err = np.linalg.norm(lhs - rhs)
    scale = max(np.linalg.norm(lhs), 1.0)
    if err > tol * scale:
        raise StepFailed(
            "%s violated (relative error %.3e)" % (what, err / scale))


def _dlr_step(model, state, dt, dw, *, moved_gramian, full_increment,
              fast_linear=False, debug=False, rank_policy="abort",
              u_solve_perturbation=None, t_next=None, node_gramian=None):
    """One low-rank step; the two flags pick the scheme (module table).

    The linear-drift shortcut applies to the old-samples Gramian only.
    ``t_next`` (default state.t + dt) labels the new state, and
    ``node_gramian`` is the Gramian of state.y if the caller has it.
    """
    x, a, w, y_moved = _moved_samples(model, state, dt, dw)
    u = state.u
    y_ref = y_moved if moved_gramian else state.y
    gram = node_gramian
    if moved_gramian or gram is None:
        gram = gramian(y_ref)
    c_mat = gram.c
    if not np.all(np.isfinite(c_mat)):
        sq = np.sum(y_ref * y_ref, axis=0)
        j = int(np.argmax(~np.isfinite(sq)))
        raise ModelBlowUp(
            "sample second moments overflowed at t=%.6g on path %d"
            % (state.t, j), t=state.t, path=j)
    if fast_linear and not moved_gramian and model.is_linear_drift:
        u_new = u + _without_row_span(u @ model.a_mat(state.t).T, u) * dt
    else:
        g = (expectation_outer(y_ref, w) if full_increment
             else expectation_outer(y_ref, a) * dt)
        u_new, residual = _basis_solve(c_mat, u, _without_row_span(g, u))
        if not np.isfinite(residual):
            # the norms of the solve overflow once samples pass ~1e154
            j = int(np.argmax(np.max(np.abs(y_ref), axis=0)))
            raise ModelBlowUp(
                "basis solve overflowed at t=%.6g; largest samples on "
                "path %d" % (state.t, j), t=state.t, path=j)
    if u_solve_perturbation is not None:
        u_new = u_new + u_solve_perturbation(c_mat)

    if t_next is None:
        t_next = state.t + dt
    u_plus, y_plus = _refactor(u_new, y_moved, rank_policy)
    _check_finite(y_plus, t_next, "coefficient samples")
    new_state = EnsembleState(t=t_next, u=u_plus, y=y_plus)
    if debug:
        _check_identity(u_new.T @ y_moved, u_plus.T @ y_plus,
                        "sample product of the refactorization",
                        _FACTORIZATION_TOL)
        if moved_gramian:
            # new cloud = old cloud + tangent projection of the part of
            # the increment that enters the solve + row projection of
            # the rest
            g_inc = w if full_increment else a * dt
            rhs = (x + _tangent_apply(u, y_moved, c_mat, g_inc)
                   + u.T @ (u @ (w - g_inc)))
            _check_identity(reconstruct(new_state), rhs,
                            "projected-update identity",
                            _identity_tolerance(c_mat))
    return new_state


def dlr_em_step(model, state, dt, dw, *, fast_linear=False, debug=False,
                rank_policy="abort", u_solve_perturbation=None):
    """One low-rank Euler-Maruyama step.

    The basis solve is weighted by the Gramian of the samples before
    the move and its right-hand side carries only the drift.  With
    ``fast_linear`` set and a model whose drift is x -> A(t) x, the
    solve is replaced by the exact shortcut u + u A(t)^T (I - u^T u) dt,
    in which the Gramian cancels.

    Returns
    -------
    EnsembleState
    """
    return _dlr_step(model, state, dt, dw, moved_gramian=False,
                     full_increment=False, fast_linear=fast_linear,
                     debug=debug, rank_policy=rank_policy,
                     u_solve_perturbation=u_solve_perturbation)


def dlr_ps_em_step(model, state, dt, dw, *, debug=False, rank_policy="abort",
                   u_solve_perturbation=None):
    """One projector-splitting step built on the discrete increment.

    The basis solve is weighted by the Gramian of the moved samples and
    its right-hand side carries the complete increment, drift plus
    diffusion, and with it the increment's quadratic covariation
    E[b dW (b dW)^T] ~ E[b b^T] dt.  Once the noise is not negligible,
    the scheme's dt -> 0 limit therefore differs from that of
    ``dlr_em_step`` and ``dlr_ps_sde_step``, and the step does not
    converge to a fine ``dlr_ps_sde`` reference.  In debug mode the step
    verifies the projected-update identity: the new cloud equals the
    old cloud plus the tangent projection of the full increment.

    Returns
    -------
    EnsembleState
    """
    return _dlr_step(model, state, dt, dw, moved_gramian=True,
                     full_increment=True, debug=debug,
                     rank_policy=rank_policy,
                     u_solve_perturbation=u_solve_perturbation)


def dlr_ps_sde_step(model, state, dt, dw, *, debug=False, rank_policy="abort",
                    u_solve_perturbation=None):
    """One projector-splitting step split at the continuous level.

    Identical to ``dlr_ps_em_step`` except that only the drift enters
    the basis solve; the diffusion increment reaches the new cloud only
    through the span of the old basis rows.  In debug mode the step
    verifies its projected-update identity: new cloud = old cloud +
    tangent projection of the drift times dt + row projection of the
    diffusion increment.

    Returns
    -------
    EnsembleState
    """
    return _dlr_step(model, state, dt, dw, moved_gramian=True,
                     full_increment=False, debug=debug,
                     rank_policy=rank_policy,
                     u_solve_perturbation=u_solve_perturbation)


# integrate looks each scheme's step up here and passes all the same keywords
_DLR_STEPS = {
    "dlr_em": partial(_dlr_step, moved_gramian=False, full_increment=False),
    "dlr_ps_em": partial(_dlr_step, moved_gramian=True, full_increment=True),
    "dlr_ps_sde": partial(_dlr_step, moved_gramian=True,
                          full_increment=False),
}


class Stepper:
    """The step loop of one scheme, fed one Brownian increment at a time.

    ``grid`` fixes the time lattice and the trajectory's lineage; its
    increments are not read, so a caller that streams the increments
    passes a grid that stores none and calls ``advance`` with each one
    in turn.  The keyword arguments are those of ``integrate``, which
    drives a stepper over a stored grid.  The scalar diagnostics of a
    node, and its cloud if recorded, are taken when the loop reaches it;
    ``traj.final_state`` is the state at the last node reached.  With
    ``record_nodes=()`` the stepper records nothing per node, so its
    memory does not grow with the step count.
    """

    def __init__(self, model, scheme, init, grid, *, record_nodes=None,
                 keep_states=False, debug=False, fast_linear=False,
                 rank_policy="abort", u_solve_perturbation=None):
        if scheme not in SCHEMES:
            raise ValueError("unknown scheme %r, expected one of %r"
                             % (scheme, SCHEMES))
        if grid.m != model.m:
            raise ValueError("grid carries %d noise components, model "
                             "needs %d" % (grid.m, model.m))
        self.low_rank = scheme != "em"
        if self.low_rank:
            if not isinstance(init, EnsembleState):
                raise TypeError("low-rank schemes need an EnsembleState init")
            m_paths = init.m_paths
            self.state = init
        else:
            x = np.array(init, dtype=float)
            if x.ndim != 2 or x.shape[0] != model.d:
                raise ValueError("em init must have shape (d, M)")
            m_paths = x.shape[1]
            self.state = x
        if grid.m_paths != m_paths:
            raise ValueError("grid carries %d paths, ensemble has %d"
                             % (grid.m_paths, m_paths))

        n = grid.n_steps
        self._record_set = set() if record_nodes is None else {
            int(i) for i in record_nodes}
        for i in self._record_set:
            if i < 0 or i > n:
                raise ValueError("record node %d outside grid [0, %d]"
                                 % (i, n))
        self._diagnostics = keep = (record_nodes is None
                                    or bool(self._record_set))
        self._model = model
        self._dt = grid.dt
        self._time = grid.time
        self._keep_states = keep_states
        self._options = dict(fast_linear=fast_linear, debug=debug,
                             rank_policy=rank_policy,
                             u_solve_perturbation=u_solve_perturbation)
        self._step = _DLR_STEPS.get(scheme)
        self.traj = Trajectory(
            scheme=scheme,
            model_name=model.name,
            t0=grid.t0,
            t1=grid.t1,
            n_steps=n,
            grid_seed=grid.seed,
            coarsen_factor=grid.coarsen_factor,
            times=grid.times() if keep else None,
            mean_square_norms=np.full(n + 1, np.nan) if keep else None,
            sigma_min_gramians=np.full(n + 1, np.nan) if keep else None,
        )
        self._node_gramian = None
        self.node = 0
        with np.errstate(over="ignore", invalid="ignore"):
            self._reach_node()

    def cloud(self):
        """The (d, M) sample cloud at the current node."""
        return reconstruct(self.state) if self.low_rank else self.state

    def _reach_node(self):
        i = self.node
        traj = self.traj
        traj.final_state = self.state
        if not self._diagnostics:
            return
        if self.low_rank:
            traj.mean_square_norms[i] = mean_square_norm(self.state.y)
            self._node_gramian = gramian(self.state.y)
            traj.sigma_min_gramians[i] = self._node_gramian.sigma_min
        else:
            traj.mean_square_norms[i] = mean_square_norm(self.state)
        if i in self._record_set:
            traj.node_indices.append(i)
            traj.node_values.append(
                reconstruct(self.state) if self.low_rank
                else self.state.copy())
            if self._keep_states and self.low_rank:
                traj.node_states.append(self.state)

    def advance(self, dw):
        """Step from the current node to the next one on increment dw.

        Returns True on success.  A step that raises a LowRankSdeError
        or a LinAlgError marks the trajectory failed and returns False;
        the stepper must not be advanced after that, nor past the last
        node of its grid.
        """
        i = self.node
        traj = self.traj
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if self.low_rank:
                    self.state = self._step(
                        self._model, self.state, self._dt, dw,
                        t_next=self._time(i + 1),
                        node_gramian=self._node_gramian, **self._options)
                else:
                    self.state = em_step(self._model, self.state,
                                         self._time(i), self._dt, dw)
            except (LowRankSdeError, np.linalg.LinAlgError) as exc:
                traj.completed = False
                traj.error = "%s at step %d (t=%.6g): %s" % (
                    type(exc).__name__, i, self._time(i), exc)
                return False
            self.node = i + 1
            self._reach_node()
        return True


def integrate(model, scheme, init, grid, *, record_nodes=None,
              keep_states=False, debug=False, fast_linear=False,
              rank_policy="abort", u_solve_perturbation=None):
    """Run one scheme over a Brownian increment grid.

    Parameters
    ----------
    model : SdeModel
    scheme : str
        One of "em", "dlr_em", "dlr_ps_em", "dlr_ps_sde".
    init : EnsembleState or ndarray of shape (d, M)
        Factored ensemble for the low-rank schemes, plain sample cloud
        for "em".
    grid : BrownianGrid
        Must match the model's noise dimension and the ensemble's path
        count.
    record_nodes : iterable of int, optional
        Grid node indices at which the reconstructed cloud is stored.
        The default, None, stores no cloud but keeps the per-node scalar
        diagnostics.  An empty iterable records nothing, not even those.
    keep_states : bool
        Also store the factored states at the recorded nodes.
    debug : bool
        Enable the per-step identity checks (roughly doubles cost).
    fast_linear : bool
        Use the exact linear-drift shortcut in "dlr_em".
    rank_policy : str
        "abort" (default) stops the run when the refactorization finds
        a rank-deficient basis, "svd" continues with dead directions
        zeroed.
    u_solve_perturbation : callable, optional
        Receives the Gramian of each basis solve and returns an offset
        added to its solution; intended for null-space experiments.

    Returns
    -------
    Trajectory
        ``completed`` is False when a step raised a LowRankSdeError or
        a LinAlgError; scalar diagnostics before the failure are kept
        and the error is annotated.  Other exceptions propagate.
    """
    if grid.increments is None:
        raise ValueError("integrate needs a grid that stores its "
                         "increments; stream them through a Stepper")
    stepper = Stepper(model, scheme, init, grid, record_nodes=record_nodes,
                      keep_states=keep_states, debug=debug,
                      fast_linear=fast_linear, rank_policy=rank_policy,
                      u_solve_perturbation=u_solve_perturbation)
    for dw in grid.increments:
        if not stepper.advance(dw):
            break
    return stepper.traj
