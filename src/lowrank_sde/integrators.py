"""One-step integrators for SDE sample ensembles and a time-stepping loop.

Four schemes are provided.  ``em_step`` advances a full-order sample
cloud with explicit Euler-Maruyama.  The three low-rank schemes advance
a factored ensemble X = u^T y through one step, ``dlr_step``: it moves
every sample by the projected Euler-Maruyama increment w = a dt + b dW,
updates the orthonormal basis by solving a small Gramian-weighted linear
system, and restores orthonormality with a QR refactorization.  The
schemes differ only in two choices, the samples whose Gramian weights
the basis solve and the part of the increment that enters its
right-hand side (Lubich & Oseledets, BIT 54, 2014, write them as
variants of one projected-increment map):

==============  ==============  ======================================
scheme          Gramian of      basis right-hand side
==============  ==============  ======================================
``dlr_em``      old samples     ``expectation_outer(y, a) * dt``
``dlr_ps_em``   moved samples   ``expectation_outer(y_moved, w)``
``dlr_ps_sde``  moved samples   ``expectation_outer(y_moved, a) * dt``
==============  ==============  ======================================

``dlr_ps_em``'s right-hand side carries the complete increment and with
it the increment's quadratic covariation E[b dW (b dW)^T] ~ E[b b^T] dt,
so once the noise is not negligible its dt -> 0 limit differs from the
other two schemes' and it does not converge to a fine ``dlr_ps_sde``
reference.  Debug mode checks each splitting step's projected-update
identity (``_move``).

A step moves each cell alone (``_move``, all its d x M work), then
settles all cells that step together as one stack (``_settle``): one
eigh and one QR outside debug mode, an SVD only for a basis QR finds
rank deficient; ``dlr_step`` is a stack of one.  Overflow is
``ModelBlowUp``.

``Stepper`` is the step loop of one scheme, fed one Brownian increment
at a time; ``advance_all`` steps many at once, and ``integrate`` drives
one over a stored increment grid.  Both record the cloud, and a
low-rank state by reference, at the nodes of ``record_nodes``.
"""

import warnings
from collections import namedtuple
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
    sigma_min,
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

# what fails a step, and with it a cell, rather than the program
_FAILURES = (LowRankSdeError, np.linalg.LinAlgError)


@dataclass
class Trajectory:
    """Result of integrating one scheme over one increment grid.

    Clouds, and a low-rank scheme's states, are kept only at the
    requested node indices; scalar diagnostics at every grid node, unless
    the run records no node: then ``times``, ``mean_square_norms`` and
    ``sigma_min_gramians`` are None.  Lineage fields (seed, endpoints,
    step counts, coarsening factor) let error metrics verify that two
    trajectories were driven by the same root noise.  ``error`` is None
    unless a step failed.
    """

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
    error: str = None

    @property
    def completed(self):
        return self.error is None

    @property
    def root_n_steps(self):
        """Step count of the finest grid this trajectory's noise came from."""
        return self.n_steps * self.coarsen_factor


def _check_finite(arr, t, what):
    if not np.isfinite(arr).all():
        j = int(np.argmax(~np.isfinite(np.atleast_2d(arr)).all(axis=0)))
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


def _without_row_span(g, u):
    """Right-multiply a (k, d) block by (I - u^T u)."""
    return g - (g @ u.T) @ u


def _identity_tolerance(c_mat):
    """Debug-check tolerance, loosened when the solve truncated."""
    lam = np.linalg.eigvalsh(c_mat)
    if lam[0] <= DEFAULT_PINV_RELATIVE_THRESHOLD * max(lam[-1], 0.0):
        return _IDENTITY_TOL_TRUNCATED
    return _IDENTITY_TOL


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


# A low-rank cell after the move phase of its step: the basis solve C u_new
# = rhs (rhs None if the linear shortcut gave u_new), the offset from the
# solve's perturbation, and in debug mode the identity's (cloud, tol).
_Move = namedtuple("_Move", "t t_next y_moved y_ref c_mat rhs u_new offset "
                   "rank_policy debug predicted")


def _move(model, state, dt, dw, *, moved_gramian, full_increment,
          fast_linear=False, debug=False, rank_policy="abort",
          u_solve_perturbation=None, t_next=None, node_gramian=None):
    """Move phase of one low-rank step, all of its d x M work: evaluate
    the model, move the samples by w = a dt + b dW, form the basis solve.
    The flags pick the scheme (module table); the linear shortcut needs
    the old-samples Gramian.  ``t_next`` (default state.t + dt) labels
    the new state; ``node_gramian`` is ``gramian(state.y)``, if the
    caller has it."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dw.shape != (model.m, state.m_paths):
        raise ValueError("dw must have shape (m, M)")
    if state.d != model.d:
        raise ValueError("state dimension does not match model")
    t, u = state.t, state.u
    x = reconstruct(state)
    a = model.drift_many(t, x)
    bdw = model.diffusion_dw(t, x, dw)
    w = a * dt + bdw
    if not np.isfinite(w).all():
        # a non-finite a or b dW makes w non-finite: one scan clears both
        _check_finite(a, t, "drift")
        _check_finite(bdw, t, "diffusion increment")
    y_moved = state.y + u @ w
    _check_finite(y_moved, t, "coefficient samples")
    y_ref = y_moved if moved_gramian else state.y
    c_mat = node_gramian
    if moved_gramian or c_mat is None:
        c_mat = gramian(y_ref)
    if not np.isfinite(c_mat).all():
        sq = np.sum(y_ref * y_ref, axis=0)
        j = int(np.argmax(~np.isfinite(sq)))
        raise ModelBlowUp(
            "sample second moments overflowed at t=%.6g on path %d"
            % (t, j), t=t, path=j)
    rhs = u_new = None
    if fast_linear and not moved_gramian and model.is_linear_drift:
        u_new = u + _without_row_span(u @ model.a_mat(t).T, u) * dt
    else:
        g = (expectation_outer(y_ref, w) if full_increment
             else expectation_outer(y_ref, a) * dt)
        rhs = c_mat @ u + _without_row_span(g, u)
    predicted = None
    if debug and moved_gramian:
        # new cloud = old cloud + tangent projection of the part of the
        # increment that enters the solve + row projection of the rest
        g_inc = w if full_increment else a * dt
        predicted = (x + _tangent_apply(u, y_moved, c_mat, g_inc)
                     + u.T @ (u @ (w - g_inc)), _identity_tolerance(c_mat))
    return _Move(t, t + dt if t_next is None else t_next, y_moved, y_ref,
                 c_mat, rhs, u_new, u_solve_perturbation and
                 u_solve_perturbation(c_mat), rank_policy, debug, predicted)


def _svd_refactor(u_new, move, exc):
    """Refactor a basis that QR found rank deficient: fail under "abort";
    under "svd" keep u^T y exact and zero the dead directions' rows."""
    if move.rank_policy == "abort":
        raise StepFailed(
            "basis refactorization found a rank-deficient basis "
            "(column %s); rerun with rank_policy='svd' to continue "
            "with dead directions zeroed" % exc.column) from exc
    w, s, vt = np.linalg.svd(u_new.T, full_matrices=False)
    u_plus = w.T
    y_plus = (s[:, np.newaxis] * vt) @ move.y_moved
    # canonical signs: largest-magnitude entry of each basis row positive
    lead = np.argmax(np.abs(u_plus), axis=1)
    signs = np.where(u_plus[np.arange(u_plus.shape[0]), lead] < 0.0, -1.0, 1.0)
    return signs[:, np.newaxis] * u_plus, signs[:, np.newaxis] * y_plus


def _settle(moves):
    """Stacked k x k phase of the steps of ``moves``, which share k and d.

    One eigh-based solve and one QR serve all cells; a basis that lost
    rank leaves the QR stack for ``_svd_refactor``.  The rest runs per
    cell, and each new state is validated once, here.  Returns the new
    states or raises the first failing cell's error."""
    u_new = [move.u_new for move in moves]
    solving = [j for j, move in enumerate(moves) if move.rhs is not None]
    if solving:
        c_mat = np.array([moves[j].c_mat for j in solving])
        rhs = np.array([moves[j].rhs for j in solving])
        solved = solve_spsd_minnorm(c_mat, rhs)
        residuals = np.linalg.norm(c_mat @ solved - rhs, axis=(1, 2))
        for j, u_j, res, scale in zip(solving, solved, residuals,
                                      np.linalg.norm(rhs, axis=(1, 2))):
            move = moves[j]
            if scale > 0.0 and not np.isfinite(res / scale):
                # the norms of the solve overflow once samples pass ~1e154
                p = int(np.argmax(np.max(np.abs(move.y_ref), axis=0)))
                raise ModelBlowUp(
                    "basis solve overflowed at t=%.6g; largest samples on "
                    "path %d" % (move.t, p), t=move.t, path=p)
            u_new[j] = u_j
    u_new = [u if move.offset is None else u + move.offset
             for u, move in zip(u_new, moves)]

    new, live, q, r = [None] * len(moves), list(range(len(moves))), (), ()
    while live:
        try:
            q, r = reduced_qr(np.array([u_new[j].T for j in live]))
            break
        except RankDeficient as exc:
            j = live.pop(exc.index)
            new[j] = _svd_refactor(u_new[j], moves[j], exc)
    for j, q_j, r_j in zip(live, q, r):
        new[j] = q_j.T, r_j @ moves[j].y_moved
    u_plus = np.array([u for u, _ in new])
    defects = np.linalg.norm(u_plus @ np.swapaxes(u_plus, 1, 2)
                             - np.eye(u_plus.shape[1]), axis=(1, 2))
    states = []
    for move, u_n, (u_p, y_p), defect in zip(moves, u_new, new, defects):
        if defect > ORTHONORMALITY_TOL:
            warnings.warn("basis lost orthonormality (defect %.3e), "
                          "re-orthonormalizing" % defect)
            q2, r2 = reduced_qr(u_p.T)
            u_p, y_p = q2.T, r2 @ y_p
        _check_finite(y_p, move.t_next, "coefficient samples")
        if np.isnan(defect):  # a non-finite basis passes the test above
            raise ValueError("ensemble state contains non-finite entries")
        states.append(EnsembleState.checked(move.t_next, u_p, y_p))
        if move.debug:
            _check_identity(u_n.T @ move.y_moved, u_p.T @ y_p,
                            "sample product of the refactorization",
                            _FACTORIZATION_TOL)
        if move.predicted is not None:
            _check_identity(reconstruct(states[-1]), move.predicted[0],
                            "projected-update identity", move.predicted[1])
    return states


def _settle_each(moves):
    """``_settle`` the moves as one stack or, if a cell fails, each alone,
    so it gets its own error and the others keep their bytes."""
    try:
        return _settle(moves)
    except _FAILURES as exc:
        if len(moves) == 1:
            return [exc]
    return [result for move in moves for result in _settle_each([move])]


# the two flags of each low-rank scheme (module table)
_FLAGS = {
    "dlr_em": dict(moved_gramian=False, full_increment=False),
    "dlr_ps_em": dict(moved_gramian=True, full_increment=True),
    "dlr_ps_sde": dict(moved_gramian=True, full_increment=False),
}


def dlr_step(model, state, dt, dw, *, scheme, fast_linear=False, debug=False,
             rank_policy="abort", u_solve_perturbation=None):
    """One step of the low-rank ``scheme`` (module table) from ``state``
    on the (m, M) increment dw: ``_move`` and ``_settle`` on a stack of
    one.  ``fast_linear``, for "dlr_em" on a drift x -> A(t) x, replaces
    the basis solve by its exact shortcut u + u A(t)^T (I - u^T u) dt, in
    which the Gramian cancels; the other schemes ignore it.  The other
    options are those of ``integrate``.  Returns an EnsembleState."""
    if scheme not in _FLAGS:
        raise ValueError("unknown low-rank scheme %r" % (scheme,))
    if rank_policy not in RANK_POLICIES:
        raise ValueError("rank_policy must be one of %r" % (RANK_POLICIES,))
    return _settle([_move(model, state, dt, dw, **_FLAGS[scheme],
                          fast_linear=fast_linear, debug=debug,
                          rank_policy=rank_policy,
                          u_solve_perturbation=u_solve_perturbation)])[0]


# the step of each scheme alone; perfbench/tracer.py wraps these entries
_DLR_STEPS = {scheme: partial(dlr_step, scheme=scheme) for scheme in _FLAGS}


class Stepper:
    """The step loop of one scheme, fed one Brownian increment at a time.

    ``grid`` fixes the time lattice and the trajectory's lineage; its
    increments are not read, so a caller that streams the increments
    passes a grid that stores none and calls ``advance`` with each one
    in turn, or ``advance_all`` to step many steppers at once.  The
    keyword arguments are those of ``integrate``, which drives a stepper
    over a stored grid, plus ``sigma_min=False``, which keeps no smallest
    Gramian eigenvalue per node and so forms no node Gramian.  The scalar
    diagnostics of a node, and its cloud if recorded, are taken when the
    loop reaches it; ``traj.final_state`` is the state at the last node
    reached.  With ``record_nodes=()`` the stepper records nothing per
    node, so its memory does not grow with the step count.
    """

    def __init__(self, model, scheme, init, grid, *, record_nodes=None,
                 debug=False, fast_linear=False, rank_policy="abort",
                 u_solve_perturbation=None, sigma_min=True):
        if scheme not in SCHEMES:
            raise ValueError("unknown scheme %r, expected one of %r"
                             % (scheme, SCHEMES))
        if rank_policy not in RANK_POLICIES:
            raise ValueError("unknown rank_policy %r" % (rank_policy,))
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
        self._options = dict(_FLAGS.get(scheme, {}), fast_linear=fast_linear,
                             debug=debug, rank_policy=rank_policy,
                             u_solve_perturbation=u_solve_perturbation)
        self.traj = Trajectory(
            t0=grid.t0,
            t1=grid.t1,
            n_steps=n,
            grid_seed=grid.seed,
            coarsen_factor=grid.coarsen_factor,
            times=grid.times() if keep else None,
            mean_square_norms=np.full(n + 1, np.nan) if keep else None,
            sigma_min_gramians=(np.full(n + 1, np.nan)
                                if keep and sigma_min else None),
        )
        self._node_gramian = None
        self.node = 0
        with np.errstate(over="ignore", invalid="ignore"):
            self._reach_node()

    @property
    def failed(self):
        return self.traj.error is not None

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
            if traj.sigma_min_gramians is not None:
                self._node_gramian = gramian(self.state.y)
                traj.sigma_min_gramians[i] = sigma_min(self._node_gramian)
        else:
            traj.mean_square_norms[i] = mean_square_norm(self.state)
        if i in self._record_set:
            traj.node_indices.append(i)
            if self.low_rank:
                traj.node_values.append(reconstruct(self.state))
                traj.node_states.append(self.state)
            else:
                traj.node_values.append(self.state.copy())

    def _reach(self, state):
        self.state, self.node = state, self.node + 1
        self._reach_node()

    def _fail(self, exc):
        self.traj.error = "%s at step %d (t=%.6g): %s" % (
            type(exc).__name__, self.node, self._time(self.node), exc)

    def advance(self, dw):
        """Step from the current node to the next one on increment dw.

        Returns True on success.  A step that raises a LowRankSdeError
        or a LinAlgError marks the trajectory failed and returns False;
        the stepper must not be advanced after that, nor past the last
        node of its grid.  A low-rank step is ``advance_all`` on this
        stepper alone.
        """
        if self.low_rank:
            advance_all([(self, dw)])
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    self._reach(em_step(self._model, self.state,
                                        self._time(self.node), self._dt, dw))
                except _FAILURES as exc:
                    self._fail(exc)
        return not self.failed


def advance_all(pairs):
    """Advance the stepper of each (stepper, increment) pair one step.

    Low-rank steppers move one by one and settle as one stack per basis
    shape (``_settle``); the others call their own ``advance``.  Each
    ends exactly as if advanced alone, failures included."""
    stacks = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for stepper, dw in pairs:
            if not stepper.low_rank:
                stepper.advance(dw)
                continue
            try:
                move = _move(stepper._model, stepper.state, stepper._dt, dw,
                             t_next=stepper._time(stepper.node + 1),
                             node_gramian=stepper._node_gramian,
                             **stepper._options)
            except _FAILURES as exc:
                stepper._fail(exc)
            else:
                stacks.setdefault(stepper.state.u.shape, []).append(
                    (stepper, move))
        for stack in stacks.values():
            results = _settle_each([move for _, move in stack])
            for (stepper, _), result in zip(stack, results):
                if isinstance(result, Exception):
                    stepper._fail(result)
                else:
                    stepper._reach(result)


def integrate(model, scheme, init, grid, *, record_nodes=None, debug=False,
              fast_linear=False, rank_policy="abort",
              u_solve_perturbation=None):
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
        Grid node indices at which the reconstructed cloud, and for a
        low-rank scheme the factored state, is stored.  The default,
        None, stores no cloud but keeps the per-node scalar diagnostics.
        An empty iterable records nothing, not even those.
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
                      debug=debug, fast_linear=fast_linear,
                      rank_policy=rank_policy,
                      u_solve_perturbation=u_solve_perturbation)
    for dw in grid.increments:
        if not stepper.advance(dw):
            break
    return stepper.traj
