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
eigh and one QR outside debug mode, whatever the rank verdicts, and an
SVD only for a basis the QR reports rank deficient, then one pass per
cell; ``dlr_step`` is a stack of one.  Each array is checked once: the
move scans its moved samples and, only when that scan fails, names the
drift, the diffusion increment or the samples; the solve's guard reads
the solve itself.  Overflow is ``ModelBlowUp``; a Gramian below the range
the solve can resolve is ``EnsembleUnderflow``.

``Stepper`` is one run of one scheme, fed one Brownian increment at a
time, and its record; ``advance_all`` steps many at once, and
``integrate`` drives one over a stored increment grid and returns it.
"""

import warnings
from collections import namedtuple
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
from .errors import (EnsembleUnderflow, LowRankSdeError, ModelBlowUp,
                     StepFailed)
from .linalg import (DEFAULT_PINV_RELATIVE_THRESHOLD, reduced_qr,
                     solve_spsd_minnorm)

SCHEMES = ("em", "dlr_em", "dlr_ps_em", "dlr_ps_sde")

_FACTORIZATION_TOL = 1e-10
_IDENTITY_TOL = 1e-8
# the projected-update identities hold exactly only when the Gramian
# solve keeps the full spectrum; truncated directions contribute up to
# sqrt(k * relative threshold) ~ 1e-5 of the cloud norm
_IDENTITY_TOL_TRUNCATED = 1e-5
# below this largest entry the Gramian's kept eigenvalues (those above
# DEFAULT_PINV_RELATIVE_THRESHOLD times the largest) can be subnormal
# and their inverses overflow, so the basis solve cannot resolve it
_UNDERFLOW_GRAMIAN = np.finfo(float).tiny / DEFAULT_PINV_RELATIVE_THRESHOLD

RANK_POLICIES = ("abort", "svd")

# what fails a step, and with it a cell, rather than the program
_FAILURES = (LowRankSdeError, np.linalg.LinAlgError)


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
    with np.errstate(over="ignore", invalid="ignore"):
        a = model.drift_many(t, x)
        bdw = model.diffusion_dw(t, x, dw)
        out = x + a * dt + bdw
    if not np.isfinite(out).all():
        # a non-finite a or b dW makes out non-finite: one scan clears all
        _check_finite(a, t, "drift")
        _check_finite(bdw, t, "diffusion increment")
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
# = rhs (rhs None if the linear shortcut gave u_new), and in debug mode
# the identity's (cloud, tol).
_Move = namedtuple("_Move", "t t_next y_moved y_ref c_mat rhs u_new "
                   "rank_policy debug predicted")


def _move(model, state, dt, dw, *, moved_gramian, full_increment,
          fast_linear=False, debug=False, rank_policy="abort",
          t_next=None):
    """Move phase of one low-rank step, all of its d x M work: evaluate
    the model, move the samples by w = a dt + b dW, form the basis solve.
    The flags pick the scheme (module table); the linear shortcut needs
    the old-samples Gramian.  ``t_next`` (default state.t + dt) labels
    the new state."""
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
    y_moved = state.y + u @ w
    if not np.isfinite(y_moved).all():
        # 0 * inf is NaN: a non-finite w spoils its whole column of u @ w
        _check_finite(a, t, "drift")
        _check_finite(bdw, t, "diffusion increment")
        _check_finite(y_moved, t, "coefficient samples")
    y_ref = y_moved if moved_gramian else state.y
    c_mat = gramian(y_ref)
    c_max = np.max(np.abs(c_mat))  # NaN or inf if any entry is
    if not np.isfinite(c_max):
        sq = np.sum(y_ref * y_ref, axis=0)
        j = int(np.argmax(~np.isfinite(sq)))
        raise ModelBlowUp(
            "sample second moments overflowed at t=%.6g on path %d"
            % (t, j), t=t, path=j)
    rhs = u_new = None
    if fast_linear and not moved_gramian and model.is_linear_drift:
        u_new = u + _without_row_span(u @ model.a_mat(t).T, u) * dt
    elif c_max < _UNDERFLOW_GRAMIAN and np.any(y_ref):  # no solve resolves it
        j = int(np.argmax(np.max(np.abs(y_ref), axis=0)))
        raise EnsembleUnderflow(
            "ensemble underflowed at t=%.6g: largest Gramian entry %.3e; "
            "largest samples on path %d" % (t, c_max, j), t=t, path=j)
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
                 c_mat, rhs, u_new, rank_policy, debug, predicted)


def _svd_refactor(u_new, move, column):
    """Refactor a basis that QR found rank deficient at ``column``: fail
    under "abort"; under "svd" keep u^T y exact and zero the dead
    directions' rows."""
    if move.rank_policy == "abort":
        raise StepFailed(
            "basis refactorization found a rank-deficient basis "
            "(column %s); rerun with rank_policy='svd' to continue "
            "with dead directions zeroed" % column)
    w, s, vt = np.linalg.svd(u_new.T, full_matrices=False)
    u_plus = w.T
    y_plus = (s[:, np.newaxis] * vt) @ move.y_moved
    # canonical signs: largest-magnitude entry of each basis row positive
    lead = np.argmax(np.abs(u_plus), axis=1)
    signs = np.where(u_plus[np.arange(u_plus.shape[0]), lead] < 0.0, -1.0, 1.0)
    return signs[:, np.newaxis] * u_plus, signs[:, np.newaxis] * y_plus


def _settle(moves):
    """Stacked k x k phase of the steps of ``moves``, which share k and d.

    One eigh-based solve and one QR serve all cells; a basis the QR
    reports rank deficient takes ``_svd_refactor`` instead of its QR
    factors.  The rest runs per cell, and each new state is validated
    once, here.  Returns the new states or raises the first failing
    cell's error."""
    u_new = [move.u_new for move in moves]
    solving = [j for j, move in enumerate(moves) if move.rhs is not None]
    if solving:
        c_mat = np.array([moves[j].c_mat for j in solving])
        rhs = np.array([moves[j].rhs for j in solving])
        solved = solve_spsd_minnorm(c_mat, rhs)
        for j, u_j, scale in zip(solving, solved,
                                 np.linalg.norm(rhs, axis=(1, 2))):
            move = moves[j]
            if not (np.isfinite(scale) and np.isfinite(u_j).all()):
                # ||B|| overflows past samples of ~1e77, C^+ B if B outgrows C
                p = int(np.argmax(np.max(np.abs(move.y_ref), axis=0)))
                raise ModelBlowUp(
                    "basis solve overflowed at t=%.6g; largest samples on "
                    "path %d" % (move.t, p), t=move.t, path=p)
            u_new[j] = u_j

    q, r, deficient = reduced_qr(np.array([u.T for u in u_new]))
    states = []
    for move, u_n, q_j, r_j, column in zip(moves, u_new, q, r, deficient):
        u_p, y_p = ((q_j.T, r_j @ move.y_moved) if column < 0
                    else _svd_refactor(u_n, move, column))
        defect = np.linalg.norm(u_p @ u_p.T - np.eye(u_p.shape[0]))
        if defect > ORTHONORMALITY_TOL:
            warnings.warn("basis lost orthonormality (defect %.3e), "
                          "re-orthonormalizing" % defect)
            q2, r2, column = reduced_qr(u_p.T)
            if column >= 0:
                raise StepFailed("re-orthonormalization found a "
                                 "rank-deficient basis (column %d)" % column)
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
             rank_policy="abort"):
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
    with np.errstate(over="ignore", invalid="ignore"):  # as advance_all
        return _settle([_move(model, state, dt, dw, **_FLAGS[scheme],
                              fast_linear=fast_linear, debug=debug,
                              rank_policy=rank_policy)])[0]


# the step of each scheme alone; perfbench/tracer.py wraps these entries
_DLR_STEPS = {scheme: partial(dlr_step, scheme=scheme) for scheme in _FLAGS}


class Stepper:
    """One run of one scheme on one time lattice: the step loop, fed one
    Brownian increment at a time, and its record.

    ``grid`` is the lattice, and with it the run's lineage; its
    increments are not read, so a caller that streams them passes a grid
    that stores none and calls ``advance`` with each in turn, or
    ``advance_all`` to step many steppers at once.  The keyword arguments
    are those of ``integrate``, which drives a stepper over a stored grid,
    plus ``sigma_min=False``, which keeps no smallest Gramian eigenvalue
    per node and so forms no node Gramian.

    ``state`` is the state at the last node reached, ``error`` None
    unless a step failed.  Reaching a node records its scalars
    (``mean_square_norms``, ``sigma_min_gramians``; NaN where not
    reached) and, at ``record_nodes``, its cloud (``node_values``) and
    low-rank state (``node_states``, by reference).  With
    ``record_nodes=()`` nothing is recorded per node, not even the
    scalars (None), so memory does not grow with the step count.
    """

    def __init__(self, model, scheme, init, grid, *, record_nodes=None,
                 debug=False, fast_linear=False, rank_policy="abort",
                 sigma_min=True):
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
        keep = record_nodes is None or bool(self._record_set)
        self.grid = grid
        self._model = model
        self._dt = grid.dt
        self._time = grid.time
        self._options = dict(_FLAGS.get(scheme, {}), fast_linear=fast_linear,
                             debug=debug, rank_policy=rank_policy)
        self.mean_square_norms = np.full(n + 1, np.nan) if keep else None
        self.sigma_min_gramians = (np.full(n + 1, np.nan)
                                   if keep and sigma_min else None)
        self.node_indices, self.node_values, self.node_states = [], [], []
        self.error = None
        self.node = 0
        with np.errstate(over="ignore", invalid="ignore"):
            self._reach_node()

    @property
    def failed(self):
        return self.error is not None

    def cloud(self):
        """The (d, M) sample cloud at the current node."""
        return reconstruct(self.state) if self.low_rank else self.state

    def _reach_node(self):
        if self.mean_square_norms is None:
            return
        i = self.node
        if self.low_rank:
            self.mean_square_norms[i] = mean_square_norm(self.state.y)
            if self.sigma_min_gramians is not None:
                self.sigma_min_gramians[i] = sigma_min(gramian(self.state.y))
        else:
            self.mean_square_norms[i] = mean_square_norm(self.state)
        if i in self._record_set:
            self.node_indices.append(i)
            if self.low_rank:
                self.node_values.append(reconstruct(self.state))
                self.node_states.append(self.state)
            else:
                self.node_values.append(self.state.copy())

    def _reach(self, state):
        self.state, self.node = state, self.node + 1
        self._reach_node()

    def _fail(self, exc):
        self.error = "%s at step %d (t=%.6g): %s" % (
            type(exc).__name__, self.node, self._time(self.node), exc)

    def advance(self, dw):
        """Step from the current node to the next one on increment dw.

        Returns True on success.  A step that raises a LowRankSdeError
        or a LinAlgError sets ``error`` and returns False; the stepper
        must not be advanced after that, nor past the last node of its
        grid.  A low-rank step is ``advance_all`` on this stepper alone.
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
              fast_linear=False, rank_policy="abort"):
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

    Returns
    -------
    Stepper
        The stepper that ran, holding the run's record.  It is
        ``failed``, with ``error`` naming the step, when a step raised a
        LowRankSdeError or a LinAlgError; scalar diagnostics before the
        failure are kept.  Other exceptions propagate.
    """
    if grid.increments is None:
        raise ValueError("integrate needs a grid that stores its "
                         "increments; stream them through a Stepper")
    stepper = Stepper(model, scheme, init, grid, record_nodes=record_nodes,
                      debug=debug, fast_linear=fast_linear,
                      rank_policy=rank_policy)
    for dw in grid.increments:
        if not stepper.advance(dw):
            break
    return stepper
