"""Closed-form bound evaluators and error metrics.

The bound evaluators (second-moment envelopes, the accumulated Gramian
floor and the step-size condition that the ``singular_values`` kind
writes) are literal formula translations and therefore total,
deterministic functions of their scalar arguments.  The error
metrics compare two runs (``integrators.Stepper``s that recorded nodes)
pathwise: they read each run's lineage from its lattice ``grid``,
require both runs to be driven by the same root noise (same seed,
horizon, and finest grid) and match recorded nodes through exact
integer grid fractions, never by floating-point time comparison.  The
harness streams the same metrics with ``fold_sup_sq`` and
``l2_sup_errors``.
"""

from dataclasses import dataclass

import numpy as np

from .ensemble import _write_csv
from .errors import IncomparableTrajectories


def k1_bound(t, e_x0_sq, c_lgb):
    """Second-moment growth envelope (1 + E|X0|^2) e^((1+7c) t) - 1.

    Parameters
    ----------
    t : float, >= 0
    e_x0_sq : float, >= 0
        Initial mean-square norm E[|X_0|^2].
    c_lgb : float, > 0
        Linear-growth constant of the model.
    """
    if t < 0.0 or e_x0_sq < 0.0 or c_lgb <= 0.0:
        raise ValueError("need t >= 0, e_x0_sq >= 0, c_lgb > 0")
    # the envelope may saturate to inf for long horizons; callers only
    # consume it through 1 / (1 + K), so that limit is well defined
    with np.errstate(over="ignore"):
        return (1.0 + e_x0_sq) * np.exp((1.0 + 7.0 * c_lgb) * t) - 1.0


def k4_bound(t, e_x0_sq, c_lgb, t_final):
    """Second-moment envelope with horizon-dependent rate.

    Evaluates (E|X0|^2 + 1) e^((1 + c(2+T)) t) - 1, the analogue of
    ``k1_bound`` whose exponent rate grows with the horizon T instead
    of the fixed factor 7.
    """
    if t < 0.0 or e_x0_sq < 0.0 or c_lgb <= 0.0 or t_final < 0.0:
        raise ValueError("need t >= 0, e_x0_sq >= 0, c_lgb > 0, T >= 0")
    rate = 1.0 + c_lgb * (2.0 + t_final)
    with np.errstate(over="ignore"):
        return (e_x0_sq + 1.0) * np.exp(rate * t) - 1.0


def gramian_bound_refined(sigma_0, sigma_b, c_lgb, k_bound, dt, n):
    """Accumulated Gramian floor after n steps.

    With A := sigma_b / (2 c (1 + K)) the bound reads

        min(sigma_0, sigma_b^2 / (4 c (1 + K)))
        + (sigma_b / 2) dt [1 - (1 - 1/(1 + A/dt))^(n+1)]

    where K is a second-moment envelope at the horizon (``k1_bound``
    for the plain low-rank scheme, ``k4_bound`` for the splitting
    schemes).  The second term is the geometric accumulation of the
    per-step noise injection; its prefactor never exceeds the cap in
    the first term.
    """
    if min(sigma_0, sigma_b, c_lgb, k_bound) < 0.0 or dt <= 0.0 or n < 0:
        raise ValueError("inputs must be non-negative with dt > 0, n >= 0")
    with np.errstate(over="ignore"):  # K near the float max: cap 0
        denom = 2.0 * c_lgb * (1.0 + k_bound)
    if denom > 0.0:
        a_const = sigma_b / denom
        cap = 0.5 * sigma_b * a_const
    else:
        a_const = np.inf
        cap = np.inf
    if sigma_b == 0.0:
        return min(sigma_0, 0.0)
    decay = 1.0 - 1.0 / (1.0 + a_const / dt)
    geometric = 1.0 - decay ** (n + 1)
    return min(sigma_0, cap) + 0.5 * sigma_b * dt * geometric


def dt_condition(sigma_k_n, c_lgb, sup_ex_sq):
    """Largest stable step predicted from the current Gramian floor.

    Evaluates sqrt(sigma) / (sqrt(c) sqrt(1 + sup_n E|X_n|^2)).
    """
    if sigma_k_n < 0.0 or c_lgb <= 0.0 or sup_ex_sq < 0.0:
        raise ValueError("need sigma >= 0, c_lgb > 0, sup >= 0")
    return np.sqrt(sigma_k_n) / (np.sqrt(c_lgb) * np.sqrt(1.0 + sup_ex_sq))


def _matched_node_pairs(traj_a, traj_b):
    """The recorded clouds of two runs at identical physical times, as
    (cloud_a, cloud_b) pairs; each run's ``node_values`` is read once.

    Node i of an n-step grid sits at the exact fraction i/n of the
    horizon, so two nodes coincide iff i_a * n_b == i_b * n_a.
    """
    grid_a, grid_b = traj_a.grid, traj_b.grid
    if grid_a.seed != grid_b.seed:
        raise IncomparableTrajectories("different noise seeds")
    if grid_a.t0 != grid_b.t0 or grid_a.t1 != grid_b.t1:
        raise IncomparableTrajectories("different time horizons")
    if grid_a.n_steps * grid_a.coarsen_factor \
            != grid_b.n_steps * grid_b.coarsen_factor:
        raise IncomparableTrajectories("different root noise grids")
    lookup = {int(ib) * grid_a.n_steps: cloud for ib, cloud
              in zip(traj_b.node_indices, traj_b.node_values)}
    pairs = []
    for ia, cloud in zip(traj_a.node_indices, traj_a.node_values):
        other = lookup.get(int(ia) * grid_b.n_steps)
        if other is not None:
            pairs.append((cloud, other))
    if not pairs:
        raise IncomparableTrajectories("no recorded nodes in common")
    for cloud, other in pairs:
        if cloud.shape != other.shape:
            raise IncomparableTrajectories(
                "sample clouds have different shapes at a shared node")
    return pairs


def fold_sup_sq(sup_sq, cloud):
    """Fold one (d, M) node cloud into a running per-path sup of |x|^2.

    Returns the per-path squared norms of cloud when sup_sq is None (the
    first node), else their elementwise maximum with sup_sq.  The
    maximum is exact, so the fold order never changes the result.
    """
    sq = np.sum(cloud * cloud, axis=0)
    return sq if sup_sq is None else np.maximum(sup_sq, sq)


def l2_sup_errors(diff_sup_sq, ref_sup_sq):
    """Absolute and relative L2-sup error from the folded per-path sups.

    diff_sup_sq folds the pathwise differences to the reference and
    ref_sup_sq the reference itself, over the same nodes.  Returns
    (sqrt(E[sup |X - X_ref|^2]), that value over sqrt(E[sup |X_ref|^2])).
    """
    num = float(np.sqrt(np.mean(diff_sup_sq)))
    denom = float(np.sqrt(np.mean(ref_sup_sq)))
    if denom == 0.0:
        return num, (0.0 if num == 0.0 else np.inf)
    return num, num / denom


def l2_sup_error(traj_a, traj_b):
    """Mean-square norm of the pathwise sup-difference over shared nodes.

    Computes sqrt(E[sup_n |X_n^a - X_n^b|^2]) where the sup runs over
    the recorded nodes the two trajectories share and the expectation
    is the sample average over paths.

    Raises
    ------
    IncomparableTrajectories
        If the trajectories were not driven by the same root noise or
        record no common nodes.
    """
    sup_sq = None
    for cloud, other in _matched_node_pairs(traj_a, traj_b):
        sup_sq = fold_sup_sq(sup_sq, cloud - other)
    return float(np.sqrt(np.mean(sup_sq)))


def relative_l2_sup_error(traj_a, traj_ref):
    """``l2_sup_error`` divided by the same functional of the reference."""
    diff_sup_sq = ref_sup_sq = None
    for cloud, ref in _matched_node_pairs(traj_a, traj_ref):
        diff_sup_sq = fold_sup_sq(diff_sup_sq, cloud - ref)
        ref_sup_sq = fold_sup_sq(ref_sup_sq, ref)
    return l2_sup_errors(diff_sup_sq, ref_sup_sq)[1]


def fit_order(dt_values, errors):
    """Least-squares slope of log error against log dt.

    Requires at least three strictly positive points.
    """
    dt_values = np.asarray(dt_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if dt_values.size < 3 or errors.size != dt_values.size:
        raise ValueError("need at least three matching points")
    if np.any(dt_values <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("points must be strictly positive")
    slope = np.polyfit(np.log(dt_values), np.log(errors), 1)[0]
    return float(slope)


@dataclass
class BoundTrace:
    """Per-node Gramian floors next to the observed smallest eigenvalue."""

    times: np.ndarray
    sigma_k_observed: np.ndarray
    bound_simple: np.ndarray
    bound_refined: np.ndarray
    dt_condition: np.ndarray

    def __post_init__(self):
        fields = (self.times, self.sigma_k_observed, self.bound_simple,
                  self.bound_refined, self.dt_condition)
        lengths = {len(f) for f in fields}
        if len(lengths) != 1:
            raise ValueError("all BoundTrace arrays must share a length")
        if np.any(np.asarray(self.bound_simple) < 0.0) \
                or np.any(np.asarray(self.bound_refined) < 0.0):
            raise ValueError("bounds must be non-negative")


@dataclass
class ErrorReport:
    """Errors of one scheme against one reference over a step ladder."""

    dt_values: np.ndarray
    l2_sup_errors: np.ndarray
    relative_errors: np.ndarray
    fitted_order: float
    scheme: str
    reference: str

    def __post_init__(self):
        dts = np.asarray(self.dt_values, dtype=float)
        if np.any(np.diff(dts) >= 0.0):
            raise ValueError("dt_values must be strictly decreasing")
        if np.any(np.asarray(self.l2_sup_errors) < 0.0) \
                or np.any(np.asarray(self.relative_errors) < 0.0):
            raise ValueError("errors must be non-negative")


def write_bound_trace_csv(trace, path):
    """Serialize a BoundTrace with fixed column order."""
    _write_csv(path, "t,sigma_k,bound_simple,bound_refined,dt_hat",
               zip(trace.times, trace.sigma_k_observed, trace.bound_simple,
                   trace.bound_refined, trace.dt_condition))


def write_error_report_csv(report, path):
    """Serialize an ErrorReport with fixed column order."""
    _write_csv(path, "dt,l2_sup,rel_l2_sup",
               zip(report.dt_values, report.l2_sup_errors,
                   report.relative_errors))
