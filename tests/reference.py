"""Test-side oracles that the package itself never calls.

``gbm_exact_values`` is the pathwise exact geometric Brownian motion on
a stored noise grid, ``empirical_c_lgb`` the empirical linear-growth
ratio of a model over a sample cloud, ``recorded`` presents stored
node clouds as a run that the error metrics of
``lowrank_sde.diagnostics`` accept, and ``offset_solve`` is a basis solve
that adds a chosen offset to each solution.  The tests import this
module as ``reference``.
"""

from types import SimpleNamespace

import numpy as np

from lowrank_sde.linalg import solve_spsd_minnorm
from lowrank_sde.models import gbm_exact_value


def recorded(grid, node_indices, node_values):
    """A run on the lattice ``grid`` that recorded ``node_values`` at
    ``node_indices``, as ``l2_sup_error`` reads a ``Stepper``."""
    return SimpleNamespace(
        grid=grid, node_indices=list(node_indices),
        node_values=[np.asarray(v, dtype=float) for v in node_values])


def gbm_exact_values(mu, sigma, grid, node_indices=None):
    """Pathwise exact GBM values exp((mu - sigma^2/2) t + sigma W_t).

    Returns an array of shape (len(node_indices), 1, M) evaluated at the
    requested grid nodes (all nodes by default), driven by the grid's
    own increments so it shares the Brownian paths of any scheme run on
    the same grid.
    """
    if grid.m != 1:
        raise ValueError("gbm_exact_values needs a 1-d noise grid")
    w = np.concatenate([np.zeros((1, grid.m_paths)),
                        np.cumsum(grid.increments[:, 0, :], axis=0)])
    times = grid.times()
    if node_indices is None:
        node_indices = np.arange(grid.n_steps + 1)
    node_indices = np.asarray(node_indices, dtype=int)
    out = np.empty((node_indices.size, 1, grid.m_paths))
    for row, n in enumerate(node_indices):
        out[row, 0] = gbm_exact_value(mu, sigma, times[n], w[n])
    return out


def empirical_c_lgb(model, t, cloud):
    """Empirical linear-growth ratio over a realized sample cloud.

    Returns max_j (|a(t, x_j)|^2 + ||b(t, x_j)||_F^2) / (1 + |x_j|^2),
    which a model's certified ``c_lgb`` must bound.
    """
    cloud = np.asarray(cloud, dtype=float)
    drift = model.drift_many(t, cloud)
    num = np.sum(drift * drift, axis=0)
    for j in range(cloud.shape[1]):
        b_mat = model.diffusion_mat(t, cloud[:, j])
        num[j] += np.sum(b_mat * b_mat)
    return float(np.max(num / (1.0 + np.sum(cloud * cloud, axis=0))))


def offset_solve(offset):
    """The minimal-norm solve plus ``offset(C)`` on the solution of each
    (stacked) system C X = B.  Patched over
    ``lowrank_sde.integrators.solve_spsd_minnorm``, the low-rank step's
    only solve outside debug mode, it moves each basis solve's solution,
    e.g. by a null-space component of its Gramian."""
    def solve(c_mat, rhs):
        return solve_spsd_minnorm(c_mat, rhs) + np.array(
            [offset(c) for c in c_mat])
    return solve
