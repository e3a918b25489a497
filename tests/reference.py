"""Test-side oracles that the package itself never calls.

``gbm_exact_values`` is the pathwise exact geometric Brownian motion on
a stored noise grid.  ``diffusion_matrix`` is the per-sample diffusion
matrix b(t, x) of each registered model, written from the model's
formula and not from its ``diffusion_dw``, so that comparing the two is
a cross-check; ``empirical_c_lgb`` is the empirical linear-growth ratio
of a model over a sample cloud.  ``stability_ams_matrices`` and
``ams_margin`` are the linear test SDE of ``stability_model`` and its
analytic mean-square stability margin.  ``recorded`` presents stored
node clouds as a run that the error metrics of
``lowrank_sde.diagnostics`` accept, and ``offset_solve`` is a basis solve
that adds a chosen offset to each solution.  The tests import this
module as ``reference``.
"""

from types import SimpleNamespace

import numpy as np

from lowrank_sde.errors import DimensionMismatch
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


def _toy_multiplicative(t, x, sigma_b=1e-8):
    g = 1.0 + 6.0 * (abs(x[0]) + abs(x[1]))
    return np.sqrt(sigma_b) * np.diag([g, g, 1.0])


def _toy_additive(t, x, sigma_b=1e-19):
    return np.sqrt(sigma_b) * np.eye(3, 2)


def _sadr(t, u):
    # five sine profiles 0.5 sin(i pi x) on the cell centres of [0, 1]
    x = (np.arange(u.size) + 0.5) / u.size
    return 0.5 * np.sin(np.pi * np.outer(x, np.arange(1, 6)))


def _laplacian(t, u, noise_profile="constant"):
    # channel l loads gamma_l <u, psi_l> (trapezoidal inner product) on
    # the interior nodes, along a constant or along psi_l itself
    d = u.size
    x = np.linspace(0.0, 1.0, d)
    ell = np.arange(1, 27)[:, np.newaxis]
    psi = np.cos(2.0 * np.pi * ell * x) + np.sin(2.0 * np.pi * ell * x)
    weights = np.full(d, 1.0 / (d - 1))
    weights[[0, -1]] *= 0.5
    gamma = np.exp(-2.0 * np.pi * ell[:, 0]) / (2.0 * np.pi * ell[:, 0])
    load = np.ones((d, 26)) if noise_profile == "constant" else psi.T
    load[[0, -1]] = 0.0
    return load * (gamma * (psi @ (weights * u)))


_DIFFUSION_MATRICES = {
    "toy_example_1": _toy_multiplicative,
    "toy_example_2": _toy_additive,
    "toy_example_3": _toy_additive,
    "stability_model": lambda t, x: 0.1 * np.diag(x),
    "sadr_model": _sadr,
    "laplacian_model": _laplacian,
    "gbm_oracle": lambda t, x, mu=0.05, sigma=0.2: np.array([[sigma * x[0]]]),
}


def diffusion_matrix(name, t, x, **overrides):
    """b(t, x), shape (d, m), of the registered model ``name`` built
    with ``overrides``, at one state x of shape (d,)."""
    return _DIFFUSION_MATRICES[name](t, np.asarray(x, dtype=float),
                                     **overrides)


def empirical_c_lgb(model, t, cloud, **overrides):
    """Empirical linear-growth ratio over a realized sample cloud.

    Returns max_j (|a(t, x_j)|^2 + ||b(t, x_j)||_F^2) / (1 + |x_j|^2),
    which a model's certified ``c_lgb`` must bound; b is
    ``diffusion_matrix`` of the model built with ``overrides``.
    """
    cloud = np.asarray(cloud, dtype=float)
    drift = model.drift_many(t, cloud)
    num = np.sum(drift * drift, axis=0)
    for j in range(cloud.shape[1]):
        b_mat = diffusion_matrix(model.name, t, cloud[:, j], **overrides)
        num[j] += np.sum(b_mat * b_mat)
    return float(np.max(num / (1.0 + np.sum(cloud * cloud, axis=0))))


def stability_ams_matrices(t, d=10):
    """(A, [B_1 .. B_d]) of ``stability_model``'s linear test SDE
    dX = A X dt + sum_k B_k X dW^k: A = diag(a(t)) with a_i = -22 for
    i <= 3 and -22 + sin(3 pi t) else, and B_k = 0.1 e_k e_k^T."""
    a = np.full(d, -22.0 + np.sin(3.0 * np.pi * t))
    a[:3] = -22.0
    return np.diag(a), [0.1 * np.diag(e) for e in np.eye(d)]


def ams_margin(a_mat, b_mats, dt):
    """Asymptotic mean-square stability margin of the linear test SDE.

    Returns |1 + lambda_max(A + A^T) dt + sigma_max(A)^2 dt^2
    + sum_k |B_k|^2 dt| where |B_k| is the spectral norm.  A value
    below one predicts mean-square contraction of the explicit schemes
    on dX = A X dt + sum_k B_k X dW^k.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a_mat = np.asarray(a_mat, dtype=float)
    if a_mat.ndim != 2 or a_mat.shape[0] != a_mat.shape[1]:
        raise DimensionMismatch("A must be square")
    d = a_mat.shape[0]
    lam_max = float(np.linalg.eigvalsh(a_mat + a_mat.T)[-1])
    sig_max = float(np.linalg.norm(a_mat, 2))
    noise = 0.0
    for b_mat in b_mats:
        b_mat = np.asarray(b_mat, dtype=float)
        if b_mat.shape != (d, d):
            raise DimensionMismatch("every B_k must match A's shape")
        noise += float(np.linalg.norm(b_mat, 2)) ** 2
    return abs(1.0 + lam_max * dt + sig_max ** 2 * dt ** 2 + noise * dt)


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
