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
that adds a chosen offset to each solution.  ``philox_block`` is a step
block drawn from a fresh Philox generator, and ``np_reduced_qr``,
``np_sym_eig`` and ``np_solve_spsd_minnorm`` are the ``lowrank_sde.linalg``
kernels written on the public ``np.linalg`` wrappers; the package must
match all four bit for bit.  ``count_factorizations`` counts the
factorizations the package runs.  The tests import this module as
``reference``.
"""

from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg

import lowrank_sde.linalg
from lowrank_sde.errors import DimensionMismatch, NotPSD
from lowrank_sde.linalg import (DEFAULT_PINV_RELATIVE_THRESHOLD,
                                solve_spsd_minnorm)
from lowrank_sde.models import gbm_exact_value
from lowrank_sde.noise import ndtri


def philox_block(seed, step, m, m_paths):
    """The standard normal block of ``step`` on ``seed``, drawn from a
    fresh ``Philox(key=[seed, step])``: the inverse CDF of its uniforms,
    shifted into (0, 1) by 2**-54."""
    gen = np.random.Generator(np.random.Philox(key=[seed, step]))
    return ndtri(gen.random((m, m_paths)) + 2.0 ** -54)


def np_reduced_qr(a):
    """``linalg.reduced_qr`` on ``np.linalg.qr`` and ``np.linalg.norm``."""
    a = np.asarray(a, dtype=float)
    q, r = np.linalg.qr(a, mode="reduced")
    scale = np.linalg.norm(a, axis=(-2, -1))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    small = np.abs(diag) <= 1e-14 * scale[..., np.newaxis]
    deficient = np.where(small.any(axis=-1), np.argmax(small, axis=-1), -1)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    q = q * signs[..., np.newaxis, :]
    r = r * signs[..., :, np.newaxis]
    return q, r, deficient if a.ndim == 3 else int(deficient)


def np_sym_eig(c):
    """``linalg.sym_eig`` on ``np.linalg.eigh``."""
    c = np.asarray(c, dtype=float)
    sym = 0.5 * (c + np.swapaxes(c, -1, -2))
    w, v = np.linalg.eigh(sym)
    order = np.arange(w.shape[-1] - 1, -1, -1)
    return w[..., order], v[..., order]


def np_solve_spsd_minnorm(c, b):
    """``linalg.solve_spsd_minnorm`` on ``np_sym_eig``."""
    lam, v = np_sym_eig(c)
    b = np.asarray(b, dtype=float)
    lam_max = np.maximum(lam[..., :1], 0.0)
    negative = lam[..., -1:] < -1e-10 * lam_max
    if negative.any():
        first = int(np.argmax(negative))
        raise NotPSD(
            "matrix has negative eigenvalue %.3e (lambda_max = %.3e)"
            % (lam[..., -1].flat[first], lam_max.flat[first]))
    keep = lam > DEFAULT_PINV_RELATIVE_THRESHOLD * lam_max
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return v @ (inv[..., np.newaxis] * (np.swapaxes(v, -1, -2) @ b))


# the LAPACK gufunc behind each factorization lowrank_sde.linalg runs
_GUFUNCS = {"eigh": "eigh_lo", "qr": "qr_r_raw"}


def count_factorizations(monkeypatch, calls):
    """Count into ``calls`` (a dict from some of "eigh", "eigvalsh",
    "svd" and "qr" to 0) every such factorization run from now on,
    through ``np.linalg`` or, for eigh and qr, through the LAPACK gufunc
    (``eigh_lo``, ``qr_r_raw``) that ``lowrank_sde.linalg`` calls on its
    ``_umath_linalg`` reference."""
    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    gufuncs = {name: getattr(_umath_linalg, name)
               for name in ("eigh_lo", "qr_r_raw", "qr_reduced")}
    for name in calls:
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
        if name in _GUFUNCS:
            gufuncs[_GUFUNCS[name]] = counting(name, gufuncs[_GUFUNCS[name]])
    monkeypatch.setattr(lowrank_sde.linalg, "_umath_linalg",
                        SimpleNamespace(**gufuncs))


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
