"""Ensemble representation of the stochastic modes.

An ensemble state factors the d x M sample cloud as X = U^T Y with U a
k x d matrix of orthonormal rows (the deterministic modes) and Y a k x M
sample matrix (the stochastic modes). Expectations are plain (1/M)
sample averages; every expectation in the package goes through
:func:`expectation_outer`, whose reduction is the single BLAS
matrix-product code path, fixed once for reproducibility.  The k x k
Gramian E[Y Y^T] is a plain array; :func:`sigma_min` reads its floor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankTooLarge

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleState:
    """Low-rank ensemble (U, Y) at a time point.

    t : time
    u : (k, d) deterministic modes, orthonormal rows
    y : (k, M) stochastic-mode samples, column j is the sample Y(omega_j)
    """

    t: float
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim != 2 or y.ndim != 2:
            raise DimensionMismatch("u and y must be 2-d arrays")
        if u.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                "u has %d modes but y has %d" % (u.shape[0], y.shape[0])
            )
        if u.shape[0] > u.shape[1]:
            raise DimensionMismatch(
                "rank %d exceeds ambient dimension %d" % (u.shape[0], u.shape[1])
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("ensemble state contains non-finite entries")
        defect = np.linalg.norm(u @ u.T - np.eye(u.shape[0]))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(
                "deterministic modes are not orthonormal (defect %.3e)" % defect
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @classmethod
    def checked(cls, t, u, y):
        """A state of arrays the caller has checked, built unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(t=t, u=u, y=y)
        return state

    @property
    def k(self):
        return self.u.shape[0]

    @property
    def d(self):
        return self.u.shape[1]

    @property
    def m_paths(self):
        return self.y.shape[1]


def expectation_outer(a, b):
    """Sample-average outer product (1/M) sum_j a_j b_j^T.

    Parameters
    ----------
    a : (p, M) array
    b : (q, M) array

    Returns
    -------
    (p, q) array. The reduction over samples is the dense matrix product,
    the one fixed-topology reduction used everywhere in the package.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            "sample counts differ: %r vs %r" % (a.shape, b.shape)
        )
    if a.shape[1] < 1:
        raise DimensionMismatch("need at least one sample")
    return (a @ b.T) / a.shape[1]


def gramian(y):
    """The k x k Gramian E[Y Y^T] of samples y, symmetrized."""
    c = expectation_outer(y, y)
    return 0.5 * (c + c.T)


def sigma_min(c):
    """Smallest eigenvalue of a Gramian, clamped at 0; nan if not finite."""
    if not np.all(np.isfinite(c)):
        return np.nan
    return max(float(np.linalg.eigvalsh(c)[0]), 0.0)


def init_rank_k(samples, k):
    """Best rank-k factorization of initial samples, as an EnsembleState.

    u holds the top-k left singular vectors (transposed to rows, each row
    sign-normalized so its largest-magnitude entry is positive) and
    y = u @ samples, so u^T y is the Frobenius-optimal rank-k
    approximation of the sample matrix.

    Raises
    ------
    RankTooLarge
        If k exceeds min(d, M).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise DimensionMismatch("samples must be d x M")
    d, m_paths = samples.shape
    if not 1 <= k <= min(d, m_paths):
        raise RankTooLarge(
            "rank %d not in [1, min(d=%d, M=%d)]" % (k, d, m_paths)
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("initial samples contain non-finite entries")
    left, _, _ = np.linalg.svd(samples, full_matrices=False)
    u = left[:, :k].T.copy()
    for i in range(k):
        j = int(np.argmax(np.abs(u[i])))
        if u[i, j] < 0.0:
            u[i] = -u[i]
    return EnsembleState(t=0.0, u=u, y=u @ samples)


def reconstruct(state):
    """Ambient-space samples X = u^T y, shape (d, M)."""
    return state.u.T @ state.y


def mean_square_norm(x):
    """(1/M) sum_j |x_j|^2 over sample columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionMismatch("x must be d x M with M >= 1")
    return float(np.sum(x * x) / x.shape[1])


def save_snapshot(state, path):
    """Serialize an ensemble snapshot as text.

    Layout: one header line "t,k,d,M", then the k rows of u (d values
    each), then the k rows of y (M values each). 17 significant digits,
    comma separated, newline terminated.
    """
    with open(path, "w") as fh:
        fh.write(
            "%.17g,%d,%d,%d\n" % (state.t, state.k, state.d, state.m_paths)
        )
        for row in state.u:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        for row in state.y:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_snapshot(path):
    """Inverse of :func:`save_snapshot`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        t = float(header[0])
        k, d, m_paths = (int(v) for v in header[1:])
        u = np.empty((k, d))
        for i in range(k):
            u[i] = np.fromstring(fh.readline(), sep=",")
        y = np.empty((k, m_paths))
        for i in range(k):
            y[i] = np.fromstring(fh.readline(), sep=",")
    return EnsembleState(t=t, u=u, y=y)
