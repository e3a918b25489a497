"""Dense linear-algebra kernels for the mode-update solves.

Three operations, on one matrix or a stack: reduced QR with a
deterministic sign convention that reports the first rank-deficient
column instead of raising, symmetric eigendecomposition returned as
an (eigenvalues descending, eigenvectors) pair, and a minimal-norm solve
for (near-)singular symmetric PSD systems with one fixed truncation
threshold. All are thin, contract-enforcing LAPACK layers.

The factorizations call the LAPACK gufuncs of NumPy's private
``numpy.linalg._umath_linalg`` (``eigh_lo``, ``qr_r_raw``,
``qr_reduced``) directly, the ones ``np.linalg.eigh`` and
``np.linalg.qr`` wrap.  At the small k of a low-rank step those
wrappers' type checks, copies and error-state entries cost more than
the factorization.  The results are the wrappers' bit for bit, and a
LAPACK failure raises the same ``LinAlgError``: each gufunc runs inside
the ``np.errstate`` the wrapper uses, with its error handler.
"""

from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch, NotPSD

DEFAULT_PINV_RELATIVE_THRESHOLD = 1e-12


def _qr_failed(err, flag):
    raise LinAlgError("Incorrect argument found while performing "
                      "QR factorization")


def _eigh_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _lapack_errstate(handler):
    """The error state np.linalg runs its gufuncs in: a LAPACK failure
    flags invalid, which calls ``handler``."""
    return np.errstate(call=handler, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@lru_cache(maxsize=None)
def _upper(k):
    """Read-only (k, k) mask of the upper triangle, diagonal included."""
    mask = ~np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def reduced_qr(a):
    """Reduced QR factorization with strictly positive diag(R), and its
    rank verdict.

    Parameters
    ----------
    a : (n, k) array with n >= k, or an (S, n, k) stack of them.

    Returns
    -------
    q : (n, k) array with orthonormal columns.
    r : (k, k) upper triangular with positive diagonal.
    deficient : int, the first column i with |r[i, i]| <= 1e-14 *
        ||a||_F, or -1 when a has numerically full column rank.
    All three carry the leading stack axis of a stacked input; each
    matrix of a stack gets the bits it gets alone.

    Raises
    ------
    DimensionMismatch
        If a has fewer rows than columns.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3):
        raise DimensionMismatch("expected 2 or 3 dims, got shape %r" % (a.shape,))
    n, k = a.shape[-2:]
    if n < k:
        raise DimensionMismatch("reduced_qr needs rows >= cols, got %d < %d" % (n, k))
    # the Frobenius norm as np.linalg.norm forms it
    scale = np.sqrt(np.add.reduce(a * a, axis=(-2, -1)))
    raw = a.copy()  # qr_r_raw overwrites it with R and the reflectors
    with _lapack_errstate(_qr_failed):
        tau = _umath_linalg.qr_r_raw(raw)
        q = _umath_linalg.qr_reduced(raw, tau)
    r = np.where(_upper(k), raw[..., :k, :], 0.0)
    diag = r.diagonal(axis1=-2, axis2=-1)
    small = np.abs(diag) <= 1e-14 * scale[..., np.newaxis]
    deficient = np.where(small.any(axis=-1), small.argmax(axis=-1), -1)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    # flip column i of q and row i of r together, the product is unchanged
    q *= signs[..., np.newaxis, :]
    r *= signs[..., :, np.newaxis]
    return q, r, deficient if a.ndim == 3 else int(deficient)


def sym_eig(c):
    """Eigendecomposition of a (nearly) symmetric matrix, or of a stack.

    The input is symmetrized by averaging with its transpose before the
    solve, since sample Gramians accumulate asymmetric rounding.
    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending,
    and eigenvectors[..., :, i] the unit eigenvector of eigenvalues[..., i].
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (2, 3) or c.shape[-1] != c.shape[-2]:
        raise DimensionMismatch("sym_eig needs a square matrix, got shape %r" % (c.shape,))
    sym = 0.5 * (c + c.swapaxes(-1, -2))
    with _lapack_errstate(_eigh_failed):
        w, v = _umath_linalg.eigh_lo(sym)
    # descending order; the eigenvectors are copied into the layout
    # np.linalg.eigh's pairs had once reordered by fancy indexing, each
    # matrix column-major, since a matrix product that reads another
    # layout can round differently
    vt = v.swapaxes(-1, -2)[..., ::-1, :].copy()
    return w[..., ::-1], vt.swapaxes(-1, -2)


def solve_spsd_minnorm(c, b):
    """Minimal-norm solution X of C X = B for symmetric PSD C.

    Uses the eigendecomposition pseudo-inverse: eigenvalues at or below
    DEFAULT_PINV_RELATIVE_THRESHOLD * lambda_max are treated as exactly
    zero, which makes the solve well defined for singular Gramians. For
    well-conditioned C this coincides with the direct solve.

    Parameters
    ----------
    c : (k, k) symmetric positive-semidefinite matrix, or an (S, k, k)
        stack.
    b : (k, d) right-hand side, with the same leading axis as c.

    Raises
    ------
    NotPSD
        If C (of a stack, the first) has an eigenvalue below -1e-10 *
        lambda_max.
    DimensionMismatch
        If shapes are inconsistent.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    if c.ndim not in (2, 3) or c.shape[-1] != c.shape[-2]:
        raise DimensionMismatch("c must be square, got shape %r" % (c.shape,))
    if b.shape[:-1] != c.shape[:-1]:
        raise DimensionMismatch(
            "rhs has shape %r, expected %d rows" % (b.shape, c.shape[-1])
        )
    lam, v = sym_eig(c)
    lam_max = np.maximum(lam[..., :1], 0.0)
    negative = lam[..., -1:] < -1e-10 * lam_max
    if negative.any():
        first = int(negative.argmax())
        raise NotPSD(
            "matrix has negative eigenvalue %.3e (lambda_max = %.3e)"
            % (lam[..., -1].flat[first], lam_max.flat[first])
        )
    keep = lam > DEFAULT_PINV_RELATIVE_THRESHOLD * lam_max
    inv = np.divide(1.0, lam, out=np.zeros(lam.shape), where=keep)
    return v @ (inv[..., np.newaxis] * (v.swapaxes(-1, -2) @ b))
