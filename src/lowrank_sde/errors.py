"""Exception types shared across the package.

All library errors derive from :class:`LowRankSdeError` so callers can
catch everything raised here with a single except clause.
"""


class LowRankSdeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LowRankSdeError):
    """Array shapes are inconsistent with the operation's contract."""


class NotPSD(LowRankSdeError):
    """A matrix required to be positive semidefinite has a genuinely
    negative eigenvalue (below the -1e-10 * lambda_max slack)."""


class RankTooLarge(LowRankSdeError):
    """Requested approximation rank exceeds min(d, M)."""


class GridMismatch(LowRankSdeError):
    """Brownian grids are incompatible (non-divisor coarsening factor,
    or grids with different spans/dimensions)."""


class _AtPath(LowRankSdeError):
    """An error found at one time on one sample path.

    Attributes
    ----------
    t : float
        Time at which it was found.
    path : int
        Index of the sample path it names.
    """

    def __init__(self, message, t, path):
        super().__init__(message)
        self.t = t
        self.path = path


class ModelBlowUp(_AtPath):
    """A model evaluation returned a non-finite value; ``path`` is the
    first offending sample path."""


class EnsembleUnderflow(_AtPath):
    """The sample Gramian fell below the range the basis solve can
    resolve: the ensemble contracted towards the float underflow limit.
    ``path`` is the path with the largest samples."""


class StepFailed(LowRankSdeError):
    """An integrator step could not complete (rank-deficient QR,
    non-finite intermediate, or a debug identity violation)."""


class IncomparableTrajectories(LowRankSdeError):
    """Trajectories do not share grid nodes, path count, or noise
    lineage, so a strong (pathwise) error between them is undefined."""


class SpecError(LowRankSdeError):
    """An experiment description failed validation (unknown key, bad
    value, missing requirement). Maps to CLI exit code 2."""
