"""Exception types shared across the package.

Every failure is raised, never flagged in-band: the caller handed over
something unusable, a value left the float range, or a solver did not
converge.  A divergent gamma is a valid result (``inf``), not an error.
"""


class SpinBathError(Exception):
    """Base class for all package-specific errors."""


class NotPointwise(SpinBathError):
    """A delta-like spectral density was used where J(omega) must be sampled."""


class InvalidTime(SpinBathError):
    """Negative or non-finite evolution time; only finite forward evolution
    is defined."""


class QuadratureFailure(SpinBathError):
    """A decoherence factor could not be evaluated: its integral did not
    converge within the evaluation budget, its integrand left the float
    range, or its closed form did."""


class InvalidState(SpinBathError):
    """State amplitudes or a density matrix violate their invariants."""


class EigenNonConvergence(SpinBathError):
    """The LAPACK eigensolver (``np.linalg.eigvalsh``) did not converge on a
    partial transpose."""


class ConfigError(SpinBathError):
    """A scenario configuration is malformed or inconsistent."""


class ComputeError(SpinBathError):
    """A scenario run failed at a grid point (a cross-check disagreed), or a
    tabulated J(omega) left the float range."""
