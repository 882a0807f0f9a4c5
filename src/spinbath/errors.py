"""Exception types shared across the package.

Quadrature non-convergence and divergence are reported in-band through
``IntegrationResult`` flags; the exceptions below cover conditions where a
caller handed us something unusable or an internal solver genuinely failed.
"""


class SpinBathError(Exception):
    """Base class for all package-specific errors."""


class NotPointwise(SpinBathError):
    """A delta-like spectral density was used where J(omega) must be sampled."""


class InvalidTime(SpinBathError):
    """Negative evolution time; only forward evolution is defined."""


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
    """A scenario run failed while evaluating a grid point."""
