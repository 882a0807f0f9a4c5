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
    """A decoherence factor could not be evaluated.  ``factors`` raises it
    when an exact form leaves the float range or a Lorentzian bath lies
    past the overdamping limit.  In ``spinbath.quadrature``, which only the
    tests use, the engine raises it when an integrand leaves the float
    range, and ``ohmic_delta_by_quadrature`` when it misses its tolerance
    within the evaluation budget."""


class InvalidState(SpinBathError):
    """State amplitudes or a density matrix violate their invariants."""


class EigenNonConvergence(SpinBathError):
    """The LAPACK eigensolver (``np.linalg.eigvalsh``) did not converge on a
    partial transpose."""


class ConfigError(SpinBathError):
    """A scenario configuration is malformed or inconsistent."""


class ComputeError(SpinBathError):
    """A scenario run failed at a grid point (a cross-check disagreed), or a
    field phase h t or a tabulated J(omega) left the float range."""
