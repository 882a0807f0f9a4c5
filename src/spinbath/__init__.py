"""Two dephasing spins in a common bosonic bath: dynamics and negativity.

The bath enters only through its spectral density J(omega) and the inverse
temperature beta; its entire imprint on the spins is the pair of
decoherence factors gamma(t) (dephasing exponent) and Delta(t) (induced
Ising phase).  From those the reduced 4x4 density matrix and the
entanglement negativity follow in closed form for the x-projected initial
state and numerically (partial transpose + LAPACK diagonalization) for any
product of Bloch-sphere states.  All quantities are in natural units
(hbar = k_B = 1).
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: E402
    Lorentzian,
    Ohmic,
    SingleMode,
    evaluate,
)
from .decoherence import (  # noqa: E402
    BathConditions,
    DecoherenceFactors,
    factors,
)
from .dynamics import (  # noqa: E402
    X_PROJECTED,
    FieldConfig,
    GeneralInitialState,
    InitialProductState,
    TwoSpinState,
    bloch_product_to_general,
    evolve,
)
from .entanglement import (  # noqa: E402
    appendix_b_eigenvalues,
    ideal_negativity,
    negativity_closed_form,
    negativity_numeric,
    partial_transpose,
)
from .scenario import (  # noqa: E402
    RunRecord,
    ScenarioConfig,
    TimeGrid,
    builtin_presets,
    compare_ideal,
    run,
)
from .errors import (  # noqa: E402
    ComputeError,
    ConfigError,
    EigenNonConvergence,
    InvalidState,
    InvalidTime,
    NotPointwise,
    QuadratureFailure,
    SpinBathError,
)

__all__ = [
    "__version__",
    # spectral densities
    "SingleMode", "Ohmic", "Lorentzian", "evaluate",
    # decoherence factors
    "BathConditions", "DecoherenceFactors", "factors",
    # dynamics
    "InitialProductState", "GeneralInitialState", "TwoSpinState",
    "FieldConfig", "X_PROJECTED",
    "bloch_product_to_general", "evolve",
    # entanglement
    "appendix_b_eigenvalues", "ideal_negativity",
    "negativity_closed_form", "negativity_numeric", "partial_transpose",
    # scenarios
    "ScenarioConfig", "TimeGrid", "RunRecord",
    "builtin_presets", "compare_ideal", "run",
    # errors
    "SpinBathError", "NotPointwise", "InvalidTime", "QuadratureFailure",
    "InvalidState", "EigenNonConvergence", "ConfigError", "ComputeError",
]
