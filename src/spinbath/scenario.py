"""Scenario assembly: one bath + initial state + time grid = one run.

A configuration holds exactly what fixes a run: the bath, beta, the initial
product state, the field h and the linear time grid; every key changes an
answer.  A run evaluates, on every grid point, the decoherence factors, the
evolved two-spin state, its negativity (closed form cross-checked against
the numeric partial transpose whenever the initial state is the x-projected
one), the zero-dephasing reference curve |sin(4 Delta)|/2, and the purity.
The record keeps these six columns, not the states: ``evolve`` (or the
``state-dump`` command) gives the density matrix at any time.

The factors come from one ``decoherence.factors`` call over the whole grid,
whatever the bath; every family is exact over an array there, and so are
the closed-form and ideal negativities, each one numpy pass over the grid.
The states go through fixed blocks of ``_BLOCK_POINTS`` grid points: per
block one batched evolve (validated in one pass), one partial-transpose
pass (``x_block_spectra`` for an x-projected state, otherwise the certified
lowest eigenvalue of ``pt_negativity``, with ``pt_spectra`` on any row it
cannot certify) and the purity, so the (B, 4, 4) stacks take the same memory
whatever the grid size.  Identical configurations give bit-identical
records: each point is a pure function of the configuration.

``builtin_presets`` carries one configuration per reproduced figure panel,
with the exact parameter values quoted in the figure captions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .configio import as_integer, reject_unknown
from .decoherence import (
    _ABS_TOL,
    _REL_TOL,
    BathConditions,
    DecoherenceFactors,
    factors,
)
from .dynamics import (
    FieldConfig,
    InitialProductState,
    bloch_product_to_general,
    evolve,
    is_x_projected,
)
from .entanglement import (
    ideal_negativity,
    negativity_closed_form,
    negativity_from_spectrum,
    pt_negativity,
    pt_spectra,
    x_block_spectra,
)
from .errors import ComputeError, ConfigError
from .spectral import Lorentzian, Ohmic, SingleMode, SpectralDensity
from .spectral import from_config_dict as bath_from_dict
from .spectral import to_config_dict as bath_to_dict

__all__ = [
    "TimeGrid",
    "ScenarioConfig",
    "RunRecord",
    "IdealComparison",
    "run",
    "compare_ideal",
    "builtin_presets",
    "CROSS_CHECK_TOL",
    "MAX_POINTS",
]

#: closed form vs numeric partial transpose agreement enforced per point
CROSS_CHECK_TOL = 1e-10
#: grid points per evolve -> partial-transpose block of ``run``
_BLOCK_POINTS = 2048
#: most points a time grid (or a tabulated spectrum) may have
MAX_POINTS = 10_000_000

#: the top-level and grid keys that ``ScenarioConfig.to_dict`` writes
_KEYS = ("bath", "beta", "h", "init", "grid")
_GRID_KEYS = ("t_start", "t_end", "n_points")

X_ANGLES = InitialProductState(math.pi / 2, math.pi / 2, 0.0, 0.0)


@dataclass(frozen=True)
class TimeGrid:
    """n_points evenly spaced times from t_start to t_end; the ends are
    stored as builtin floats and n_points as an int."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        t_start, t_end = float(self.t_start), float(self.t_end)
        n_points = as_integer(self.n_points, "grid.n_points")
        if not (0.0 <= t_start < t_end < math.inf):
            raise ConfigError(f"need 0 <= t_start < t_end < inf, got "
                              f"[{t_start}, {t_end}]")
        if not (2 <= n_points <= MAX_POINTS):
            raise ConfigError(f"n_points must lie in [2, 1e7], got {n_points}")
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "n_points", n_points)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass(frozen=True)
class ScenarioConfig:
    bath: SpectralDensity
    beta: float
    grid: TimeGrid
    init: InitialProductState = X_ANGLES
    h: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")
        if not np.isfinite(self.h):
            raise ConfigError(f"h must be finite, got {self.h}")

    def to_dict(self) -> dict:
        """Nested plain-data echo of the configuration."""
        return {
            "bath": bath_to_dict(self.bath),
            "beta": self.beta,
            "h": self.h,
            "init": asdict(self.init),
            "grid": asdict(self.grid),
        }

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        """Inverse of to_dict; accepts no key that to_dict does not write."""
        try:
            reject_unknown(d, _KEYS)
            bath = bath_from_dict(d["bath"])
            grid_d = d["grid"]
            reject_unknown(grid_d, _GRID_KEYS, "grid.")
            grid = TimeGrid(grid_d["t_start"], grid_d["t_end"],
                            grid_d["n_points"])
            init_d = {**asdict(X_ANGLES), **d.get("init", {})}
            reject_unknown(init_d, asdict(X_ANGLES), "init.")
            init = InitialProductState(**{k: float(v) for k, v in init_d.items()})
            return ScenarioConfig(bath=bath, beta=float(d["beta"]), grid=grid,
                                  init=init, h=float(d.get("h", 0.0)))
        except ConfigError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc


@dataclass(frozen=True)
class RunRecord:
    """Per-point results in fixed column order, plus run metadata."""

    config: ScenarioConfig
    t: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    negativity: np.ndarray
    negativity_ideal: np.ndarray
    purity: np.ndarray
    version: str = __version__
    tolerances: dict = field(default_factory=lambda: {
        "quadrature_rel_tol": _REL_TOL, "quadrature_abs_tol": _ABS_TOL,
        "cross_check_tol": CROSS_CHECK_TOL})

    COLUMNS = ("t", "gamma", "delta", "negativity", "negativity_ideal", "purity")

    def columns(self):
        return tuple(getattr(self, name) for name in self.COLUMNS)


def run(cfg: ScenarioConfig) -> RunRecord:
    """Evaluate the scenario on its grid; deterministic for identical cfg."""
    times = cfg.grid.times()
    init = bloch_product_to_general(cfg.init)
    df = factors(cfg.bath, BathConditions(cfg.beta), times)
    field = FieldConfig(cfg.h)

    x_state = is_x_projected(init)
    numeric = np.empty_like(times)
    bound = np.empty_like(times)  # on numeric's error, added to the check
    purity = np.empty_like(times)
    for lo in range(0, times.size, _BLOCK_POINTS):
        part = slice(lo, lo + _BLOCK_POINTS)
        block = evolve(init, DecoherenceFactors(df.gamma[part], df.delta[part]),
                       field, times[part])
        if x_state:
            spectra, bound[part] = x_block_spectra(block, cfg.h, times[part])
            numeric[part] = negativity_from_spectrum(spectra)
        else:
            n, certified = pt_negativity(block)
            if not certified.all():
                n[~certified] = negativity_from_spectrum(
                    pt_spectra(block.rho[~certified]))
            numeric[part], bound[part] = n, 0.0
        purity[part] = block.purity()

    if x_state:
        closed = negativity_closed_form(df.gamma, df.delta)
        mismatch = np.abs(closed - numeric) + bound
        worst = int(np.argmax(mismatch))
        if mismatch[worst] > CROSS_CHECK_TOL:
            raise ComputeError(
                f"closed-form/numeric negativity disagree by "
                f"{mismatch[worst]:.3e} at t={times[worst]}")
        negativity = closed
    else:
        negativity = numeric

    return RunRecord(
        config=cfg,
        t=times,
        gamma=df.gamma,
        delta=df.delta,
        negativity=negativity,
        negativity_ideal=ideal_negativity(df.delta),
        purity=purity,
    )


@dataclass(frozen=True)
class IdealComparison:
    t: np.ndarray
    negativity: np.ndarray
    negativity_ideal: np.ndarray
    max_abs_deviation: float


def compare_ideal(cfg: ScenarioConfig) -> IdealComparison:
    """Full pipeline negativity against the zero-dephasing curve.

    Meaningless for a bath with divergent dephasing (Lorentzian n = 0), so
    a run whose factors report gamma = +inf is rejected.
    """
    rec = run(cfg)
    if np.isinf(rec.gamma).any():
        raise ConfigError("idealized comparison is undefined for a bath "
                          "with infrared-divergent dephasing")
    dev = float(np.max(np.abs(rec.negativity - rec.negativity_ideal)))
    return IdealComparison(rec.t, rec.negativity, rec.negativity_ideal, dev)


def _preset(bath, beta, t_end, n_points, t_start=0.0, init=X_ANGLES):
    return ScenarioConfig(bath=bath, beta=beta, init=init, h=0.0,
                          grid=TimeGrid(t_start, t_end, n_points))


def builtin_presets() -> dict[str, ScenarioConfig]:
    """One preset per reproduced figure panel, caption parameters verbatim.

    Windows are chosen to contain the features each figure discusses (first
    negativity maxima, oscillation structure, suppression with linewidth).
    The n = 0 Lorentzian preset starts at t > 0: its dephasing is divergent
    for every positive time but vanishes identically at t = 0.
    """
    p: dict[str, ScenarioConfig] = {}

    # single-mode bath, beta = 1, omega_c = 20, coupling swept
    for lam, tag in [(0.01, "0p01"), (0.05, "0p05"), (0.5, "0p5"),
                     (1.0, "1"), (2.0, "2"), (5.0, "5")]:
        p[f"fig1_lambda{tag}"] = _preset(SingleMode(lam, 20.0), 1.0, 40.0, 801)

    # single-mode bath at different temperatures
    for beta, tag in [(1.0, "1"), (0.1, "0p1"), (0.01, "0p01")]:
        p[f"fig2_beta{tag}"] = _preset(SingleMode(1.0, 20.0), beta, 40.0, 801)

    # Ohmic family, lambda = 0.01, beta = 1, omega_c = 10
    for s, tag in [(0.5, "0p5"), (1.0, "1"), (2.0, "2"), (3.0, "3"), (4.0, "4")]:
        p[f"fig3_s{tag}"] = _preset(Ohmic(0.01, s, 10.0), 1.0, 40.0, 251)
    for s, tag in [(2.0, "2"), (2.5, "2p5"), (3.0, "3"), (3.5, "3p5"), (4.0, "4")]:
        p[f"fig4_s{tag}"] = _preset(Ohmic(0.01, s, 10.0), 1.0, 40.0, 251)

    # Lorentzian bath, lambda = 1, omega_c = 20, beta = 1; q is the swept knob
    p["fig5a"] = _preset(Lorentzian(1.0, 0.05, 20.0, 1), 1.0, 6000.0, 151)
    p["fig5b"] = _preset(Lorentzian(1.0, 0.05, 20.0, 2), 1.0, 500.0, 201)
    p["lorentz_n0"] = _preset(Lorentzian(1.0, 0.05, 20.0, 0), 1.0, 100.0, 200,
                              t_start=0.5)

    # initial-angle study: same baths, theta swept over pi/8, pi/4, pi/2
    p["fig6_single_theta"] = _preset(SingleMode(1.0, 20.0), 1.0, 40.0, 401)
    p["fig6_ohmic_theta"] = _preset(Ohmic(0.01, 2.0, 10.0), 1.0, 40.0, 251)
    p["fig6_lorentz_theta"] = _preset(Lorentzian(1.0, 0.05, 20.0, 2), 1.0,
                                      500.0, 151)

    # near-unitary regimes compared against the zero-dephasing curve
    p["fig7_single_lambda0p01"] = _preset(SingleMode(0.01, 20.0), 1.0, 4000.0, 1001)
    p["fig7_single_lambda0p05"] = _preset(SingleMode(0.05, 20.0), 1.0, 800.0, 801)
    for s, tag in [(2.0, "2"), (3.0, "3"), (4.0, "4")]:
        p[f"fig7_ohmic_s{tag}"] = _preset(Ohmic(0.01, s, 10.0), 1.0, 40.0, 251)
    for q, tag in [(0.05, "0p05"), (0.5, "0p5"), (5.0, "5")]:
        p[f"fig7_lorentz_q{tag}"] = _preset(Lorentzian(1.0, q, 20.0, 2), 1.0,
                                            500.0, 151)
    return p
