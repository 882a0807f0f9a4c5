"""Scenario assembly: one bath + initial state + time grid = one run.

A run evaluates, on every grid point, the decoherence factors, the evolved
two-spin state, its negativity (closed form cross-checked against the
numeric partial transpose whenever the initial state is the x-projected
one), the zero-dephasing reference curve |sin(4 Delta)|/2, and the purity.
Identical configurations produce bit-identical records, independent of the
worker count (DEPHASE_THREADS): every grid point is a pure function of the
configuration.

``builtin_presets`` carries one configuration per reproduced figure panel,
with the exact parameter values quoted in the figure captions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .decoherence import BathConditions, factors
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
    pt_spectra,
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
]

#: closed form vs numeric partial transpose agreement enforced per point
CROSS_CHECK_TOL = 1e-10

_OUTPUT_CHOICES = frozenset(
    {"gamma", "delta", "negativity", "negativity_ideal", "purity", "state_dump"})
_DEFAULT_OUTPUTS = frozenset(
    {"gamma", "delta", "negativity", "negativity_ideal", "purity"})

X_ANGLES = InitialProductState(math.pi / 2, math.pi / 2, 0.0, 0.0)


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_points: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (0.0 <= self.t_start < self.t_end):
            raise ConfigError(
                f"need 0 <= t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if not (2 <= self.n_points <= 10_000_000):
            raise ConfigError(f"n_points must lie in [2, 1e7], got {self.n_points}")
        if self.spacing != "linear":
            raise ConfigError(f"only linear spacing is supported, got {self.spacing!r}")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass(frozen=True)
class ScenarioConfig:
    bath: SpectralDensity
    beta: float
    grid: TimeGrid
    init: InitialProductState = X_ANGLES
    h: float = 0.0
    outputs: frozenset = _DEFAULT_OUTPUTS

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")
        if not np.isfinite(self.h):
            raise ConfigError(f"h must be finite, got {self.h}")
        bad = set(self.outputs) - _OUTPUT_CHOICES
        if bad:
            raise ConfigError(f"unknown outputs {sorted(bad)}")
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    def to_dict(self) -> dict:
        """Nested plain-data echo of the configuration."""
        return {
            "bath": bath_to_dict(self.bath),
            "beta": self.beta,
            "h": self.h,
            "init": {"theta1": self.init.theta1, "theta2": self.init.theta2,
                     "phi1": self.init.phi1, "phi2": self.init.phi2},
            "grid": {"t_start": self.grid.t_start, "t_end": self.grid.t_end,
                     "n_points": self.grid.n_points, "spacing": self.grid.spacing},
            "outputs": ",".join(sorted(self.outputs)),
        }

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        try:
            bath = bath_from_dict(d["bath"])
            grid_d = d["grid"]
            grid = TimeGrid(float(grid_d["t_start"]), float(grid_d["t_end"]),
                            int(grid_d["n_points"]),
                            str(grid_d.get("spacing", "linear")))
            init_d = d.get("init", {})
            init = InitialProductState(
                float(init_d.get("theta1", math.pi / 2)),
                float(init_d.get("theta2", math.pi / 2)),
                float(init_d.get("phi1", 0.0)),
                float(init_d.get("phi2", 0.0)))
            outputs = d.get("outputs", _DEFAULT_OUTPUTS)
            if isinstance(outputs, str):
                outputs = frozenset(x for x in outputs.split(",") if x)
            return ScenarioConfig(bath=bath, beta=float(d["beta"]), grid=grid,
                                  init=init, h=float(d.get("h", 0.0)),
                                  outputs=frozenset(outputs))
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
        "quadrature_rel_tol": 1e-8, "quadrature_abs_tol": 1e-12,
        "cross_check_tol": CROSS_CHECK_TOL})
    states: list | None = None

    COLUMNS = ("t", "gamma", "delta", "negativity", "negativity_ideal", "purity")

    def columns(self):
        return tuple(getattr(self, name) for name in self.COLUMNS)


def _worker_count() -> int:
    raw = os.environ.get("DEPHASE_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"DEPHASE_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"DEPHASE_THREADS must be >= 0, got {n}")
    if n == 0:
        n = min(os.cpu_count() or 1, 8)
    return n


def run(cfg: ScenarioConfig) -> RunRecord:
    """Evaluate the scenario on its grid; deterministic for identical cfg."""
    times = cfg.grid.times()
    bc = BathConditions(cfg.beta)
    fieldcfg = FieldConfig(cfg.h)
    init = bloch_product_to_general(cfg.init)
    x_init = is_x_projected(init)

    workers = _worker_count()
    point = lambda t: factors(cfg.bath, bc, float(t))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            dfs = list(pool.map(point, times))
    else:
        dfs = [point(t) for t in times]

    states = [evolve(init, df, fieldcfg, float(t))
              for df, t in zip(dfs, times)]
    rhos = np.stack([s.rho for s in states])
    spectra = pt_spectra(rhos)
    numeric = np.array([negativity_from_spectrum(e) for e in spectra])

    if x_init:
        closed = np.array([negativity_closed_form(df.gamma, df.delta).value
                           for df in dfs])
        mismatch = np.abs(closed - numeric)
        worst = int(np.argmax(mismatch))
        if mismatch[worst] > CROSS_CHECK_TOL:
            raise ComputeError(
                f"closed-form/numeric negativity disagree by "
                f"{mismatch[worst]:.3e} at t={times[worst]}")
        negativity = closed
    else:
        negativity = numeric

    record = RunRecord(
        config=cfg,
        t=times,
        gamma=np.array([df.gamma for df in dfs]),
        delta=np.array([df.delta for df in dfs]),
        negativity=negativity,
        negativity_ideal=np.array([ideal_negativity(df.delta) for df in dfs]),
        purity=np.array([s.purity() for s in states]),
        states=[s.to_json_obj() for s in states]
        if "state_dump" in cfg.outputs else None,
    )
    return record


@dataclass(frozen=True)
class IdealComparison:
    t: np.ndarray
    negativity: np.ndarray
    negativity_ideal: np.ndarray
    max_abs_deviation: float


def compare_ideal(cfg: ScenarioConfig) -> IdealComparison:
    """Full pipeline negativity against the zero-dephasing curve.

    Meaningless for a bath with divergent dephasing (Lorentzian n = 0), so
    that configuration is rejected.
    """
    if isinstance(cfg.bath, Lorentzian) and cfg.bath.n == 0:
        raise ConfigError("idealized comparison is undefined for the "
                          "infrared-divergent n = 0 Lorentzian bath")
    rec = run(cfg)
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
