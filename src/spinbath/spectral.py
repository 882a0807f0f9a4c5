"""Bath spectral densities: single-mode, Ohmic family, Lorentzian family.

The spectral density J(omega) is the only description of the bath this
package uses; everything downstream (dephasing exponent, induced Ising
phase) is an integral of J against a kernel.  Three families are supported:

* ``SingleMode``: J(omega) = lambda * delta(omega - omega_c).  A
  distribution, never sampled pointwise; the decoherence module handles it
  in closed form.
* ``Ohmic``: J(omega) = lambda * omega**s * omega_c**(1-s) * exp(-omega/omega_c)
  with ohmicity s (sub-Ohmic s < 1, Ohmic s = 1, super-Ohmic s > 1).
* ``Lorentzian``: J(omega) = (lambda/pi) * q * omega**n /
  ((omega**2 - omega_c**2)**2 + q**2 * omega**2), a resonance at omega_c of
  linewidth q, with low-frequency power n in {0, 1, 2}.

All quantities are in natural units (hbar = k_B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, NotPointwise

__all__ = [
    "SingleMode",
    "Ohmic",
    "Lorentzian",
    "SpectralDensity",
    "evaluate",
    "ir_exponent",
    "to_config_dict",
    "from_config_dict",
]


@dataclass(frozen=True)
class SingleMode:
    """All bath weight concentrated in one resonance mode omega_c."""

    coupling: float
    omega_c: float

    def __post_init__(self):
        _require_positive(coupling=self.coupling, omega_c=self.omega_c)


@dataclass(frozen=True)
class Ohmic:
    """Power-law times exponential cutoff, J ~ omega**s for omega -> 0."""

    coupling: float
    s: float
    omega_c: float

    def __post_init__(self):
        _require_positive(coupling=self.coupling, s=self.s, omega_c=self.omega_c)


@dataclass(frozen=True)
class Lorentzian:
    """Resonant peak at omega_c with linewidth q and IR power n in {0, 1, 2}."""

    coupling: float
    q: float
    omega_c: float
    n: int

    def __post_init__(self):
        _require_positive(coupling=self.coupling, q=self.q, omega_c=self.omega_c)
        if self.n not in (0, 1, 2):
            raise ValueError(f"Lorentzian power n must be 0, 1 or 2, got {self.n}")


SpectralDensity = Union[SingleMode, Ohmic, Lorentzian]


def _require_positive(**fields):
    for name, value in fields.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def evaluate(j: SpectralDensity, omega):
    """J(omega) for a pointwise-evaluable family; accepts scalars or arrays.

    Raises NotPointwise for SingleMode, which is a delta distribution.
    """
    if isinstance(j, SingleMode):
        raise NotPointwise("a single-mode (delta) spectral density has no "
                           "pointwise values; use its closed-form factors")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("evaluate requires omega > 0")
    if isinstance(j, Ohmic):
        # omega**s overflows for large s; the inf (or inf * 0 = nan) is left
        # for the caller's finiteness check instead of a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = (j.coupling * omega ** j.s * j.omega_c ** (1.0 - j.s)
                   * np.exp(-omega / j.omega_c))
    elif isinstance(j, Lorentzian):
        out = (j.coupling / np.pi * j.q * omega ** j.n
               / ((omega ** 2 - j.omega_c ** 2) ** 2 + j.q ** 2 * omega ** 2))
    else:
        raise TypeError(f"unknown spectral density {type(j).__name__}")
    return out if out.ndim else float(out)


def ir_exponent(j: SpectralDensity) -> float:
    """Power p with J(omega) ~ C * omega**p as omega -> 0.

    Under the thermal weight coth(beta*omega/2) ~ 2/(beta*omega) the
    dephasing integral gains a 1/omega, so it diverges at the origin
    exactly when p <= 0 (the n = 0 Lorentzian).
    """
    if isinstance(j, SingleMode):
        raise NotPointwise("single-mode density has no low-frequency power law")
    if isinstance(j, Ohmic):
        return j.s
    return float(j.n)


_FAMILY_TAGS = {SingleMode: "single_mode", Ohmic: "ohmic", Lorentzian: "lorentzian"}


def to_config_dict(j: SpectralDensity) -> dict:
    """Flat dict for the scenario config format (family tag + numeric fields)."""
    if isinstance(j, SingleMode):
        return {"family": "single_mode", "lambda": j.coupling, "omega_c": j.omega_c}
    if isinstance(j, Ohmic):
        return {"family": "ohmic", "lambda": j.coupling, "s": j.s,
                "omega_c": j.omega_c}
    if isinstance(j, Lorentzian):
        return {"family": "lorentzian", "lambda": j.coupling, "q": j.q,
                "omega_c": j.omega_c, "n": j.n}
    raise TypeError(f"unknown spectral density {type(j).__name__}")


def from_config_dict(d: dict) -> SpectralDensity:
    """Inverse of to_config_dict; raises ConfigError on bad input."""
    d = dict(d)
    family = d.pop("family", None)
    coupling = d.pop("lambda", d.pop("coupling", None))
    try:
        if family == "single_mode":
            return SingleMode(coupling=float(coupling), omega_c=float(d.pop("omega_c")))
        if family == "ohmic":
            return Ohmic(coupling=float(coupling), s=float(d.pop("s")),
                         omega_c=float(d.pop("omega_c")))
        if family == "lorentzian":
            return Lorentzian(coupling=float(coupling), q=float(d.pop("q")),
                              omega_c=float(d.pop("omega_c")), n=int(d.pop("n")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {family!r} spectral density: {exc}") from exc
    raise ConfigError(f"unknown spectral density family {family!r}")
