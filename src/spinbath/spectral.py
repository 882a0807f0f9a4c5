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

from dataclasses import asdict, dataclass, fields
from typing import Union

import numpy as np

from .configio import as_integer, reject_unknown
from .errors import ConfigError, NotPointwise

__all__ = [
    "SingleMode",
    "Ohmic",
    "Lorentzian",
    "SpectralDensity",
    "evaluate",
    "to_config_dict",
    "from_config_dict",
]


@dataclass(frozen=True)
class SingleMode:
    """All bath weight concentrated in one resonance mode omega_c."""

    coupling: float
    omega_c: float

    def __post_init__(self):
        _positive_floats(self, "coupling", "omega_c")


@dataclass(frozen=True)
class Ohmic:
    """Power-law times exponential cutoff, J ~ omega**s for omega -> 0."""

    coupling: float
    s: float
    omega_c: float

    def __post_init__(self):
        _positive_floats(self, "coupling", "s", "omega_c")


@dataclass(frozen=True)
class Lorentzian:
    """Resonant peak at omega_c with linewidth q and IR power n in {0, 1, 2}."""

    coupling: float
    q: float
    omega_c: float
    n: int

    def __post_init__(self):
        _positive_floats(self, "coupling", "q", "omega_c")
        if self.n not in (0, 1, 2):
            raise ValueError(f"Lorentzian power n must be 0, 1 or 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


SpectralDensity = Union[SingleMode, Ohmic, Lorentzian]


def _positive_floats(bath, *names):
    # builtin floats: numpy raises no int (omega_c beta) to a negative power
    for name in names:
        value = getattr(bath, name)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
        object.__setattr__(bath, name, float(value))


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


_FAMILIES = {"single_mode": SingleMode, "ohmic": Ohmic, "lorentzian": Lorentzian}


def to_config_dict(j: SpectralDensity) -> dict:
    """Flat dict for the scenario config format (family tag + numeric fields)."""
    tag = next((tag for tag, cls in _FAMILIES.items() if type(j) is cls), None)
    if tag is None:
        raise TypeError(f"unknown spectral density {type(j).__name__}")
    values = asdict(j)
    return {"family": tag, "lambda": values.pop("coupling"), **values}


def from_config_dict(d: dict) -> SpectralDensity:
    """Inverse of to_config_dict (``coupling`` may stand for ``lambda``);
    raises ConfigError on bad input or on any key it does not write."""
    d = dict(d)
    family = d.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown spectral density family {family!r}")
    if "lambda" in d and "coupling" in d:
        raise ConfigError("bath.coupling is an alias of bath.lambda; set one")
    d["coupling"] = d.pop("lambda", d.get("coupling"))
    names = [f.name for f in fields(_FAMILIES[family])]
    reject_unknown(d, names, "bath.")
    try:
        return _FAMILIES[family](**{
            name: as_integer(d[name], "bath.n") if name == "n" else float(d[name])
            for name in names})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {family!r} spectral density: {exc}") from exc
