"""Decoherence factors gamma(t) and Delta(t) for a bath spectral density.

For a bath in thermal equilibrium at inverse temperature beta the two spins
acquire, elementwise on the density matrix, a dephasing exponent and an
induced Ising phase

    gamma(t) = 1/4 * int_0^inf J(w) (1 - cos(w t)) / w^2 * coth(beta w / 2) dw
    Delta(t) = 1/4 * int_0^inf J(w) (sin(w t) - w t) / w^2 dw

with gamma >= 0 and Delta <= 0 for all t >= 0.  Evaluation is dispatched per
family: closed form for the single-mode bath, the exact Gamma-function form
of the Ohmic phase (any s > 0) with the Ohmic gamma by quadrature, and
quadrature with numerically stable kernels for both Lorentzian factors.
A Lorentzian bath with n = 0 makes gamma infrared-divergent (J tends to a
constant and the thermal weight contributes 1/w); that case is classified up
front as instantaneous total dephasing instead of being left to the
integrator.

Kernel stability:

* (1 - cos(w t)) / w^2 is evaluated as 2 sin^2(w t / 2) / w^2;
* coth(beta w / 2) switches to its Laurent form 2/(beta w) + beta w / 6
  for beta w < 1e-4;
* sin(w t) - w t switches to -(w t)^3/6 * (1 - (w t)^2/20) for w t < 1e-3.

Far beyond the bath cutoff the oscillatory component of each integrand is
dropped and replaced by its integration-by-parts bound 2 g(Omega) / t (g the
decaying amplitude), which is folded into the error budget; any remaining
non-oscillatory tail is integrated on geometrically growing panels.

The Ohmic phase reduces, with x = w_c t, to

    Delta = lam/4 * [Gamma(s-1) sin((s-1) atan x) (1 + x^2)^(-(s-1)/2)
                     - Gamma(s) x],

evaluated as lam/4 * Gamma(s) * [sin(e a)/e * (1 + x^2)^(-e/2) - x] with
e = s - 1 and a = atan x, which is regular through s = 1 (where it is
lam/4 * (atan x - x)).  For small x the two terms cancel, and the bracket
is summed from its Taylor series instead.  ``ohmic_delta_by_quadrature``
evaluates the same integral numerically and is kept as a reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .errors import InvalidTime, QuadratureFailure
from .quadrature import (
    IntegrationRequest,
    integrate_on_interval,
    integrate_semi_infinite,
)
from .spectral import Lorentzian, Ohmic, SingleMode, SpectralDensity

__all__ = [
    "BathConditions",
    "DecoherenceFactors",
    "Method",
    "closed_form_single_mode",
    "coth_half",
    "factors",
    "factors_series",
    "ohmic_delta",
    "ohmic_delta_by_quadrature",
    "ohmic_delta_s2_closed_form",
    "sin_minus_wt",
]

_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_MAX_EVALS = 2_000_000
_COTH_SWITCH = 1e-4
_SIN_SWITCH = 1e-3
# curvature probes of the oscillatory-tail remainder, in units of its start
_TAIL_PROBES = np.array([1.0, 1.3, 1.7, 2.2, 3.0, 4.5, 6.0, 8.0])


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    ANALYTIC_REDUCTION = "analytic_reduction"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class BathConditions:
    """Thermal state of the bath; beta = 1/T in natural units."""

    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")


@dataclass(frozen=True)
class DecoherenceFactors:
    """gamma >= 0 dephases coherences, delta <= 0 is the Ising phase.

    ``gamma`` is +inf when ``gamma_divergent`` is set; downstream evolution
    then zeroes every coherence between different magnetization sectors.
    """

    gamma: float
    delta: float
    gamma_divergent: bool = False
    method: Method = Method.QUADRATURE


def coth_half(beta: float, omega):
    """coth(beta*omega/2), Laurent form below beta*omega = 1e-4."""
    omega = np.asarray(omega, dtype=float)
    x = beta * omega
    # beta*omega near the float minimum overflows both forms to +inf, which
    # the quadrature reports as a non-finite integrand
    with np.errstate(divide="ignore", over="ignore"):
        laurent = 2.0 / x + x / 6.0
        direct = 1.0 / np.tanh(0.5 * x)
    out = np.where(x < _COTH_SWITCH, laurent, direct)
    return out if out.ndim else float(out)


def sin_minus_wt(omega, t: float):
    """sin(omega t) - omega t, series below omega t = 1e-3 (always <= 0)."""
    omega = np.asarray(omega, dtype=float)
    x = omega * t
    series = -(x ** 3) / 6.0 * (1.0 - x * x / 20.0)
    out = np.where(x < _SIN_SWITCH, series, np.sin(x) - x)
    return out if out.ndim else float(out)


def closed_form_single_mode(coupling: float, omega_c: float, beta: float,
                            t: float) -> DecoherenceFactors:
    """Exact factors for J(w) = coupling * delta(w - omega_c)."""
    if t < 0:
        raise InvalidTime(f"t must be >= 0, got {t}")
    wc2 = omega_c * omega_c
    gamma = 0.5 * coupling * math.sin(0.5 * omega_c * t) ** 2 / wc2 \
        * coth_half(beta, omega_c)
    delta = 0.25 * coupling * float(sin_minus_wt(omega_c, t)) / wc2
    return DecoherenceFactors(gamma, delta, False, Method.CLOSED_FORM)


def ohmic_delta_s2_closed_form(coupling: float, omega_c: float, t: float) -> float:
    """Elementary antiderivative of the s = 2 Ohmic phase integral.

    Delta(t) = coupling/(4 omega_c) * [t/(t^2 + omega_c^-2) - omega_c^2 t].
    Kept as an independent cross-check of the quadrature reference.
    """
    return coupling / (4.0 * omega_c) * (t / (t * t + omega_c ** -2.0)
                                         - omega_c * omega_c * t)


def _ohmic_series_switch(s: float) -> float:
    """x = w_c t below which the Ohmic phase bracket is summed as a series.

    Below it the ratio of successive series terms stays under 1/6; above it
    the two closed-form terms cancel by a factor no smaller than
    s(s+1) / (6(s+2)(s+3)), i.e. at most about 2.5 digits for s >= 0.1.
    """
    return 1.0 / math.sqrt((s + 2.0) * (s + 3.0))


def ohmic_delta(j: Ohmic, t: float) -> float:
    """Exact Ohmic phase Delta(t) for any s > 0 (see the module docstring).

    The small-x series is sum_{m>=1} (-1)^m Gamma(s+2m)/Gamma(s)
    x^(2m+1)/(2m+1)!, free of cancellation.  A result beyond the float
    range (Gamma(s) overflows from s ~ 171) raises QuadratureFailure.
    """
    s, x = j.s, j.omega_c * t
    if x < _ohmic_series_switch(s):
        term, bracket, m = x, 0.0, 1
        while True:
            term *= -x * x * (s + 2 * m - 2) * (s + 2 * m - 1) \
                / ((2 * m) * (2 * m + 1))
            bracket += term
            if abs(term) <= 1e-17 * abs(bracket):
                break
            m += 1
    else:
        e, a = s - 1.0, math.atan(x)
        sinc = math.sin(e * a) / e if e != 0.0 else a
        bracket = sinc * math.hypot(1.0, x) ** -e - x
    try:
        delta = 0.25 * j.coupling * math.gamma(s) * bracket
    except OverflowError:
        delta = math.inf
    if not math.isfinite(delta):
        raise QuadratureFailure(
            f"Ohmic Delta at s={s}, t={t} exceeds the float range")
    return delta


class _Stalled(Exception):
    """Internal: a quadrature piece missed its tolerance."""


def _piece(result):
    if result.diverged or not result.converged:
        raise _Stalled(f"evals={result.evals}, err={result.error_estimate:.3g}")
    return result


def _osc_tail(amp, t: float, a: float, kind: str, h: float):
    """Asymptotic value and remainder bound of int_a^inf amp(w) osc(w t) dw.

    Two integrations by parts give boundary terms at a (the contribution at
    infinity vanishes with the amplitude); the remainder is bounded by
    int_a^inf |amp''| / t^2, estimated from probed second derivatives with a
    generous tail allowance.  Valid when the amplitude varies on a scale L
    with t L >> 1; otherwise falls back to a zero-value drop with the
    conservative first-order bound 2 amp(a) / t.  The amplitude is sampled
    in one array call, on a three-point stencil of width hx = min(h, 1e-3 x)
    around each curvature probe x; the first probe is a itself, so its
    stencil also gives g(a) and g'(a).
    """
    probes = a * _TAIL_PROBES
    hx = np.minimum(h, 1e-3 * probes)
    g_lo, g_mid, g_hi = np.abs(np.asarray(
        amp(np.concatenate([probes - hx, probes, probes + hx])),
        dtype=float)).reshape(3, -1)
    g0 = float(g_mid[0])
    gp = float(g_hi[0] - g_lo[0]) / (2.0 * hx[0])
    L = g0 / max(abs(gp), 1e-300)
    if t * L < 30.0:
        return 0.0, 2.0 * g0 / t
    s, c = math.sin(a * t), math.cos(a * t)
    if kind == "cos":
        val = -g0 * s / t + gp * c / (t * t)
    else:
        val = g0 * c / t - gp * s / (t * t)
    curv = np.abs(g_hi - 2.0 * g_mid + g_lo + 4e-16 * g_mid) / (hx * hx)
    total_curv = float(np.sum(0.5 * (curv[1:] + curv[:-1]) * np.diff(probes)))
    total_curv += curv[-1] * probes[-1]
    return val, 2.0 * total_curv / (t * t)


def _osc_split_integral(full: Callable, dc: Callable | None,
                        osc_amp: Callable, t: float, omega0: float,
                        scale: float,
                        features: Sequence[tuple[float, float]],
                        osc_kind: str, osc_sign: float) -> float:
    """int_0^inf full(w) dw for full = dc + osc_sign * amp * osc(w t).

    ``osc_amp`` is the amplitude of the oscillating component (``osc_kind``
    is "cos" or "sin"); it may diverge at the origin (the full kernel stays
    regular there) and must be smooth and decaying beyond ``omega0``.
    Oscillation-resolving panels (width pi/t) are laid down only where the
    amplitude makes the oscillation matter; past that point only ``dc`` is
    integrated, and the dropped oscillatory tail is replaced by its
    integration-by-parts asymptotics with a t^-3 remainder bound.
    """
    if t * omega0 < 2.0 * np.pi:
        # no fast oscillation where the integrand lives; one direct pass
        res = _piece(integrate_semi_infinite(
            IntegrationRequest(full, t, scale, _REL_TOL, _ABS_TOL, _MAX_EVALS),
            features=features))
        return res.value

    width = np.pi / t
    fd_h = (0.25 * min(h for _, h in features)) if features else None
    if features and omega0 / width > 12000.0:
        return _feature_core_integral(full, dc, osc_amp, t, features,
                                      osc_kind, osc_sign, fd_h)

    omega = omega0
    res = _piece(integrate_on_interval(
        full, 0.0, omega, _REL_TOL, 0.5 * _ABS_TOL,
        max_panel_width=width, features=features, max_evals=_MAX_EVALS,
        origin_grading=40))
    value, evals = res.value, res.evals

    while True:
        target = max(_ABS_TOL, _REL_TOL * abs(value))
        h = min(1e-3 * omega, fd_h) if fd_h else 1e-3 * omega
        corr, bound = _osc_tail(osc_amp, t, omega, osc_kind, h)
        if bound <= 0.125 * target:
            value += osc_sign * corr
            break
        if omega > 1e9 * scale or evals >= _MAX_EVALS:
            raise _Stalled(f"oscillation remainder {bound:.3g} stuck above "
                           f"target at omega={omega:.3g}")
        ext = _piece(integrate_on_interval(
            full, omega, 1.6 * omega, _REL_TOL, 0.25 * target,
            max_panel_width=width, max_evals=_MAX_EVALS))
        value += ext.value
        evals += ext.evals
        omega *= 1.6

    if dc is not None:
        tail = _piece(integrate_semi_infinite(
            IntegrationRequest(dc, 0.0, omega / 4.0, _REL_TOL,
                               0.25 * max(_ABS_TOL, _REL_TOL * abs(value)),
                               _MAX_EVALS),
            lower=omega))
        value += tail.value
    return value


def _feature_core_integral(full, dc, osc_amp, t, features,
                           osc_kind, osc_sign, fd_h) -> float:
    """Long-time variant for a sharply resonant amplitude.

    Oscillation is resolved on a stretch above the origin (which carries the
    thermal infrared mass at long times) and on a core window around the
    resonance; between and beyond them only the dc component is integrated
    and the oscillatory part is restored through its integration-by-parts
    asymptotics at the segment ends.  Pieces are assembled largest-first so
    the running tolerance target is meaningful.
    """
    width = np.pi / t
    center = max(c for c, _ in features)
    halfw = max(h for _, h in features)

    # origin stretch first: at long times the (1 - cos)/w^2 weight piles its
    # mass below w ~ 1/t, and the target must know about it
    b0 = 64.0 * width
    res = _piece(integrate_on_interval(
        full, 0.0, b0, _REL_TOL, 0.25 * _ABS_TOL, max_panel_width=width,
        max_evals=_MAX_EVALS, origin_grading=40))
    value, evals = res.value, res.evals

    reach = max(4.0 * halfw, 16.0 * width)
    lo = max(center - reach, b0)
    hi = center + reach
    res = _piece(integrate_on_interval(
        full, lo, hi, _REL_TOL, 0.5 * _ABS_TOL, max_panel_width=width,
        features=features, max_evals=_MAX_EVALS))
    value += res.value
    evals += res.evals

    def target():
        return max(_ABS_TOL, _REL_TOL * abs(value))

    def tail_at(a):
        h = min(1e-3 * a, fd_h) if fd_h else 1e-3 * a
        return _osc_tail(osc_amp, t, a, osc_kind, h)

    # close the origin-resonance gap from whichever end dominates the
    # asymptotic remainder
    while b0 < lo:
        corr_b, bound_b = tail_at(b0)
        corr_l, bound_l = tail_at(lo)
        if bound_b + bound_l <= 0.125 * target():
            # int_gap amp*osc = tail(b0) - tail(lo)
            value += osc_sign * (corr_b - corr_l)
            break
        grow_b0 = bound_b >= bound_l
        if grow_b0:
            new_b0 = min(2.0 * b0, lo)
            ext = _piece(integrate_on_interval(
                full, b0, new_b0, _REL_TOL, 0.125 * target(),
                max_panel_width=width, max_evals=_MAX_EVALS))
            b0 = new_b0
        else:
            new_lo = max(center - 1.6 * (center - lo), b0)
            ext = _piece(integrate_on_interval(
                full, new_lo, lo, _REL_TOL, 0.125 * target(),
                max_panel_width=width, features=features,
                max_evals=_MAX_EVALS))
            lo = new_lo
        value += ext.value
        evals += ext.evals
        if evals >= _MAX_EVALS:
            raise _Stalled(f"resonance wings grew past the budget "
                           f"(b0={b0:.3g}, lo={lo:.3g})")

    while True:
        corr_h, bound_h = tail_at(hi)
        if bound_h <= 0.125 * target():
            value += osc_sign * corr_h
            break
        new_hi = center + 1.6 * (hi - center)
        ext = _piece(integrate_on_interval(
            full, hi, new_hi, _REL_TOL, 0.125 * target(),
            max_panel_width=width, max_evals=_MAX_EVALS))
        value += ext.value
        evals += ext.evals
        hi = new_hi
        if evals >= _MAX_EVALS:
            raise _Stalled(f"resonance core grew past the budget at {hi:.3g}")

    if dc is not None and b0 < lo:
        gap = _piece(integrate_on_interval(
            dc, b0, lo, _REL_TOL, 0.125 * target(), max_evals=_MAX_EVALS))
        value += gap.value
    if dc is not None:
        tail = _piece(integrate_semi_infinite(
            IntegrationRequest(dc, 0.0, hi / 4.0, _REL_TOL, 0.125 * target(),
                               _MAX_EVALS),
            lower=hi))
        value += tail.value
    return value


def _features_of(j: SpectralDensity):
    if isinstance(j, Lorentzian):
        return [(j.omega_c, j.q / 2.0)]
    return []


def _omega0_of(j: SpectralDensity) -> float:
    # start of the monotone-tail region: past the envelope peak for
    # super-Ohmic baths, past the resonance for Lorentzian ones; the
    # tail-residue loop extends it whenever the bound is not yet met
    if isinstance(j, Ohmic):
        return max(2.0, j.s - 1.0) * j.omega_c
    if isinstance(j, Lorentzian):
        return j.omega_c + 16.0 * j.q
    raise TypeError(type(j).__name__)


def _gamma_by_quadrature(j: SpectralDensity, beta: float, t: float) -> float:
    def envelope(w):
        return 0.25 * spectral.evaluate(j, w) * coth_half(beta, w) / w ** 2

    def full(w):
        # envelope * (1 - cos w t), regular at the origin
        return 0.5 * spectral.evaluate(j, w) * coth_half(beta, w) \
            * (np.sin(0.5 * w * t) / w) ** 2

    return _osc_split_integral(full, envelope, envelope, t, _omega0_of(j),
                               j.omega_c, _features_of(j), "cos", -1.0)


def _delta_lorentzian_by_quadrature(j: Lorentzian, t: float) -> float:
    def amp(w):
        return 0.25 * spectral.evaluate(j, w) / w ** 2

    def full(w):
        return amp(w) * sin_minus_wt(w, t)

    def dc(w):
        return amp(w) * (-(w * t))

    return _osc_split_integral(full, dc, amp, t, _omega0_of(j), j.omega_c,
                               _features_of(j), "sin", 1.0)


def ohmic_delta_by_quadrature(j: Ohmic, t: float) -> float:
    """Ohmic phase by quadrature, any s > 0: a reference for ``ohmic_delta``.

    The non-oscillatory -w t part is split off exactly,

        Delta = lam/(4 w_c^(s-1)) * [ int sin(w t) w^(s-2) e^(-w/w_c) dw
                                      - t * int w^(s-1) e^(-w/w_c) dw ],

    which removes the cancellation between a bounded oscillatory term and a
    linearly growing one.  The moment integral is (s-1)! * w_c^s for integer
    s (factorial recurrence, no special functions) and a smooth quadrature
    otherwise.  Shares no code with the closed form, so the two cross-check
    each other; ``factors`` never calls it.
    """
    if t == 0.0:
        return 0.0
    wc = j.omega_c

    def amp(w):
        return np.power(w, j.s - 2.0) * np.exp(-w / wc)

    def sin_part(w):
        return np.sin(w * t) * amp(w)

    try:
        sine = _osc_split_integral(sin_part, None, amp, t, _omega0_of(j), wc,
                                   [], "sin", 1.0)
        moment = _ohmic_moment(j.s, wc)
    except _Stalled as exc:
        raise QuadratureFailure(f"Ohmic Delta at t={t}: {exc}") from exc
    return 0.25 * j.coupling * wc ** (1.0 - j.s) * (sine - t * moment)


def _ohmic_moment(s: float, omega_c: float) -> float:
    """int_0^inf w^(s-1) e^(-w/w_c) dw without gamma-function dependencies."""
    if s == int(s):
        # factorial recurrence: I_m = m * w_c * I_(m-1), I_0 = w_c
        val = omega_c
        for m in range(1, int(s)):
            val *= m * omega_c
        return val
    res = _piece(integrate_semi_infinite(IntegrationRequest(
        lambda w: np.power(w, s - 1.0) * np.exp(-w / omega_c),
        0.0, omega_c, _REL_TOL, _ABS_TOL, _MAX_EVALS)))
    return res.value


def factors(j: SpectralDensity, bc: BathConditions, t: float) -> DecoherenceFactors:
    """Decoherence factors at time t, dispatched on the bath family."""
    if t < 0 or not np.isfinite(t):
        raise InvalidTime(f"t must be finite and >= 0, got {t}")
    if isinstance(j, SingleMode):
        return closed_form_single_mode(j.coupling, j.omega_c, bc.beta, t)
    if t == 0.0:
        method = (Method.ANALYTIC_REDUCTION
                  if isinstance(j, Ohmic) and j.s == 2.0 else Method.QUADRATURE)
        return DecoherenceFactors(0.0, 0.0, False, method)

    divergent = spectral.ir_exponent(j) <= 0.0
    try:
        if isinstance(j, Ohmic):
            gamma = _gamma_by_quadrature(j, bc.beta, t)
            return DecoherenceFactors(max(gamma, 0.0),
                                      min(ohmic_delta(j, t), 0.0), False,
                                      Method.ANALYTIC_REDUCTION)
        # Lorentzian
        delta = _delta_lorentzian_by_quadrature(j, t)
        if divergent:
            return DecoherenceFactors(math.inf, min(delta, 0.0), True,
                                      Method.QUADRATURE)
        gamma = _gamma_by_quadrature(j, bc.beta, t)
        return DecoherenceFactors(max(gamma, 0.0), min(delta, 0.0), False,
                                  Method.QUADRATURE)
    except _Stalled as exc:
        raise QuadratureFailure(
            f"decoherence factors for {type(j).__name__} at t={t}: {exc}") from exc


def factors_series(j: SpectralDensity, bc: BathConditions,
                   times: Sequence[float]) -> list[DecoherenceFactors]:
    """factors() on an ascending time grid; elementwise identical to the
    single-time calls by construction."""
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise InvalidTime("times must be ascending")
    return [factors(j, bc, t) for t in times]
