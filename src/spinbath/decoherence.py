"""Decoherence factors gamma(t) and Delta(t) for a bath spectral density.

For a bath in thermal equilibrium at inverse temperature beta the two spins
acquire, elementwise on the density matrix, a dephasing exponent and an
induced Ising phase

    gamma(t) = 1/4 * int_0^inf J(w) (1 - cos(w t)) / w^2 * coth(beta w / 2) dw
    Delta(t) = 1/4 * int_0^inf J(w) (sin(w t) - w t) / w^2 dw

with gamma >= 0 and Delta <= 0 for all t >= 0.  ``factors`` takes a time or
a time array for every bath and alone dispatches on the family: closed form
for the single-mode bath, exact Gamma-function forms of both Ohmic factors
(any s > 0), and quadrature with numerically stable kernels for both
Lorentzian factors, one time each on a pool of DEPHASE_THREADS threads.
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

Both Ohmic factors reduce, with x = w_c t and e = s - 1, to the function

    P(e, u) = [1 - (1 + iu)^(-e)] / e,

which tends to log(1 + iu) at s = 1 and is evaluated through a complex
expm1, free of cancellation at small u.  The phase is

    Delta = lam/4 * Gamma(s) * [Im P(e, x) - x]
          = lam/4 * [Gamma(s-1) sin(e atan x) (1 + x^2)^(-e/2) - Gamma(s) x];

for small x the two terms cancel, and the bracket is summed from its Taylor
series instead.  The dephasing exponent follows from coth(beta w / 2) =
1 + 2 sum_n e^(-n beta w) (Palma, Suominen & Ekert 1996; Reina, Quiroga &
Johnson 2002) as a sum over b_n = 1 + n beta w_c,

    gamma = lam/4 * Gamma(s) * sum_n w_n b_n^(-e) Re P(e, x / b_n),

taken directly for its first terms and by Euler-Maclaurin for the rest
(``ohmic_gamma``).  ``ohmic_delta_by_quadrature`` and
``_gamma_by_quadrature`` evaluate the same integrals numerically and are
kept as references.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidTime, QuadratureFailure
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
    "ohmic_delta",
    "ohmic_gamma",
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
#: Ohmic gamma: coth-series terms summed directly before the tail
_COTH_DIRECT = 32
#: B_2k / (2k)!, k = 1..6: the Euler-Maclaurin weights of the tail
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
              1.0 / 47900160.0, -691.0 / 1307674368000.0)


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
    The fields are floats for one time, or arrays of the shape of a time
    array passed to ``factors``; ``gamma_divergent`` is then a bool array for
    a Lorentzian bath and a single bool for the exact families.
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
    # the callers report as a non-finite factor or integrand
    with np.errstate(divide="ignore", over="ignore"):
        laurent = 2.0 / x + x / 6.0
        direct = 1.0 / np.tanh(0.5 * x)
    out = np.where(x < _COTH_SWITCH, laurent, direct)
    return out if out.ndim else float(out)


def sin_minus_wt(omega, t):
    """sin(omega t) - omega t, series below omega t = 1e-3 (always <= 0)."""
    omega = np.asarray(omega, dtype=float)
    x = omega * t
    series = -(x ** 3) / 6.0 * (1.0 - x * x / 20.0)
    out = np.where(x < _SIN_SWITCH, series, np.sin(x) - x)
    return out if out.ndim else float(out)


def _checked(value, what: str):
    """value (a builtin float if 0-d); QuadratureFailure if not all finite."""
    if not np.all(np.isfinite(value)):
        raise QuadratureFailure(f"{what} is not finite")
    return value if np.ndim(value) else float(value)


def closed_form_single_mode(coupling: float, omega_c: float, beta: float,
                            t) -> DecoherenceFactors:
    """Exact factors for J(w) = coupling * delta(w - omega_c).

    t may be an array of times; gamma and delta are then arrays of the same
    shape.  They agree with the scalar calls to the last bit or so: numpy
    squares an array as x * x, a scalar through pow.  A factor beyond the
    float range (beta omega_c below about 2e-308) raises QuadratureFailure.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidTime(f"t must be >= 0, got {t}")
    wc2 = omega_c * omega_c
    where = f"at beta={beta}, omega_c={omega_c}"
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gamma = 0.5 * coupling * np.sin(0.5 * omega_c * t) ** 2 / wc2 \
            * coth_half(beta, omega_c)
        delta = 0.25 * coupling * sin_minus_wt(omega_c, t) / wc2
    return DecoherenceFactors(_checked(gamma, f"single-mode gamma {where}"),
                              _checked(delta, f"single-mode Delta {where}"),
                              False, Method.CLOSED_FORM)


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


def _log1iu(u):
    """Real and imaginary parts of log(1 + iu) for u >= 0.

    u^2 is capped at 1e300 (where 0.5 log1p(u^2) = log u to the last bit)
    so that no huge time overflows it.
    """
    v = np.minimum(u, 1e150)
    return (0.5 * np.log1p(v * v) + np.log(np.maximum(u, 1e150) / 1e150),
            np.arctan(u))


def _re_p(e: float, log1iu):
    """Re P(e, u), P(e, u) = [1 - (1 + iu)^(-e)] / e, from log(1 + iu).

    With z = -e log(1 + iu) = X + iY, 1 - exp(z) is minus the complex expm1
    expm1(X) cos Y - 2 sin^2(Y/2) + i e^X sin Y, which is free of
    cancellation at small u; P tends to log(1 + iu) as e -> 0.
    """
    l, a = log1iu
    if e == 0.0:
        return l
    X, Y = -e * l, -e * a
    return (2.0 * np.sin(0.5 * Y) ** 2 - np.expm1(X) * np.cos(Y)) / e


def _im_p(e: float, log1iu):
    """Im P(e, u) = e^X sin(e atan u) / e, see ``_re_p``."""
    l, a = log1iu
    if e == 0.0:
        return a
    return np.exp(-e * l) * np.sin(e * a) / e


def _ohmic_scale(j: Ohmic, what: str) -> float:
    """lam/4 Gamma(s), the prefactor of both Ohmic factors."""
    try:
        return 0.25 * j.coupling * math.gamma(j.s)
    except OverflowError:
        raise QuadratureFailure(
            f"Ohmic {what} at s={j.s}: Gamma(s) is not finite") from None


def ohmic_delta(j: Ohmic, t):
    """Exact Ohmic phase Delta(t) for any s > 0 (see the module docstring).

    t may be an array of times.  The bracket is Im P(e, x) - x; below the
    switch it is summed from the series sum_{m>=1} (-1)^m Gamma(s+2m)/Gamma(s)
    x^(2m+1)/(2m+1)!, free of cancellation.  A result beyond the float range
    (Gamma(s) overflows from s ~ 171) raises QuadratureFailure.
    """
    s, scale = j.s, _ohmic_scale(j, "Delta")
    with np.errstate(over="ignore", invalid="ignore"):
        x = j.omega_c * np.asarray(t, dtype=float)
        small = x < _ohmic_series_switch(s)
        xs = np.where(small, x, 0.0)
        term, series, m = xs, np.zeros_like(xs), 1
        while True:
            term = term * (-xs * xs * (s + 2 * m - 2) * (s + 2 * m - 1)
                           / ((2 * m) * (2 * m + 1)))
            series = series + term
            if np.all(np.abs(term) <= 1e-17 * np.abs(series)):
                break
            m += 1
        bracket = np.where(small, series, _im_p(s - 1.0, _log1iu(x)) - x)
        return _checked(scale * bracket, f"Ohmic Delta at s={s}")


def ohmic_gamma(j: Ohmic, beta: float, t):
    """Exact Ohmic dephasing exponent gamma(t) for any s > 0 and beta > 0.

    t may be an array of times.  With coth(beta w / 2) = 1 + 2 sum_n
    e^(-n beta w), x = w_c t, kappa = beta w_c, b_n = 1 + n kappa and
    e = s - 1,

        gamma = lam/4 Gamma(s) sum_{n>=0} w_n b_n^(-e) Re P(e, x / b_n),

    w_0 = 1, w_n = 2.  The first N = ``_COTH_DIRECT`` terms are summed
    directly, the rest by Euler-Maclaurin on f(n) = F(b_n) with
    F(b) = b^(-e) Re P(e, x/b).  With u = x/b,

        int_b^inf F = b^(1-e) Re[(1 + iu) P(e, u)] / (s - 2)
                    = b^(1-e) Re P(e - 1, u) / e    (used for s >= 1.5),
        F^(j)(b) = (-1)^j (e+1)(e+2)...(e+j) b^(-e-j) Re P(e + j, u).

    Since kappa / b_N < 1 / N, successive correction terms fall by a factor
    of about ((e + 2k) / (2 pi N))^2, so the work per time is fixed for
    every s, beta and t.  Memory is a few arrays of the grid size.
    """
    s, e, kappa = j.s, j.s - 1.0, beta * j.omega_c
    scale = _ohmic_scale(j, "gamma")
    with np.errstate(over="ignore", invalid="ignore"):
        x = j.omega_c * np.asarray(t, dtype=float)
        total = np.zeros_like(x)
        for n in range(_COTH_DIRECT):
            b = 1.0 + n * kappa
            total += (2.0 if n else 1.0) * b ** -e * _re_p(e, _log1iu(x / b))
        # tail is kept in units of b^(-e); the sum over n >= N starts with
        # int_N^inf f dn = int_b^inf F db / kappa
        b = 1.0 + _COTH_DIRECT * kappa
        u = x / b
        log1iu = _log1iu(u)
        ratio = kappa / b
        if s < 1.5:
            integral = (_re_p(e, log1iu) - u * _im_p(e, log1iu)) / (s - 2.0)
        else:
            integral = _re_p(e - 1.0, log1iu) / e
        tail = integral / ratio + 0.5 * _re_p(e, log1iu)
        rising = 1.0
        for k, coeff in enumerate(_EM_COEFFS):
            order = 2 * k + 1
            rising *= (e + order - 1.0) * (e + order) if k else e + 1.0
            tail = tail + coeff * rising * ratio ** order \
                * _re_p(e + order, log1iu)
        total += 2.0 * b ** -e * tail
        return _checked(scale * total, f"Ohmic gamma at s={s}")


class _Stalled(Exception):
    """Internal: a quadrature piece missed its tolerance."""


def _piece(result):
    if not result.converged:
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
    each other; ``factors`` never calls it.  It is a valid reference only
    for x = w_c t >= 0.1: sine - t * moment is O(x^2) times either part, so
    at smaller x the 1e-8 tolerance of each part does not carry to Delta.
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


def _worker_count() -> int:
    """Threads for a Lorentzian time array: DEPHASE_THREADS, 0 = auto."""
    raw = os.environ.get("DEPHASE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigError(f"DEPHASE_THREADS must be an integer >= 0, got {raw!r}")
    return n or min(os.cpu_count() or 1, 8)


def _lorentzian_point(j: Lorentzian, beta: float, t: float) -> DecoherenceFactors:
    if t == 0.0:
        return DecoherenceFactors(0.0, 0.0, False, Method.QUADRATURE)
    try:
        delta = float(min(_delta_lorentzian_by_quadrature(j, t), 0.0))
        if spectral.ir_exponent(j) <= 0.0:
            return DecoherenceFactors(math.inf, delta, True, Method.QUADRATURE)
        gamma = _gamma_by_quadrature(j, beta, t)
        return DecoherenceFactors(float(max(gamma, 0.0)), delta, False,
                                  Method.QUADRATURE)
    except _Stalled as exc:
        raise QuadratureFailure(
            f"decoherence factors for {type(j).__name__} at t={t}: {exc}") from exc


def factors(j: SpectralDensity, bc: BathConditions, t) -> DecoherenceFactors:
    """Decoherence factors at time t (builtin floats) or over a time array.

    Single-mode and Ohmic baths are exact over the whole array at once.
    Lorentzian quadratures run one time each on DEPHASE_THREADS worker
    threads (0 = auto, up to 8), bit-identical to the single-time calls for
    any thread count.  Every array call validates DEPHASE_THREADS.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise InvalidTime(f"t must be finite and >= 0, got {t}")
    workers = _worker_count() if t_arr.ndim else None
    if isinstance(j, SingleMode):
        return closed_form_single_mode(j.coupling, j.omega_c, bc.beta, t_arr)
    if isinstance(j, Ohmic):
        gamma = np.maximum(ohmic_gamma(j, bc.beta, t_arr), 0.0)
        delta = np.minimum(ohmic_delta(j, t_arr), 0.0)
        if not t_arr.ndim:
            gamma, delta = float(gamma), float(delta)
        return DecoherenceFactors(gamma, delta, False, Method.ANALYTIC_REDUCTION)

    if not t_arr.ndim:
        return _lorentzian_point(j, bc.beta, float(t_arr))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        dfs = list(pool.map(lambda t: _lorentzian_point(j, bc.beta, t),
                            t_arr.ravel().tolist()))
    shape = t_arr.shape
    return DecoherenceFactors(
        np.array([d.gamma for d in dfs], dtype=float).reshape(shape),
        np.array([d.delta for d in dfs], dtype=float).reshape(shape),
        np.array([d.gamma_divergent for d in dfs], dtype=bool).reshape(shape),
        Method.QUADRATURE)
