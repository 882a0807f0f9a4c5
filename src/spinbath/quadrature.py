"""Adaptive Gauss-Kronrod quadrature, and the quadrature references of the
decoherence factors.

``decoherence.factors`` is exact for every bath family and calls no
quadrature; this module holds the references that the tests check it
against, and no production path imports it.  It imports production code
(the guarded kernels and the tolerances of ``decoherence``), never the
reverse.  The old public names stay importable from ``spinbath`` and
``spinbath.decoherence``, which load this module on first use.

The engine integrates on [a, b] and [0, inf).  It is built for the bath
integrals of the references: oscillatory integrands (frequency set by the
evolution time t), exponentially or algebraically decaying envelopes, and
integrable endpoint behaviour at omega = 0.  The rule pair is open (no
panel endpoint is ever evaluated), so integrands may contain factors like
coth(beta*omega/2) that blow up at the origin as long as the full
integrand stays integrable.

The engine does not classify divergence.  It reports failure in one of two
ways: a result that misses its tolerance within the evaluation budget comes
back with ``converged`` False, and an integrand value outside the float
range (inf or nan) raises QuadratureFailure.  A divergent integral is one of
these two cases, whichever it reaches first; callers that need to know about
a divergence decide it from the integrand's analytic form beforehand.

The references (``ohmic_delta_by_quadrature``, ``_gamma_by_quadrature``,
``_delta_lorentzian_by_quadrature``) integrate guarded kernels:

* (1 - cos(w t)) / w^2 is evaluated as 2 sin^2(w t / 2) / w^2;
* coth(beta w / 2) switches to its Laurent form 2/(beta w) + beta w / 6
  for beta w < 1e-4;
* sin(w t) - w t switches to -(w t)^3/6 * (1 - (w t)^2/20) for w t < 1e-3.

Far beyond the bath cutoff the oscillatory component of each reference
integrand is dropped and replaced by its integration-by-parts bound
2 g(Omega) / t (g the decaying amplitude), which is folded into the error
budget; any remaining non-oscillatory tail is integrated on geometrically
growing panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .decoherence import _ABS_TOL, _REL_TOL, coth_half, sin_minus_wt
from .errors import QuadratureFailure
from .spectral import Lorentzian, Ohmic, SpectralDensity

__all__ = [
    "IntegrationRequest",
    "IntegrationResult",
    "integrate_on_interval",
    "integrate_semi_infinite",
    "ohmic_delta_by_quadrature",
    "ohmic_delta_s2_closed_form",
]

# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK dqk15).
# All nodes are interior; the rule never touches panel endpoints.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
# Gauss weights sit on the odd Kronrod nodes (indices 1, 3, ..., 13).
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_MAX_EVALS = 2_000_000
# curvature probes of the oscillatory-tail remainder, in units of its start
_TAIL_PROBES = np.array([1.0, 1.3, 1.7, 2.2, 3.0, 4.5, 6.0, 8.0])


@dataclass(frozen=True)
class IntegrationRequest:
    """One semi-infinite integral: integrand plus its scales and tolerances.

    ``t_scale`` is the dominant oscillation frequency in omega (the time
    argument of the decoherence kernels); ``cutoff_scale`` the decay or
    resonance scale of the envelope (e.g. the bath cutoff omega_c).
    """

    integrand: Callable[[np.ndarray], np.ndarray]
    t_scale: float = 0.0
    cutoff_scale: float = 1.0
    rel_tol: float = _REL_TOL
    abs_tol: float = _ABS_TOL
    max_evals: int = _MAX_EVALS

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.t_scale < 0.0:
            raise ValueError(f"t_scale must be >= 0, got {self.t_scale}")
        if self.cutoff_scale <= 0.0:
            raise ValueError(f"cutoff_scale must be > 0, got {self.cutoff_scale}")
        if self.max_evals <= 0:
            raise ValueError(f"max_evals must be positive, got {self.max_evals}")


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evals: int
    converged: bool


def _panel_sums(f, lo, hi):
    """Kronrod estimate and error per panel [lo_i, hi_i].

    One call to ``f`` on the flattened node array regardless of panel count;
    ``f`` must map an array of nodes to an array of the same shape.
    The error estimate follows QUADPACK: |K - G| rescaled against the
    integral of |f - mean|, which stays honest on panels holding endpoint
    power laws where the raw rule difference is deceptively small.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        bad = x.ravel()[~np.isfinite(y.ravel())][:1]
        raise QuadratureFailure(
            f"integrand not finite at omega={float(bad[0]):.17g}")
    kron = h * (y @ _WK)
    gauss = h * (y[:, _GAUSS_IDX] @ _WG)
    diff = np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = kron / np.where(hi > lo, hi - lo, 1.0)
        resasc = h * (np.abs(y - mean[:, None]) @ _WK)
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * diff /
                                                    np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                          diff)
    err = np.where(resasc > 0.0, np.maximum(scaled, diff), diff)
    return kron, err, x.size


def _adaptive(f, edges, rel_tol, abs_tol, max_evals, evals_used=0):
    """Globally adaptive refinement of an initial panel list.

    Splits the smallest set of worst panels covering 90% of the error
    estimate each round, so refinement stays vectorized.  Returns
    (value, error, evals, converged).
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0, 0.0, evals_used, True
    vals, errs, n = _panel_sums(f, lo, hi)
    evals = evals_used + n
    while True:
        total = float(np.sum(vals))
        err = float(np.sum(errs))
        target = max(abs_tol, rel_tol * abs(total))
        if err <= target:
            return total, err, evals, True
        if evals >= max_evals:
            return total, err, evals, False
        # split the dominant panels; skip those too narrow to bisect
        mid = 0.5 * (lo + hi)
        splittable = (mid > lo) & (mid < hi)
        if not np.any(splittable & (errs > 0)):
            return total, err, evals, False
        order = np.argsort(np.where(splittable, errs, -1.0))[::-1]
        cum = np.cumsum(errs[order])
        k = int(np.searchsorted(cum, 0.9 * err)) + 1
        sel = order[:k]
        sel = sel[splittable[sel]]
        if sel.size == 0:
            return total, err, evals, False
        m = mid[sel]
        new_lo = np.concatenate([lo[sel], m])
        new_hi = np.concatenate([m, hi[sel]])
        nv, ne, n = _panel_sums(f, new_lo, new_hi)
        evals += n
        mask = np.ones(lo.size, dtype=bool)
        mask[sel] = False
        lo = np.concatenate([lo[mask], new_lo])
        hi = np.concatenate([hi[mask], new_hi])
        vals = np.concatenate([vals[mask], nv])
        errs = np.concatenate([errs[mask], ne])


def integrate_on_interval(integrand, a: float, b: float,
                          rel_tol: float = _REL_TOL,
                          abs_tol: float = _ABS_TOL,
                          *,
                          max_panel_width: float | None = None,
                          features: Sequence[tuple[float, float]] = (),
                          max_evals: int = _MAX_EVALS,
                          origin_grading: int = 0) -> IntegrationResult:
    """Adaptive integral of ``integrand`` over the finite interval [a, b].

    The rule is open, so ``a`` and ``b`` themselves are never evaluated and
    integrable endpoint singularities (e.g. omega**-1/2) are refined toward
    automatically.  ``max_panel_width`` caps the initial panel size (use
    pi/t for an integrand oscillating like cos(omega*t)); ``features`` lists
    (center, halfwidth) pairs of narrow structures that the initial panels
    must resolve, e.g. a sharp spectral resonance.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = _build_edges(a, b, max_panel_width, features,
                         origin_grading=origin_grading)
    return IntegrationResult(*_adaptive(integrand, edges, rel_tol, abs_tol,
                                        max_evals))


def _build_edges(a, b, max_panel_width, features,
                 origin_grading: int = 0, geometric: bool = False):
    """Initial panel edges on [a, b].

    Uniform width-capped panels when ``max_panel_width`` is set, otherwise a
    single panel (or geometric growth from ``a`` for long decaying tails).
    ``origin_grading`` dyadically subdivides the first panel so the adaptive
    loop sees endpoint power laws immediately.
    """
    if max_panel_width is not None and max_panel_width > 0:
        n = int(np.ceil((b - a) / max_panel_width))
        n = max(n, 1)
        edges = np.linspace(a, b, n + 1)
    elif geometric and a > 0:
        w = a / 2.0
        pts = [a]
        while pts[-1] < b:
            pts.append(min(pts[-1] + w, b))
            w *= 2.0
        edges = np.array(pts)
    else:
        edges = np.linspace(a, b, 9)

    extra = []
    for center, halfwidth in features:
        if halfwidth <= 0:
            continue
        flo = max(a, center - 8.0 * halfwidth)
        fhi = min(b, center + 8.0 * halfwidth)
        if fhi <= flo:
            continue
        step = halfwidth / 2.0
        extra.append(np.arange(flo, fhi + step, step))
    if origin_grading > 0 and edges[0] == a:
        first = edges[1] - a
        extra.append(a + first * 2.0 ** -np.arange(1, origin_grading + 1))
    if extra:
        edges = np.unique(np.concatenate([edges] + extra))
        edges = edges[(edges >= a) & (edges <= b)]
        if edges[0] != a:
            edges = np.concatenate([[a], edges])
        if edges[-1] != b:
            edges = np.concatenate([edges, [b]])
    return edges


def _probe_envelope(f, lo, hi, n=48):
    """Max |f| over an oscillation-blind probe comb on [lo, hi]."""
    # irrational stride so probes cannot all land on zeros of a sinusoid
    u = (np.arange(1, n + 1) * 0.6180339887498949) % 1.0
    x = lo + (hi - lo) * np.sort(u)
    y = np.asarray(f(x), dtype=float)
    y = np.where(np.isfinite(y), np.abs(y), np.inf)
    return float(np.max(y)), n


def _truncation_scan(f, cutoff, abs_tol, max_evals):
    """Smallest omega_max = k*cutoff (k doubling from 8) with negligible tail.

    The tail bound max|f| * omega_max is exact for 1/omega**2 envelopes and
    conservative for anything faster.  A scan that runs out of octaves or
    evaluations returns its last, non-negligible bound, which the caller
    folds into the error estimate.
    """
    evals = 0
    k = 8.0
    while True:
        omega_max = k * cutoff
        env, n = _probe_envelope(f, omega_max, 2.0 * omega_max)
        evals += n
        tail_bound = env * omega_max
        # claim at most 40% of the absolute budget, leaving room for panels
        if (tail_bound < 0.4 * abs_tol or evals >= max_evals
                or k > 2 ** 40):
            return omega_max, tail_bound, evals
        k *= 2.0


def integrate_semi_infinite(req: IntegrationRequest,
                            *,
                            lower: float = 0.0,
                            features: Sequence[tuple[float, float]] = ()) -> IntegrationResult:
    """Integral of ``req.integrand`` over [lower, inf), default [0, inf).

    Panels are capped at half an oscillation period (pi/t_scale) when
    ``t_scale`` > 0 and extend to a truncation point found by doubling out
    from 8*cutoff_scale until the envelope tail is negligible; the dropped
    tail bound is folded into ``error_estimate``.  A tail that never becomes
    negligible or panels that never meet the tolerance give
    ``converged=False``.  A divergent integral is not recognised as such: it
    ends unconverged, or in QuadratureFailure when refinement toward the
    origin reaches an integrand beyond the float range.
    """
    f = req.integrand
    omega_max, tail_bound, evals = _truncation_scan(
        f, max(req.cutoff_scale, lower / 4.0 if lower > 0 else req.cutoff_scale),
        req.abs_tol, req.max_evals)

    if req.t_scale > 0:
        width = min(np.pi / req.t_scale, req.cutoff_scale / 4.0)
        # never lay down more initial panels than the evaluation budget allows
        min_width = (omega_max - lower) * 15.0 / max(req.max_evals - evals, 15)
        width = max(width, min_width)
    else:
        width = None

    if lower <= 0.0:
        edges = _build_edges(0.0, omega_max, width, features,
                             origin_grading=40)
    else:
        edges = _build_edges(lower, omega_max, width, features,
                             geometric=True)

    value, err, evals, ok = _adaptive(f, edges, 0.5 * req.rel_tol,
                                      0.5 * req.abs_tol, req.max_evals,
                                      evals_used=evals)
    err += tail_bound
    ok = ok and err <= max(req.abs_tol, req.rel_tol * abs(value))
    return IntegrationResult(value, err, evals, ok)


def ohmic_delta_s2_closed_form(coupling: float, omega_c: float, t: float) -> float:
    """Elementary antiderivative of the s = 2 Ohmic phase integral.

    Delta(t) = coupling/(4 omega_c) * [t/(t^2 + omega_c^-2) - omega_c^2 t].
    Kept as an independent cross-check of the quadrature reference.
    """
    return coupling / (4.0 * omega_c) * (t / (t * t + omega_c ** -2.0)
                                         - omega_c * omega_c * t)


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
