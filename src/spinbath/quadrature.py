"""Adaptive Gauss-Kronrod quadrature on [a, b] and [0, inf).

Built for the bath integrals this package needs: oscillatory integrands
(frequency set by the evolution time t), exponentially or algebraically
decaying envelopes, and integrable endpoint behaviour at omega = 0.  The
rule pair is open (no panel endpoint is ever evaluated), so integrands may
contain factors like coth(beta*omega/2) that blow up at the origin as long
as the full integrand stays integrable.

Divergence is detected rather than produced: panels shrinking dyadically
toward omega = 0 whose contributions stop decaying flag an infrared
divergence, and a truncation scan that never finds a decaying tail flags an
ultraviolet one.  Either sets ``IntegrationResult.diverged``.  An integrand
value outside the float range (inf or nan) raises QuadratureFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "IntegrationRequest",
    "IntegrationResult",
    "integrate_on_interval",
    "integrate_semi_infinite",
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

_DEFAULT_REL_TOL = 1e-8
_DEFAULT_ABS_TOL = 1e-12
_DEFAULT_MAX_EVALS = 2_000_000

# Dyadic-panel decay ratio at or above which the origin scan declares an
# infrared divergence.  Integrands ~ omega**(s-1) decay with ratio 2**-s,
# so power laws with s < ~0.044 would be misclassified; the baths handled
# here sit either at s >= 0.1 (convergent) or exactly at 1/omega (divergent).
_DIVERGENCE_RATIO = 0.97
_ORIGIN_LEVELS = 48
_DIVERGENCE_RUN = 6


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
    rel_tol: float = _DEFAULT_REL_TOL
    abs_tol: float = _DEFAULT_ABS_TOL
    max_evals: int = _DEFAULT_MAX_EVALS

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
    diverged: bool


def _vectorized(f):
    """Accept both vectorized and scalar integrands (decided on first call)."""
    state = {"vec": True}

    def call(x):
        if state["vec"]:
            try:
                y = np.asarray(f(x), dtype=float)
                if y.shape == x.shape:
                    return y
            except (TypeError, ValueError):
                pass
            state["vec"] = False
        return np.fromiter((float(f(xi)) for xi in x), dtype=float, count=x.size)

    return call


def _panel_sums(f, lo, hi):
    """Kronrod estimate and error per panel [lo_i, hi_i].

    One call to ``f`` on the flattened node array regardless of panel count.
    The error estimate follows QUADPACK: |K - G| rescaled against the
    integral of |f - mean|, which stays honest on panels holding endpoint
    power laws where the raw rule difference is deceptively small.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _XK[None, :]
    y = f(x.ravel()).reshape(x.shape)
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
                          rel_tol: float = _DEFAULT_REL_TOL,
                          abs_tol: float = _DEFAULT_ABS_TOL,
                          *,
                          max_panel_width: float | None = None,
                          features: Sequence[tuple[float, float]] = (),
                          max_evals: int = _DEFAULT_MAX_EVALS,
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
    f = _vectorized(integrand)
    edges = _build_edges(a, b, max_panel_width, features,
                         origin_grading=origin_grading)
    value, err, evals, ok = _adaptive(f, edges, rel_tol, abs_tol, max_evals)
    return IntegrationResult(value, err, evals, ok, False)


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
    y = f(x)
    y = np.where(np.isfinite(y), np.abs(y), np.inf)
    return float(np.max(y)), n


def _truncation_scan(f, cutoff, abs_tol, max_evals):
    """Smallest omega_max = k*cutoff (k doubling from 8) with negligible tail.

    The tail bound max|f| * omega_max is exact for 1/omega**2 envelopes and
    conservative for anything faster.  A tail whose octave estimates never
    decay marks an ultraviolet divergence.
    """
    evals = 0
    k = 8.0
    prev_estimates = []
    while True:
        omega_max = k * cutoff
        env, n = _probe_envelope(f, omega_max, 2.0 * omega_max)
        evals += n
        tail_bound = env * omega_max
        prev_estimates.append(env * omega_max)
        # claim at most 40% of the absolute budget, leaving room for panels
        if tail_bound < 0.4 * abs_tol:
            return omega_max, tail_bound, evals, False
        if len(prev_estimates) >= 5:
            recent = prev_estimates[-5:]
            if all(later >= 0.97 * earlier
                   for earlier, later in zip(recent, recent[1:])):
                return omega_max, tail_bound, evals, True
        if evals >= max_evals or k > 2 ** 40:
            return omega_max, tail_bound, evals, True
        k *= 2.0


def _origin_scan(f, a0, abs_tol):
    """Infrared divergence test on dyadic panels [a0/2**(k+1), a0/2**k].

    Contributions of an integrable integrand decay geometrically toward the
    origin; sustained non-decay over _DIVERGENCE_RUN consecutive levels
    (ratio >= _DIVERGENCE_RATIO) marks a divergence, as for J ~ const under
    the 2/(beta*omega) thermal weight.
    """
    ks = np.arange(_ORIGIN_LEVELS)
    hi = a0 * 2.0 ** -ks
    lo = hi / 2.0
    vals, _, n = _panel_sums(f, lo, hi)
    mags = np.abs(vals)
    floor = max(abs_tol * 2.0 ** -10, 1e-300)
    run = 0
    for k in range(1, _ORIGIN_LEVELS):
        if mags[k] >= _DIVERGENCE_RATIO * mags[k - 1] and mags[k] > floor:
            run += 1
            if run >= _DIVERGENCE_RUN:
                return True, n
        else:
            run = 0
    return False, n


def integrate_semi_infinite(req: IntegrationRequest,
                            *,
                            lower: float = 0.0,
                            features: Sequence[tuple[float, float]] = ()) -> IntegrationResult:
    """Integral of ``req.integrand`` over [lower, inf), default [0, inf).

    Panels are capped at half an oscillation period (pi/t_scale) when
    ``t_scale`` > 0 and extend to a truncation point found by doubling out
    from 8*cutoff_scale until the envelope tail is negligible; the dropped
    tail bound is folded into ``error_estimate``.  Infrared divergence at
    the origin and a non-decaying tail both return ``diverged=True`` with
    no exception, so callers can classify rather than crash.
    """
    f = _vectorized(req.integrand)
    evals = 0

    omega_max, tail_bound, n, tail_div = _truncation_scan(
        f, max(req.cutoff_scale, lower / 4.0 if lower > 0 else req.cutoff_scale),
        req.abs_tol, req.max_evals)
    evals += n
    if tail_div:
        return IntegrationResult(np.inf, np.inf, evals, False, True)

    if req.t_scale > 0:
        width = min(np.pi / req.t_scale, req.cutoff_scale / 4.0)
        # never lay down more initial panels than the evaluation budget allows
        min_width = (omega_max - lower) * 15.0 / max(req.max_evals - evals, 15)
        width = max(width, min_width)
    else:
        width = None

    if lower <= 0.0:
        a0 = width if width is not None else req.cutoff_scale / 4.0
        a0 = min(a0, omega_max / 2.0)
        diverged, n = _origin_scan(f, a0, req.abs_tol)
        evals += n
        if diverged:
            return IntegrationResult(np.inf, np.inf, evals, False, True)
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
    return IntegrationResult(value, err, evals, ok, False)
