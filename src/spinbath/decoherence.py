"""Decoherence factors gamma(t) and Delta(t) for a bath spectral density.

For a bath in thermal equilibrium at inverse temperature beta the two spins
acquire, elementwise on the density matrix, a dephasing exponent and an
induced Ising phase

    gamma(t) = 1/4 * int_0^inf J(w) (1 - cos(w t)) / w^2 * coth(beta w / 2) dw
    Delta(t) = 1/4 * int_0^inf J(w) (sin(w t) - w t) / w^2 dw

with gamma >= 0 and Delta <= 0 for all t >= 0.  ``factors`` takes a time or
a time array for every bath and runs one body for all of them; a table
(``_KERNELS``) gives each family's kernel, exact over an array of times:
closed form for the single-mode bath, Gamma-function forms of both Ohmic
factors (any s > 0), and partial fractions with the exponential integral
for both Lorentzian factors.
A Lorentzian bath with n = 0 makes gamma infrared-divergent (J tends to a
constant and the thermal weight contributes 1/w): ``factors`` returns
gamma = +inf there, instantaneous total dephasing, and ``evolve`` reads the
divergence from that value alone.  The quadrature references of both
factors, which only the tests use, live in ``spinbath.quadrature``, which
no production module imports.

Both Ohmic factors reduce, with x = w_c t and e = s - 1, to the function

    P(e, u) = [1 - (1 + iu)^(-e)] / e,

which tends to log(1 + iu) at s = 1 and is evaluated through a complex
expm1, free of cancellation at small u.  The phase is

    Delta = lam/4 * Gamma(s) * [Im P(e, x) - x]
          = lam/4 * [Gamma(s-1) sin(e atan x) (1 + x^2)^(-e/2) - Gamma(s) x];

for small x the two terms cancel, and the bracket is summed from its Taylor
series instead.  The dephasing exponent follows from coth(beta w / 2) =
1 + 2 sum_m e^(-m beta w) (Palma, Suominen & Ekert 1996; Reina, Quiroga &
Johnson 2002) as a sum over b_m = 1 + m beta w_c (``ohmic_gamma``),

    gamma = lam/4 * Gamma(s) * sum_m w_m b_m^(-e) Re P(e, x / b_m).

The Lorentzian J/w^2 = (lam q / pi) w^(n-2) / D, with D(w) = (w^2 - w_c^2)^2
+ q^2 w^2 = prod_k (w - p_k), splits into partial fractions over the poles
p = +-Omega +- iq/2, Omega^2 = w_c^2 - q^2/4 (imaginary when overdamped):
w^s / D = sum_k c_k p_k^s / (w - p_k), c_k = 1/D'(p_k), plus tau_0 / w^-s
(tau_0 = 1/w_c^4) for s = n - 2 < 0.  Every integral then reduces to

    I(a, p) = int_0^inf e^(-aw) / (w - p) dw = e^(-ap) E1(-ap),

plus 2 pi i e^(-ap) when the ray -ap + aw crosses the negative real axis,
with e^z E1(z) summed in numpy (``_phi``; Abramowitz & Stegun 5.1.11 and
5.1.22, Amos, ACM TOMS 16, 178 (1990)).  The phase is one pole sum per
time, and the dephasing exponent takes the coth series of the Ohmic one,
gamma = lam q/(4 pi) [F(0) + 2 sum_{m>=1} F(m beta)] with

    F(b) = sum_k c_k p_k^s [I(b, p_k) - I(b - it, p_k)/2 - I(b + it, p_k)/2]
           + tau_0 log(1 + t^2/b^2) / 2    [n = 1];

n = 0 leaves gamma divergent.  The Euler-Maclaurin tail needs
F^(j)(b) = (-1)^j int w^j e^(-bw) J/w^2 (1 - cos wt) dw, pole sums of the
same kind (``_lorentz_sums``).  For b > 0 each pole's bracket is its limit
at p -> 0 plus terms in phi(z) = e^z E1(z) + gamma_E + log z, which
vanishes at z = 0, and the limits are summed over the poles exactly; once
b |p| >= 40 a pole's term comes from its asymptotic series in 1/(bp)
instead, where its polynomial part would cancel it.  A pole with
|p| sqrt(b^2 + t^2) < 1 takes the power series of the three phi at 0, whose
log z0 parts cancel there exactly (``_coth_bracket``).  At b = 0 a pole
with t |p| < 1 takes its power series in z = itp, its terms linear in z
summed over the poles exactly (``_lorentz_origin``).  So nothing cancels as
t |p| or b |p| goes to zero (short times, strong overdamping).

Both families sum the coth series alike (``_coth_series``): its first N - 1
terms directly, the rest by Euler-Maclaurin at m = N, each term and each
correction one row (``_COTH_ROWS``) of an array over the times.  Each term
is completely monotone in m, so the first dropped Euler-Maclaurin term
bounds the remainder for every bath, and N = 12 keeps it below 2^-53 of
gamma (``_coth_cut``).  ``factors`` makes a family's kernel once per call,
which does there what does not depend on t (for the Lorentzian bath, a
plan of the coth rows' power loop), and takes the times t > 0 through it in
blocks of ``_BLOCK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .errors import InvalidTime, QuadratureFailure
from .spectral import Lorentzian, Ohmic, SingleMode, SpectralDensity

__all__ = [
    "BathConditions",
    "DecoherenceFactors",
    "coth_half",
    "factors",
    "ohmic_delta",
    "ohmic_gamma",
    "sin_minus_wt",
]

#: the tolerances a run reports, which the quadrature references hold
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_COTH_SWITCH = 1e-4
_SIN_SWITCH = 1e-3
#: B_2k / (2k)!, k = 1..6: the Euler-Maclaurin weights of the tail
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
              1.0 / 47900160.0, -691.0 / 1307674368000.0)
#: B_14 / 14!, the weight of the first term the tail drops
_EM_DROPPED = 7.0 / 6.0 / math.factorial(14)
#: the relative remainder of the coth series that ``_coth_cut`` allows
_EM_TOL = 2.0 ** -53


def _coth_cut(tol: float = _EM_TOL) -> int:
    """The least N whose Euler-Maclaurin remainder is at most tol of gamma.

    For both families each coth term is f(m) = int_0^inf g(w) e^(-m beta w)
    dw with g >= 0 (J(w) (1 - cos wt) / w^2, for the Ohmic bath with its
    cutoff e^(-w/w_c)), so f is completely monotone in m: (-1)^j f^(j) >= 0.
    Then the tail's remainder after its six corrections lies between 0 and
    the first dropped term, B_14/14! f^(13)(N) (Graham, Knuth & Patashnik,
    Concrete Mathematics, sec. 9.5).  Since (beta w)^14 e^(-N beta w) <=
    (14 / (e N))^14, |f^(13)(N)| <= (14 / (e N))^14 int_0^inf f dm, and the
    convex f has int_0^inf f <= f(0)/2 + sum_{m>=1} f(m) = T/2 (the
    trapezoid rule), where T = f(0) + 2 sum_{m>=1} f(m).  So the series T
    is off by at most |B_14/14!| (14 / (e N))^14 T for every bath, beta and
    t, and one N serves every bath of both families: 12 for tol = 2^-53.
    """
    n = 1
    while _EM_DROPPED * (14.0 / (math.e * n)) ** 14 > tol:
        n += 1
    return n


def _coth_rows(n: int):
    """The rows (m, j) of a coth series cut at N = n (``_coth_series``):
    the direct terms m = 1..N-1 (j = 0), then at m = N the Euler-Maclaurin
    integral (j = -1), edge (j = 0) and odd derivatives (j = 1, 3, ...,
    11)."""
    return np.array([(m, 0) for m in range(1, n)]
                    + [(n, j) for j in (-1, 0, *range(1, 2 * len(_EM_COEFFS),
                                                     2))]).T


#: Ohmic and Lorentzian gamma: coth-series terms below this index are
#: summed directly, the rest by Euler-Maclaurin, in the rows
#: ``_COTH_ROWS``
_COTH_DIRECT = _coth_cut()
_COTH_ROWS = _coth_rows(_COTH_DIRECT)
_EULER_GAMMA = 0.5772156649015329
#: e^z E1(z): power series below |z| + Re z = 4, asymptotic series (30
#: terms) from |z| = 40, continued fraction (depth 50) in between
_E1_SERIES = 4.0
_E1_ASYMPTOTIC = 40.0
_E1_ASYMPTOTIC_TERMS = 30
_E1_CF_DEPTH = 50
#: Lorentzian coth-series term at b: a pole's asymptotic series once
#: b |p| >= this
_ASYMPTOTIC_SWITCH = 40.0
#: Lorentzian coth-series bracket of a pole with |p| sqrt(b^2 + t^2) < 1
#: and t > b/4: terms of its power series at 0 (``_coth_bracket``)
_BRACKET_TERMS = 19
#: Lorentzian gamma head and Delta: series terms z^m / m!, m < this, for a
#: pole with t |p| < 1
_ORIGIN_SERIES_TERMS = 24
#: |Omega^2| / w_c^2 below this squared is interpolated across critical damping
_CRITICAL = 1e-4
#: largest q / w_c evaluated (``_lorentzian``)
_MAX_OVERDAMPING = 1e7
#: times per block of ``factors``, which bounds the (row, time) work arrays
#: of the coth-series passes (Lorentzian: the (row, pole, time) pole parts
#: and the (term, time) products of the power loop, about 13 MB in all at
#: 4096 times for the Lorentzian presets)
_BLOCK = 4096


@dataclass(frozen=True)
class BathConditions:
    """Thermal state of the bath; beta = 1/T (a float) in natural units."""

    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class DecoherenceFactors:
    """gamma >= 0 dephases coherences, delta <= 0 is the Ising phase.

    ``gamma`` is +inf where the dephasing diverges (an n = 0 Lorentzian bath
    at every t > 0, not at t = 0); downstream evolution then zeroes every
    coherence between different magnetization sectors.  ``factors`` fills
    both fields alike for every bath family: floats for one time, or arrays
    of the shape of a time array.
    """

    gamma: float
    delta: float


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


def _single_mode(j: SingleMode, beta: float, t):
    """Exact (gamma, Delta) for J(w) = lam delta(w - w_c) over times t."""
    wc2 = j.omega_c * j.omega_c
    gamma = 0.5 * j.coupling * np.sin(0.5 * j.omega_c * t) ** 2 / wc2 \
        * coth_half(beta, j.omega_c)
    return gamma, 0.25 * j.coupling * sin_minus_wt(j.omega_c, t) / wc2


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


def _re_p(e, log1iu):
    """Re P(e, u), P(e, u) = [1 - (1 + iu)^(-e)] / e, from log(1 + iu).

    With z = -e log(1 + iu) = X + iY, 1 - exp(z) is minus the complex expm1
    expm1(X) cos Y - 2 sin^2(Y/2) + i e^X sin Y, which is free of
    cancellation at small u; P tends to log(1 + iu) as e -> 0.  ``e`` is a
    number or an array of orders that broadcasts against u.
    """
    l, a = log1iu
    if not np.ndim(e) and e == 0.0:
        return l
    X, Y = -e * l, -e * a
    # (2 sin^2(Y/2) - expm1(X) cos Y) / e, in place
    p = np.multiply(0.5, Y)
    np.square(np.sin(p, out=p), out=p)
    np.multiply(2.0, p, out=p)
    np.multiply(np.expm1(X, out=X), np.cos(Y, out=Y), out=X)
    np.divide(np.subtract(p, X, out=p), e, out=p)
    return np.where(e == 0.0, l, p) if np.ndim(e) else p


def _im_p(e: float, log1iu):
    """Im P(e, u) = e^X sin(e atan u) / e, see ``_re_p``."""
    l, a = log1iu
    if e == 0.0:
        return a
    return np.exp(-e * l) * np.sin(e * a) / e


def _ohmic_scale(j: Ohmic, what: str) -> float:
    """lam/4 Gamma(s), the prefactor of both Ohmic factors."""
    try:
        scale = 0.25 * j.coupling * math.gamma(j.s)
    except OverflowError:
        scale = math.inf
    return _checked(scale, f"Ohmic {what} at s={j.s}: lam/4 Gamma(s)")


def ohmic_delta(j: Ohmic, t):
    """Exact Ohmic phase Delta(t) for any s > 0 (see the module docstring).

    t may be an array of times; ``factors`` checks the result.  The bracket
    is Im P(e, x) - x; below the switch it is summed from the series
    sum_{m>=1} (-1)^m Gamma(s+2m)/Gamma(s) x^(2m+1)/(2m+1)!, free of
    cancellation.  A prefactor lam/4 Gamma(s) beyond the float range
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
        return scale * bracket


def _coth_series(head, rows):
    """head + 2 sum_{m>=1} f(m) from the rows of a coth series
    (``_coth_rows``).

    The rows are the direct terms f(m), m < N, added one by one in the
    order of m, then the Euler-Maclaurin tail at N: the integral
    int_N^inf f, the edge f(N) and -f^(j)(N) for odd j, with
    sum_{m>=N} f(m) = int_N^inf f + f(N)/2 - sum_k B_2k/(2k)! f^(2k-1)(N)
    up to the remainder that ``_coth_cut`` bounds.  N is read from the
    number of rows.
    """
    direct = len(rows) - 2 - len(_EM_COEFFS)
    total = head
    for row in rows[:direct]:
        total = total + 2.0 * row
    integral, edge, *odd = rows[direct:]
    tail = integral + 0.5 * edge
    for coeff, deriv in zip(_EM_COEFFS, odd):
        tail = tail + coeff * deriv
    return total + 2.0 * tail


def _ohmic_rows(s: float, kappa: float, x, rows):
    """(f(0), the rows ``rows`` = (m, j) of the Ohmic coth series) at the
    1-d array x = w_c t, with kappa = beta w_c (see ``ohmic_gamma``)."""
    e = s - 1.0
    m, lift = rows
    at_n = np.flatnonzero(lift)            # the rows j != 0, all at m = N
    i = lift[at_n]
    integral = i == -1
    b = 1.0 + np.arange(m.max() + 1) * kappa
    l, a = _log1iu(x / b[:, None])
    f = (b ** -e)[:, None] * _re_p(e, (l, a))      # f(m), m = 0..N
    bn, ratio = b[-1], kappa / b[-1]
    order = e + np.where(integral & (s < 1.5), 0, i)
    lifted = _re_p(order[:, None], (l[-1], a[-1]))
    if s < 1.5:
        lifted[integral] -= x / bn * _im_p(e, (l[-1], a[-1]))
    rising = [math.prod(e + k for k in range(1, q + 1)) for q in i]
    weight = bn ** -e * ratio ** np.maximum(i, 0) * rising
    weight[integral] /= (s - 2.0) if s < 1.5 else e
    lifted *= weight[:, None]
    # (kappa/b)^-1 as a division: it may overflow where the row is tiny
    lifted[integral] /= ratio
    out = f[m]
    out[at_n] = lifted
    return f[0], out


def ohmic_gamma(j: Ohmic, beta: float, t):
    """Exact Ohmic dephasing exponent gamma(t) for any s > 0 and beta > 0.

    t may be an array of times; ``factors`` checks the result.  With
    x = w_c t, kappa = beta w_c, b_m = 1 + m kappa, e = s - 1 and u = x/b,
    gamma = lam/4 Gamma(s) [f(0) + 2 sum_{m>=1} f(m)] (``_coth_series``)
    with f(m) = F(b_m), F(b) = b^(-e) Re P(e, u).  Its row (m, j),

        (kappa/b)^j (e+1)...(e+j) b^(-e) Re P(e + j, u)  at b = b_m,

    is (-1)^j f^(j)(m) for j >= 0, and for j = -1, with 1/e in place of the
    product, int_m^inf f = int_b^inf F db / kappa, from

        int_b^inf F = b^(1-e) Re P(e - 1, u) / e    (used for s >= 1.5)
                    = b^(1-e) Re[(1 + iu) P(e, u)] / (s - 2).

    The series is cut at N = ``_COTH_DIRECT``, whose remainder bound
    (``_coth_cut``) holds for every s, beta and t, so the work per time is
    fixed.  f(m), m = 0..N, are one array pass, and the rows j != 0, all at
    b_N, a second (``_ohmic_rows``); log(1 + iu) is taken once per b_m.
    """
    scale = _ohmic_scale(j, "gamma")
    x = j.omega_c * np.ravel(np.asarray(t, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        head, rows = _ohmic_rows(j.s, beta * j.omega_c, x, _COTH_ROWS)
        return scale * _coth_series(head, rows).reshape(np.shape(t))


def _phi(z):
    """phi(z) = e^z E1(z) + gamma_E + log z for complex z, principal branch.

    phi is e^z E1(z) less its logarithmic singularity at z = 0, where it
    vanishes like -z log z.  On the cut z < 0, E1 takes the value from
    above, E1(-x) = -Ei(x) - i pi (as mpmath does).  Where |z| + Re z < 4,
    which bounds the cancellation of the series by e^4, phi is summed as
    e^z Ein(z) - expm1(z) (gamma_E + log z) with Ein(z) = sum_k (-1)^(k+1)
    z^k / (k k!); from |z| = 40 e^z E1(z) comes from its asymptotic series
    sum_k (-1)^k k! / z^(k+1), and in between from the even continued
    fraction 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))) (Abramowitz &
    Stegun 5.1.11 and 5.1.22; Amos, ACM TOMS 16, 178 (1990)).  Each element
    stops its series on its own terms, so a value does not depend on the
    rest of the array.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    r = np.abs(z)
    far = r >= _E1_ASYMPTOTIC
    near = ~far & (r + z.real < _E1_SERIES)
    mid = ~far & ~near
    if far.any():
        w = 1.0 / z[far]
        h = np.ones_like(w)
        for k in range(_E1_ASYMPTOTIC_TERMS - 1, 0, -1):
            h = 1.0 - k * w * h
        out[far] = w * h + _EULER_GAMMA + np.log(z[far])
    if near.any():
        zs = z[near]
        total = np.empty_like(zs)
        # the elements still summing: their places, terms, sums and z
        live, term, sums, z_live = np.arange(zs.size), zs, zs, zs
        k = 1
        while live.size:
            k += 1
            term = term * z_live * ((1.0 - k) / (k * k))
            sums = sums + term
            going = np.abs(term) > 1e-17 * np.abs(sums)
            if not going.all():
                total[live[~going]] = sums[~going]
                live, term, sums, z_live = (x[going] for x in
                                            (live, term, sums, z_live))
        out[near] = np.exp(zs) * total \
            - np.expm1(zs) * (_EULER_GAMMA + np.log(zs))
    if mid.any():
        zc = z[mid]
        tail = np.zeros_like(zc)
        for k in range(_E1_CF_DEPTH, 0, -1):
            tail = k * k / (zc + (2 * k + 1) - tail)
        out[mid] = 1.0 / (zc + 1.0 - tail) + _EULER_GAMMA + np.log(zc)
    return out


def _crossing_ray(b, t, p):
    """-ap for a = b - it, and where that ray crosses the negative real axis.

    I(a, p) = int_0^inf e^(-aw) / (w - p) dw = e^(-ap) E1(-ap), plus
    2 pi i e^(-ap) when the ray -ap + aw (w >= 0) crosses the negative real
    axis.  With Im p > 0 (the upper poles, one per row of the result) that
    happens only for a = b - it with t Re p >= b Im p; a start on the axis
    itself (b = 0, Re p = 0) counts, since E1 takes the value from above
    there and the ray runs below.  Every crossing has Re(-ap) <= -b |p|.
    ``b`` is a number or a column (one b per pole of ``p``); either way the
    arrays are (pole, time).
    """
    pr, pi_ = p.real[:, None], p.imag[:, None]
    im = t * pr - b * pi_ + 0.0   # + 0.0: never -0.0, which would flip the cut
    return (-b * pr - t * pi_) + 1j * im, im >= 0.0


def _rays(b, t, p):
    """-ap for a = b - it and a = b + it, and where the first ray crosses
    (``_crossing_ray``)."""
    z_minus, cross = _crossing_ray(b, t, p)
    pr, pi_ = p.real[:, None], p.imag[:, None]
    return z_minus, (t * pi_ - b * pr) - 1j * (t * pr + b * pi_), cross


class _LorentzParts:
    """Partial fractions of J/w^2 for the Lorentzian, from its poles.

    With D(w) = (w^2 - w_c^2)^2 + q^2 w^2 = prod_k (w - p_k), the poles are
    p = +-Omega + iq/2, Omega^2 = w_c^2 - q^2/4 (on the imaginary axis when
    overdamped), and J/w^2 = (lam q / pi) w^(n-2) / D.  For every integer r,
    w^r / D = sum_k c_k w^r / (w - p_k); for r < 0 that is
    sum_k c_k p_k^r / (w - p_k) plus tau_0 / w^(-r) (tau_0 = 1/w_c^4, and no
    1/w term for r = -2).  c_k = 1 / D'(p_k) is taken from the computed
    roots, so each expansion is exact for them.  The lower poles are the
    conjugates of ``p``, so every pole sum is twice the real part of a sum
    over ``p``.

    ``wc2`` is w_c^2 = Omega^2 + q^2/4 as the caller knows it exactly (1 in
    units of w_c).  ``modulus`` holds |p| from it, not from the rounded
    roots: sqrt(wc2) for the underdamped pair, the big root and wc2 over it
    when overdamped.  The near/far switches of ``_lorentz_laplace`` read
    it, so that rounding cannot move a pole across them.
    """

    def __init__(self, q: float, omega2: float, wc2: float):
        if omega2 >= 0.0:
            om = math.sqrt(omega2)
            self.p = np.array([complex(om, 0.5 * q), complex(-om, 0.5 * q)])
            self.modulus = np.full(2, math.sqrt(wc2))
        else:
            # the roots multiply to w_c^2; q/2 - kappa would cancel
            kappa = math.sqrt(-omega2)
            big = 0.5 * q + kappa
            self.p = np.array([complex(0.0, big),
                               complex(0.0, (omega2 + 0.25 * q * q) / big)])
            self.modulus = np.array([big, wc2 / big])
        roots = np.concatenate([self.p, self.p.conj()])
        self.c = np.array([1.0 / np.prod(roots[k] - np.delete(roots, k))
                           for k in range(2)])
        wc4 = (omega2 + 0.25 * q * q) ** 2
        a2 = 0.5 * q * q - 2.0 * omega2
        self.tau0 = 1.0 / wc4
        # 1/D = w^-4 sum_k h_k w^(-2k) at infinity
        self.h = [1.0, -a2]
        for _ in range(4):
            self.h.append(-(a2 * self.h[-1] + wc4 * self.h[-2]))

    def coeff(self, r: int):
        return self.c * self.p ** r

    def moment(self, m: int) -> float:
        """sum_k c_k p_k^m over all four poles for m >= 3, exactly: the
        coefficients of 1/D at infinity."""
        return self.h[(m - 3) // 2] if m % 2 else 0.0


def _pole_sum(coeff, values):
    """sum over all four poles: twice the real part of the upper-pole sum.

    ``coeff`` is (pole,) with ``values`` (pole, time), or a stack of both
    with a leading row axis.  The sum is written out elementwise: a matrix
    product would round an element by where it falls in the row.
    """
    return 2.0 * np.real(coeff[..., 0, None] * values[..., 0, :]
                         + coeff[..., 1, None] * values[..., 1, :])


def _coth_bracket(b, t, p, modulus):
    """I(b, p) - I(b - it, p)/2 - I(b + it, p)/2 less its p -> 0 limit.

    One row per (b, p) pair of the 1-d arrays ``b`` and ``p`` (``_rays``
    for each pair), |p| = ``modulus``: phi(z0) - phi(z+)/2 - phi(z-)/2 -
    pi i expm1(z-) [crossing], z0 = -bp, u = t/b, z-+ = z0 (1 -+ iu).  Where
    that difference cancels it is summed from a series, which continues phi
    across the cut and so takes no crossing term.

    Where t <= b/4 it would cancel like u^2: the Taylor series -z0 sum_k
    (-u^2)^k d_(2k-1) / (2k)! of phi(z0 -+ itp), with d_m = z0^m g^(m)(z0)
    = z0 d_(m-1) + (-1)^m (m-1)! (g = phi' = e^z E1(z), g' = g - 1/z);
    14 terms reach (1/4)^28 < 1e-16.

    Elsewhere, where r = |z-+| = |p| sqrt(b^2 + t^2) < 1, the real part
    would lose about 1/|z0| to the log z0 of the three phi when z0 is small
    and imaginary (a strongly overdamped pole: up to 8.4e-13 of the rows at
    q = 1000 w_c).  There phi(z) = sum_{k>=1} z^k / k! (H_k - gamma_E -
    log z) cancels those logs exactly.  With zeta = -p sqrt(b^2 + t^2),
    rho = sqrt(1 + u^2) = 1/c and s = u c, that gives

        sum_{k>=1} zeta^k / k! [-Re e_k (H_k - gamma_E - log zeta)
                                 + c^k log rho - Im e_k atan u],

    e_k = (1 + iu)^k / rho^k - c^k = e_(k-1) (c + i s) + i s c^(k-1), so
    that -Re e_k does not cancel.  Term 1 has no log zeta and term k is
    at most about r^(k-2) / k! times term 2, so ``_BRACKET_TERMS`` = 19
    terms reach 2/19! < 2^-53 of it.  All pairs' phi arguments go to
    ``_phi`` in one call.
    """
    z_minus, z_plus, cross = _rays(b[:, None], t, p)
    z0 = -b * p
    u = t / b[:, None]
    short = t <= 0.25 * b[:, None]
    origin = ~short & (modulus[:, None] * np.hypot(b[:, None], t) < 1.0)
    wide = ~(short | origin)
    phi0, phi_minus, phi_plus = np.split(
        _phi(np.concatenate([z0, z_minus[wide], z_plus[wide]])),
        [b.size, b.size + np.count_nonzero(wide)])
    out = np.empty(z_minus.shape, dtype=complex)
    if wide.any():
        out[wide] = np.broadcast_to(phi0[:, None], out.shape)[wide] \
            - 0.5 * (phi_minus + phi_plus) \
            - 1j * np.pi * np.expm1(z_minus[wide]) * cross[wide]
    if short.any():
        pair = np.nonzero(short)[0]
        u2 = u[short] ** 2
        d = z0 * (phi0 - _EULER_GAMMA - np.log(z0)) - 1.0   # d_1
        power = np.ones_like(u2)
        total = np.zeros(u2.shape, dtype=complex)
        for k in range(1, 15):
            if k > 1:
                for m in (2 * k - 2, 2 * k - 1):
                    d = z0 * d + (-1) ** m * math.factorial(m - 1)
            power = power * -u2 / ((2 * k - 1) * (2 * k))
            total = total + power * d[pair]
        out[short] = -z0[pair] * total
    if origin.any():
        pair, time = np.nonzero(origin)
        h = np.hypot(b[pair], t[time])
        c, sn = b[pair] / h, t[time] / h
        l, a = _log1iu(u[origin])
        zeta = -p[pair] * h
        log_zeta = _EULER_GAMMA + np.log(zeta)
        power, e, ck, harmonic = zeta, 1j * sn, c, 1.0
        total = power * (c * l - sn * a)                    # k = 1
        for k in range(2, _BRACKET_TERMS + 1):
            power = power * zeta / k
            e = e * (c + 1j * sn) + 1j * sn * ck
            ck = ck * c
            harmonic += 1.0 / k
            total = total + power * (-e.real * (harmonic - log_zeta)
                                     + ck * l - e.imag * a)
        out[origin] = total
    return out


def _lorentz_laplace(parts: _LorentzParts, b, lifts, s: int, beta: float):
    """Rows beta^j S(s + j, b) as a function of a 1-d array of times t > 0,
    one row per pair (b, j) of the 1-d arrays ``b`` (all > 0) and
    ``lifts``, where S(r, b) = int_0^inf w^r / D e^(-bw) (1 - cos wt) dw.

    Per pole, c_k int e^(-bw) (1 - cos wt) w^r / (w - p_k) dw is
    p_k^r [I(b, p_k) - I(b - it, p_k)/2 - I(b + it, p_k)/2] plus, for
    r > 0, the polynomial part sum_{i<r} p_k^(r-1-i) int w^i ...  The
    bracket is its limit log(1 + t^2/b^2) / 2 at p -> 0 plus phi terms
    (``_coth_bracket``), and those limits are summed exactly as moments, so
    nothing cancels as b |p| and t |p| go to zero.  Once b |p_k| >= 40, the
    pole term and its polynomial part cancel instead (catastrophically for
    large r), and that pole's term is summed from its asymptotic series
    -sum_{i >= max(r, 0)} p_k^(r-1-i) int w^i ..., up to its smallest term,
    plus the residue of the crossing ray.  The weight beta^j of the
    Euler-Maclaurin terms is folded into each term as (beta/b)^j
    b^(j-i-1) in place of b^-(i+1), which stays inside the float range for
    any beta.

    All rows are one array pass in two steps.  Each distinct b has one
    (pole, time) array of pole parts, a near pole's bracket or a far pole's
    crossing residue -pi i e^(-ap) (0 where its ray does not cross), and
    each row is one pole sum of them, with coefficients c_k p_k^s
    (beta p_k)^j.  Then one loop over the power i of int w^i ..., from -2,
    adds a row's near poles' moment share below max(r, 0) and its far
    poles' asymptotic series from there to the row's own stop.  None of
    that loop depends on t, so it is planned here, once: for each i the
    rows that take a term, their coefficients and moment shares, and their
    scales (beta/b)^j b^(j-i-1), as powers of numpy scalars (inf beyond the
    float range, not an error, and rounded as libm pow, which an array
    np.power does not always do).  The returned function runs the plan on a
    block of times.  A row's terms come in the same order whatever the other
    rows are.
    """
    beta = np.float64(beta)
    rows_b, rows_j = list(b), [int(j) for j in lifts]
    weight = [(beta / x) ** j for x, j in zip(rows_b, rows_j)]
    bs, at = np.unique(b, return_inverse=True)   # distinct b, and each row's
    moments = {}

    def moment(poles, m):
        # 2 Re sum_k c_k p_k^m over the given poles, 0 where it vanishes to
        # rounding (the odd powers of a symmetric pair)
        if (poles, m) not in moments:
            terms = [complex(ck) * complex(pk) ** m
                     for ck, pk, on in zip(parts.c, parts.p, poles) if on]
            total = 2.0 * sum(x.real for x in terms)
            moments[poles, m] = total if abs(total) > 1e-15 * sum(
                map(abs, terms)) else 0.0
        return moments[poles, m]

    near_b = bs[:, None] * parts.modulus < _ASYMPTOTIC_SWITCH  # (b, pole)
    pair_b, pair_p, pair_m = np.broadcast_arrays(bs[:, None], parts.p,
                                                 parts.modulus)
    # a far pole's (beta p)^j may overflow where its residue underflows
    # (Re(-ap) <= -b |p|): such a pole adds 0
    coeff = {j: parts.coeff(s) * (beta * parts.p) ** j for j in set(rows_j)}
    coeff = np.array([coeff[j] for j in rows_j])
    coeff = np.where(np.isfinite(coeff), coeff, 0.0)

    # the coefficient of int w^i ... in a row with these near and far poles:
    # below max(r, 0) the near poles' moment share (tau_0 at m = -1) where it
    # does not cancel: below m = 3 the total is zero, so minus the far
    # poles' part; above, the exact moment if every pole is near, else the
    # near poles' own; with no near pole only tau_0 / w^-r.  Then the series.
    def coefficient(poles, far, r, i):
        if i >= max(r, 0):
            return -moment(far, r - 1 - i)
        m = r if i == -1 else r - 1 - i
        if i == -2 or not any(poles):
            return parts.tau0 if m == -1 else 0.0
        if m < 3:
            return -moment(far, m)
        return parts.moment(m) if all(poles) else moment(poles, m)

    near = near_b[at]                                  # (row, pole)
    keys = [(tuple(o), tuple(not x for x in o), s + j)
            for o, j in zip(near.tolist(), rows_j)]
    first = [max(s + j, 0) for j in rows_j]            # a row's first series i
    # the series terms fall by (i + 1) / (b |p|) for its nearest far pole
    x = (b * np.min(np.where(near, np.inf, parts.modulus), axis=1)).tolist()
    coefficients, terms, row_b = {}, [], at.tolist()   # (i, row, c, scale)
    for k, key in enumerate(keys):
        # a row takes its moment shares below ``first``, then, with a far
        # pole, its series up to its smallest term: the term at ``last``,
        # where |term| / |first term| falls below 1e-17 or stops falling
        last, i, size = first[k] - 1, first[k], 1.0
        while not all(key[0]):
            ratio = (i + 1) / x[k]
            size *= ratio
            last = i
            if ratio >= 1.0 or size < 1e-17:
                break
            i += 1
        group = coefficients.setdefault(key, {})
        bk, jk, wk = rows_b[k], rows_j[k], weight[k]
        for i in range(-2, last + 1):
            if i not in group:
                group[i] = coefficient(*key, i)
            if group[i]:
                terms.append((i, k, group[i], wk * bk ** (jk - i - 1)))
    # the terms in the order they are added, by i and then by row; the
    # shape of int w^i ... at each distinct (i, b) they need; and per i the
    # rows and the slice of the terms
    terms.sort(key=lambda x: x[:2])
    shapes = {key: n for n, key in enumerate(dict.fromkeys(
        (i, row_b[k]) for i, k, _, _ in terms))}
    # (shape, b) indices of the shapes with i = -2, i = -1 and i >= 0
    kind = np.sign([i + 1 for i, _ in shapes])
    shape_b = np.array([x for _, x in shapes], dtype=int)
    kinds = [(n, shape_b[n])
             for n in (np.flatnonzero(kind == v) for v in (-1, 0, 1))]
    powers = [i for i, _ in shapes if i >= 0]
    factorial = np.array([math.gamma(i + 2) for i in powers])[:, None]
    powers = np.array(powers, dtype=float)[:, None] + 1.0
    where = np.array([shapes[i, row_b[k]] for i, k, _, _ in terms], dtype=int)
    c = np.array([x[2] for x in terms])[:, None]
    scale = np.array([x[3] for x in terms])[:, None]
    plan, start = [], 0
    for _, step in groupby(terms, key=lambda x: x[0]):
        rows = np.array([k for _, k, _, _ in step])
        plan.append((rows, slice(start, start + rows.size)))
        start += rows.size

    def rows_at(t):
        u = t / bs[:, None]
        l, a = _log1iu(u)
        part = np.zeros(near_b.shape + t.shape, dtype=complex)
        part[near_b] = _coth_bracket(pair_b[near_b], t, pair_p[near_b],
                                     pair_m[near_b])
        z, cross = _crossing_ray(pair_b[~near_b][:, None], t,
                                 pair_p[~near_b])
        part[~near_b] = -1j * np.pi * np.exp(z, out=np.zeros_like(z),
                                             where=cross)
        total = _pole_sum(coeff, part[at])
        # beta^j int_0^inf w^i e^(-bw) (1 - cos wt) dw, i >= -2: the shape
        # b^(i+1) int ... is (i+1)! Re P(i+1, u) for i >= -1 (Re P(0, u) =
        # log(1 + u^2) / 2), and u atan u - log(1 + u^2) / 2 for i = -2
        shape = np.empty((len(shapes),) + t.shape)
        (n2, b2), (n1, b1), (n0, b0) = kinds
        shape[n2] = u[b2] * a[b2] - l[b2]
        shape[n1] = l[b1]
        # Re P in chunks of about 2^16 values, which bounds its work arrays
        per = max(1, 2 ** 16 // t.size)
        for lo in range(0, n0.size, per):
            k = slice(lo, lo + per)
            shape[n0[k]] = factorial[k] * _re_p(powers[k],
                                                (l[b0[k]], a[b0[k]]))
        added = shape[where]                    # c * (scale * shape), in place
        added *= scale
        added *= c
        for rows, term in plan:
            total[rows] = total[rows] + added[term]
        return total

    return rows_at


def _lorentz_origin(parts: _LorentzParts, s: int, t):
    """(S(s, 0), S_Delta) for t > 0: the coth-series head and the phase.

    With z = itp for the upper poles p of ``parts`` and K = 1 - gamma_E - ln t,

        S(s, 0) = sum_k c_k p_k^s [-log(-p_k) - I(-it, p_k)/2 - I(it, p_k)/2]
                  + tau_0 (gamma_E + ln t) [n = 1],
        S_Delta = sum_k c_k p_k^s [(I(-it, p_k) - I(it, p_k)) / 2i
                                   + t p_k log(-p_k)]  + Z,

    Z = 0, tau_0 pi/2, tau_0 t K for n = 2, 1, 0 (the -wt part and the pole
    at zero).  The brackets are gamma_E + ln t - G/2 and pi/2 + D/2i, whose
    constants cancel the tau_0 terms but tau_0 t K.  With S_m = (H_m -
    gamma_E - log(-z)) z^m / m! (e^z Ein(z) = sum_m H_m z^m / m!) and
    E = i pi sum_{m>=2} z^m / m!,

        G = phi(z) + phi(-z) + 2 pi i expm1(z) [crossing]
          = i pi z + E + 2 sum_{m even >= 2} S_m,
        D = phi(z) - phi(-z) + 2 pi i expm1(z) [crossing] + 2 z log(-p)
          = 2 z K + E + 2 sum_{m odd >= 3} S_m.

    The shares i pi z and 2 z K sum over the poles to multiples of
    sum_k c_k p_k^(s+1), 0 for n = 1, 2 and -tau_0 for n = 0 (against
    tau_0 t K).  A pole with t |p| < 1 (|p| from ``parts.modulus``, so that
    rounding cannot pick the form) drops them and takes the series, where
    its phi terms would cancel; the others keep phi and give theirs back,
    -pi t/2 and -t K times their sum of c_k p_k^(s+1), or Z where no pole
    is near.  The phi arguments of both rays go to ``_phi`` in one call.
    """
    z, minus_z, cross = _rays(0.0, t, parts.p)
    phi_z, phi_minus_z = _phi(np.stack([z, minus_z]))
    growth = 2j * np.pi * np.expm1(z) * cross
    head = -0.5 * (phi_z + phi_minus_z + growth)
    phase = (phi_z - phi_minus_z + growth
             + 2.0 * z * np.log(-parts.p)[:, None]) / 2j
    near = t * parts.modulus[:, None] < 1.0
    k = 1.0 - _EULER_GAMMA - np.log(t)
    if near.any():
        zs, log_mz = z[near], np.log(minus_z[near])
        power, harmonic, sums = zs, 1.0, [0.0, 0.0]   # G, D less the shares
        for m in range(2, _ORIGIN_SERIES_TERMS):
            power = power * zs / m
            harmonic += 1.0 / m
            sums = [x + 1j * np.pi * power for x in sums]
            sums[m % 2] = sums[m % 2] \
                + 2.0 * (harmonic - _EULER_GAMMA - log_mz) * power
        head[near], phase[near] = -0.5 * sums[0], sums[1] / 2j
    some = near.any(axis=0)
    far = _pole_sum(parts.coeff(s + 1), ~near)
    origin = parts.tau0 * t * k if s == -2 else 0.0
    return (_pole_sum(parts.coeff(s), head)
            + np.where(some, -0.5 * np.pi * t * far, 0.0),
            _pole_sum(parts.coeff(s), phase)
            + np.where(some, -t * k * far, origin))


def _lorentz_sums(parts: _LorentzParts, n: int, beta: float):
    """(S_gamma, S_Delta) as a function of a 1-d array of times t > 0, with
    gamma and Delta = lam q/(4 pi) S.

    With s = n - 2, S_Delta and the head of S_gamma = S(s, 0) +
    2 sum_{m>=1} S(s, m beta) come from ``_lorentz_origin``, the rest from
    one ``_lorentz_laplace`` plan, made here once: as for ``ohmic_gamma``,
    ``_coth_series`` sums the rows (m, j) of ``_COTH_ROWS``, here
    beta^j S(s + j, m beta), the direct terms, then at B = N beta the
    integral and odd derivatives in m, S(s - 1, B) / beta and
    -beta^j S(s + j, B).  n = 0 leaves S_gamma as None.
    """
    s = n - 2
    m, lift = _COTH_ROWS
    rows = None if n == 0 else _lorentz_laplace(parts, m * beta, lift, s,
                                                beta)

    def sums(t):
        head, delta = _lorentz_origin(parts, s, t)
        return (None if rows is None else _coth_series(head, rows(t)),
                delta)

    return sums


def _lorentzian(j: Lorentzian, beta: float):
    """(gamma, Delta) as a function of a 1-d array of times t > 0; gamma
    None for n = 0.

    Frequencies are measured in units of w_c, so the poles have modulus 1
    (underdamped) or straddle it (overdamped).  Near critical damping the
    two upper poles merge into a double pole, the c_k grow like 1/Omega and
    their pole sums cancel.  Within |Omega| < 1e-4 w_c both sums are
    therefore interpolated linearly in Omega^2 between the two edges of that
    band, where the cancellation costs a few 1e-12 relative; the
    interpolation itself is off by about (1e-8)^2.

    Beyond q / w_c = ``_MAX_OVERDAMPING`` the bath is not evaluated: there
    the n = 1 gamma at beta w_c = 1 nears the tolerance (2.8 times it at
    1e8 against mpmath), and from about 2e8 on the scaled w_c^2 = Omega^2 +
    q^2/4 loses its digits, down to 0 at 5e8.  That, and a scale w_c^(n-5)
    beyond the float range, raise QuadratureFailure.
    """
    wc = j.omega_c
    q = j.q / wc
    if not q <= _MAX_OVERDAMPING:
        raise QuadratureFailure(f"Lorentzian at q/omega_c={q:.3g}: beyond the "
                                f"overdamping limit {_MAX_OVERDAMPING:g}")
    omega2 = (1.0 - 0.5 * q) * (1.0 + 0.5 * q)
    band = _CRITICAL ** 2
    try:
        scale = 0.25 * j.coupling * j.q / math.pi * wc ** (j.n - 5)
    except OverflowError:
        raise QuadratureFailure(f"Lorentzian at omega_c={wc}: "
                                f"omega_c^{j.n - 5} is not finite") from None
    if abs(omega2) >= band:
        edges = [_lorentz_sums(_LorentzParts(q, omega2, 1.0), j.n, wc * beta)]
    else:
        w = (omega2 + band) / (2.0 * band)
        edges = [_lorentz_sums(_LorentzParts(q, edge, edge + 0.25 * q * q),
                               j.n, wc * beta) for edge in (-band, band)]

    def kernel(t):
        if len(edges) == 1:
            sums = edges[0](wc * t)
        else:
            sums = [None if a is None else a + w * (b - a)
                    for a, b in zip(*(edge(wc * t) for edge in edges))]
        return [None if x is None else scale * x for x in sums]

    return kernel


def _ohmic(j: Ohmic, beta: float, t):
    return ohmic_gamma(j, beta, t), ohmic_delta(j, t)


#: each family's kernel.  A kernel takes (bath, beta) and returns the
#: function of a 1-d block of times t > 0 that gives (gamma, Delta), gamma
#: None where it diverges at every t > 0 (the n = 0 Lorentzian); what does
#: not depend on t it does once
_KERNELS = {
    SingleMode: lambda j, beta: partial(_single_mode, j, beta),
    Ohmic: lambda j, beta: partial(_ohmic, j, beta),
    Lorentzian: _lorentzian,
}


def factors(j: SpectralDensity, bc: BathConditions, t) -> DecoherenceFactors:
    """Decoherence factors at time t (builtin floats) or over a time array.

    One body serves every family: both factors are zero at t = 0, the
    times t > 0 go through the family's kernel (``_KERNELS``), made once per
    call, in blocks of ``_BLOCK``, and gamma is +inf where the kernel
    reports divergence.  A value does not depend on the other times passed
    with it, so an array call matches its scalar calls bit for bit.  A
    value beyond the float range, or a Lorentzian bath past q =
    ``_MAX_OVERDAMPING`` w_c, raises QuadratureFailure.
    """
    make = _KERNELS[type(j)]
    t_arr = np.asarray(t, dtype=float)
    bad = t_arr[~(np.isfinite(t_arr) & (t_arr >= 0))]
    if bad.size:
        raise InvalidTime(f"t must be finite and >= 0, got {bad[0]}")
    flat = t_arr.ravel()
    live = np.flatnonzero(flat > 0.0)
    gamma, delta = np.zeros(flat.shape), np.zeros(flat.shape)
    where = f"of {j} at beta={bc.beta}"
    for lo in range(0, live.size, _BLOCK):
        at = live[lo:lo + _BLOCK]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not lo:
                kernel = make(j, bc.beta)
            g, d = kernel(flat[at])
        delta[at] = np.minimum(_checked(d, f"Delta {where}"), 0.0)
        gamma[at] = (math.inf if g is None
                     else np.maximum(_checked(g, f"gamma {where}"), 0.0))
    fields = [x.reshape(t_arr.shape) for x in (gamma, delta)]
    if not t_arr.ndim:
        fields = [x.item() for x in fields]
    return DecoherenceFactors(*fields)


#: names of ``spinbath.quadrature`` still importable from here, for the
#: benchmark tracer, which patches them; loaded on first use so that the
#: production path never imports that module
_LAZY = ("integrate_on_interval", "integrate_semi_infinite")


def __getattr__(name):
    if name in _LAZY:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
