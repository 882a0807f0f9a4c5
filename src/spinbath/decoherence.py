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
instead, where its polynomial part would cancel it; that series' shapes,
Re P at integer orders, come from a complex recurrence over the orders
(``_integer_shapes``).  A pole with
|p| sqrt(b^2 + t^2) < 1 takes the power series of the three phi at 0, whose
log z0 parts cancel there exactly (``_coth_bracket``).  At b = 0 a pole
with t |p| < 1 takes its power series in z = itp, its terms linear in z
summed over the poles exactly (``_lorentz_origin``).  So nothing cancels as
t |p| or b |p| goes to zero (short times, strong overdamping).  Near
critical damping, where two poles merge and their c_k grow like 1/Omega,
points on a circle around them take their place, with weights that make
each pole sum the trapezoid rule of a contour integral (``_LorentzParts``).

Both families sum the coth series alike (``_coth_series``): its first N - 1
terms directly, the rest by Euler-Maclaurin at m = N, each term and each
correction one row (``_COTH_ROWS``) of an array over the times.  Each term
is completely monotone in m, so the first dropped Euler-Maclaurin term
bounds the remainder for every bath, and N = 12 keeps it below 2^-53 of
gamma (``_coth_cut``).  ``factors`` makes a family's kernel once per call,
which does there what does not depend on t (for the Lorentzian bath, a
plan of the coth rows' terms), and takes the times t > 0 through it in
blocks of ``_BLOCK``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import partial

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
#: terms, 12 from |z| = 200) from |z| = 40, continued fraction (depth 50)
#: in between
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
#: (2k - 1) 2k, k = 1..14: the divisors of the short-time bracket's
#: Taylor terms (-u^2)^k / (2k)! (``_coth_bracket``)
_TAYLOR_DIVISORS = np.arange(1.0, 28.0, 2.0) * np.arange(2.0, 29.0, 2.0)
#: Lorentzian gamma head and Delta: series terms z^m / m!, m < this, for a
#: pole with t |p| < 1
_ORIGIN_SERIES_TERMS = 24
#: the harmonic numbers H_m, m = 2.._ORIGIN_SERIES_TERMS - 1
_HARMONIC = np.cumsum(1.0 / np.arange(1, _ORIGIN_SERIES_TERMS))[1:]
#: critical damping: K points on a circle of radius rho w_c around the
#: merging poles where |Omega| < _CRITICAL w_c (``_LorentzParts``), off by
#: (|Omega|/rho)^K + (2 rho/q)^K, q ~ 2 w_c: each term 2^-54 for
#: rho = 2^(-54/K) and _CRITICAL = rho^2 (9.3e-3 and 8.6e-5 for K = 8)
_CONTOUR_POINTS = 8
_CONTOUR_RADIUS = (0.5 * _EM_TOL) ** (1.0 / _CONTOUR_POINTS)
_CRITICAL = _CONTOUR_RADIUS ** 2
#: beta w_c beyond which ``_coldest`` takes this value: each coth term
#: m >= 1 then stays below 2^-53 of gamma up to w_c t near 1e280 (it falls
#: like (t/beta)^(1 + min(s, 1)), s = n if Lorentzian), and N beta w_c fits
_COLDEST = 1e300
#: largest q / w_c evaluated (``_lorentzian``)
_MAX_OVERDAMPING = 1e7
#: times per block of ``factors``, which bounds the (row, time) work arrays
#: of the coth-series passes (Lorentzian: the (row, pole, time) pole parts,
#: about 12 MB in all at 4096 times for the Lorentzian presets)
_BLOCK = 4096
#: times per pass of the Lorentzian shapes and terms within a block, which
#: keeps their work arrays near the cache; orders per pass of
#: ``_integer_shapes``
_SHAPE_CHUNK = 512
_GROUP = 8
#: arguments per pass of ``_phi``: its (term, argument) arrays stay cached
_PHI_CHUNK = 16384


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


def _coldest(beta: float, omega_c: float) -> float:
    return min(beta, _COLDEST / omega_c) * omega_c  # beta w_c, capped


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
    number or an array of orders that broadcasts against u.  The Ohmic
    factors take it; the Lorentzian shapes, all at integer orders, come
    from a recurrence without transcendental calls (``_integer_shapes``).
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
        head, rows = _ohmic_rows(j.s, _coldest(beta, j.omega_c), x, _COTH_ROWS)
        return scale * _coth_series(head, rows).reshape(np.shape(t))


def _scaled(c, z):
    """The (c, z) array c_k z_i of real c and complex z, each part scaled
    alone: a complex product of broadcast operands may round differently
    with the array's size."""
    out = np.empty((c.size, z.size), dtype=complex)
    np.multiply(c[:, None], z.real, out=out.real)
    np.multiply(c[:, None], z.imag, out=out.imag)
    return out


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
    Stegun 5.1.11 and 5.1.22; Amos, ACM TOMS 16, 178 (1990)).  The power
    series takes 2.5 |z| + 32 terms at once (enough below |z| = 40), as a
    cumulative product, and its partial sums as a cumulative sum; each
    element stops on its own terms, so a value does not depend on the rest
    of the array, which goes through in passes of ``_PHI_CHUNK`` arguments.
    """
    z = np.asarray(z, dtype=complex)
    if z.size > _PHI_CHUNK:
        flat = z.ravel()
        return np.concatenate([_phi(flat[lo:lo + _PHI_CHUNK]) for lo in range(
            0, flat.size, _PHI_CHUNK)]).reshape(z.shape)
    out = np.empty_like(z)
    r = np.abs(z)
    far = r >= _E1_ASYMPTOTIC
    near = ~far & (r + z.real < _E1_SERIES)
    mid = ~far & ~near
    if far.any():
        # e^z E1(z) = w h(w), h = sum_k (-1)^k k! w^k, w = 1/z: 30 terms
        # below |z| = 200, summed from the smallest as one array pass;
        # from there 12 terms do (12!/200^12 = 1.2e-19), in Horner's form
        w = 1.0 / z[far]
        h = np.ones_like(w)
        close = r[far] < 200.0
        if close.any():
            terms = _scaled(-np.arange(float(_E1_ASYMPTOTIC_TERMS)), w[close])
            terms[0] = 1.0
            np.cumprod(terms, axis=0, out=terms)
            h[close] = np.cumsum(terms[::-1], axis=0)[-1]
        wide, rest = w[~close], 1.0
        for k in range(11, 0, -1):
            rest = 1.0 - k * wide * rest
        h[~close] = rest
        out[far] = w * h + _EULER_GAMMA + np.log(z[far])
    if near.any():
        zs = z[near]
        total, todo, count = np.empty_like(zs), np.arange(zs.size), \
            int(2.5 * np.abs(zs).max()) + 32
        while todo.size:                    # once, unless the count is short
            ks = np.arange(1.0, count)
            terms = _scaled((1.0 - ks) / (ks * ks), zs[todo])
            terms[0] = zs[todo]
            partial = np.cumsum(np.cumprod(terms, axis=0, out=terms), axis=0)
            going = np.abs(terms[1:]) > 1e-17 * np.abs(partial[1:])
            done = ~going.all(axis=0)
            total[todo[done]] = partial[going[:, done].argmin(axis=0) + 1,
                                        done]
            todo, count = todo[~done], 2 * count
        out[near] = np.exp(zs) * total \
            - np.expm1(zs) * (_EULER_GAMMA + np.log(zs))
    if mid.any():
        zc = z[mid]
        shifts = zc + np.arange(1.0, 2 * _E1_CF_DEPTH + 2, 2.0)[:, None]
        tail = 0.0
        for k in range(_E1_CF_DEPTH, 0, -1):
            tail = k * k / (shifts[k] - tail)
        out[mid] = 1.0 / (shifts[0] - tail) + _EULER_GAMMA + np.log(zc)
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
    """Partial fractions of J/w^2 for the Lorentzian, in units of w_c.

    With D(w) = (w^2 - 1)^2 + q^2 w^2 = prod_k (w - p_k), the poles are
    p = +-Omega + iq/2, Omega^2 = 1 - q^2/4 (on the imaginary axis when
    overdamped), and J/w^2 = (lam q / pi) w^(n-2) / D.  For every integer r,
    w^r / D = sum_k c_k w^r / (w - p_k); for r < 0 that is
    sum_k c_k p_k^r / (w - p_k) plus tau_0 / w^(-r) (tau_0 = 1/w_c^4, and no
    1/w term for r = -2).  c_k = 1 / D'(p_k) is taken from the computed
    roots, so each expansion is exact for them.  The lower poles are the
    conjugates of ``p``, so every pole sum is twice the real part of
    sum_k c_k F(p_k) over ``p``, F analytic for Im p > 0.

    That sum is (1/2 pi i) oint F/D dz around the upper poles.  Where they
    merge, |Omega| < ``_CRITICAL``, and their c_k would grow like 1/Omega,
    ``p`` holds instead the K = ``_CONTOUR_POINTS`` points z_j = iq/2 +
    rho e^(2 pi i j/K), rho = ``_CONTOUR_RADIUS``, and ``c`` the weights
    rho e^(2 pi i j/K) / (K D(z_j)) of the integral's trapezoid rule, off
    by (|Omega|/rho)^K + (2 rho/q)^K (Trefethen & Weideman, SIAM Review 56,
    385 (2014)).

    ``modulus`` holds |p|, for the poles from the exact |p| = 1 of the
    underdamped pair and the product 1 of the overdamped roots, not from
    the rounded roots.  The near/far switches of ``_lorentz_laplace`` read
    it, so that rounding cannot move a pole across them.
    """

    def __init__(self, q: float, omega2: float):
        merged = abs(omega2) < _CRITICAL ** 2
        if merged:
            ring = _CONTOUR_RADIUS * np.exp(
                2j * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS)
            self.p = 0.5j * q + ring
            self.c = ring / (_CONTOUR_POINTS * (ring * ring - omega2)
                             * ((ring + 1j * q) ** 2 - omega2))
            self.modulus = np.abs(self.p)
        elif omega2 >= 0.0:
            om = math.sqrt(omega2)
            self.p = np.array([complex(om, 0.5 * q), complex(-om, 0.5 * q)])
            self.modulus = np.ones(2)
        else:
            # the roots multiply to w_c^2; q/2 - kappa would cancel
            kappa = math.sqrt(-omega2)
            big = 0.5 * q + kappa
            self.p = np.array([complex(0.0, big),
                               complex(0.0, (omega2 + 0.25 * q * q) / big)])
            self.modulus = np.array([big, 1.0 / big])
        if not merged:
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
    """sum over all poles: twice the real part of the upper-pole sum.

    ``coeff`` is (pole,) with ``values`` (pole, time), or a stack of both
    with a leading row axis.  The sum is added elementwise in pole order:
    a matrix product would round an element by where it falls in the row.
    """
    total = coeff[..., 0, None] * values[..., 0, :]
    for k in range(1, coeff.shape[-1]):
        total += coeff[..., k, None] * values[..., k, :]
    return 2.0 * total.real


def _coth_bracket(b, t, p, modulus, phi):
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
    terms reach 2/19! < 2^-53 of it.  The function ``phi`` evaluates phi
    at every pair's z0 and at the wide z-+, all in one call.
    """
    z_minus, z_plus, cross = _rays(b[:, None], t, p)
    z0 = -b * p
    u = t / b[:, None]
    short = t <= 0.25 * b[:, None]
    origin = ~short & (modulus[:, None] * np.hypot(b[:, None], t) < 1.0)
    wide = ~(short | origin)
    phi0, phi_minus, phi_plus = np.split(phi(np.concatenate(
        [z0, z_minus[wide], z_plus[wide]])), [b.size, b.size + wide.sum()])
    out = np.empty(z_minus.shape, dtype=complex)
    out[wide] = np.broadcast_to(phi0[:, None], out.shape)[wide] \
        - 0.5 * (phi_minus + phi_plus) \
        - 1j * np.pi * np.expm1(z_minus[wide]) * cross[wide]
    if short.any():
        d = [z0 * (phi0 - _EULER_GAMMA - np.log(z0)) - 1.0]
        for m in range(2, 2 * _TAYLOR_DIVISORS.size):   # d_1, d_3, ..., d_27
            d.append(z0 * d[-1] + (-1) ** m * math.factorial(m - 1))
        pair = np.nonzero(short)[0]
        power = np.cumprod(-u[short][:, None] ** 2 / _TAYLOR_DIVISORS,
                           axis=1)
        out[short] = -z0[pair] * np.cumsum(power * np.array(d[::2]).T[pair],
                                           axis=1)[:, -1]
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


def _integer_shapes(u, heads, out, work):
    """Re d_e, d_e = 1 - (1 + iu)^-e, e = 1..len(heads), for the first
    heads[e - 1] rows of a (b, time) array u >= 0 (heads non-increasing),
    into the rows of ``out``: the orders in groups of G = ``_GROUP``, group g
    a (G, heads[gG], time) block.  (i+1)! Re P(i+1, u) = i! Re d_(i+1) is a
    Lorentzian shape.  ``work`` is complex, ((G + 1) heads[0] + (G + 1)
    heads[min(G, len(heads) - 1)], time).

    With w = 1/(1 + iu), d_1 = iu/(1 + iu) and d_(e+k) = d_k + w^k d_e =
    d_k + d_e - d_k d_e: orders up to G from d_(e+1) = d_1 + w d_e, then a
    group at a time from d_1..d_G, a few complex operations per order and
    no transcendental call.  Nothing cancels at small u, where 1 - cos
    would: Re d_(e+k) = Re d_k + (1 - Re d_k) Re d_e + Im d_k Im d_e adds
    terms >= 0.  u is capped at 1e150, as in ``_log1iu``: u^2 still fits,
    and every d_e rounds to 1.
    """
    if not heads:
        return
    g, n, size = _GROUP, heads[0], u.shape[1]
    k, top = min(g, len(heads)), heads[min(g, len(heads) - 1)]
    low, group, last, w = np.split(work, np.cumsum([g * n, g * top, top]))
    low = low[:k * n].reshape(k, n, size)
    v = np.minimum(u[:n], 1e150)
    den = 1.0 + v * v
    low.real[0], low.imag[0] = v * v / den, v / den
    w.real, w.imag = 1.0 / den, -v / den
    for e, rows in enumerate(heads[1:k], 1):
        np.multiply(w[:rows], low[e - 1, :rows], out=low[e, :rows])
        low[e, :rows] += low[0, :rows]
    out[:k * n] = low.real.reshape(-1, size)
    at, last[:top] = k * n, low[-1, :top]
    for e in range(g, len(heads), g):
        k, rows = min(g, len(heads) - e), heads[e]
        block = group[:k * rows].reshape(k, rows, size)
        np.multiply(low[:k, :rows], last[:rows], out=block)   # d_k d_e
        np.subtract(last[:rows], block, out=block)
        block += low[:k, :rows]                    # d_k + d_e - d_k d_e
        out[at:at + k * rows] = block.real.reshape(-1, size)
        at, last[:rows] = at + k * rows, block[-1]


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
    (beta p_k)^j.  Then each row adds its terms c (scale shape) in the
    order of the power i of int w^i ..., from -2: its near poles' moment
    share below max(r, 0), then its far poles' asymptotic series to the
    row's own stop.  None of that depends on t, so it is planned here,
    once, in builtin floats: the coefficients, one list per kind of row,
    and the scales (beta/b)^j b^(j-i-1) as libm pow (an array np.power
    does not always round as libm does), which stay in the float range for
    beta w_c <= ``_COLDEST``: (beta/b)^j is m^-j, and b^(j-i-1) is at most
    b^11 on near rows (b < 40/|p| <= 4e8), at least b^-42 on far ones
    (b >= 40/|p| >= 4e-6).  The returned function runs the plan on a block
    of times, with a function that evaluates phi (``_coth_bracket``).  A
    row's terms come in the same order whatever the other rows are.
    """
    beta = float(beta)
    rows_b, rows_j = b.tolist(), [int(j) for j in lifts]
    modulus = parts.modulus.tolist()
    cp = list(zip(parts.c.tolist(), parts.p.tolist()))
    # a far pole's (beta p)^j may overflow where its residue underflows
    # (Re(-ap) <= -b |p|): such a pole adds 0
    own, scaled = parts.coeff(s), beta * parts.p
    coeff = {j: own * scaled ** j for j in set(rows_j)}

    def moments(poles, ms):
        # 2 Re sum_k c_k p_k^m over the given poles for each m of ``ms``, 0
        # where it vanishes to rounding (the odd powers of a symmetric pair)
        terms = [[c * p ** m for m in ms] for (c, p), on in zip(cp, poles)
                 if on] or [[0.0] * len(ms)]
        total, norm = [x.real for x in terms[0]], list(map(abs, terms[0]))
        for more in terms[1:]:
            total = [x + y.real for x, y in zip(total, more)]
            norm = [x + abs(y) for x, y in zip(norm, more)]
        return [2.0 * x if abs(2.0 * x) > 1e-15 * y else 0.0
                for x, y in zip(total, norm)]

    # per row its near poles, r, and its last power i: below max(r, 0) its
    # moment shares, then, with a far pole, its series up to its smallest
    # term, where |term| / |first term| falls below 1e-17 or stops falling
    # (the terms fall by (i + 1) / (b |p|) for its nearest far pole)
    near = [tuple(x * m < _ASYMPTOTIC_SWITCH for m in modulus)
            for x in rows_b]
    keys = list(zip(near, (s + j for j in rows_j)))
    x = np.array([bk * min([m for m, on in zip(modulus, poles) if not on],
                           default=math.inf)
                  for bk, poles in zip(rows_b, near)])[:, None]
    # (64 terms reach a stop: first <= 11, and if x > first + 64 their
    # ratios multiply to below (first + 64)! / first! / (first + 64)^64)
    first = np.maximum(s + np.asarray(lifts), 0)
    ratio = (first[:, None] + np.arange(1.0, 65.0)) / x
    stop = (ratio >= 1.0) | (np.cumprod(ratio, axis=1) < 1e-17)
    last = (first + np.where(x[:, 0] < math.inf, stop.argmax(axis=1), -1)
            ).tolist()
    stops, reach = {}, {}
    for key, stop in zip(keys, last):
        stops[key] = max(stops.get(key, stop), stop)
    for (poles, r), stop in stops.items():
        far = tuple(not x for x in poles)
        reach[far] = max(reach.get(far, 0), stop - r + 1)
    series = {far: [-x for x in moments(far, range(-1, -1 - n, -1))]
              for far, n in reach.items()}

    # the nonzero coefficients of int w^i ..., i = -2..stop, and their i,
    # in a row with these near poles and r: below max(r, 0) the near poles'
    # moment share (tau_0 at m = -1) where it does not cancel: below m = 3
    # the total is zero, so minus the far poles' part; above, the exact
    # moment if every pole is near, else the near poles' own; with no near
    # pole only tau_0 / w^-r.  Then the series, from ``series``.
    def coefficients(poles, r, stop):
        far, first = tuple(not x for x in poles), max(r, 0)
        out = [parts.tau0 if r == -2 else 0.0]
        for m in range(r, r - first - 1, -1):               # i = -1, ...
            if not any(poles):
                out.append(parts.tau0 if m == -1 else 0.0)
            elif m < 3:
                out.append(-moments(far, [m])[0])
            else:
                out.append(parts.moment(m) if all(poles)
                           else moments(poles, [m])[0])
        out += series[far][first - r:stop - r + 1]
        kept = [i for i, c in enumerate(out, -2) if c]
        return kept, [out[i + 2] for i in kept]

    table = {key: coefficients(*key, stop) for key, stop in stops.items()}
    # the terms, row by row: row, power i, coefficient; the orders each b
    # needs; and the scales, libm pow in builtin floats, times the i! of
    # ``_integer_shapes``
    rows, powers, cs, need = [], [], [], dict.fromkeys(rows_b, 0)
    for k, (key, stop) in enumerate(zip(keys, last)):
        kept, values = table[key]
        n = bisect.bisect_right(kept, stop)
        rows += [k] * n
        powers += kept[:n]
        cs += values[:n]
        need[rows_b[k]] = max(need[rows_b[k]], kept[n - 1] + 1 if n else 0)
    rows, powers = np.array(rows, dtype=int), np.array(powers, dtype=int)
    lift = (np.array(rows_j)[rows] - 1 - powers).tolist()
    scale = np.array([(beta / x) ** j for x, j in zip(rows_b, rows_j)])[
        rows] * list(map(pow, b[rows].tolist(), lift)) * np.array(
            [1.0, 1.0] + [float(math.factorial(i)) for i in range(max(
                need.values()))])[powers + 2]
    # the b by the orders they need, so that the recurrence runs on a
    # shrinking head of them, and the rows of the shape table: i = -2 and
    # -1 per b, then the orders in ``_integer_shapes``' groups
    bs = sorted(need, key=lambda x: (-need[x], x))
    index = {x: q for q, x in enumerate(bs)}
    orders, g = sorted(need.values()), _GROUP
    heads = [len(bs) - bisect.bisect_left(orders, e)
             for e in range(1, orders[-1] + 1)]
    starts = list(itertools.accumulate([g * h for h in heads[:-g:g]],
                                       initial=2 * len(bs)))
    base = [starts[o // g] + o % g * heads[o - o % g] for o in range(len(
        heads))]
    rows_total = base[-1] + heads[len(heads) - 1 - (len(heads) - 1) % g] \
        if heads else 2 * len(bs)
    work = (g + 1) * (heads[0] + heads[min(g, len(heads) - 1)]) if heads \
        else 0
    slots = np.where(powers < 0, (powers + 2) * len(bs), np.array(
        base + [0, 0])[powers]) + np.array([index[x] for x in rows_b])[rows]
    # the rows by how many terms they take, and the terms by round: each
    # round adds the next term of every row that has one, to a head of them
    counts = np.bincount(rows, minlength=len(rows_b))
    rank = np.argsort(-counts, kind="stable")
    place = np.argsort(rank)
    step = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    by_round = np.lexsort((place[rows], step))
    rounds = np.bincount(step).tolist()
    slots, c, scale = slots[by_round], np.array(cs)[by_round, None], \
        scale[by_round, None]
    at = np.array([index[rows_b[k]] for k in rank])
    coeff = np.array([coeff[rows_j[k]] for k in rank])
    coeff = np.where(np.isfinite(coeff), coeff, 0.0)
    bs = np.array(bs)
    near_b = bs[:, None] * parts.modulus < _ASYMPTOTIC_SWITCH  # (b, pole)
    kb, kp = np.nonzero(near_b)
    pair_b, pair_p, pair_m = bs[kb], parts.p[kp], parts.modulus[kp]
    kb, kp = np.nonzero(~near_b)
    far_b, far_p = bs[kb][:, None], parts.p[kp]
    spare = {}

    def buffer(name, shape, dtype=float):
        # a work array of this shape, kept for the later blocks of the call
        size = math.prod(shape)
        if name not in spare or spare[name].size < size:
            spare[name] = np.empty(size, dtype)
        return spare[name][:size].reshape(shape)

    def rows_at(t, phi):
        u = t / bs[:, None]
        l, a = _log1iu(u)
        part = buffer("part", near_b.shape + t.shape, complex)
        part[near_b] = _coth_bracket(pair_b, t, pair_p, pair_m, phi)
        z, cross = _crossing_ray(far_b, t, far_p)
        part[~near_b] = -1j * np.pi * np.exp(z, out=np.zeros_like(z),
                                             where=cross)
        gathered = buffer("rows", (at.size,) + part.shape[1:], complex)
        total = _pole_sum(coeff, np.take(part, at, axis=0, mode="clip",
                                         out=gathered))
        # the shapes b^(i+1) int_0^inf w^i e^(-bw) (1 - cos wt) dw: u atan u
        # - log(1 + u^2) / 2 at i = -2, log(1 + u^2) / 2 at i = -1, and
        # i! Re[1 - (1 + iu)^-(i+1)] from ``_integer_shapes``
        for lo in range(0, t.size, _SHAPE_CHUNK):
            k = slice(lo, lo + _SHAPE_CHUNK)
            size = u[:, k].shape[1]
            shapes = buffer("shapes", (rows_total, size))
            np.multiply(u[:, k], a[:, k], out=shapes[:bs.size])
            shapes[:bs.size] -= l[:, k]
            shapes[bs.size:2 * bs.size] = l[:, k]
            _integer_shapes(u[:, k], heads, shapes[2 * bs.size:], buffer(
                "orders", (work, size), complex))
            added = np.take(shapes, slots, axis=0, mode="clip", out=buffer(
                "added", (slots.size, size)))
            added *= scale                      # c * (scale * shape)
            added *= c
            start, into = 0, total[:, k]
            for head in rounds:
                into[:head] += added[start:start + head]
                start += head
        return total[place]

    return rows_at


def _lorentz_origin(parts: _LorentzParts, s: int, t, rays, phi):
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
    is near.  ``rays`` are ``_rays(0, t, p)``, and ``phi`` the stack of
    phi(z) and phi(-z); the series are array passes over all their terms.
    """
    z, minus_z, cross = rays
    phi_z, phi_minus_z = phi
    growth = 2j * np.pi * np.expm1(z) * cross
    head = -0.5 * (phi_z + phi_minus_z + growth)
    phase = (phi_z - phi_minus_z + growth
             + 2.0 * z * np.log(-parts.p)[:, None]) / 2j
    near = t * parts.modulus[:, None] < 1.0
    k = 1.0 - _EULER_GAMMA - np.log(t)
    if near.any():
        zs, log_mz = z[near], np.log(minus_z[near])
        power = _scaled(1.0 / np.arange(1.0, _ORIGIN_SERIES_TERMS), zs)
        power[0] = zs
        np.cumprod(power, axis=0, out=power)           # z^m / m!, m >= 1
        power = power[1:]
        e = 1j * np.pi * power
        shares = 2.0 * (_HARMONIC[:, None] - _EULER_GAMMA - log_mz) * power
        even = (np.arange(2, _ORIGIN_SERIES_TERMS) % 2 == 0)[:, None]
        g, d = (np.cumsum(e + np.where(on, shares, 0.0), axis=0)[-1]
                for on in (even, ~even))
        head[near], phase[near] = -0.5 * g, d / 2j
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
    -beta^j S(s + j, B).  n = 0 leaves S_gamma as None.  Each block of
    times makes one ``_phi`` call, for the origin's rays and, for n >= 1,
    the brackets'.
    """
    s = n - 2
    m, lift = _COTH_ROWS
    if n:
        rows = _lorentz_laplace(parts, m * beta, lift, s, beta)

    def sums(t):
        rays = _rays(0.0, t, parts.p)
        origin, at_origin = np.stack(rays[:2]), []

        def phi(z):
            values = _phi(np.concatenate([origin.ravel(), z]))
            at_origin.append(values[:origin.size].reshape(origin.shape))
            return values[origin.size:]

        values = rows(t, phi) if n else phi(np.empty(0, dtype=complex))
        head, delta = _lorentz_origin(parts, s, t, rays, at_origin[0])
        return (_coth_series(head, values) if n else None), delta

    return sums


def _lorentzian(j: Lorentzian, beta: float):
    """(gamma, Delta) as a function of a 1-d array of times t > 0; gamma
    None for n = 0.

    Frequencies are measured in units of w_c, so the poles have modulus 1
    (underdamped) or straddle it (overdamped).  Near critical damping,
    where the two upper poles merge, ``_LorentzParts`` holds points of a
    contour around them instead, and the same sums run on those.

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
    try:
        scale = 0.25 * j.coupling * j.q / math.pi * wc ** (j.n - 5)
    except OverflowError:
        raise QuadratureFailure(f"Lorentzian at omega_c={wc}: "
                                f"omega_c^{j.n - 5} is not finite") from None
    sums = _lorentz_sums(_LorentzParts(q, (1.0 - 0.5 * q) * (1.0 + 0.5 * q)),
                         j.n, _coldest(beta, wc))

    def kernel(t):
        return [None if x is None else scale * x for x in sums(wc * t)]

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
    with it, so an array call matches its scalar calls bit for bit.  The
    Ohmic and Lorentzian kernels take beta w_c past ``_COLDEST`` at that
    value (``_coldest``).  A value beyond the float range, or a Lorentzian
    bath past q = ``_MAX_OVERDAMPING`` w_c, raises QuadratureFailure.
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
