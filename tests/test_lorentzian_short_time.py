"""Lorentzian factors at short times, vs mpmath.

The draws keep t * (omega_c + 16 q) < 2 pi, where the integrand does not
oscillate where the bath lives; this was the direct one-pass range of the
former quadrature, and ``factors`` now sums its exact partial-fraction
form there.  The reference below is a 30-digit ``mpmath.quad`` of the
defining integrals that shares no code with the program.  Both are held to
the program's stated tolerance, 1e-8 relative with a 1e-12 absolute floor.

A second set of draws runs from omega_c t = 1e-7 to 1e-2, where both
factors are far below that floor: there they are held to 1e-8 relative
with no floor, against the same quadrature at 50 digits (``mp_short_time``,
checked against 70).
"""

import math

import numpy as np
import pytest

from spinbath.decoherence import BathConditions, factors
from spinbath.spectral import Lorentzian

mpmath = pytest.importorskip("mpmath")

OMEGA_C = 20.0


def mp_factors(coupling, q, omega_c, n, beta, t, dps=30):
    """(gamma, Delta) from their defining integrals, with mpmath.quad.

    gamma = 1/4 int J(w) (1 - cos(w t)) / w^2 coth(beta w / 2) dw and
    Delta = 1/4 int J(w) (sin(w t) - w t) / w^2 dw, with
    J(w) = coupling/pi q w^n / ((w^2 - omega_c^2)^2 + q^2 w^2).  Up to
    a = max(8 omega_c + 16 q, log(2 10^dps) / beta) the range is split at
    the resonance and its widths.  Beyond a, the smooth part of each kernel
    is integrated on the real axis, and the oscillating part env(w) e^(iwt)
    along w = a + iy, where it decays like e^(-yt): no pole of J or of coth
    lies in Re w > a.  Along that line coth(beta w / 2) departs from 1 by
    about 2 e^(-beta a), which the second bound of a keeps below the working
    precision; from 8 omega_c + 16 q alone, on a hot bath, that departure
    oscillates with period 2 pi / beta, and mpmath.quad missed gamma by a
    factor 6 at beta omega_c = 0.5, omega_c t = 1e-6 (n = 2, q = 0.05
    omega_c).
    """
    with mpmath.workdps(dps):
        lam, q, wc, b, t = (mpmath.mpf(v) for v in (coupling, q, omega_c,
                                                     beta, t))

        def spec(w):
            return lam / mpmath.pi * q * w ** n \
                / ((w * w - wc * wc) ** 2 + q * q * w * w)

        def gamma_env(w):
            return spec(w) * mpmath.coth(b * w / 2) / (4 * w * w)

        def delta_env(w):
            return spec(w) / (4 * w * w)

        def osc_tail(env):
            # int_a^inf env(w) e^(iwt) dw
            return 1j * mpmath.expj(a * t) * mpmath.quad(
                lambda y: env(a + 1j * y) * mpmath.exp(-y * t),
                [0, mpmath.inf])

        a = max(8 * wc + 16 * q, mpmath.log(2 * mpmath.mpf(10) ** dps) / b)
        pts = {mpmath.mpf(0), wc, a}
        for k in (0.5, 1, 2, 4, 8, 16):
            pts.update(p for p in (wc - k * q, wc + k * q) if p > 0)
        pts = sorted(pts)

        d = mpmath.quad(lambda w: delta_env(w) * (mpmath.sin(w * t) - w * t),
                        pts)
        d += mpmath.im(osc_tail(delta_env))
        d -= t * mpmath.quad(lambda w: delta_env(w) * w, [a, mpmath.inf])
        if not n:
            return mpmath.inf, d
        g = mpmath.quad(
            lambda w: gamma_env(w) * 2 * mpmath.sin(w * t / 2) ** 2, pts)
        g += mpmath.quad(gamma_env, [a, mpmath.inf])
        g -= mpmath.re(osc_tail(gamma_env))
        return g, d


def _draws():
    rng = np.random.default_rng(20261018)
    cases = []
    for n, count in ((0, 4), (1, 6), (2, 6)):
        for _ in range(count):
            q = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            t_max = min(0.25, 0.95 * 2.0 * math.pi / (OMEGA_C + 16.0 * q))
            t = float(np.exp(rng.uniform(math.log(0.005), math.log(t_max))))
            beta = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
            cases.append((n, q, beta, t))
    return cases


def within_tolerance(value, ref):
    ref = float(ref)
    return abs(value - ref) <= max(1e-8 * abs(ref), 1e-12)


@pytest.mark.parametrize("n,q,beta,t", _draws())
def test_direct_pass_matches_mpmath(n, q, beta, t):
    assert t * (OMEGA_C + 16.0 * q) < 2.0 * math.pi
    df = factors(Lorentzian(1.0, q, OMEGA_C, n), BathConditions(beta), t)
    ref_g, ref_d = mp_factors(1.0, q, OMEGA_C, n, beta, t)
    assert within_tolerance(df.delta, ref_d)
    if n == 0:
        assert math.isinf(df.gamma)
    else:
        assert math.isfinite(df.gamma)
        assert within_tolerance(df.gamma, ref_g)


def mp_real_axis_gamma(q, n, beta, t, dps=30):
    """gamma at omega_c = 1 with every w on the real axis, to check
    ``mp_factors`` with nothing moved off the axis: mpmath.quad up to
    2 pi / t, split at omega_c, q/2, 2q and the powers of 2, and
    mpmath.quadosc beyond."""
    with mpmath.workdps(dps):
        q, b, t = (mpmath.mpf(v) for v in (q, beta, t))

        def f(w):
            return q * w ** n / mpmath.pi / ((w * w - 1) ** 2 + q * q * w * w) \
                * mpmath.coth(b * w / 2) / (4 * w * w) \
                * 2 * mpmath.sin(w * t / 2) ** 2

        top = 2 * mpmath.pi / t
        pts = {mpmath.mpf(0), mpmath.mpf(1), q / 2, 2 * q, top}
        pts.update(mpmath.mpf(2) ** k
                   for k in range(-12, int(mpmath.log(top, 2))))
        return mpmath.quad(f, sorted(pts)) \
            + mpmath.quadosc(f, [top, mpmath.inf], omega=t / 2)


@pytest.mark.parametrize("beta,t", [(0.5, 1e-6), (2.1, 1.5e-4)])
def test_hot_short_time_reference_matches_real_axis(beta, t):
    # from a = 8 omega_c + 16 q alone these were a factor 6 and 1.3e-8 off
    ref = mp_factors(1.0, 0.05, 1.0, 2, beta, t)[0]
    assert abs(ref - mp_real_axis_gamma(0.05, 2, beta, t)) <= 1e-20 * ref


def test_reference_agrees_with_itself():
    # 30 and 40 digits agree far below the tested tolerance
    for n, q, beta, t in _draws()[4::6]:
        lo = mp_factors(1.0, q, OMEGA_C, n, beta, t)
        hi = mp_factors(1.0, q, OMEGA_C, n, beta, t, dps=40)
        for x, y in zip(lo, hi):
            if mpmath.isfinite(y):
                assert abs(x - y) <= 1e-20 * abs(y)


def mp_short_time(q, beta, t, n, dps):
    """``mp_factors`` at omega_c = 1 for omega_c t << 1.

    Both kernels cancel like (wt)^2 where the bath lives, so the working
    precision must exceed 30 digits by the digits that costs.
    """
    return mp_factors(1.0, q, 1.0, n, beta, t, dps)


def _short_draws():
    # n = 0, 1, 2, under- and overdamped (|q / w_c - 2| >= 0.1), w_c t in
    # [1e-7, 1e-2], beta w_c in [0.1, 10]; w_c = 1
    rng = np.random.default_rng(20261019)
    cases = []
    for n in (0, 1, 2):
        for lo, hi in ((0.01, 1.9), (2.1, 100.0), (0.01, 1.9), (2.1, 100.0)):
            q = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
            t = float(10.0 ** rng.uniform(-7.0, -2.0))
            beta = float(10.0 ** rng.uniform(-1.0, 1.0))
            cases.append((n, q, beta, t))
    return cases


SHORT_DPS = 50


@pytest.mark.parametrize("n,q,beta,t", _short_draws())
def test_short_times_match_mpmath(n, q, beta, t):
    # the program's tolerance, 1e-8 relative, with no absolute floor
    df = factors(Lorentzian(1.0, q, 1.0, n), BathConditions(beta), t)
    ref_g, ref_d = mp_short_time(q, beta, t, n, SHORT_DPS)
    assert abs(df.delta - float(ref_d)) <= 1e-8 * abs(float(ref_d))
    if n:
        assert abs(df.gamma - float(ref_g)) <= 1e-8 * float(ref_g)


def test_short_time_reference_agrees_with_itself():
    # the shortest time of each n at 50 and 70 digits
    draws = _short_draws()
    for n in (0, 1, 2):
        _, q, beta, t = min((x for x in draws if x[0] == n),
                            key=lambda x: x[3])
        lo = mp_short_time(q, beta, t, n, SHORT_DPS)
        hi = mp_short_time(q, beta, t, n, 70)
        for x, y in zip(lo, hi):
            if mpmath.isfinite(y):
                assert abs(x - y) <= 1e-12 * abs(y)
