"""The Euler-Maclaurin cut of the coth series, for both bath families.

gamma = scale [f(0) + 2 sum_{m>=1} f(m)] sums its first N - 1 terms directly
and the rest as an Euler-Maclaurin tail at N (``_coth_series``).
``_coth_cut`` picks N from a remainder bound that holds for every bath:
the tail is off by at most 2^-53 of the sum.  Here the same rows are cut at
N and at 4N, where the remainder is far below rounding, and both sums are
taken in 40-digit arithmetic, so only the cut and the rows that differ
between the two can separate them.
"""

import math

import numpy as np
import pytest

from spinbath.decoherence import (
    _COTH_DIRECT,
    _EM_COEFFS,
    _EM_DROPPED,
    _EM_TOL,
    _coth_bracket,
    _coth_rows,
    _coth_series,
    _lorentz_laplace,
    _lorentz_origin,
    _LorentzParts,
    _ohmic_rows,
    _phi,
    _rays,
)
from spinbath.spectral import Lorentzian, Ohmic

mpmath = pytest.importorskip("mpmath")


def test_weights_are_the_bernoulli_numbers():
    # B_2k / (2k)! for the six corrections and the first dropped term
    want = [mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
            for k in range(1, 8)]
    for got, ref in zip((*_EM_COEFFS, _EM_DROPPED), want):
        assert got == pytest.approx(float(ref), rel=1e-15, abs=0)


def coth_terms(bath, beta, t, n):
    """(f(0), rows) of the coth series of gamma cut at N = n."""
    rows, wc = _coth_rows(n), bath.omega_c
    if isinstance(bath, Ohmic):
        return _ohmic_rows(bath.s, beta * wc, wc * t, rows)
    q, s = bath.q / wc, bath.n - 2
    parts = _LorentzParts(q, (1.0 - 0.5 * q) * (1.0 + 0.5 * q))
    m, lifts = rows
    rays = _rays(0.0, wc * t, parts.p)
    return (_lorentz_origin(parts, s, wc * t, rays,
                            _phi(np.stack(rays[:2])))[0],
            _lorentz_laplace(parts, m * beta * wc, lifts, s, beta * wc)(
                wc * t, _phi))


def exact_sum(head, rows):
    """``_coth_series`` in 40-digit arithmetic, so the sum rounds nothing."""
    to_mp = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(40):
        return _coth_series(to_mp(head), to_mp(rows))


def row_weights(n):
    """The weight of each row of a cut at N = n in the series."""
    return np.array([2.0] * (n - 1) + [2.0, 1.0]
                    + [2.0 * abs(c) for c in _EM_COEFFS])


def _draws():
    """(bath, beta): seeded over the validated domain, plus the baths whose
    coth terms are nearly the exponential e^(-1.2 m) at which the bound is
    tightest (a narrow Ohmic peak at w = (s - 2) w_c)."""
    rng = np.random.default_rng(2026)
    baths = []
    for _ in range(12):
        s = float(math.exp(rng.uniform(math.log(0.02), math.log(160.0))))
        baths.append((Ohmic(1.0, s, 1.0),
                      float(math.exp(rng.uniform(math.log(1e-3),
                                                 math.log(1e3))))))
    for _ in range(12):
        # q / (beta w_c^2) <= 150, where the rows hold (ROADMAP item 2 (b))
        beta = float(math.exp(rng.uniform(math.log(1e-3), math.log(1e2))))
        q = float(math.exp(rng.uniform(math.log(1e-3),
                                       math.log(min(150.0 * beta, 1e3)))))
        baths.append((Lorentzian(1.0, q, 1.0, int(rng.integers(1, 3))), beta))
    for s in (20.0, 50.0, 160.0):
        for a in (1.2, 1.6):
            baths.append((Ohmic(1.0, s, 1.0), a / (s - 1.0)))
    return [pytest.param(bath, beta, id=(
        f"ohmic-s{bath.s:.3g}" if isinstance(bath, Ohmic)
        else f"lorentz-n{bath.n}-q{bath.q:.3g}") + f"-beta{beta:.3g}")
        for bath, beta in baths]


@pytest.mark.parametrize("bath,beta", _draws())
def test_gamma_at_n_agrees_with_gamma_at_4n(bath, beta):
    # gamma's series cut at N against the same series cut at 4N: at most
    # 2^-53 of it apart, plus the rows' own tolerance (1e-13 of each
    # Ohmic row, 1e-11 of each Lorentzian row, which holds only to about
    # 1e-12 where a near pole has 10 <= b |p| < 40) on the rows that differ
    # between the two cuts.  At the tight baths the cut is off by up to
    # 0.7 of the bound; at N - 2, or without the last tail term, it is off
    # by 2-23 times the bound there.
    n = _COTH_DIRECT
    t = np.array([0.3, 3.0, 300.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        head, rows = coth_terms(bath, beta, t, n)
        head_4n, rows_4n = coth_terms(bath, beta, t, 4 * n)
    rho = 1e-13 if isinstance(bath, Ohmic) else 1e-11
    differ = (np.abs(rows[n - 1:]) * row_weights(n)[n - 1:, None]).sum(0) \
        + (np.abs(rows_4n[n - 1:])
           * row_weights(4 * n)[n - 1:, None]).sum(0)
    at_n, at_4n = exact_sum(head, rows), exact_sum(head_4n, rows_4n)
    for k in range(t.size):
        gap = float(abs(at_n[k] - at_4n[k]))
        assert gap <= _EM_TOL * float(abs(at_4n[k])) + rho * differ[k], (
            bath, beta, t[k])


def mp_bracket(b, t, p):
    """phi(z0) - (phi(z0 + itp) + phi(z0 - itp)) / 2 - pi i expm1(z0 + itp)
    [crossing] at 40 digits, z0 = -bp, with phi(z) = e^z E1(z) + gamma_E +
    log z from mpmath.e1 (the bracket of ``_coth_bracket``)."""
    with mpmath.workdps(40):
        p, b, t = mpmath.mpc(p), mpmath.mpf(b), mpmath.mpf(t)

        def phi(z):
            return mpmath.exp(z) * mpmath.e1(z) + mpmath.euler + mpmath.log(z)

        z0 = -b * p
        z_minus, z_plus = z0 + 1j * t * p, z0 - 1j * t * p
        out = phi(z0) - (phi(z_minus) + phi(z_plus)) / 2
        if t * p.real - b * p.imag >= 0:
            out -= 1j * mpmath.pi * mpmath.expm1(z_minus)
        return complex(out)


def test_origin_series_of_the_bracket_matches_mpmath():
    # the bracket's power series at 0, for pairs with |p| sqrt(b^2 + t^2)
    # < 1 and t > b/4, over every direction of p in the upper half plane
    # (poles next to the real axis, whose rays cross the cut, and the
    # imaginary axis of overdamped poles) and |p| from 1e-7 to 3
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(240):
        modulus = 10.0 ** rng.uniform(-7.0, 0.5)
        angle = (rng.uniform(1e-6, math.pi - 1e-6) if k % 4
                 else [1e-9, math.pi / 2, math.pi - 1e-9][k // 4 % 3])
        p = modulus * complex(math.cos(angle), math.sin(angle))
        r = rng.uniform(0.05, 0.99) / modulus
        phase = rng.uniform(math.atan(0.25) + 1e-3, math.pi / 2 - 1e-6)
        b, t = r * math.cos(phase), r * math.sin(phase)
        got = _coth_bracket(np.array([b]), np.array([t]), np.array([p]),
                            np.array([modulus]), _phi)[0, 0]
        ref = mp_bracket(b, t, p)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-14
