"""Exact Ohmic dephasing exponent: against mpmath, quadrature and itself."""

import math

import numpy as np
import pytest

from spinbath.decoherence import (
    BathConditions,
    factors,
    ohmic_gamma,
)
from spinbath.errors import QuadratureFailure
from spinbath.quadrature import _gamma_by_quadrature
from spinbath.scenario import builtin_presets
from spinbath.spectral import Ohmic

mpmath = pytest.importorskip("mpmath")


def mp_gamma(coupling, s, omega_c, beta, t, dps=40, direct=16):
    """gamma(t) as a coth-series sum with a Hurwitz-zeta tail, in mpmath.

    With x = w_c t, kappa = beta w_c and b_n = 1 + n kappa, gamma is
    lam/4 Gamma(s) sum_n w_n Re[b_n^(1-s) - (b_n + ix)^(1-s)] / (s - 1)
    (w_0 = 1, w_n = 2).  Terms n < ``direct`` are summed one by one; the
    rest is kappa^(1-s) [zeta(s-1, q) - zeta(s-1, q + ix/kappa)] / (s - 1),
    q = direct + 1/kappa, with its limits at s = 1 (zeta') and s = 2
    (digamma).
    """
    with mpmath.workdps(dps + 15):
        s = mpmath.mpf(s)
        e = s - 1
        kappa = mpmath.mpf(beta) * mpmath.mpf(omega_c)
        x = mpmath.mpf(omega_c) * mpmath.mpf(t)

        def term(b):
            if e == 0:
                return mpmath.re(mpmath.log(b + 1j * x) - mpmath.log(b))
            return mpmath.re(b ** -e - (b + 1j * x) ** -e) / e

        total = term(mpmath.mpf(1))
        for n in range(1, direct):
            total += 2 * term(1 + n * kappa)
        q1 = direct + 1 / kappa
        q2 = q1 + 1j * x / kappa
        if e == 0:
            tail = mpmath.re(mpmath.zeta(0, q1, 1) - mpmath.zeta(0, q2, 1))
        elif e == 1:
            tail = mpmath.re(mpmath.digamma(q2) - mpmath.digamma(q1)) / kappa
        else:
            tail = kappa ** -e * mpmath.re(mpmath.zeta(e, q1)
                                           - mpmath.zeta(e, q2)) / e
        total += 2 * tail
        return +(mpmath.mpf(coupling) / 4 * mpmath.gamma(s) * total)


def rel_err(value, ref):
    with mpmath.workdps(50):
        return float(abs((mpmath.mpf(value) - ref) / ref))


def test_reference_is_stable_in_its_split():
    # a different direct/tail split and precision give the same digits
    for s, beta, t in [(0.02, 1e-3, 2e4), (1.0, 100.0, 3.0), (2.0, 0.3, 7.0),
                       (8.0, 1.0, 1e-4)]:
        a = mp_gamma(0.01, s, 10.0, beta, t)
        b = mp_gamma(0.01, s, 10.0, beta, t, dps=50, direct=40)
        assert rel_err(a, b) <= 1e-35


def random_baths(n, seed):
    """(s, beta, omega_c): s in [0.02, 8] plus the special values, beta
    log-uniform in [1e-3, 100], omega_c log-uniform in [1, 30]."""
    rng = np.random.default_rng(seed)
    special = [0.02, 1.0, 2.0, 8.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9,
               2.0 + 1e-9]
    s_vals = special + list(rng.uniform(0.02, 8.0, n - len(special)))
    return [(float(s), float(10.0 ** rng.uniform(-3.0, 2.0)),
             float(10.0 ** rng.uniform(0.0, math.log10(30.0))))
            for s in s_vals]


def test_array_vs_mpmath():
    rng = np.random.default_rng(21)
    worst = 0.0
    for s, beta, omega_c in random_baths(60, seed=20):
        # log-uniform in [1e-6, 2e4], ending at the extremes
        times = np.append(10.0 ** rng.uniform(-6.0, math.log10(2e4), 2),
                          [1e-6, 2e4])
        values = ohmic_gamma(Ohmic(0.02, s, omega_c), beta, times)
        for t, v in zip(times, values):
            worst = max(worst, rel_err(v, mp_gamma(0.02, s, omega_c, beta, t)))
    assert worst <= 1e-12


@pytest.mark.parametrize("s,beta", [(0.02, 1e-3), (0.02, 100.0), (1.0, 1e-3),
                                    (2.0, 100.0), (8.0, 1e-3), (8.0, 100.0)])
def test_corners_vs_mpmath(s, beta):
    times = np.array([1e-6, 0.37, 40.0, 2e4])
    values = ohmic_gamma(Ohmic(0.01, s, 10.0), beta, times)
    for t, v in zip(times, values):
        assert rel_err(v, mp_gamma(0.01, s, 10.0, beta, t)) <= 1e-12


def figure_grids():
    """(bath, beta, times > 0) of the fig3/fig4 presets, one per ohmicity."""
    seen = {}
    for name, cfg in builtin_presets().items():
        if name.startswith(("fig3_", "fig4_")):
            seen.setdefault(cfg.bath.s, pytest.param(
                cfg.bath, cfg.beta, cfg.grid.times(), id=f"s{cfg.bath.s:g}"))
    return list(seen.values())


@pytest.mark.parametrize("bath,beta,times", figure_grids())
def test_vs_quadrature_on_figure_grids(bath, beta, times):
    times = times[times > 0.0]
    exact = ohmic_gamma(bath, beta, times)
    quad = np.array([_gamma_by_quadrature(bath, beta, float(t)) for t in times])
    assert np.max(np.abs(exact - quad) / quad) <= 1e-8


def test_array_matches_scalar_factors():
    rng = np.random.default_rng(22)
    for s, beta, omega_c in random_baths(12, seed=23):
        j, bc = Ohmic(0.01, s, omega_c), BathConditions(beta)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 50.0, 15))])
        batch = factors(j, bc, times)
        for k, t in enumerate(times):
            one = factors(j, bc, float(t))
            assert type(one.gamma) is float and type(one.delta) is float
            assert (batch.gamma[k], batch.delta[k]) == (one.gamma, one.delta)


def test_zero_time_is_zero():
    for s in (0.02, 1.0, 2.0, 3.7):
        j = Ohmic(0.01, s, 10.0)
        assert ohmic_gamma(j, 1.0, 0.0) == 0.0
        batch = factors(j, BathConditions(1.0), np.array([0.0, 1.0]))
        assert batch.gamma[0] == 0.0 and batch.delta[0] == 0.0
        assert batch.gamma[1] > 0.0


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_cold_beta_gives_the_bits_of_1e300(s):
    # the public kernel caps beta w_c at 1e300 itself, as runs through
    # factors do; uncapped, N beta w_c overflows to a nan gamma
    j = Ohmic(0.01, s, 10.0)
    t = np.array([1e-3, 1.0, 37.0, 1e4])
    at = ohmic_gamma(j, 1e300 / 10.0, t)
    assert np.all(np.isfinite(at))
    for kappa in (1e307, 1.7e308):
        assert ohmic_gamma(j, kappa / 10.0, t).tobytes() == at.tobytes()
    assert ohmic_gamma(j, 1e307, [1.0]).tobytes() == at[1:2].tobytes()


def test_gamma_function_overflow_is_quadrature_failure():
    with pytest.raises(QuadratureFailure, match="not finite"):
        ohmic_gamma(Ohmic(0.01, 200.0, 10.0), 1.0, np.array([0.0, 1.0]))


def test_overflowing_result_is_quadrature_failure():
    # Gamma(170) is finite, but lam/4 Gamma(s) is not
    with pytest.raises(QuadratureFailure, match="not finite"):
        ohmic_gamma(Ohmic(1e10, 170.0, 1.0), 1.0, 2.0)
