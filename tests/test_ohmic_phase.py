"""Exact Ohmic phase: closed form against mpmath and against quadrature."""

import math

import numpy as np
import pytest

from spinbath.decoherence import (
    BathConditions,
    _ohmic_series_switch,
    factors,
    ohmic_delta,
)
from spinbath.errors import QuadratureFailure
from spinbath.quadrature import ohmic_delta_by_quadrature
from spinbath.spectral import Ohmic

mpmath = pytest.importorskip("mpmath")


def mp_delta(coupling, s, omega_c, t, dps=40):
    """lam/4 [Gamma(s-1) Im (1 - i x)^(1-s) - Gamma(s) x], x = omega_c t."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(omega_c) * mpmath.mpf(t)
        s = mpmath.mpf(s)
        if s == 1:
            bracket = mpmath.atan(x) - x
        else:
            bracket = (mpmath.gamma(s - 1) * mpmath.im((1 - 1j * x) ** (1 - s))
                       - mpmath.gamma(s) * x)
        return mpmath.mpf(coupling) / 4 * bracket


def rel_err(value, ref):
    return float(abs((mpmath.mpf(value) - ref) / ref))


# long-time and isolated short-time points where the quadrature phase failed
FAULT_POINTS = [(2.5, 2000.0), (3.0, 1000.0), (4.0, 500.0), (3.0, 1e4),
                (4.0, 38.58926), (4.0, 38.589261)]


@pytest.mark.parametrize("s,t", FAULT_POINTS)
def test_former_quadrature_faults(s, t):
    df = factors(Ohmic(0.01, s, 10.0), BathConditions(1.0), t)
    assert math.isfinite(df.gamma) and df.gamma >= 0.0
    assert math.isfinite(df.delta) and df.delta <= 0.0
    assert rel_err(df.delta, mp_delta(0.01, s, 10.0, t, dps=30)) <= 1e-11


def random_draws(n, seed):
    """(s, omega_c, t): s in [0.1, 6] plus the special values, x log-uniform."""
    rng = np.random.default_rng(seed)
    special = [1.0, 2.0, 3.0, 1.0 - 1e-9, 1.0 + 1e-9]
    s_vals = special + list(rng.uniform(0.1, 6.0, n - len(special)))
    out = []
    for s in s_vals:
        omega_c = float(rng.uniform(1.0, 30.0))
        x = float(10.0 ** rng.uniform(-4.0, 3.0))
        out.append((float(s), omega_c, x / omega_c))
    return out


def test_closed_form_vs_mpmath():
    worst = 0.0
    for s, omega_c, t in random_draws(80, seed=11):
        err = rel_err(ohmic_delta(Ohmic(0.02, s, omega_c), t),
                      mp_delta(0.02, s, omega_c, t))
        worst = max(worst, err)
    assert worst <= 1e-11


def test_closed_form_vs_quadrature():
    # below x = 0.1 the quadrature's split terms cancel to O(x^2), so its
    # tolerance on each term no longer bounds the relative error of Delta
    compared = 0
    for s, omega_c, t in random_draws(40, seed=12):
        if omega_c * t < 0.1:
            continue
        j = Ohmic(0.02, s, omega_c)
        try:
            q = ohmic_delta_by_quadrature(j, t)
        except QuadratureFailure:
            continue
        exact = ohmic_delta(j, t)
        assert abs(q - exact) <= 1e-8 * abs(exact), (s, omega_c, t)
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1.0 + 1e-9, 2.5, 6.0, 12.0])
def test_continuous_across_series_switch(s):
    j = Ohmic(0.01, s, 1.0)
    x0 = _ohmic_series_switch(s)
    below, above = x0 * (1.0 - 1e-13), x0 * (1.0 + 1e-13)
    d_below, d_above = ohmic_delta(j, below), ohmic_delta(j, above)
    # Delta ~ x^3 near the origin: the true change is ~6e-13 relative
    assert abs(d_above - d_below) <= 2e-12 * abs(d_below)
    for x, d in ((below, d_below), (above, d_above)):
        assert rel_err(d, mp_delta(0.01, s, 1.0, x)) <= 1e-12


def test_s1_is_arctangent_form():
    j = Ohmic(0.03, 1.0, 7.0)
    for t in (0.2, 3.0, 40.0):
        x = 7.0 * t
        assert ohmic_delta(j, t) == pytest.approx(
            0.03 / 4.0 * (math.atan(x) - x), rel=1e-14)


def test_gamma_overflow_is_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        ohmic_delta(Ohmic(0.01, 200.0, 10.0), 1.0)
