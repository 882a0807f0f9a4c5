import math

import numpy as np
import pytest

from spinbath.decoherence import (
    _KERNELS,
    BathConditions,
    DecoherenceFactors,
    Method,
    coth_half,
    factors,
    sin_minus_wt,
)
from spinbath.errors import InvalidTime
from spinbath.quadrature import (
    _osc_tail,
    ohmic_delta_by_quadrature,
    ohmic_delta_s2_closed_form,
)
from spinbath.spectral import Lorentzian, Ohmic, SingleMode

BC = BathConditions(beta=1.0)

# Frozen high-precision values (arbitrary-precision oscillation-aware
# quadrature, stable to the digits shown).
ORACLES = [
    # (bath, t, gamma, delta, tol_gamma, tol_delta)
    (Ohmic(0.01, 1.0, 10.0), 2.0,
     0.016262889202149642748, -0.046197905172317615355, 2e-9, 1e-10),
    (Ohmic(0.01, 0.5, 10.0), 2.0,
     0.07491841460185150092, -0.061289390693774186357, 1e-8, 1e-8),
    (Ohmic(0.01, 3.0, 10.0), 7.0,
     0.0025715639852914439901, -0.3499999854286886057, 1e-8, 1e-10),
    (Lorentzian(1.0, 0.05, 20.0, 2), 3.0,
     0.00058882247446311558571, -0.018823098120075745373, 5e-7, 1e-8),
    (Lorentzian(1.0, 0.5, 20.0, 1), 3.0,
     0.000025370142747053323145, -0.00093914960361410432627, 5e-7, 1e-8),
]


class TestKernels:
    def test_coth_large_argument(self):
        assert coth_half(1.0, 100.0) == pytest.approx(1.0, abs=1e-15)

    def test_coth_matches_direct_form_at_switch(self):
        # Laurent and direct evaluations agree through the switch point
        for x in (5e-5, 2e-4, 1e-3):
            direct = 1.0 / math.tanh(0.5 * x)
            assert coth_half(1.0, x) == pytest.approx(direct, rel=1e-12)

    def test_coth_value(self):
        assert coth_half(1.0, 20.0) == pytest.approx(1.00000000412230725, rel=1e-15)

    def test_sin_minus_wt_series_matches(self):
        for x in (1e-4, 9e-4, 2e-3):
            exact = math.sin(x) - x
            assert sin_minus_wt(x, 1.0) == pytest.approx(exact, rel=1e-10)

    def test_sin_minus_wt_nonpositive(self):
        w = np.logspace(-8, 3, 300)
        assert np.all(sin_minus_wt(w, 7.3) <= 0)


class TestSingleMode:
    def test_zero_time(self):
        df = factors(SingleMode(1.0, 20.0), BC, 0.0)
        assert df.gamma == 0.0 and df.delta == 0.0
        assert df.method is Method.CLOSED_FORM

    def test_full_period_phase(self):
        # gamma vanishes, Delta = -lambda*pi/(2*omega_c^2) = -pi/800
        df = factors(SingleMode(1.0, 20.0), BC, 2 * math.pi / 20)
        assert abs(df.gamma) < 1e-30
        assert df.delta == pytest.approx(-math.pi / 800, rel=1e-14)

    def test_half_period_gamma(self):
        df = factors(SingleMode(1.0, 20.0), BC, math.pi / 20)
        assert df.gamma == pytest.approx(0.00125000000515288407, rel=1e-14)

    def test_low_temperature_limit(self):
        # coth factor -> 1, gamma -> (lam/4)(1-cos wc t)/wc^2
        df = factors(SingleMode(2.0, 5.0), BathConditions(1e3), 0.4)
        expect = 0.5 * (1 - math.cos(2.0)) / 25.0
        assert df.gamma == pytest.approx(expect, rel=1e-12)

    def test_gamma_periodicity(self):
        j = SingleMode(1.0, 20.0)
        df = factors(j, BC, np.array([0.0, math.pi / 20, 2 * math.pi / 20]))
        assert df.gamma[0] == 0.0
        assert abs(df.gamma[2]) < 1e-30


class TestQuadratureFactors:
    @pytest.mark.parametrize("bath,t,g,d,tg,td", ORACLES)
    def test_frozen_oracles(self, bath, t, g, d, tg, td):
        df = factors(bath, BC, t)
        assert df.gamma == pytest.approx(g, rel=tg)
        assert df.delta == pytest.approx(d, rel=td)

    def test_zero_time(self):
        df = factors(Ohmic(0.01, 1.5, 10.0), BC, 0.0)
        assert df == DecoherenceFactors(0.0, 0.0, False,
                                        Method.ANALYTIC_REDUCTION)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidTime):
            factors(Ohmic(0.01, 1.0, 10.0), BC, -0.1)

    def test_signs(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            j = Ohmic(rng.uniform(0.005, 0.1), rng.uniform(0.3, 4.0),
                      rng.uniform(2.0, 20.0))
            t = rng.uniform(0.0, 20.0)
            df = factors(j, BC, t)
            assert df.gamma >= 0.0
            assert df.delta <= 0.0

    def test_coupling_linearity(self):
        j1 = Ohmic(0.013, 1.7, 8.0)
        j2 = Ohmic(0.026, 1.7, 8.0)
        for t in (0.5, 3.0, 12.0):
            a = factors(j1, BC, t)
            b = factors(j2, BC, t)
            assert b.gamma == pytest.approx(2 * a.gamma, rel=1e-10)
            assert b.delta == pytest.approx(2 * a.delta, rel=1e-10)

    def test_temperature_monotonicity(self):
        j = Lorentzian(1.0, 0.5, 20.0, 2)
        for t in (1.0, 5.0, 20.0):
            hot = factors(j, BathConditions(0.2), t)
            cold = factors(j, BathConditions(2.0), t)
            assert hot.gamma >= cold.gamma - 1e-12

    def test_delta_non_increasing(self):
        # d(Delta)/dt = 1/4 int J (cos wt - 1)/w dw <= 0 for every bath
        j = Ohmic(0.01, 2.0, 10.0)
        ts = np.linspace(0.0, 30.0, 40)
        ds = [factors(j, BC, t).delta for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))

    def test_ohmic_s2_dispatch_uses_analytic_reduction(self):
        df = factors(Ohmic(0.01, 2.0, 10.0), BC, 5.0)
        assert df.method is Method.ANALYTIC_REDUCTION
        assert df.delta == pytest.approx(-0.1249500199920032, rel=1e-14)

    def test_s2_quadrature_vs_analytic(self):
        # independent routes: split quadrature vs elementary antiderivative
        j = Ohmic(0.01, 2.0, 10.0)
        for t in np.linspace(0.1, 50.0, 25):
            q = ohmic_delta_by_quadrature(j, t)
            a = ohmic_delta_s2_closed_form(0.01, 10.0, t)
            assert abs(q - a) <= 1e-8 * abs(a)


class TestOscTail:
    # t = 0.5 takes the first-order fallback, t = 200 the full remainder bound
    @pytest.mark.parametrize("t", [0.5, 200.0])
    def test_one_amplitude_call(self, t):
        calls = []

        def amp(w):
            calls.append(np.shape(w))
            return np.exp(-w / 10.0) / w ** 2

        value, bound = _osc_tail(amp, t, 30.0, "cos", 0.03)
        assert np.isfinite(value) and bound > 0.0
        assert calls == [(24,)]


class TestDivergenceClassification:
    def test_lorentzian_n0_divergent(self):
        j = Lorentzian(1.0, 0.05, 20.0, 0)
        for t in (0.1, 1.0, 10.0):
            df = factors(j, BC, t)
            assert df.gamma_divergent
            assert math.isinf(df.gamma)
            assert np.isfinite(df.delta) and df.delta <= 0.0

    def test_lorentzian_n0_at_zero_time(self):
        df = factors(Lorentzian(1.0, 0.05, 20.0, 0), BC, 0.0)
        assert df.gamma == 0.0 and not df.gamma_divergent

    @pytest.mark.parametrize("n", [1, 2])
    def test_lorentzian_n12_finite(self, n):
        df = factors(Lorentzian(1.0, 0.5, 20.0, n), BC, 4.0)
        assert not df.gamma_divergent and np.isfinite(df.gamma)


class TestSeries:
    def test_single_point_consistency(self):
        cases = [
            (Ohmic(0.01, 1.0, 10.0), [0.0, 1.0, 3.7]),
            # the fig3 grid and the fig7 single-mode grid
            (Ohmic(0.01, 0.5, 10.0), np.linspace(0.0, 40.0, 251)),
            (SingleMode(0.01, 20.0), np.linspace(0.0, 4000.0, 1001)),
            # quadrature, one time at a time inside the call
            (Lorentzian(1.0, 0.5, 20.0, 2), [0.0, 0.5, 3.0]),
        ]
        for j, times in cases:
            batch = factors(j, BC, np.asarray(times))
            assert batch.gamma.shape == batch.delta.shape == (len(times),)
            for t, g, d in zip(times, batch.gamma, batch.delta):
                alone = factors(j, BC, float(t))
                assert type(alone.gamma) is float and type(alone.delta) is float
                assert batch.method is alone.method
                assert abs(g - alone.gamma) <= 1e-15 * abs(alone.gamma)
                assert abs(d - alone.delta) <= 1e-15 * abs(alone.delta)

    def test_zero_grid(self):
        out = factors(Ohmic(0.01, 1.0, 10.0), BC, np.array([0.0]))
        assert out.gamma[0] == 0.0 and out.delta[0] == 0.0


def test_bath_conditions_validation():
    with pytest.raises(ValueError):
        BathConditions(beta=0.0)
    with pytest.raises(ValueError):
        BathConditions(beta=math.inf)


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _validated_baths(family, rng, count):
    # each family over its validated range, beta w_c 1e-3-1e3: the
    # Lorentzian q to 1e4 w_c, a tenth of the baths within 1e-3 w_c of
    # critical damping, down into the interpolated band
    for k in range(count):
        wc = float(_log_uniform(rng, 0.1, 50.0))
        beta = float(_log_uniform(rng, 1e-3, 1e3)) / wc
        if family is SingleMode:
            yield SingleMode(float(_log_uniform(rng, 1e-3, 10.0)), wc), beta
        elif family is Ohmic:
            yield Ohmic(float(_log_uniform(rng, 1e-3, 10.0)),
                        float(_log_uniform(rng, 0.02, 20.0)), wc), beta
        else:
            q = float(2.0 + rng.choice([-1.0, 1.0])
                      * _log_uniform(rng, 1e-10, 1e-3) if k % 10 == 0
                      else _log_uniform(rng, 1e-5, 1e4))
            yield Lorentzian(1.0, q * wc, wc, int(rng.integers(0, 3))), beta


@pytest.mark.parametrize("family", [SingleMode, Ohmic, Lorentzian])
def test_kernel_signs_before_the_clamps(family):
    # gamma >= 0 and Delta <= 0 from each kernel itself, before the clamps
    # of ``factors``, on 15,000 points: 250 baths, 60 times each with
    # w_c t from 1e-10 to 1e3
    kernel, _ = _KERNELS[family]
    rng = np.random.default_rng(16)
    for bath, beta in _validated_baths(family, rng, 250):
        t = np.sort(_log_uniform(rng, 1e-10, 1e3, 60)) / bath.omega_c
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gamma, delta = kernel(bath, beta, t)
        assert np.all(np.isfinite(delta) & (delta <= 0.0)), (bath, beta)
        if gamma is not None:
            assert np.all(np.isfinite(gamma) & (gamma >= 0.0)), (bath, beta)


@pytest.mark.parametrize("floats,ints", [
    (SingleMode(1.0, 2.0), SingleMode(1, 2)),
    (Ohmic(1.0, 3.0, 10.0), Ohmic(1, 3, 10)),
    (Lorentzian(1.0, 1.0, 20.0, 2), Lorentzian(1, 1, 20, 2)),
    (Lorentzian(1.0, 0.05, 20.0, 1), Lorentzian(1, 0.05, 20, 1.0)),
    (Lorentzian(1.0, 30.0, 1.0, 0), Lorentzian(1, 30, 1, 0)),
])
def test_integer_parameters_give_the_float_factors(floats, ints):
    for t in (5.0, 5, np.array([0.0, 1e-3, 5.0, 60.0]), np.array([0, 5])):
        want = factors(floats, BathConditions(1.0), t)
        got = factors(ints, BathConditions(1), t)
        for x, y in zip((want.gamma, want.delta, want.gamma_divergent),
                        (got.gamma, got.delta, got.gamma_divergent)):
            assert type(x) is type(y)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
