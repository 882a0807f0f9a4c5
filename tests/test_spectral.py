import math

import numpy as np
import pytest

from spinbath.errors import ConfigError, NotPointwise
from spinbath.spectral import (
    Lorentzian,
    Ohmic,
    SingleMode,
    evaluate,
    from_config_dict,
    to_config_dict,
)


class TestEvaluate:
    def test_ohmic_value(self):
        j = Ohmic(coupling=0.01, s=1.0, omega_c=10.0)
        # 0.01 * 10 * e^-1
        assert evaluate(j, 10.0) == pytest.approx(0.1 * math.exp(-1.0), rel=1e-15)

    def test_ohmic_vanishes_at_infinity(self):
        j = Ohmic(coupling=0.5, s=3.0, omega_c=2.0)
        assert evaluate(j, 400.0) < 1e-70

    def test_lorentzian_peak_value(self):
        j = Lorentzian(coupling=1.0, q=0.05, omega_c=20.0, n=2)
        # (1/pi) * q * wc^2 / (q^2 wc^2) = 1/(pi q) at resonance -> 20/pi here
        assert evaluate(j, 20.0) == pytest.approx(20.0 / math.pi, rel=1e-14)

    def test_single_mode_not_pointwise(self):
        with pytest.raises(NotPointwise):
            evaluate(SingleMode(coupling=1.0, omega_c=20.0), 1.0)

    def test_rejects_nonpositive_omega(self):
        j = Ohmic(coupling=1.0, s=1.0, omega_c=1.0)
        with pytest.raises(ValueError):
            evaluate(j, 0.0)

    def test_nonnegative_on_log_grid(self):
        rng = np.random.default_rng(3)
        grid = np.logspace(-6, 3, 200)
        for _ in range(20):
            j = Ohmic(coupling=rng.uniform(0.01, 5),
                      s=rng.uniform(0.1, 5), omega_c=rng.uniform(0.5, 50))
            assert np.all(evaluate(j, grid) >= 0)
            jl = Lorentzian(coupling=rng.uniform(0.01, 5), q=rng.uniform(0.01, 10),
                            omega_c=rng.uniform(0.5, 50), n=int(rng.integers(0, 3)))
            assert np.all(evaluate(jl, grid) >= 0)

    def test_lorentzian_peak_near_resonance(self):
        grid = np.linspace(15.0, 25.0, 20001)
        for q in (0.05, 0.2, 1.0):
            j = Lorentzian(coupling=1.0, q=q, omega_c=20.0, n=2)
            peak = grid[np.argmax(evaluate(j, grid))]
            assert abs(peak - 20.0) < q

    def test_coupling_linearity_exact(self):
        grid = np.logspace(-3, 2, 50)
        a = Ohmic(coupling=0.37, s=1.3, omega_c=7.0)
        b = Ohmic(coupling=0.74, s=1.3, omega_c=7.0)
        assert np.array_equal(evaluate(b, grid), 2.0 * evaluate(a, grid))


class TestValidation:
    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            SingleMode(coupling=0.0, omega_c=1.0)
        with pytest.raises(ValueError):
            Ohmic(coupling=1.0, s=-1.0, omega_c=1.0)
        with pytest.raises(ValueError):
            Lorentzian(coupling=1.0, q=0.1, omega_c=0.0, n=1)

    def test_lorentzian_power_restricted(self):
        with pytest.raises(ValueError):
            Lorentzian(coupling=1.0, q=0.1, omega_c=1.0, n=3)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("j", [
        SingleMode(coupling=1.0, omega_c=20.0),
        Ohmic(coupling=0.01, s=2.0, omega_c=10.0),
        Lorentzian(coupling=1.0, q=0.05, omega_c=20.0, n=2),
    ])
    def test_round_trip(self, j):
        assert from_config_dict(to_config_dict(j)) == j

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            from_config_dict({"family": "debye", "lambda": 1.0})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            from_config_dict({"family": "ohmic", "lambda": 1.0, "omega_c": 2.0})

    def test_coupling_alias(self):
        d = {"family": "single_mode", "coupling": 2.0, "omega_c": 5.0}
        assert from_config_dict(d) == SingleMode(2.0, 5.0)
        with pytest.raises(ConfigError, match="alias"):
            from_config_dict({**d, "lambda": 1.0})

    @pytest.mark.parametrize("j,extra", [
        (Ohmic(coupling=0.01, s=2.0, omega_c=10.0), "lamda"),
        (Ohmic(coupling=0.01, s=2.0, omega_c=10.0), "n"),
        (SingleMode(coupling=1.0, omega_c=20.0), "s"),
        (Lorentzian(coupling=1.0, q=0.05, omega_c=20.0, n=2), "omega"),
    ])
    def test_unknown_key_rejected(self, j, extra):
        with pytest.raises(ConfigError, match=f"bath.{extra}"):
            from_config_dict({**to_config_dict(j), extra: 1.0})

    def test_integral_n(self):
        d = to_config_dict(Lorentzian(coupling=1.0, q=0.05, omega_c=20.0, n=2))
        assert from_config_dict({**d, "n": 2.0}).n == 2
        assert type(from_config_dict({**d, "n": 1e0}).n) is int
        for bad in (1.5, 2.0000001, float("inf")):
            with pytest.raises(ConfigError):
                from_config_dict({**d, "n": bad})
