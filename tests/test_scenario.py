import math

import numpy as np
import pytest

from spinbath.errors import ComputeError, ConfigError
from spinbath.scenario import (
    IdealComparison,
    ScenarioConfig,
    TimeGrid,
    builtin_presets,
    compare_ideal,
    run,
)
from spinbath.spectral import Lorentzian, Ohmic, SingleMode

# Caption manifest: every numeric parameter a preset must carry, as quoted
# in the figure captions it reproduces.
CAPTION_MANIFEST = {
    "fig1_lambda0p01": dict(family="single_mode", coupling=0.01, omega_c=20.0, beta=1.0),
    "fig1_lambda0p05": dict(family="single_mode", coupling=0.05, omega_c=20.0, beta=1.0),
    "fig1_lambda0p5": dict(family="single_mode", coupling=0.5, omega_c=20.0, beta=1.0),
    "fig1_lambda1": dict(family="single_mode", coupling=1.0, omega_c=20.0, beta=1.0),
    "fig1_lambda2": dict(family="single_mode", coupling=2.0, omega_c=20.0, beta=1.0),
    "fig1_lambda5": dict(family="single_mode", coupling=5.0, omega_c=20.0, beta=1.0),
    "fig2_beta1": dict(family="single_mode", coupling=1.0, omega_c=20.0, beta=1.0),
    "fig2_beta0p1": dict(family="single_mode", coupling=1.0, omega_c=20.0, beta=0.1),
    "fig2_beta0p01": dict(family="single_mode", coupling=1.0, omega_c=20.0, beta=0.01),
    "fig3_s0p5": dict(family="ohmic", coupling=0.01, s=0.5, omega_c=10.0, beta=1.0),
    "fig3_s1": dict(family="ohmic", coupling=0.01, s=1.0, omega_c=10.0, beta=1.0),
    "fig3_s2": dict(family="ohmic", coupling=0.01, s=2.0, omega_c=10.0, beta=1.0),
    "fig3_s3": dict(family="ohmic", coupling=0.01, s=3.0, omega_c=10.0, beta=1.0),
    "fig3_s4": dict(family="ohmic", coupling=0.01, s=4.0, omega_c=10.0, beta=1.0),
    "fig4_s2": dict(family="ohmic", coupling=0.01, s=2.0, omega_c=10.0, beta=1.0),
    "fig4_s2p5": dict(family="ohmic", coupling=0.01, s=2.5, omega_c=10.0, beta=1.0),
    "fig4_s3": dict(family="ohmic", coupling=0.01, s=3.0, omega_c=10.0, beta=1.0),
    "fig4_s3p5": dict(family="ohmic", coupling=0.01, s=3.5, omega_c=10.0, beta=1.0),
    "fig4_s4": dict(family="ohmic", coupling=0.01, s=4.0, omega_c=10.0, beta=1.0),
    "fig5a": dict(family="lorentzian", coupling=1.0, q=0.05, omega_c=20.0, n=1, beta=1.0),
    "fig5b": dict(family="lorentzian", coupling=1.0, q=0.05, omega_c=20.0, n=2, beta=1.0),
    "lorentz_n0": dict(family="lorentzian", coupling=1.0, q=0.05, omega_c=20.0, n=0, beta=1.0),
    "fig6_single_theta": dict(family="single_mode", coupling=1.0, omega_c=20.0, beta=1.0),
    "fig6_ohmic_theta": dict(family="ohmic", coupling=0.01, s=2.0, omega_c=10.0, beta=1.0),
    "fig6_lorentz_theta": dict(family="lorentzian", coupling=1.0, q=0.05, omega_c=20.0, n=2, beta=1.0),
    "fig7_single_lambda0p01": dict(family="single_mode", coupling=0.01, omega_c=20.0, beta=1.0),
    "fig7_single_lambda0p05": dict(family="single_mode", coupling=0.05, omega_c=20.0, beta=1.0),
    "fig7_ohmic_s2": dict(family="ohmic", coupling=0.01, s=2.0, omega_c=10.0, beta=1.0),
    "fig7_ohmic_s3": dict(family="ohmic", coupling=0.01, s=3.0, omega_c=10.0, beta=1.0),
    "fig7_ohmic_s4": dict(family="ohmic", coupling=0.01, s=4.0, omega_c=10.0, beta=1.0),
    "fig7_lorentz_q0p05": dict(family="lorentzian", coupling=1.0, q=0.05, omega_c=20.0, n=2, beta=1.0),
    "fig7_lorentz_q0p5": dict(family="lorentzian", coupling=1.0, q=0.5, omega_c=20.0, n=2, beta=1.0),
    "fig7_lorentz_q5": dict(family="lorentzian", coupling=1.0, q=5.0, omega_c=20.0, n=2, beta=1.0),
}

_FAMILY = {"single_mode": SingleMode, "ohmic": Ohmic, "lorentzian": Lorentzian}


def small_single_mode(n_points=41, t_end=10.0, **kw):
    return ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=1.0,
                          grid=TimeGrid(0.0, t_end, n_points), **kw)


class TestPresets:
    def test_manifest_covers_all_presets(self):
        assert set(builtin_presets()) == set(CAPTION_MANIFEST)

    @pytest.mark.parametrize("name", sorted(CAPTION_MANIFEST))
    def test_caption_fidelity(self, name):
        cfg = builtin_presets()[name]
        want = dict(CAPTION_MANIFEST[name])
        family = want.pop("family")
        beta = want.pop("beta")
        assert isinstance(cfg.bath, _FAMILY[family])
        assert cfg.beta == beta
        for field_name, value in want.items():
            assert getattr(cfg.bath, field_name) == value, (name, field_name)

    def test_every_preset_validates(self):
        for name, cfg in builtin_presets().items():
            assert isinstance(cfg, ScenarioConfig), name
            assert cfg.grid.n_points >= 2

    def test_presets_use_x_state_and_zero_field(self):
        for name, cfg in builtin_presets().items():
            assert cfg.h == 0.0, name
            assert cfg.init.theta1 == pytest.approx(math.pi / 2)


class TestRun:
    @pytest.mark.parametrize("h", [1e4, 1e6, 1e100])
    def test_strong_field_changes_only_purity_rounding(self, h):
        # the field is a local unitary: the cross-check holds at any h
        cfg = builtin_presets()["fig7_single_lambda0p01"]
        d = cfg.to_dict()
        d["h"] = h
        strong, still = run(ScenarioConfig.from_dict(d)), run(cfg)
        for name in ("t", "gamma", "delta", "negativity", "negativity_ideal"):
            assert np.array_equal(getattr(strong, name), getattr(still, name))
        assert np.max(np.abs(strong.purity - still.purity)) <= 1e-15

    def test_columns_and_lengths(self):
        rec = run(small_single_mode())
        for col in rec.columns():
            assert len(col) == 41
        assert rec.t[0] == 0.0
        assert rec.gamma[0] == 0.0 and rec.delta[0] == 0.0
        assert rec.negativity[0] == 0.0
        assert rec.purity[0] == pytest.approx(1.0, abs=1e-13)

    def test_deterministic_repeat(self):
        cfg = small_single_mode()
        a, b = run(cfg), run(cfg)
        for x, y in zip(a.columns(), b.columns()):
            assert np.array_equal(x, y)

    def test_divergent_bath_columns(self):
        cfg = ScenarioConfig(bath=Lorentzian(1.0, 0.05, 20.0, 0), beta=1.0,
                             grid=TimeGrid(0.5, 20.0, 10))
        rec = run(cfg)
        assert np.all(np.isinf(rec.gamma))
        assert np.all(rec.negativity == 0.0)
        assert np.all(np.isfinite(rec.delta))
        assert np.all(np.isfinite(rec.purity))

    def test_closed_form_used_for_x_state(self):
        # the x-state negativity column equals the closed form exactly
        from spinbath.entanglement import negativity_closed_form
        rec = run(small_single_mode())
        for g, d, n in zip(rec.gamma, rec.delta, rec.negativity):
            assert n == negativity_closed_form(g, d)

    def test_general_angle_uses_numeric_path(self):
        from spinbath.dynamics import InitialProductState
        cfg = small_single_mode(init=InitialProductState(math.pi / 8, math.pi / 8))
        rec = run(cfg)
        assert np.all(rec.negativity >= 0.0)
        assert rec.negativity.max() > 0.0

    def test_ideal_column_formula(self):
        rec = run(small_single_mode())
        assert np.allclose(rec.negativity_ideal,
                           0.5 * np.abs(np.sin(4 * rec.delta)), atol=1e-15)


class TestConfigValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            TimeGrid(5.0, 5.0, 10)

    def test_grid_point_bounds(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 20_000_001)

    def test_grid_types(self):
        # an integral float count is stored as an int, the ends as floats
        grid = TimeGrid(0, 1, 2.0)
        assert (grid.t_start, grid.t_end, grid.n_points) == (0.0, 1.0, 2)
        assert [type(x) for x in (grid.t_start, grid.t_end, grid.n_points)] \
            == [float, float, int]
        cfg = ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=1.0, grid=grid)
        assert run(cfg).t.tolist() == [0.0, 1.0]
        with pytest.raises(ConfigError, match="must be an integer"):
            TimeGrid(0, 1, 2.5)

    def test_beta_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=-1.0,
                           grid=TimeGrid(0.0, 1.0, 5))

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_field_finite(self, h):
        with pytest.raises(ConfigError, match="h must be finite"):
            ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=1.0,
                           grid=TimeGrid(0.0, 1.0, 5), h=h)

    def test_dict_round_trip(self):
        cfg = builtin_presets()["fig5b"]
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("section,key", [
        (None, "betta"), ("grid", "t_stop"), ("init", "theta3"),
        ("init", "theta"), (None, "outputs"), ("grid", "spacing"),
    ])
    def test_unknown_key_rejected(self, section, key):
        d = builtin_presets()["fig1_lambda1"].to_dict()
        (d[section] if section else d)[key] = 1.0
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"'{name}'"):
            ScenarioConfig.from_dict(d)

    def test_missing_init_and_outputs_take_defaults(self):
        cfg = builtin_presets()["fig1_lambda1"]
        d = cfg.to_dict()
        # no key left for outputs or grid spacing: none changed an answer
        assert "outputs" not in d and "spacing" not in d["grid"]
        del d["init"], d["h"]
        assert ScenarioConfig.from_dict(d) == cfg

    def test_integral_point_count(self):
        d = builtin_presets()["fig1_lambda1"].to_dict()
        d["grid"]["n_points"] = 1e3
        grid = ScenarioConfig.from_dict(d).grid
        assert grid.n_points == 1000 and type(grid.n_points) is int
        for bad in (2.9, 1000.5, "7.2"):
            d["grid"]["n_points"] = bad
            with pytest.raises(ConfigError, match="n_points"):
                ScenarioConfig.from_dict(d)


class TestCompareIdeal:
    def test_rejects_divergent_bath(self):
        cfg = ScenarioConfig(bath=Lorentzian(1.0, 0.05, 20.0, 0), beta=1.0,
                             grid=TimeGrid(0.5, 10.0, 5))
        with pytest.raises(ConfigError):
            compare_ideal(cfg)

    def test_weak_coupling_single_mode(self):
        cfg = ScenarioConfig(bath=SingleMode(0.01, 20.0), beta=1.0,
                             grid=TimeGrid(0.0, 600.0, 121))
        cmp = compare_ideal(cfg)
        assert isinstance(cmp, IdealComparison)
        assert cmp.max_abs_deviation < 0.05

    def test_zero_gamma_exact(self):
        # with gamma identically zero the two curves coincide, so the
        # deviation is pure dephasing: strong coupling widens it
        weak = compare_ideal(ScenarioConfig(bath=SingleMode(0.01, 20.0),
                                            beta=1.0, grid=TimeGrid(0.0, 300.0, 61)))
        hot = compare_ideal(ScenarioConfig(bath=SingleMode(1.0, 20.0),
                                           beta=0.01, grid=TimeGrid(0.0, 300.0, 61)))
        assert weak.max_abs_deviation < hot.max_abs_deviation
