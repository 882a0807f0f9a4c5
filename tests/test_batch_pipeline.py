"""The array-native scenario pipeline against its per-point definitions."""

import math

import numpy as np
import pytest

import spinbath.scenario
from spinbath.decoherence import (
    BathConditions,
    DecoherenceFactors,
    Method,
    closed_form_single_mode,
    factors,
)
from spinbath.dynamics import (
    X_PROJECTED,
    FieldConfig,
    GeneralInitialState,
    InitialProductState,
    TwoSpinState,
    bloch_product_to_general,
    evolve,
)
from spinbath.entanglement import (
    appendix_b_eigenvalues,
    ideal_negativity,
    negativity_from_spectrum,
    negativity_numeric,
    pt_spectra,
)
from spinbath.errors import EigenNonConvergence, InvalidState, SpinBathError
from spinbath.scenario import ScenarioConfig, TimeGrid, run
from spinbath.spectral import Lorentzian, Ohmic, SingleMode

BC = BathConditions(beta=1.0)


def bits(values):
    """The IEEE-754 bit patterns of float values, for exact comparisons."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def random_init(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    return GeneralInitialState(tuple(c / np.linalg.norm(c)))


class TestNonFiniteStates:
    def test_scalar_nan_coherence_rejected(self):
        rho = np.full((4, 4), 0.25, dtype=complex)
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(InvalidState):
            TwoSpinState(rho)

    def test_batch_with_one_bad_member_rejected(self):
        rhos = np.stack([evolve(X_PROJECTED, DecoherenceFactors(0.1 * k, -0.2),
                                FieldConfig(), 1.0).rho for k in range(5)])
        TwoSpinState(rhos.copy())  # the clean stack validates
        rhos[3, 2, 2] = np.inf
        with pytest.raises(InvalidState):
            TwoSpinState(rhos)

    def test_batch_with_one_non_positive_member_rejected(self):
        rhos = np.stack([np.eye(4, dtype=complex) / 4] * 4)
        rhos[2] = np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex)
        with pytest.raises(InvalidState):
            TwoSpinState(rhos)

    def test_nan_gamma_is_a_spinbath_error(self):
        with pytest.raises(InvalidState) as info:
            evolve(X_PROJECTED, DecoherenceFactors(math.nan, -0.1),
                   FieldConfig(), 1.0)
        assert isinstance(info.value, SpinBathError)

    def test_nan_gamma_in_batch_rejected(self):
        gamma = np.array([0.0, 0.1, math.nan, 0.3])
        with pytest.raises(InvalidState):
            evolve(X_PROJECTED, DecoherenceFactors(gamma, np.full(4, -0.1)),
                   FieldConfig(), np.linspace(0.0, 1.0, 4))


class TestPtSpectraGuards:
    def test_nan_input_raises(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 0] = np.nan
        with pytest.raises(InvalidState):
            pt_spectra(rho)
        with pytest.raises(InvalidState):
            pt_spectra(np.stack([np.eye(4, dtype=complex) / 4, rho]))

    def test_lapack_failure_maps_to_eigen_non_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigenNonConvergence):
            pt_spectra(np.eye(4, dtype=complex) / 4)

    def test_random_x_states_match_appendix_b(self):
        rng = np.random.default_rng(11)
        gammas = rng.uniform(0.0, 2.0, 1000)
        deltas = -rng.uniform(0.0, 2.0, 1000)
        states = evolve(X_PROJECTED, DecoherenceFactors(gammas, deltas),
                        FieldConfig(), 1.0)
        spectra = pt_spectra(states.rho)
        ref = np.array([sorted(appendix_b_eigenvalues(g, d))
                        for g, d in zip(gammas, deltas)])
        assert spectra.shape == (1000, 4)
        assert np.max(np.abs(spectra - ref)) <= 1e-12


class TestFactorTypes:
    @pytest.mark.parametrize("bath", [
        Ohmic(0.01, 3.0, 10.0),
        Lorentzian(1.0, 0.05, 20.0, 0),
        Lorentzian(1.0, 0.05, 20.0, 1),
        Lorentzian(1.0, 0.05, 20.0, 2),
        SingleMode(1.0, 20.0),
    ], ids=["ohmic", "lorentz_n0", "lorentz_n1", "lorentz_n2", "single_mode"])
    def test_builtin_floats(self, bath):
        df = factors(bath, BC, 1.5)
        assert type(df.gamma) is float
        assert type(df.delta) is float

    def test_single_mode_array_matches_scalar_calls(self):
        times = np.linspace(0.0, 40.0, 2001)
        batch = closed_form_single_mode(1.0, 20.0, 1.0, times)
        assert batch.gamma.shape == batch.delta.shape == times.shape
        for k in range(0, 2001, 50):
            one = closed_form_single_mode(1.0, 20.0, 1.0, times[k])
            assert batch.delta[k] == one.delta
            assert batch.gamma[k] == pytest.approx(one.gamma, rel=5e-16, abs=0)

    def test_lorentzian_array_matches_scalar_calls(self, monkeypatch):
        # the exact forms run the same array code for one time as for many,
        # and no value depends on the other times passed with it
        times = np.array([0.0, 0.004, 0.5, 3.0, 11.0])
        for n in (0, 1, 2):
            j = Lorentzian(1.0, 0.5, 20.0, n)
            alone = [factors(j, BC, float(t)) for t in times]
            for threads in ("1", "2"):
                monkeypatch.setenv("DEPHASE_THREADS", threads)
                batch = factors(j, BC, times)
                assert batch.method is Method.ANALYTIC_REDUCTION
                assert batch.gamma.dtype == batch.delta.dtype == float
                assert batch.gamma_divergent.dtype == bool
                assert bits(batch.gamma) == bits([d.gamma for d in alone])
                assert bits(batch.delta) == bits([d.delta for d in alone])
                assert batch.gamma_divergent.tolist() == \
                    [d.gamma_divergent for d in alone]
            assert batch.gamma_divergent.tolist() == [False] + [n == 0] * 4
        grid = factors(j, BC, times[1:].reshape(2, 2))
        assert grid.gamma.shape == grid.gamma_divergent.shape == (2, 2)
        assert bits(grid.delta.ravel()) == bits([d.delta for d in alone[1:]])


class TestBatchedEvolve:
    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            init = random_init(rng)
            field = FieldConfig(rng.normal(scale=3.0))
            times = rng.uniform(0.0, 10.0, 64)
            gammas = rng.uniform(0.0, 2.0, 64)
            deltas = -rng.uniform(0.0, 2.0, 64)
            divergent = rng.random(64) < 0.25
            gammas[divergent] = math.inf
            batch = evolve(init, DecoherenceFactors(gammas, deltas, divergent),
                           field, times).rho
            assert batch.shape == (64, 4, 4)
            for k in range(64):
                one = evolve(init, DecoherenceFactors(gammas[k], deltas[k],
                                                      bool(divergent[k])),
                             field, times[k]).rho
                assert np.max(np.abs(batch[k] - one)) <= 1e-15

    def test_divergent_members_zero_cross_sector_elements(self):
        gammas = np.array([0.2, math.inf])
        batch = evolve(X_PROJECTED, DecoherenceFactors(
            gammas, np.array([-0.3, -0.3]), np.array([False, True])),
            FieldConfig(0.5), np.array([1.0, 1.0])).rho
        M = np.array([2, 0, 0, -2])
        assert np.all(batch[1][M[:, None] != M[None, :]] == 0.0)
        assert np.all(batch[0][M[:, None] != M[None, :]] != 0.0)

    def test_vectorized_purity_and_ideal_negativity(self):
        deltas = -np.linspace(0.0, 2.0, 50)
        states = evolve(X_PROJECTED, DecoherenceFactors(np.full(50, 0.1), deltas),
                        FieldConfig(), 1.0)
        purity = states.purity()
        ideal = ideal_negativity(deltas)
        for k in range(50):
            one = evolve(X_PROJECTED, DecoherenceFactors(0.1, deltas[k]),
                         FieldConfig(), 1.0)
            assert purity[k] == pytest.approx(one.purity(), abs=1e-15)
            assert ideal[k] == ideal_negativity(deltas[k])
        spectra = pt_spectra(states.rho)
        assert np.array_equal(negativity_from_spectrum(spectra),
                              [negativity_from_spectrum(e) for e in spectra])


class TestTiltedRun:
    @pytest.mark.parametrize("theta1,theta2,h", [
        (math.pi / 8, math.pi / 8, 0.0),
        (math.pi / 4, 2.0, 0.7),
    ])
    def test_record_matches_per_point_loop(self, theta1, theta2, h):
        cfg = ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=1.0, h=h,
                             init=InitialProductState(theta1, theta2, 0.3, 1.1),
                             grid=TimeGrid(0.0, 4.0, 201))
        rec = run(cfg)
        init = bloch_product_to_general(cfg.init)
        for k, t in enumerate(rec.t):
            df = factors(cfg.bath, BathConditions(cfg.beta), float(t))
            state = evolve(init, df, FieldConfig(h), float(t))
            assert abs(rec.negativity[k] - negativity_numeric(state).value) <= 1e-12
            assert abs(rec.purity[k] - state.purity()) <= 1e-12
            assert abs(rec.gamma[k] - df.gamma) <= 1e-12
            assert abs(rec.delta[k] - df.delta) <= 1e-12
        assert rec.negativity.max() > 0.0


#: names that benchmarks/tracing.py replaces on spinbath.scenario
TRACED_NAMES = ("factors", "evolve", "pt_spectra", "negativity_closed_form",
                "ideal_negativity", "run")


class TestTracerContract:
    def test_scenario_exposes_traced_names(self):
        for name in TRACED_NAMES:
            assert callable(getattr(spinbath.scenario, name)), name

    @pytest.mark.parametrize("bath,x_state", [
        (SingleMode(1.0, 20.0), True),
        (SingleMode(1.0, 20.0), False),
        (Ohmic(0.01, 2.0, 10.0), True),
        (Lorentzian(1.0, 0.5, 20.0, 2), True),
    ])
    def test_run_calls_go_through_module_names(self, monkeypatch, bath, x_state):
        calls = {}
        for name in TRACED_NAMES[:-1]:
            fn = getattr(spinbath.scenario, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(spinbath.scenario, name, counted)
        init = (InitialProductState(math.pi / 2, math.pi / 2) if x_state
                else InitialProductState(math.pi / 4, math.pi / 4))
        spinbath.scenario.run(ScenarioConfig(
            bath=bath, beta=1.0, init=init, grid=TimeGrid(0.0, 2.0, 5)))
        expect = {"factors", "evolve", "pt_spectra", "ideal_negativity"}
        if x_state:
            expect.add("negativity_closed_form")
        assert set(calls) == expect
        assert calls["evolve"] == calls["pt_spectra"] == 1
        # every family takes the whole grid in one call
        assert calls["factors"] == 1
