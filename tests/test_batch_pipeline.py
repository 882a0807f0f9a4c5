"""The array-native scenario pipeline against its per-point definitions."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import spinbath.scenario
from spinbath.decoherence import (
    BathConditions,
    DecoherenceFactors,
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
    negativity_closed_form,
    negativity_from_spectrum,
    negativity_numeric,
    partial_transpose,
    pt_spectra,
)
from spinbath.errors import (
    ComputeError,
    EigenNonConvergence,
    InvalidState,
    SpinBathError,
)
from spinbath.scenario import (
    _BLOCK_POINTS,
    CROSS_CHECK_TOL,
    ScenarioConfig,
    TimeGrid,
    builtin_presets,
    run,
)
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

    def test_non_hermitian_array_raises(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-9
        with pytest.raises(InvalidState):
            pt_spectra(rho)
        with pytest.raises(InvalidState):
            pt_spectra(np.stack([np.eye(4, dtype=complex) / 4, rho]))

    def test_checked_state_gives_the_array_spectra(self):
        # an array is checked as a TwoSpinState; the spectra are the same bits
        rng = np.random.default_rng(17)
        states = evolve(random_init(rng),
                        DecoherenceFactors(rng.uniform(0.0, 2.0, 300),
                                           -rng.uniform(0.0, 2.0, 300)),
                        FieldConfig(0.7), np.linspace(0.0, 5.0, 300))
        assert bits(pt_spectra(states)) == bits(pt_spectra(states.rho))
        one = TwoSpinState(states.rho[7])
        assert bits(pt_spectra(one)) == bits(pt_spectra(one.rho))


def _closed_form_points():
    """gamma and Delta pairs around every branch of the closed form: 0 and
    +inf, 16 gamma and 8 gamma on either side of 745 (where e^-x reaches
    0) and of 750, tiny gamma, and random values."""
    edges = [x / m for x in (744.9, 745.1, 745.3, 749.9, 750.1)
             for m in (16.0, 8.0)]
    gammas = [0.0, math.inf, 1e-300, 1e-20, 1e-9, *edges]
    rng = np.random.default_rng(13)
    gammas += rng.uniform(0.0, 3.0, 40).tolist()
    deltas = [0.0, -math.pi / 8, -math.pi / 16, -0.3, -1e-9]
    deltas += (-rng.uniform(0.0, 4.0, 8)).tolist()
    g, d = np.meshgrid(gammas, deltas)
    return g.ravel(), d.ravel()


class TestClosedFormArrays:
    def test_array_call_matches_scalar_calls_bit_for_bit(self):
        gammas, deltas = _closed_form_points()
        batch = negativity_closed_form(gammas, deltas)
        alone = [negativity_closed_form(g, d)
                 for g, d in zip(gammas.tolist(), deltas.tolist())]
        assert bits(batch) == bits(alone)
        lams = appendix_b_eigenvalues(gammas, deltas)
        one = [appendix_b_eigenvalues(g, d)
               for g, d in zip(gammas.tolist(), deltas.tolist())]
        assert bits(np.stack(lams, axis=-1)) == bits(one)
        assert bits(batch) == bits(np.abs(lams[1]))

    def test_scalar_call_returns_builtins(self):
        # N itself: a builtin float for one point, an array for arrays of
        # gamma and Delta or for a stack of states
        assert type(negativity_closed_form(0.2, -0.3)) is float
        assert all(type(x) is float for x in appendix_b_eigenvalues(0.2, -0.3))
        gammas, deltas = np.array([0.2, 0.0, 1.5]), np.array([-0.3, -0.1, 0.0])
        batch = negativity_closed_form(gammas, deltas)
        assert isinstance(batch, np.ndarray) and batch.shape == (3,)
        states = evolve(X_PROJECTED, DecoherenceFactors(gammas, deltas),
                        FieldConfig(), 1.0)
        assert type(negativity_numeric(TwoSpinState(states.rho[0]))) is float
        stack = negativity_numeric(states)
        assert isinstance(stack, np.ndarray) and stack.shape == (3,)
        assert np.max(np.abs(stack - batch)) <= 1e-12

    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_negative_gamma_anywhere_rejected(self, where):
        gammas = np.linspace(0.0, 1.0, 7)
        gammas[where] = -1e-300
        with pytest.raises(ValueError):
            negativity_closed_form(gammas, np.full(7, -0.2))
        gammas[where] = -math.inf
        with pytest.raises(ValueError):
            appendix_b_eigenvalues(gammas, np.full(7, -0.2))


def _with_lowest_eigenvalue(lowest, seed):
    """A Hermitian unit-trace 4x4 matrix with the given lowest eigenvalue,
    in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    spectrum = np.array([0.5, 0.3, 0.2 - lowest, lowest])
    rho = (q * spectrum) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


class TestPositivityScreen:
    def stack(self, lowest, where):
        rhos = np.stack([_with_lowest_eigenvalue(0.05, k) for k in range(6)])
        rhos[where] = _with_lowest_eigenvalue(lowest, 99)
        return rhos

    @pytest.mark.parametrize("where", [0, 2, -1])
    def test_slightly_negative_member_rejected(self, where):
        rhos = self.stack(-2e-10, where)
        for rho in (rhos, rhos[where]):
            with pytest.raises(InvalidState, match="min eig -2.0"):
                TwoSpinState(rho)

    @pytest.mark.parametrize("where", [0, -1])
    def test_member_within_tolerance_accepted(self, where):
        rhos = self.stack(-5e-11, where)
        assert np.linalg.eigvalsh(rhos)[where, 0] < 0.0
        TwoSpinState(rhos)
        TwoSpinState(rhos[where])


class TestStateCheckRows:
    """Each row of a stack is checked on its own: one bad row, wherever it
    sits, rejects the stack, and the stack without it passes."""

    @staticmethod
    def good_stack(b):
        rng = np.random.default_rng(2900 + b)
        init = bloch_product_to_general(InitialProductState(0.4, 2.0, 0.3, 1.1))
        return np.array(evolve(init, DecoherenceFactors(
            rng.uniform(0, 1, b), -rng.uniform(0, 3, b)), FieldConfig(0.7),
            rng.uniform(0, 40, b)).rho)

    @pytest.mark.parametrize("b", [2, 251, 2048])
    def test_one_negative_row(self, b):
        rhos = self.good_stack(b)
        TwoSpinState(rhos)
        bad = _with_lowest_eigenvalue(-2e-10, b)
        for where in range(b):
            stack = rhos.copy()
            stack[where] = bad
            with pytest.raises(InvalidState, match="min eig -2.0"):
                TwoSpinState(stack)

    @pytest.mark.parametrize("b", [2, 251, 2048])
    @pytest.mark.parametrize("entry", [(0, 3), (3, 0), (1, 2), (2, 1)])
    def test_one_non_hermitian_entry(self, b, entry):
        rhos = self.good_stack(b)
        for where in range(0, b, 1 if b < 300 else 7):
            stack = rhos.copy()
            stack[(where,) + entry] += 1e-9
            with pytest.raises(InvalidState, match="not Hermitian"):
                TwoSpinState(stack)


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
        j = SingleMode(1.0, 20.0)
        times = np.linspace(0.0, 40.0, 2001)
        batch = factors(j, BC, times)
        assert batch.gamma.shape == batch.delta.shape == times.shape
        assert np.isfinite(batch.gamma).all()
        alone = [factors(j, BC, float(t)) for t in times]
        assert bits(batch.gamma) == bits([d.gamma for d in alone])
        assert bits(batch.delta) == bits([d.delta for d in alone])

    def test_lorentzian_array_matches_scalar_calls(self):
        # the exact forms run the same array code for one time as for many,
        # and no value depends on the other times passed with it.  The long
        # arrays repeat the times, so that each takes every position: a
        # matrix product over the poles rounded some positions of some
        # lengths differently.
        times = np.array([0.0, 0.004, 0.05, 0.5, 3.0, 11.0])
        for n in (0, 1, 2):
            j = Lorentzian(1.0, 0.5, 20.0, n)
            alone = [factors(j, BC, float(t)) for t in times]
            assert [math.isinf(d.gamma) for d in alone] == \
                [False] + [n == 0] * 5
            for size in (5, 3, 7, 9, 15, 17, 31, 100, 4095):
                at = np.arange(size) % times.size
                batch = factors(j, BC, times[at])
                assert batch.gamma.dtype == batch.delta.dtype == float
                assert bits(batch.gamma) == bits([alone[k].gamma for k in at])
                assert bits(batch.delta) == bits([alone[k].delta for k in at])
        grid = factors(j, BC, times[1:5].reshape(2, 2))
        assert grid.gamma.shape == grid.delta.shape == (2, 2)
        assert bits(grid.delta.ravel()) == bits([d.delta for d in alone[1:5]])


class TestBatchedEvolve:
    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            init = random_init(rng)
            field = FieldConfig(rng.normal(scale=3.0))
            times = rng.uniform(0.0, 10.0, 64)
            gammas = rng.uniform(0.0, 2.0, 64)
            deltas = -rng.uniform(0.0, 2.0, 64)
            gammas[rng.random(64) < 0.25] = math.inf
            batch = evolve(init, DecoherenceFactors(gammas, deltas),
                           field, times).rho
            assert batch.shape == (64, 4, 4)
            for k in range(64):
                one = evolve(init, DecoherenceFactors(gammas[k], deltas[k]),
                             field, times[k]).rho
                assert np.max(np.abs(batch[k] - one)) <= 1e-15

    def test_divergent_members_zero_cross_sector_elements(self):
        gammas = np.array([0.2, math.inf])
        batch = evolve(X_PROJECTED, DecoherenceFactors(
            gammas, np.array([-0.3, -0.3])),
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
            assert abs(rec.negativity[k] - negativity_numeric(state)) <= 1e-12
            assert abs(rec.purity[k] - state.purity()) <= 1e-12
            assert abs(rec.gamma[k] - df.gamma) <= 1e-12
            assert abs(rec.delta[k] - df.delta) <= 1e-12
        assert rec.negativity.max() > 0.0


class TestBlocks:
    #: three blocks, the last one of 3 points
    N_POINTS = 2 * _BLOCK_POINTS + 3

    def test_blocked_run_matches_per_point_calls(self):
        cfg = ScenarioConfig(bath=SingleMode(1.0, 20.0), beta=1.0, h=0.4,
                             init=InitialProductState(math.pi / 4, 2.0, 0.3, 1.1),
                             grid=TimeGrid(0.0, 40.0, self.N_POINTS))
        rec = run(cfg)
        init = bloch_product_to_general(cfg.init)
        field = FieldConfig(cfg.h)
        negativity, purity = [], []
        for k, t in enumerate(rec.t.tolist()):
            state = evolve(init, DecoherenceFactors(rec.gamma[k], rec.delta[k]),
                           field, t)
            negativity.append(negativity_numeric(state))
            purity.append(state.purity())
        assert bits(rec.negativity) == bits(negativity)
        assert bits(rec.purity) == bits(purity)

    @pytest.mark.parametrize("n", [0, 1])   # n = 0: divergent for t > 0
    def test_x_state_blocks_match_whole_grid(self, n):
        cfg = ScenarioConfig(bath=Lorentzian(1.0, 0.5, 20.0, n), beta=1.0,
                             grid=TimeGrid(0.0, 40.0, self.N_POINTS))
        rec = run(cfg)
        closed = negativity_closed_form(rec.gamma, rec.delta)
        assert bits(rec.negativity) == bits(closed)
        whole = evolve(bloch_product_to_general(cfg.init),
                       factors(cfg.bath, BC, rec.t), FieldConfig(), rec.t)
        assert bits(rec.purity) == bits(whole.purity())

    def test_peak_memory_of_a_large_grid(self):
        # The run is the child of a small interpreter that reports its
        # children's peak: on Linux a process's own ru_maxrss starts from
        # the peak of the process that executed it, here pytest.
        child = ("from dataclasses import replace\n"
                 "from spinbath.scenario import TimeGrid, builtin_presets, run\n"
                 "cfg = builtin_presets()['fig3_s2']\n"
                 "run(replace(cfg, grid=TimeGrid(0.0, 40.0, 200_000)))\n")
        code = ("import resource, subprocess, sys\n"
                f"subprocess.run([sys.executable, '-c', {child!r}], check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stderr == ""
        assert int(out.stdout) / 1024 < 100.0   # ru_maxrss is in KiB


class TestCorruptedEvolve:
    #: factors slightly off, as an evolve with a fault would apply them
    CORRUPTIONS = (lambda g, d: (g, d * (1 + 1e-8)),
                   lambda g, d: (g * (1 + 1e-6), d),
                   lambda g, d: (g + 1e-9, d))

    def test_run_fails_exactly_where_lapack_disagrees(self, monkeypatch):
        # the block spectra plus their bound must flag a faulty evolve at
        # exactly the runs where LAPACK's negativity of the same states is
        # more than CROSS_CHECK_TOL from the closed form
        expected, raised = [], []
        for name in ("fig1_lambda1", "fig3_s2", "fig5b",
                     "fig7_single_lambda0p01", "lorentz_n0"):
            for h in (0.0, 0.7):
                cfg = replace(builtin_presets()[name], h=h)
                df = factors(cfg.bath, BathConditions(cfg.beta),
                             cfg.grid.times())
                for corrupt in self.CORRUPTIONS:
                    def faulty(init, df, field, t, _corrupt=corrupt):
                        bad = DecoherenceFactors(*_corrupt(df.gamma, df.delta))
                        return evolve(init, bad, field, t)

                    states = faulty(bloch_product_to_general(cfg.init), df,
                                    FieldConfig(h), cfg.grid.times())
                    lapack = negativity_from_spectrum(np.linalg.eigvalsh(
                        partial_transpose(states.rho)))
                    closed = negativity_closed_form(df.gamma, df.delta)
                    expected.append(
                        bool(np.max(np.abs(lapack - closed)) > CROSS_CHECK_TOL))
                    monkeypatch.setattr(spinbath.scenario, "evolve", faulty)
                    try:
                        run(cfg)
                        raised.append(False)
                    except ComputeError as exc:
                        assert "disagree" in str(exc)
                        raised.append(True)
                    monkeypatch.undo()
        assert raised == expected
        assert 0 < sum(raised) < len(raised)


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
        self.check_calls(monkeypatch, bath, x_state, 5)

    @pytest.mark.parametrize("bath,x_state", [
        (SingleMode(1.0, 20.0), True),
        (Lorentzian(1.0, 0.5, 20.0, 1), False),
    ])
    def test_one_evolve_and_spectrum_call_per_block(self, monkeypatch, bath,
                                                    x_state):
        self.check_calls(monkeypatch, bath, x_state, 2 * _BLOCK_POINTS + 3)

    def check_calls(self, monkeypatch, bath, x_state, n_points):
        calls = {}
        for name in TRACED_NAMES[:-1] + ("x_block_spectra", "pt_negativity"):
            fn = getattr(spinbath.scenario, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(spinbath.scenario, name, counted)
        init = (InitialProductState(math.pi / 2, math.pi / 2) if x_state
                else InitialProductState(math.pi / 4, math.pi / 4))
        spinbath.scenario.run(ScenarioConfig(
            bath=bath, beta=1.0, init=init, grid=TimeGrid(0.0, 2.0, n_points)))
        # an x-projected state takes its spectrum from the 2x2 blocks, any
        # other state its certified lowest eigenvalue, and LAPACK
        # (pt_spectra) only for a row that is not certified, none here
        spectrum = "x_block_spectra" if x_state else "pt_negativity"
        expect = {"factors", "evolve", spectrum, "ideal_negativity"}
        if x_state:
            expect.add("negativity_closed_form")
        assert set(calls) == expect
        # the states go block by block, everything else over the whole grid
        blocks = -(-n_points // _BLOCK_POINTS)
        assert calls["evolve"] == calls[spectrum] == blocks
        assert calls["factors"] == calls["ideal_negativity"] == 1
        assert calls.get("negativity_closed_form", 1) == 1
