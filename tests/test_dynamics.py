import math
import warnings

import numpy as np
import pytest

from spinbath.decoherence import DecoherenceFactors
from spinbath.dynamics import (
    X_PROJECTED,
    FieldConfig,
    GeneralInitialState,
    InitialProductState,
    TwoSpinState,
    bloch_product_to_general,
    evolve,
)
from spinbath.entanglement import negativity_closed_form, negativity_numeric
from spinbath.errors import ComputeError, InvalidState


def df(gamma=0.0, delta=0.0):
    return DecoherenceFactors(gamma, delta)


def random_state(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    return GeneralInitialState(tuple(c))


def x_projected_matrix(gamma, delta):
    """The dephasing-channel matrix for the all-1/2 initial state."""
    e4 = math.exp(-4 * gamma)
    e16 = math.exp(-16 * gamma)
    p = np.exp(-4j * delta)
    m = np.array([
        [1.0, e4 * p, e4 * p, e16],
        [e4 * p.conjugate(), 1.0, 1.0, e4 * p.conjugate()],
        [e4 * p.conjugate(), 1.0, 1.0, e4 * p.conjugate()],
        [e16, e4 * p, e4 * p, 1.0],
    ], dtype=complex)
    return 0.25 * m


class TestBlochMapping:
    def test_x_projected_angles(self):
        g = bloch_product_to_general(
            InitialProductState(math.pi / 2, math.pi / 2))
        assert np.allclose(g.amplitudes(), 0.5, atol=1e-15)

    def test_both_up(self):
        g = bloch_product_to_general(InitialProductState(0.0, 0.0))
        assert np.allclose(g.amplitudes(), [1, 0, 0, 0], atol=1e-15)

    def test_quarter_angle(self):
        g = bloch_product_to_general(
            InitialProductState(math.pi / 4, math.pi / 4))
        expect = [0.85355339059327376220, 0.35355339059327376220,
                  0.35355339059327376220, 0.14644660940672623780]
        assert np.allclose(g.amplitudes(), expect, atol=1e-15)

    def test_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            init = InitialProductState(rng.uniform(0, math.pi),
                                       rng.uniform(0, math.pi),
                                       rng.uniform(0, 2 * math.pi),
                                       rng.uniform(0, 2 * math.pi))
            c = bloch_product_to_general(init).amplitudes()
            assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-14

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            InitialProductState(-0.1, 0.0)
        with pytest.raises(ValueError):
            InitialProductState(0.0, 0.0, phi1=7.0)


class TestEvolve:
    def test_time_zero_is_projector(self):
        rng = np.random.default_rng(4)
        init = random_state(rng)
        state = evolve(init, df(), FieldConfig(0.7), 0.0)
        c = init.amplitudes()
        assert np.allclose(state.rho, np.outer(c, c.conj()), atol=1e-15)

    def test_x_projected_matrix_structure(self):
        gamma, delta = 0.37, -0.52
        state = evolve(X_PROJECTED, df(gamma, delta), FieldConfig(0.0), 1.0)
        assert np.allclose(state.rho, x_projected_matrix(gamma, delta), atol=1e-15)

    def test_divergent_gamma_limit(self):
        state = evolve(X_PROJECTED, df(gamma=math.inf),
                       FieldConfig(0.0), 1.0)
        # brute-force limit: finite evolution with a huge exponent
        limit = evolve(X_PROJECTED, df(gamma=50.0), FieldConfig(0.0), 1.0)
        assert np.allclose(state.rho, limit.rho, atol=1e-12)
        # the M = 0 central coherences survive exactly
        assert state.rho[1, 2] == 0.25
        assert state.rho[0, 1] == 0.0 and state.rho[0, 3] == 0.0

    def test_infinite_gamma_alone_is_the_divergent_limit(self):
        # gamma = +inf is the whole signal: no flag, no warning, no nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = evolve(X_PROJECTED, DecoherenceFactors(math.inf, -0.1),
                           FieldConfig(0.0), 1.0)
        want = x_projected_matrix(0.0, -0.1)
        M = np.array([2, 0, 0, -2])
        want[M[:, None] != M[None, :]] = 0.0
        assert np.array_equal(state.rho, want)

    @pytest.mark.parametrize("h", [1e4, 1e6, 1e10, -1e10])
    def test_strong_field_keeps_the_ising_phase(self, h):
        # the field is a local unitary: N is the closed form at any h
        d = df(0.01, -0.3)
        state = evolve(X_PROJECTED, d, FieldConfig(h), 40.0)
        assert abs(negativity_numeric(state)
                   - negativity_closed_form(d.gamma, d.delta)) <= 1e-12

    def test_field_phase_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputeError, match=r"h=1e\+308"):
                evolve(X_PROJECTED, df(0.1, -0.2), FieldConfig(1e308),
                       np.array([0.0, 3.0]))
            # at t = 0 the phase is 0 whatever h
            evolve(X_PROJECTED, df(), FieldConfig(1e308), 0.0)

    def test_diagonal_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            init = random_state(rng)
            state = evolve(init, df(rng.uniform(0, 2), -rng.uniform(0, 2)),
                           FieldConfig(rng.normal()), rng.uniform(0, 5))
            assert np.allclose(np.diag(state.rho),
                               np.abs(init.amplitudes()) ** 2, atol=1e-14)

    def test_state_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            init = random_state(rng)
            state = evolve(init, df(rng.uniform(0, 3), -rng.uniform(0, 3)),
                           FieldConfig(rng.normal()), rng.uniform(0, 10))
            rho = state.rho
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert abs(np.trace(rho).real - 1) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_field_leaves_spectrum_alone(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            init = random_state(rng)
            d = df(rng.uniform(0, 1), -rng.uniform(0, 1))
            t = rng.uniform(0, 5)
            e0 = np.linalg.eigvalsh(evolve(init, d, FieldConfig(0.0), t).rho)
            e1 = np.linalg.eigvalsh(evolve(init, d, FieldConfig(3.7), t).rho)
            assert np.allclose(e0, e1, atol=1e-12)

    def test_purity_decreases_with_gamma(self):
        gammas = [0.0, 0.05, 0.2, 1.0, 5.0]
        purities = [evolve(X_PROJECTED, df(g, -0.3), FieldConfig(), 1.0).purity()
                    for g in gammas]
        assert all(b <= a + 1e-14 for a, b in zip(purities, purities[1:]))


def ideal_state(init, delta):
    """evolve at gamma = 0 and h = 0: the ideal unitary evolution."""
    return evolve(init, df(0.0, delta), FieldConfig(0.0), 0.0)


class TestEvolveIdeal:
    def test_zero_phase_is_projector(self):
        rng = np.random.default_rng(6)
        init = random_state(rng)
        state = ideal_state(init, 0.0)
        c = init.amplitudes()
        assert np.allclose(state.rho, np.outer(c, c.conj()), atol=1e-15)

    def test_x_projected_structure(self):
        delta = -0.9
        state = ideal_state(X_PROJECTED, delta)
        expect = x_projected_matrix(0.0, delta)
        assert np.allclose(state.rho, expect, atol=1e-15)

    def test_phase_periodicity(self):
        rng = np.random.default_rng(8)
        init = random_state(rng)
        state = ideal_state(init, -math.pi / 2)
        c = init.amplitudes()
        assert np.allclose(state.rho, np.outer(c, c.conj()), atol=1e-13)

    def test_matches_evolve_at_zero_gamma(self):
        # U = exp(-i Delta (Sz1 + Sz2)^2) = diag(e^{-4i Delta}, 1, 1,
        # e^{-4i Delta}), applied to the pure initial state
        rng = np.random.default_rng(13)
        for _ in range(20):
            init = random_state(rng)
            delta = -rng.uniform(0, 3)
            uc = np.exp(-4j * delta * np.array([1, 0, 0, 1])) * init.amplitudes()
            b = evolve(init, df(0.0, delta), FieldConfig(0.0), rng.uniform(0, 5))
            assert np.max(np.abs(np.outer(uc, uc.conj()) - b.rho)) <= 1e-14

    def test_purity_one(self):
        rng = np.random.default_rng(17)
        init = random_state(rng)
        assert ideal_state(init, -1.3).purity() == pytest.approx(1.0, abs=1e-13)


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(InvalidState):
            TwoSpinState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            TwoSpinState(np.eye(4, dtype=complex))

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(InvalidState):
            GeneralInitialState((1.0, 1.0, 0.0, 0.0))

    def test_json_round_trip(self):
        state = evolve(X_PROJECTED, df(0.1, -0.2), FieldConfig(), 1.0)
        obj = state.to_json_obj()
        back = np.array([[complex(re, im) for re, im in row] for row in obj])
        assert np.array_equal(back, state.rho)

    def test_caller_array_stays_writable(self):
        rhos = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        state = TwoSpinState(rhos)
        assert np.shares_memory(state.rho, rhos)  # validated without a copy
        rhos[1] = x_projected_matrix(0.1, -0.2)
        assert rhos.flags.writeable
        assert not state.rho.flags.writeable
        with pytest.raises(ValueError):
            state.rho[0, 0, 0] = 1.0
