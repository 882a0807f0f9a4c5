import math

import numpy as np
import pytest

import spinbath
from spinbath.decoherence import DecoherenceFactors
from spinbath.dynamics import (
    X_PROJECTED,
    FieldConfig,
    GeneralInitialState,
    InitialProductState,
    TwoSpinState,
    bloch_product_to_general,
    evolve,
    is_x_projected,
)
from spinbath.entanglement import (
    appendix_b_eigenvalues,
    ideal_negativity,
    negativity_closed_form,
    negativity_from_spectrum,
    negativity_numeric,
    partial_transpose,
    pt_negativity,
    pt_spectra,
    x_block_spectra,
)


def x_state_at(gamma, delta, h=0.0, t=1.0):
    return evolve(X_PROJECTED, DecoherenceFactors(gamma, delta),
                  FieldConfig(h), t)


def ideal_state(init, delta):
    """The zero-dephasing, zero-field evolution U rho0 U^+."""
    return evolve(init, DecoherenceFactors(0.0, delta), FieldConfig(0.0), 0.0)


class TestClosedForm:
    def test_maximal_entanglement(self):
        # gamma = 0, Delta = -pi/8 gives a Bell-like state, N = 1/2
        assert negativity_closed_form(0.0, -math.pi / 8) == 0.5

    def test_infinite_dephasing(self):
        assert negativity_closed_form(math.inf, -0.3) == 0.0

    def test_frozen_value(self):
        n = negativity_closed_form(0.01, -0.1)
        assert n == pytest.approx(0.16950323791816861488, rel=1e-14)

    def test_zero_point(self):
        assert negativity_closed_form(0.0, 0.0) == 0.0

    def test_underflow_clamp(self):
        # 16*gamma > 750 must not raise or produce junk
        assert negativity_closed_form(100.0, -0.4) == 0.0
        assert sum(appendix_b_eigenvalues(100.0, -0.4)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            negativity_closed_form(-0.1, 0.0)


class TestAppendixB:
    def test_frozen_spectrum(self):
        lams = appendix_b_eigenvalues(0.3, -0.7)
        oracle = (0.25781411551354905376, -0.0098715522758040609696,
                  0.56445202232691530623, 0.18760541443533970098)
        assert np.allclose(lams, oracle, atol=1e-15)

    def test_degenerate_origin(self):
        lam1, lam2, lam3, lam4 = appendix_b_eigenvalues(0.0, 0.0)
        assert lam1 == 0.0 and lam2 == 0.0
        assert lam3 + lam4 == pytest.approx(1.0, abs=1e-15)

    def test_trace_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            lams = appendix_b_eigenvalues(rng.uniform(0, 3), -rng.uniform(0, 3))
            assert sum(lams) == pytest.approx(1.0, abs=1e-12)

    def test_only_lambda2_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            lam1, lam2, lam3, lam4 = appendix_b_eigenvalues(
                rng.uniform(0, 2), -rng.uniform(0, 2))
            assert lam1 >= -1e-15 and lam3 >= -1e-15 and lam4 >= -1e-15
            assert lam3 >= lam4

    def test_bell_point(self):
        lams = appendix_b_eigenvalues(0.0, -math.pi / 8)
        assert lams[1] == pytest.approx(-0.5, abs=1e-15)


class TestNumericPartialTranspose:
    def test_product_state_separable(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            init = bloch_product_to_general(InitialProductState(
                rng.uniform(0, math.pi), rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            state = ideal_state(init, 0.0)
            assert negativity_numeric(state) == 0.0

    def test_bell_like_state(self):
        state = ideal_state(X_PROJECTED, -math.pi / 8)
        assert negativity_numeric(state) == pytest.approx(0.5, abs=1e-13)

    def test_matches_closed_form(self):
        state = x_state_at(0.01, -0.1)
        n = negativity_numeric(state)
        c = negativity_closed_form(0.01, -0.1)
        assert abs(n - c) <= 1e-10

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            g, d = rng.uniform(0, 2), -rng.uniform(0, 2)
            state = x_state_at(g, d)
            n = negativity_numeric(state)
            c = negativity_closed_form(g, d)
            assert abs(n - c) <= 1e-10
            assert np.allclose(pt_spectra(state),
                               sorted(appendix_b_eigenvalues(g, d)), atol=1e-10)

    def test_spectrum_matches_lapack(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            state = evolve(GeneralInitialState(tuple(c)),
                           DecoherenceFactors(rng.uniform(0, 1), -rng.uniform(0, 1)),
                           FieldConfig(rng.normal()), rng.uniform(0, 4))
            ours = pt_spectra(state.rho)
            lapack = np.linalg.eigvalsh(partial_transpose(state.rho))
            assert np.allclose(ours, lapack, atol=1e-12)

    def test_ppt_iff_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g, d = rng.uniform(0, 2), -rng.uniform(0, 2)
            state = x_state_at(g, d)
            if negativity_numeric(state) == 0.0:
                assert pt_spectra(state)[0] >= -1e-10
            else:
                assert pt_spectra(state)[0] < -1e-13

    def test_field_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g, d, t = rng.uniform(0, 1), -rng.uniform(0, 1), rng.uniform(0, 5)
            n0 = negativity_numeric(x_state_at(g, d, h=0.0, t=t))
            n1 = negativity_numeric(x_state_at(g, d, h=rng.normal() * 5, t=t))
            assert abs(n0 - n1) <= 1e-10

    def test_range_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            state = ideal_state(GeneralInitialState(tuple(c)), -rng.uniform(0, 3))
            v = negativity_numeric(state)
            assert 0.0 <= v <= 0.5 + 1e-12



def factor_draws(rng, n):
    """gamma from 0, 1e-12, 1e-3..10 and +inf; Delta with multiples of
    pi/16, where the block spectra are degenerate; t up to 6000."""
    gammas = np.concatenate([[0.0, 1e-12, np.inf], 10.0 ** rng.uniform(-3, 1, 60)])
    deltas = np.concatenate([np.arange(-32, 33) * math.pi / 16,
                             rng.uniform(-10, 10, 60)])
    return (rng.choice(gammas, n), rng.choice(deltas, n),
            rng.uniform(0, 6000, n))


class TestXBlockSpectra:
    @pytest.mark.parametrize("h", [0.0, 0.7, 1e4])
    def test_matches_lapack_within_bound(self, h):
        rng = np.random.default_rng(11)
        inits = [X_PROJECTED]
        for _ in range(4):
            # amplitudes inside the 1e-12 band of the x-projected state
            c = 0.5 + rng.uniform(-3e-13, 3e-13, 4) \
                + 1j * rng.uniform(-3e-13, 3e-13, 4)
            inits.append(GeneralInitialState(tuple(c / np.linalg.norm(c))))
        for init in inits:
            assert is_x_projected(init)
            gamma, delta, t = factor_draws(rng, 500)
            state = evolve(init, DecoherenceFactors(gamma, delta),
                           FieldConfig(h), t)
            spectra, bound = x_block_spectra(state, h, t)
            lapack = np.linalg.eigvalsh(partial_transpose(state.rho))
            assert spectra.shape == (500, 4) and bound.shape == (500,)
            assert np.all(np.abs(np.sort(spectra, axis=-1) - lapack)
                          <= 1e-12 + bound[:, None])
            if init is X_PROJECTED:
                assert np.max(bound) <= 1e-13

    def test_bound_holds_for_any_state(self):
        # Weyl's inequality needs no x-state: for any state the sorted
        # block values lie within the bound of LAPACK's spectrum
        rng = np.random.default_rng(12)
        for h in (0.0, 0.7, 1e4):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            init = GeneralInitialState(tuple(c / np.linalg.norm(c)))
            gamma, delta, t = factor_draws(rng, 200)
            state = evolve(init, DecoherenceFactors(gamma, delta),
                           FieldConfig(h), t)
            spectra, bound = x_block_spectra(state, h, t)
            lapack = np.linalg.eigvalsh(partial_transpose(state.rho))
            assert np.all(np.abs(np.sort(spectra, axis=-1) - lapack)
                          <= 1e-12 + bound[:, None] / 4)
            assert np.min(bound) > 1e-3

    def test_one_matrix(self):
        state = x_state_at(0.3, -0.2, h=0.7, t=2.0)
        spectra, bound = x_block_spectra(state, 0.7, 2.0)
        assert spectra.shape == (4,) and bound <= 1e-13
        assert np.allclose(np.sort(spectra),
                           sorted(appendix_b_eigenvalues(0.3, -0.2)),
                           rtol=0, atol=1e-15)


class TestIdealNegativity:
    def test_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = -rng.uniform(0, 3)
            state = ideal_state(X_PROJECTED, d)
            assert abs(negativity_numeric(state) - ideal_negativity(d)) <= 1e-12

    def test_quarter_phase(self):
        assert ideal_negativity(-math.pi / 8) == pytest.approx(0.5, abs=1e-15)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(partial_transpose(partial_transpose(m)), m)

    def test_trace_preserved(self):
        state = x_state_at(0.2, -0.4)
        assert np.trace(partial_transpose(state.rho)) == pytest.approx(1.0)

    def test_known_swap(self):
        # element ((m1,m2),(n1,n2)) moves to ((m1,n2),(n1,m2))
        m = np.zeros((4, 4), complex)
        m[0, 3] = 1.0  # ((+1,+1),(-1,-1)) -> ((+1,-1),(-1,+1)) = (1,2)
        pt = partial_transpose(m)
        assert pt[1, 2] == 1.0 and pt[0, 3] == 0.0


@pytest.mark.parametrize("module,name", [
    (spinbath, "NegativityResult"), (spinbath, "NegativityMethod"),
    (spinbath, "evolve_ideal"),
    (spinbath.entanglement, "NegativityResult"),
    (spinbath.entanglement, "NegativityMethod"),
    (spinbath.dynamics, "evolve_ideal"),
    (spinbath.decoherence, "Method")])
def test_removed_names_raise_attribute_error(module, name):
    # the negativity functions return N itself, evolve with gamma = 0 and
    # h = 0 is the ideal evolution, and no factor record names its kernel
    with pytest.raises(AttributeError):
        getattr(module, name)


def lapack_negativity(rho):
    return negativity_from_spectrum(np.linalg.eigvalsh(partial_transpose(rho)))


def ginibre_states(rng, n):
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


def with_lowest_pt_eigenvalue(rng, lowest, n):
    """Random pure states mixed with I/4 so that the lowest eigenvalue of
    each partial transpose is `lowest` (up to rounding)."""
    c = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    c /= np.linalg.norm(c, axis=1)[:, None]
    rho = c[:, :, None] * c[:, None, :].conj()
    lam = np.linalg.eigvalsh(partial_transpose(rho))[:, 0]
    p = ((0.25 - lowest) / (0.25 - lam))[:, None, None]
    return p * rho + (1.0 - p) * np.eye(4) / 4


class TestPtNegativity:
    """The certified lowest partial-transpose eigenvalue against LAPACK."""

    def check(self, rho, tol=2e-15):
        state = TwoSpinState(rho)
        n = negativity_numeric(state)
        assert np.all(np.abs(n - lapack_negativity(state.rho)) <= tol)
        return int(np.sum(~pt_negativity(state)[1]))

    @pytest.mark.parametrize("h", [0.0, 0.7, 1e4])
    def test_product_states(self, h):
        rng = np.random.default_rng(290)
        uncertified = 0
        for gamma in (0.0, 1e-12, np.inf, None):
            for _ in range(4):
                init = bloch_product_to_general(InitialProductState(
                    rng.uniform(0, math.pi), rng.uniform(0, math.pi),
                    rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
                g = rng.uniform(0, 2, 500) if gamma is None else gamma
                state = evolve(init, DecoherenceFactors(g, -rng.uniform(0, 10, 500)),
                               FieldConfig(h), rng.uniform(0, 40, 500))
                uncertified += self.check(state.rho)
        assert uncertified == 0

    def test_random_full_rank_states(self):
        assert self.check(ginibre_states(np.random.default_rng(291), 4000)) == 0

    def test_pure_states(self):
        rng = np.random.default_rng(292)
        c = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
        c /= np.linalg.norm(c, axis=1)[:, None]
        assert self.check(c[:, :, None] * c[:, None, :].conj()) == 0
        a, b = (rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))
                for _ in range(2))
        p = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
        p /= np.linalg.norm(p, axis=1)[:, None]
        n = negativity_numeric(TwoSpinState(p[:, :, None] * p[:, None, :].conj()))
        assert np.all(n == 0.0)

    def test_werner_states(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        p = np.linspace(0.0, 1.0, 1001)
        rho = (p[:, None, None] * np.outer(psi, psi)
               + (1.0 - p[:, None, None]) * np.eye(4) / 4)
        n = negativity_numeric(TwoSpinState(rho))
        assert np.all(np.abs(n - np.maximum(0.0, (3 * p - 1) / 4)) <= 2e-15)
        self.check(rho)

    def test_zero_band_edge(self):
        # lowest eigenvalue at -1e-13 +- a few ulps: the zero band decides,
        # so these rows take LAPACK's verdict
        rng = np.random.default_rng(293)
        lowest = -1e-13 + np.arange(-8, 9) * np.spacing(1e-13)
        rho = np.concatenate([with_lowest_pt_eigenvalue(rng, x, 20)
                              for x in lowest])
        state = TwoSpinState(rho)
        assert np.array_equal(negativity_numeric(state),
                              lapack_negativity(state.rho))
        rho = np.concatenate([with_lowest_pt_eigenvalue(rng, x, 50)
                              for x in (-1.2e-13, -8e-14, -1e-12, -1e-6)])
        assert self.check(rho) == 0

    def test_mpmath_reference(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(294)
        rho = np.concatenate([ginibre_states(rng, 25),
                              with_lowest_pt_eigenvalue(rng, -1e-9, 25)])
        n = negativity_numeric(TwoSpinState(rho))
        with mp.workdps(30):
            for k, x in enumerate(partial_transpose(rho)):
                eigs = mp.eighe(mp.matrix(x.tolist()), eigvals_only=True)
                ref = -min(0, min(eigs)) if min(eigs) < -1e-13 else 0
                assert abs(n[k] - float(ref)) <= 2e-15

    def test_one_state_gives_its_row_bits(self):
        rho = ginibre_states(np.random.default_rng(295), 300)
        n = negativity_numeric(TwoSpinState(rho))
        one = [negativity_numeric(TwoSpinState(r)) for r in rho]
        assert np.asarray(n).view(np.uint64).tolist() == \
            np.asarray(one).view(np.uint64).tolist()

    def test_uncertified_rows_take_lapack(self, monkeypatch):
        rho = ginibre_states(np.random.default_rng(296), 500)
        # a negative half-width fails every certificate
        monkeypatch.setattr(spinbath.entanglement, "_CERTIFIED", -1.0)
        state = TwoSpinState(rho)
        n, certified = pt_negativity(state)
        assert np.all(n[certified] == 0.0) and 100 < np.sum(~certified)
        assert np.array_equal(negativity_numeric(state),
                              lapack_negativity(state.rho))
