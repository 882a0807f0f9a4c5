"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts at the stated tolerance.  Tolerances are fixed here, not tuned.
"""

import math
import time

import numpy as np
import pytest

from spinbath.cli import main as cli_main
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
    bloch_product_to_general,
    evolve,
    evolve_ideal,
)
from spinbath.entanglement import (
    appendix_b_eigenvalues,
    ideal_negativity,
    negativity_closed_form,
    negativity_from_spectrum,
    pt_spectra,
)
from spinbath.quadrature import (
    ohmic_delta_by_quadrature,
    ohmic_delta_s2_closed_form,
)
from spinbath.scenario import ScenarioConfig, builtin_presets, run
from spinbath.spectral import Lorentzian, Ohmic, SingleMode
import spinbath.configio as configio


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _x_state_batch(gammas, deltas):
    """Eq.-(9)-structured density matrices for a batch of (gamma, delta)."""
    b = len(gammas)
    e4 = np.exp(-4.0 * gammas)
    e16 = np.exp(-16.0 * gammas)
    p = np.exp(-4.0j * deltas)
    rho = np.full((b, 4, 4), 0.25, dtype=complex)
    for i, j in [(0, 1), (0, 2)]:
        rho[:, i, j] = 0.25 * e4 * p
        rho[:, j, i] = 0.25 * e4 * p.conj()
    for i, j in [(1, 3), (2, 3)]:
        rho[:, i, j] = 0.25 * e4 * p.conj()
        rho[:, j, i] = 0.25 * e4 * p
    rho[:, 0, 3] = rho[:, 3, 0] = 0.25 * e16
    return rho


@pytest.fixture(scope="module")
def random_grid():
    rng = np.random.default_rng(20240801)
    gammas = rng.uniform(0.0, 2.0, 10_000)
    deltas = -rng.uniform(0.0, 2.0, 10_000)
    spectra = pt_spectra(_x_state_batch(gammas, deltas))
    return gammas, deltas, spectra


def test_criterion_01_oracle_equivalence(random_grid):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    gammas = rng.uniform(0.0, 2.0, 10_000)
    deltas = -rng.uniform(0.0, 2.0, 10_000)
    spectra = pt_spectra(_x_state_batch(gammas, deltas))
    numeric = np.array([negativity_from_spectrum(e) for e in spectra])
    closed = np.array([negativity_closed_form(g, d).value
                       for g, d in zip(gammas, deltas)])
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(numeric - closed)))
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"closed vs numeric negativity on 1e4 points: "
                   f"max diff {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)")


def test_criterion_02_appendix_b_spectrum(random_grid):
    gammas, deltas, spectra = random_grid
    worst = 0.0
    pos_floor = 0.0
    for g, d, numeric in zip(gammas, deltas, spectra):
        lams = appendix_b_eigenvalues(g, d)
        worst = max(worst, float(np.max(np.abs(np.sort(np.array(lams))
                                               - numeric))))
        pos_floor = min(pos_floor, lams[0], lams[2], lams[3])
    ok = worst <= 1e-10 and pos_floor >= -1e-12
    _report(2, ok, f"analytic PT spectrum matches numeric as multiset: "
                   f"max diff {worst:.2e} (<=1e-10); only the second "
                   f"eigenvalue ever negative (floor {pos_floor:.1e})")


def test_criterion_03_idealized_limit():
    rng = np.random.default_rng(7)
    deltas = -rng.uniform(0.0, 3.0, 1000)
    states = np.stack([evolve_ideal(X_PROJECTED, d).rho for d in deltas])
    numeric = np.array([negativity_from_spectrum(e)
                        for e in pt_spectra(states)])
    closed = np.array([negativity_closed_form(0.0, d).value for d in deltas])
    expect = 0.5 * np.abs(np.sin(4.0 * deltas))
    worst = max(float(np.max(np.abs(numeric - expect))),
                float(np.max(np.abs(closed - expect))))
    ok = worst <= 1e-12
    _report(3, ok, f"zero-dephasing negativity equals |sin(4 Delta)|/2 on "
                   f"1e3 points: max diff {worst:.2e} (<=1e-12)")


def _first_main_peak(ts, ns):
    """Time of the first envelope-scale maximum.

    The window is sized to hold exactly one such maximum (the phase slope
    puts the second one far outside), so it is the window argmax; the fast
    gamma-induced ripples riding on the curve shift it by far less than the
    acceptance tolerance.
    """
    k = int(np.argmax(ns))
    assert 0 < k < len(ns) - 1, "window does not bracket the first maximum"
    return k


def test_criterion_04_single_mode_peak_timing():
    t0 = time.perf_counter()
    rec = run(builtin_presets()["fig1_lambda1"])
    k = _first_main_peak(rec.t, rec.negativity)
    peak_ok = rec.negativity[k] >= 0.49 \
        and abs(rec.t[k] - 10.0 * math.pi) <= 0.5

    bc = BathConditions(1.0)
    peak_times = []
    for lam in (0.01, 0.05, 0.5, 1.0, 2.0, 5.0):
        # first |4 Delta| = pi/2 crossing sits near 10 pi / lam
        window = 1.3 * math.pi * 20.0 / (2.0 * lam)
        ts = np.linspace(0.0, window, 1501)
        df = factors(SingleMode(lam, 20.0), bc, ts)
        ns = np.array([negativity_closed_form(g, d).value
                       for g, d in zip(df.gamma.tolist(), df.delta.tolist())])
        peak_times.append(float(ts[_first_main_peak(ts, ns)]))
    decreasing = all(b < a for a, b in zip(peak_times, peak_times[1:]))
    elapsed = time.perf_counter() - t0
    ok = peak_ok and decreasing and elapsed < 1.0
    _report(4, ok, f"first peak {rec.negativity[k]:.3f} at t={rec.t[k]:.2f} "
                   f"(10*pi +- 0.5); peak times decreasing across couplings "
                   f"{[round(x, 1) for x in peak_times]}; {elapsed:.2f}s (<1s)")


def test_criterion_05_ohmic_s2_quadrature_vs_analytic():
    j = Ohmic(0.01, 2.0, 10.0)
    worst = 0.0
    for t in np.linspace(0.1, 50.0, 100):
        q = ohmic_delta_by_quadrature(j, float(t))
        a = ohmic_delta_s2_closed_form(0.01, 10.0, float(t))
        worst = max(worst, abs(q - a) / abs(a))
    ok = worst <= 1e-8
    _report(5, ok, f"s=2 phase quadrature vs elementary antiderivative on "
                   f"100 times in [0.1, 50]: max rel err {worst:.2e} (<=1e-8)")


def test_criterion_06_lorentzian_n0_fully_unentangled():
    rec = run(builtin_presets()["lorentz_n0"])
    all_divergent = bool(np.all(np.isinf(rec.gamma)))
    all_zero = bool(np.all(rec.negativity == 0.0))
    ok = all_divergent and all_zero
    _report(6, ok, f"n=0 Lorentzian: every grid point divergent "
                   f"({all_divergent}) with exactly zero negativity "
                   f"({all_zero})")


def _run_with(preset, **overrides):
    nested = builtin_presets()[preset].to_dict()
    for key, value in overrides.items():
        configio.set_path(nested, key.replace("__", "."), value)
    return run(ScenarioConfig.from_dict(nested))


def test_criterion_07_lorentzian_robustness():
    qs = (0.05, 0.5, 5.0)
    n2_max = [float(np.max(_run_with("fig5b", bath__q=q).negativity))
              for q in qs]
    n1_max = [float(np.max(_run_with("fig5a", bath__q=q).negativity))
              for q in qs]
    n2_ok = all(m >= 0.45 for m in n2_max)
    n1_ok = all(b < a for a, b in zip(n1_max, n1_max[1:]))
    ok = n2_ok and n1_ok
    _report(7, ok, f"n=2 peaks {[round(m, 3) for m in n2_max]} all >=0.45; "
                   f"n=1 peaks {[round(m, 4) for m in n1_max]} strictly "
                   f"decreasing in linewidth")


def test_criterion_08_ohmic_regime_ordering():
    super_ohmic = float(np.max(run(builtin_presets()["fig3_s3"]).negativity))
    sub_ohmic = float(np.max(run(builtin_presets()["fig3_s0p5"]).negativity))
    ok = super_ohmic > sub_ohmic
    _report(8, ok, f"super-Ohmic s=3 peak {super_ohmic:.3f} exceeds "
                   f"sub-Ohmic s=0.5 peak {sub_ohmic:.3f}")


def test_criterion_09_initial_angle_ordering():
    thetas = (math.pi / 8, math.pi / 4, math.pi / 2)
    ok = True
    detail = []
    for preset in ("fig6_single_theta", "fig6_ohmic_theta",
                   "fig6_lorentz_theta"):
        curves = [_run_with(preset, init__theta1=th, init__theta2=th).negativity
                  for th in thetas]
        pair_ok = (np.all(curves[0] <= curves[1] + 1e-10)
                   and np.all(curves[1] <= curves[2] + 1e-10))
        ok = ok and bool(pair_ok)
        detail.append(f"{preset}:{'ok' if pair_ok else 'violated'}")
    _report(9, ok, "negativity ordered by initial angle pi/8 <= pi/4 <= pi/2 "
                   "pointwise; " + ", ".join(detail))


def test_criterion_10_physics_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    bc_pool = [BathConditions(b) for b in (0.01, 0.1, 1.0, 10.0)]
    cases = 0
    issues = []

    def check(cond, label):
        if not cond:
            issues.append(label)

    # closed-form family: states, spectra, field invariance, linearity
    states = []
    for _ in range(400):
        lam = rng.uniform(0.01, 5.0)
        wc = rng.uniform(1.0, 40.0)
        bc = bc_pool[rng.integers(0, 4)]
        t = rng.uniform(0.0, 20.0)
        df = factors(SingleMode(lam, wc), bc, t)
        df2 = factors(SingleMode(2.0 * lam, wc), bc, t)
        check(df.gamma >= 0.0 and df.delta <= 0.0, "sign")
        check(abs(df2.gamma - 2 * df.gamma) <= 1e-10 * max(1, abs(df.gamma)),
              "gamma linearity")
        check(abs(df2.delta - 2 * df.delta) <= 1e-10 * max(1, abs(df.delta)),
              "delta linearity")
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        init = GeneralInitialState(tuple(c / np.linalg.norm(c)))
        h = rng.normal() * 5.0
        states.append((evolve(init, df, FieldConfig(0.0), t).rho,
                       evolve(init, df, FieldConfig(h), t).rho))
        cases += 1

    rho0 = np.stack([a for a, _ in states])
    rhoh = np.stack([b for _, b in states])
    herm = np.max(np.abs(rho0 - rho0.conj().transpose(0, 2, 1)))
    trace = np.max(np.abs(np.trace(rho0, axis1=1, axis2=2) - 1.0))
    psd = np.min(np.linalg.eigvalsh(rho0))
    check(herm <= 1e-12, f"hermiticity {herm:.1e}")
    check(trace <= 1e-12, f"trace {trace:.1e}")
    check(psd >= -1e-10, f"psd {psd:.1e}")
    n0 = np.array([negativity_from_spectrum(e) for e in pt_spectra(rho0)])
    nh = np.array([negativity_from_spectrum(e) for e in pt_spectra(rhoh)])
    check(np.max(np.abs(n0 - nh)) <= 1e-10, "field invariance")
    check(np.all(n0 >= 0.0) and np.all(n0 <= 0.5 + 1e-12), "negativity range")

    # synthetic factors over the full (gamma, delta) square
    for _ in range(400):
        df = DecoherenceFactors(rng.uniform(0, 3), -rng.uniform(0, 3))
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        init = GeneralInitialState(tuple(c / np.linalg.norm(c)))
        rho = evolve(init, df, FieldConfig(rng.normal()), rng.uniform(0, 9)).rho
        check(np.max(np.abs(rho - rho.conj().T)) <= 1e-12, "hermiticity")
        check(abs(np.trace(rho).real - 1.0) <= 1e-12, "trace")
        val = negativity_from_spectrum(pt_spectra(rho))
        check(0.0 <= val <= 0.5 + 1e-12, "range")
        cases += 1

    # quadrature families: signs and coupling linearity
    for _ in range(200):
        bc = bc_pool[rng.integers(1, 4)]
        t = rng.uniform(0.05, 15.0)
        if rng.integers(0, 2):
            j = Ohmic(rng.uniform(0.005, 0.1), rng.uniform(0.3, 4.0),
                      rng.uniform(2.0, 20.0))
            j2 = Ohmic(2 * j.coupling, j.s, j.omega_c)
        else:
            j = Lorentzian(rng.uniform(0.1, 2.0), rng.uniform(0.05, 5.0),
                           rng.uniform(5.0, 30.0), int(rng.integers(1, 3)))
            j2 = Lorentzian(2 * j.coupling, j.q, j.omega_c, j.n)
        df = factors(j, bc, t)
        df2 = factors(j2, bc, t)
        check(df.gamma >= 0.0 and df.delta <= 0.0, "quadrature sign")
        check(abs(df2.gamma - 2 * df.gamma) <= 1e-10 * max(1.0, abs(df.gamma)),
              "quadrature gamma linearity")
        check(abs(df2.delta - 2 * df.delta) <= 1e-10 * max(1.0, abs(df.delta)),
              "quadrature delta linearity")
        cases += 1

    elapsed = time.perf_counter() - t0
    ok = not issues and cases >= 1000 and elapsed < 30.0
    _report(10, ok, f"{cases} randomized cases, {len(issues)} violations "
                    f"{issues[:3]}, {elapsed:.1f}s (<30s)")


def _preset_csv_bytes(name, tmp_path, tag):
    path = tmp_path / f"{name}-{tag}.csv"
    code = cli_main(["run", "--preset", name, "--output", str(path)])
    assert code == 0, f"preset {name} failed"
    return path.read_bytes()


def test_criterion_11_preset_determinism(tmp_path):
    mismatched = []
    for name in sorted(builtin_presets()):
        first, second, third = (_preset_csv_bytes(name, tmp_path, tag)
                                for tag in "abc")
        if not (first == second == third):
            mismatched.append(name)
    ok = not mismatched
    _report(11, ok, f"byte-identical CSV for all {len(builtin_presets())} "
                    f"presets across three runs; mismatches: {mismatched}")
