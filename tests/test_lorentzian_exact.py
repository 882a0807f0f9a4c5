"""Exact Lorentzian factors against references that share no code with them.

``factors`` sums the Lorentzian gamma and Delta from partial fractions of
J/w^2 and the scaled exponential integral e^z E1(z).  The references here
are a 30-digit ``mpmath`` quadrature of the defining integrals (the
oscillating part moved onto a vertical ray), ``mpmath.e1``, and the
program's own quadrature references on the preset grids.  All are held to
the program's stated tolerance, 1e-8 relative with a 1e-12 absolute floor.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import spinbath.decoherence
from spinbath.decoherence import (
    _ASYMPTOTIC_SWITCH,
    _COTH_DIRECT,
    _COTH_ROWS,
    _MAX_OVERDAMPING,
    BathConditions,
    Method,
    _coth_bracket,
    _LorentzParts,
    _lorentz_laplace,
    _phi,
    factors,
)
from spinbath.errors import QuadratureFailure
from spinbath.quadrature import (
    _delta_lorentzian_by_quadrature,
    _gamma_by_quadrature,
)
from spinbath.scenario import builtin_presets
from spinbath.spectral import Lorentzian, Ohmic, SingleMode

mpmath = pytest.importorskip("mpmath")

OMEGA_C = 20.0


def mp_factors(coupling, q, omega_c, n, beta, t, dps=30, split=1.0):
    """(gamma, Delta) by mpmath quadrature of the defining integrals.

    gamma = 1/4 int J(w) (1 - cos wt) / w^2 coth(beta w/2) dw and
    Delta = 1/4 int J(w) (sin wt - wt) / w^2 dw.  Up to A (four periods of
    the kernel, or half the resonance frequency when the resonance lies
    beyond that) the integrand is integrated on the real axis.  Beyond A
    the smooth part stays there, and the oscillating part env(w) e^(iwt)
    moves to the vertical ray A + iy, where it decays like e^(-yt), plus
    2 pi i times the residue at the pole of J in Re w > A, Im w > 0.
    ``split`` scales A, so two values give two independent evaluations.
    """
    with mpmath.workdps(dps):
        lam, q, wc, b, t = (mpmath.mpf(v) for v in (coupling, q, omega_c,
                                                     beta, t))
        om2 = wc * wc - q * q / 4
        om = mpmath.sqrt(om2) if om2 > 0 else mpmath.mpf(0)
        pole = mpmath.mpc(om, q / 2)

        def spec(w):
            return lam / mpmath.pi * q * w ** n \
                / ((w * w - wc * wc) ** 2 + q * q * w * w)

        def gamma_kernel(w):
            return mpmath.coth(b * w / 2) / (4 * w * w)

        def delta_kernel(w):
            return 1 / (4 * w * w)

        def gamma_env(w):
            return spec(w) * gamma_kernel(w)

        def delta_env(w):
            return spec(w) * delta_kernel(w)

        a = 8 * mpmath.pi / t
        if om > 0 and a < 2 * (wc + 16 * q):
            a = min(a, om / 2)
        a *= split
        ys = {mpmath.mpf(0), 1 / t, 10 / t, q / 2, mpmath.inf}
        if om2 < 0:
            ys.update((q / 2 - mpmath.sqrt(-om2), q / 2 + mpmath.sqrt(-om2)))
        ys.update(2 * mpmath.pi * m / b for m in (1, 2, 3))
        ys = sorted(ys)

        def osc(kernel):
            # int_a^inf kernel(w) J(w) e^(iwt) dw
            val = 1j * mpmath.expj(a * t) * mpmath.quad(
                lambda y: kernel(a + 1j * y) * spec(a + 1j * y)
                * mpmath.exp(-y * t), ys)
            if om > a:
                dprime = 4 * pole * (pole ** 2 - wc ** 2) + 2 * q * q * pole
                val += 2j * mpmath.pi * kernel(pole) * lam / mpmath.pi * q \
                    * pole ** n / dprime * mpmath.expj(pole * t)
            return val

        pts = {mpmath.mpf(0), a}
        for k in (0, 0.25, 1, 4, 16):
            pts.update(x for x in (wc - k * q, wc + k * q, om - k * q,
                                   om + k * q) if x > 0)
        head = sorted(x for x in pts if x <= a)
        tail = [a] + sorted(x for x in pts if x > a) + [mpmath.inf]

        d = mpmath.quad(lambda w: delta_env(w) * (mpmath.sin(w * t) - w * t),
                        head)
        d -= t * mpmath.quad(lambda w: delta_env(w) * w, tail)
        d += mpmath.im(osc(delta_kernel))
        if n == 0:
            return mpmath.inf, d
        g = mpmath.quad(
            lambda w: gamma_env(w) * 2 * mpmath.sin(w * t / 2) ** 2, head)
        g += mpmath.quad(gamma_env, tail)
        g -= mpmath.re(osc(gamma_kernel))
        return g, d


def within_tolerance(value, ref):
    ref = float(ref)
    return abs(value - ref) <= max(1e-8 * abs(ref), 1e-12)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _draws():
    rng = np.random.default_rng(20261018)
    cases = []
    for n, count in ((0, 3), (1, 6), (2, 6)):
        for _ in range(count):
            cases.append((n, _log_uniform(rng, 1e-3, 60.0),
                          _log_uniform(rng, 1e-3, 100.0),
                          _log_uniform(rng, 1e-4, 2e4)))
    return cases


#: (n, q, beta, t) where a partial-fraction evaluation is most fragile
CORNERS = [
    (2, 5.0, 100.0, 3.0),             # large beta: asymptotic tail terms
    (2, 5.0, 1e-3, 3.0),
    (1, 0.5, 1e-3, 0.2),
    (2, 40.0, 1.0, 2.0),              # critical damping, a double pole
    (2, 40.0 + 1e-9, 1.0, 2.0),
    (2, 40.0 - 1e-9, 1.0, 2.0),
    (1, 40.0, 1.0, 0.7),
    (0, 40.0, 1.0, 2.0),
    (2, 39.9, 1.0, 2.0),
    (2, 50.0, 1.0, 2.0),              # overdamped: poles on the imaginary axis
    (1, 60.0, 0.05, 30.0),
    (1, 2e4, 1.0, 0.05),              # a pole near 0 (q = 1000 omega_c)
    (0, 2e4, 1.0, 0.05),
    (0, 2e5, 1.0, 0.05),              # q = 1e4 and 1e5 omega_c, omega_c t = 1
    (0, 2e6, 1.0, 0.05),
    (0, 60.0, 1.0, 1e-4),             # t -> 0, where the logs cancel
    (1, 5.0, 1.0, 1e-4),
    (2, 60.0, 0.3, 1e-4),
    (1, 1e-3, 10.0, 2e4),             # long time on a narrow resonance
    (2, 1e-3, 100.0, 2e4),
    (0, 1e-3, 1.0, 2e4),
]


@pytest.mark.parametrize("n,q,beta,t", _draws() + CORNERS)
def test_factors_match_mpmath(n, q, beta, t):
    df = factors(Lorentzian(1.0, q, OMEGA_C, n), BathConditions(beta), t)
    ref_g, ref_d = mp_factors(1.0, q, OMEGA_C, n, beta, t)
    assert df.method is Method.ANALYTIC_REDUCTION
    assert within_tolerance(df.delta, ref_d)
    if n == 0:
        assert df.gamma_divergent and math.isinf(df.gamma)
    else:
        assert not df.gamma_divergent
        assert within_tolerance(df.gamma, ref_g)


@pytest.mark.parametrize("q,t", [(1e4, 1.0), (1e5, 1.0), (1e6, 1.0),
                                 (1e5, 0.1), (1e5, 10.0)])
def test_n0_delta_under_extreme_overdamping(q, t):
    # at omega_c = 1 Delta is large enough against the 1e-12 floor to show
    # the cancellation between the small overdamped pole (|p| ~ 1/q) and
    # the pole at zero, which cost up to 181 times the tolerance before
    # the pole at zero was folded into the pole brackets
    df = factors(Lorentzian(1.0, q, 1.0, 0), BathConditions(1.0), t)
    ref_g, ref_d = mp_factors(1.0, q, 1.0, 0, 1.0, t)
    assert within_tolerance(df.delta, ref_d)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_overdamping_limit(n):
    # at q = _MAX_OVERDAMPING w_c the factors still hold to the tolerance
    # (t = 10 beta is where the n = 1 gamma is least accurate); beyond it,
    # where the scaled w_c^2 cancels to 0 (q = 5e8 w_c), and where the
    # scale w_c^(n-5) leaves the float range, they raise QuadratureFailure
    bc = BathConditions(1.0)
    for t in (0.1, 10.0, 1e3):
        df = factors(Lorentzian(1.0, _MAX_OVERDAMPING, 1.0, n), bc, t)
        ref_g, ref_d = mp_factors(1.0, _MAX_OVERDAMPING, 1.0, n, 1.0, t)
        assert within_tolerance(df.delta, ref_d)
        if n:
            assert within_tolerance(df.gamma, ref_g)
    for q, omega_c in ((1.000001 * _MAX_OVERDAMPING, 1.0), (0.05, 1e-10),
                       (1e-300, 1e-300)):
        with pytest.raises(QuadratureFailure):
            factors(Lorentzian(1.0, q, omega_c, n), bc, np.array([0.0, 1.0]))


def test_reference_agrees_with_itself():
    # a different split point of the contour and more digits, far below
    # the tested tolerance
    for n, q, beta, t in [(1, 1e-3, 10.0, 2e4)]:
        lo = mp_factors(1.0, q, OMEGA_C, n, beta, t)
        hi = mp_factors(1.0, q, OMEGA_C, n, beta, t, dps=40, split=0.5)
        for x, y in zip(lo, hi):
            if mpmath.isfinite(y):
                assert abs(x - y) <= 1e-20 * abs(y)


def test_phi_matches_mpmath():
    # phi(z) = e^z E1(z) + gamma_E + log z, held to the larger of |phi| and
    # |e^z E1(z)|: relative near z = 0, where phi vanishes like z log z
    rng = np.random.default_rng(5)
    r = np.exp(rng.uniform(math.log(1e-6), math.log(1.6e5), 600))
    theta = np.concatenate([rng.uniform(-math.pi, math.pi, 300),
                            math.pi * (1.0 - 10.0 ** rng.uniform(-8, 0, 150)),
                            -math.pi * (1.0 - 10.0 ** rng.uniform(-8, 0, 150))])
    z = np.concatenate([r * np.exp(1j * theta), [-3.0 + 0j, -39.5 + 0j]])
    got = _phi(z)
    with mpmath.workdps(30):
        g = [mpmath.exp(v) * mpmath.e1(v) for v in z]
        ref = np.array([complex(x + mpmath.euler + mpmath.log(v))
                        for x, v in zip(g, z)])
        scale = np.maximum(np.abs(ref), [float(abs(x)) for x in g])
    assert np.max(np.abs(got - ref) / scale) <= 1e-13
    # elementwise: one value does not depend on the rest of the array
    assert np.array_equal(got, [_phi(np.array([v]))[0] for v in z])


@pytest.mark.parametrize("n", [1, 2])
def test_temperature_limits(n):
    # beta^j of the Euler-Maclaurin terms leaves the float range here; the
    # classical limit gamma ~ 1/beta and the zero-temperature limit hold
    j = Lorentzian(1.0, 0.5, OMEGA_C, n)
    t = np.array([0.01, 3.0, 400.0])
    hot = [b * factors(j, BathConditions(b), t).gamma for b in (1e-50, 1e-150)]
    cold = [factors(j, BathConditions(b), t).gamma for b in (1e50, 1e250)]
    for a, b in (hot, cold):
        assert np.all(np.isfinite(a)) and np.all(a > 0)
        assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_large_coupling_is_linear():
    # the quadrature could not reach its relative tolerance here: its
    # truncation point grew with the coupling past the evaluation budget
    bc, t = BathConditions(0.967), 0.00598
    big = factors(Lorentzian(1e4, 1.294, 20.0, 2), bc, t)
    unit = factors(Lorentzian(1.0, 1.294, 20.0, 2), bc, t)
    assert math.isfinite(big.gamma) and math.isfinite(big.delta)
    assert big.gamma == pytest.approx(1e4 * unit.gamma, rel=1e-12, abs=0)
    assert big.delta == pytest.approx(1e4 * unit.delta, rel=1e-12, abs=0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("bath", [
    Lorentzian(1.0, 0.5, OMEGA_C, 1),
    Ohmic(0.01, 0.5, 10.0),     # the coth-series integral row for s < 1.5
    Ohmic(0.01, 3.0, 10.0),     # and for s >= 1.5
    SingleMode(1.0, 20.0),
], ids=["lorentz_n1", "ohmic_s0.5", "ohmic_s3", "single_mode"])
def test_time_blocks_leave_values_unchanged(bath):
    # factors takes the times t > 0 of every family through blocks of
    # _BLOCK = 4096, the Ohmic and Lorentzian ones each through the
    # coth-series rows as arrays; here the times
    # t > 0 end 3 into a second block.  Seven times repeat across the grid,
    # so every index can be checked against its scalar call.
    values = np.array([0.013, 0.4, 1.1, 2.0, 7.5, 19.0, 50.0])
    at = np.arange(4096 + 3) % values.size
    df = factors(bath, BathConditions(1.0), np.append(0.0, values[at]))
    alone = [factors(bath, BathConditions(1.0), float(t)) for t in values]
    assert df.gamma[0] == df.delta[0] == 0.0
    assert _bits(df.gamma[1:]) == _bits([alone[k].gamma for k in at])
    assert _bits(df.delta[1:]) == _bits([alone[k].delta for k in at])


#: (regime, q, beta) in units of omega_c, as the coth rows see them
ROW_REGIMES = [
    ("near", 0.5, 0.05),      # every pole of every row near: brackets
    ("mixed", 1e3, 1.0),      # widely split overdamped poles: one of each
    ("far", 0.5, 50.0),       # every pole of every row far: series only
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("regime,q,beta", ROW_REGIMES)
def test_batched_rows_match_rows_alone(regime, q, beta, n):
    parts = _LorentzParts(q, (1.0 - 0.5 * q) * (1.0 + 0.5 * q), 1.0)
    m, lifts = _COTH_ROWS
    b = m * beta
    t = np.geomspace(1e-3, 3e3, 41)
    near = b[:, None] * parts.modulus < _ASYMPTOTIC_SWITCH
    if regime == "near":
        assert near.all()
    elif regime == "mixed":
        assert (near.any(axis=1) & ~near.all(axis=1)).all()
    else:
        assert not near.any()
    if near.any():
        # the near brackets take both their wide and their short-time
        # (t <= b/4) form somewhere in the block
        short = t <= 0.25 * b[near.any(axis=1), None]
        assert short.any() and not short.all()
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _lorentz_laplace(parts, b, lifts, t, n - 2, beta)
        alone = [_lorentz_laplace(parts, b[k:k + 1], lifts[k:k + 1], t,
                                  n - 2, beta)[0] for k in range(b.size)]
    assert rows.shape == (b.size, t.size) and np.all(np.isfinite(rows))
    for k in range(b.size):
        assert _bits(rows[k]) == _bits(alone[k]), k


def mp_row(q, n, beta, b, j, t, dps=30):
    """beta^j S(n - 2 + j, b) by mpmath quadrature, in units of omega_c.

    S(r, b) = int_0^inf w^r / D e^(-bw) (1 - cos wt) dw with
    D = (w^2 - 1)^2 + q^2 w^2.  In x = bw it is b^-(r+1) int x^r e^(-x)
    2 sin^2(xt / 2b) / D(x/b) dx, split at the resonance and at x = k,
    that is w = k/b, for k = 1, 2, 4, ..., 64, where x^r e^(-x) lives.
    Its integrand stays far above the quadrature's absolute error floor
    even where the row is tiny: taken in w, the j = 11 row at b = 1600
    (about 1e-16, with an integrand of about 1e-35) came out 6% off.
    """
    with mpmath.workdps(dps):
        q, b, t = (mpmath.mpf(v) for v in (q, b, t))
        r = n - 2 + j

        def f(x):
            w = x / b
            return x ** r * mpmath.exp(-x) * 2 * mpmath.sin(w * t / 2) ** 2 \
                / ((w * w - 1) ** 2 + q * q * w * w)

        pts = {mpmath.mpf(0), mpmath.inf, *(mpmath.mpf(2) ** k
                                            for k in range(7))}
        if q < 2:
            pts.add(b)
        else:
            kappa = mpmath.sqrt(q * q / 4 - 1)
            pts.update((b * (q / 2 - kappa), b * (q / 2 + kappa)))
        return mpmath.mpf(beta) ** j * b ** -(r + 1) * mpmath.quad(
            f, sorted(pts))


#: the rows (m, j) of _COTH_ROWS checked against ``mp_row``: m = 1, 2 and
#: N - 1, then at m = N = _COTH_DIRECT the Euler-Maclaurin integral, edge
#: and j = 11 rows
REFERENCE_ROWS = [(1, 0), (2, 0), (_COTH_DIRECT - 1, 0), (_COTH_DIRECT, -1),
                  (_COTH_DIRECT, 0), (_COTH_DIRECT, 11)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("regime,q,beta", ROW_REGIMES)
def test_rows_match_mpmath(regime, q, beta, n):
    # each row against a 30-digit quadrature at a short and a long time
    # (both bracket forms, and residues of crossing rays); the worst row
    # when this bound was set was 5.6e-14 (mixed, n = 1, m = 2, t = 3)
    parts = _LorentzParts(q, (1.0 - 0.5 * q) * (1.0 + 0.5 * q), 1.0)
    labels = [tuple(row) for row in _COTH_ROWS.T.tolist()]
    m, lifts = _COTH_ROWS[:, [labels.index(row) for row in REFERENCE_ROWS]]
    b, t = m * beta, np.array([0.2, 3.0])
    rows = _lorentz_laplace(parts, b, lifts, t, n - 2, beta)
    for k, i in np.ndindex(rows.shape):
        ref = float(mp_row(q, n, beta, b[k], int(lifts[k]), t[i]))
        assert abs(rows[k, i] - ref) <= 1e-13 * abs(ref), (b[k], lifts[k],
                                                          t[i])


@pytest.mark.parametrize("n,per_block", [(0, 0), (1, 1), (2, 1)])
def test_one_laplace_call_per_time_block(monkeypatch, n, per_block):
    calls = []

    def counted(parts, b, lifts, t, s, beta):
        calls.append((len(b), t.size))
        return _lorentz_laplace(parts, b, lifts, t, s, beta)

    monkeypatch.setattr(spinbath.decoherence, "_lorentz_laplace", counted)
    monkeypatch.setattr(spinbath.decoherence, "_BLOCK", 5)
    factors(Lorentzian(1.0, 0.5, OMEGA_C, n), BathConditions(1.0),
            np.linspace(0.01, 3.0, 12))
    rows = _COTH_ROWS.shape[1]
    assert calls == per_block * [(rows, 5), (rows, 5), (rows, 2)]


def _distinct_lorentzian_gammas():
    seen = {}
    for name, cfg in sorted(builtin_presets().items()):
        if isinstance(cfg.bath, Lorentzian) and cfg.bath.n:
            seen.setdefault((cfg.bath, cfg.beta), name)
    return sorted(seen.values())


@pytest.mark.parametrize("preset", _distinct_lorentzian_gammas())
def test_row_forms_do_not_depend_on_rounding(monkeypatch, preset):
    # In units of omega_c the underdamped poles have |p| = 1, so the m = 2
    # coth row of every Lorentzian preset (beta omega_c = 20) falls on the
    # near/far switch b |p| = 40.  Every row must take the form that exact
    # arithmetic gives it, at the preset's q and at the floats next to it:
    # the brackets below the switch (only m = 1 here), the series from it.
    near_b = []

    def spy(b, *args):
        near_b.extend(b.tolist())
        return _coth_bracket(b, *args)

    monkeypatch.setattr(spinbath.decoherence, "_coth_bracket", spy)
    cfg = builtin_presets()[preset]
    bath, beta = cfg.bath, cfg.beta
    b = _COTH_ROWS[0] * beta * bath.omega_c
    assert bath.q < 2.0 * bath.omega_c and _ASYMPTOTIC_SWITCH in b
    for q in (math.nextafter(bath.q, 0.0), bath.q,
              math.nextafter(bath.q, math.inf)):
        near_b.clear()
        factors(Lorentzian(bath.coupling, q, bath.omega_c, bath.n),
                BathConditions(beta), 1.0)
        assert sorted(set(near_b)) == sorted(set(b[b < _ASYMPTOTIC_SWITCH]))


@pytest.mark.parametrize("q", [0.05, 0.5, 5.0])
def test_n0_delta_forms_do_not_depend_on_rounding(monkeypatch, q):
    # At omega_c t = 1 the underdamped poles have t |p| = 1 exactly, where
    # the n = 0 Delta switches from a pole's series (t |p| < 1) to its
    # bracket.  Cutting the series to its first term moves a value only
    # where a series was summed: at t the brackets must hold for q and the
    # floats next to it, just below t the series must.
    def deltas(t):
        return [factors(Lorentzian(1.0, x, OMEGA_C, 0), BathConditions(1.0),
                        t).delta for x in qs]

    qs = [math.nextafter(q, 0.0), q, math.nextafter(q, math.inf)]
    t = 1.0 / OMEGA_C
    assert OMEGA_C * t == 1.0
    at, below = deltas(t), deltas(0.999 * t)
    monkeypatch.setattr(spinbath.decoherence, "_ORIGIN_SERIES_TERMS", 3)
    assert _bits(deltas(t)) == _bits(at)
    assert all(x != y for x, y in zip(deltas(0.999 * t), below))


def _distinct_lorentzian_grids():
    seen = {}
    for name, cfg in sorted(builtin_presets().items()):
        if isinstance(cfg.bath, Lorentzian):
            seen.setdefault((cfg.bath, cfg.beta, cfg.grid), name)
    return sorted(seen.values())


@pytest.mark.parametrize("preset", _distinct_lorentzian_grids())
def test_vs_quadrature_on_preset_grids(preset):
    cfg = builtin_presets()[preset]
    times = cfg.grid.times()
    df = factors(cfg.bath, BathConditions(cfg.beta), times)
    for k, t in enumerate(times.tolist()):
        if t == 0.0:
            assert df.gamma[k] == df.delta[k] == 0.0
            continue
        assert within_tolerance(df.delta[k],
                                _delta_lorentzian_by_quadrature(cfg.bath, t))
        if cfg.bath.n:
            assert within_tolerance(
                df.gamma[k], _gamma_by_quadrature(cfg.bath, cfg.beta, t))


def test_runtime_imports_numpy_only():
    code = ("import sys\n"
            "from spinbath.scenario import builtin_presets, run\n"
            "run(builtin_presets()['fig5b'])\n"
            "print(sorted({'scipy', 'mpmath'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert out.stderr == ""
