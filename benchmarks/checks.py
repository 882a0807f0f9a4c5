"""Output checks that share no code with the program.

Every reference is computed here from the physics: the Gamma-function
closed form of the Ohmic phase, elementary single-mode factors, an mpmath
integration of the decoherence integrals, the paper's closed-form
negativity, and the partial transpose of a density matrix rebuilt from the
initial angles.  Each check returns a list of problems; an empty list
passes.

    gamma(t) = 1/4 int_0^inf J(w) coth(beta w/2) (1 - cos w t) / w^2 dw
    Delta(t) = 1/4 int_0^inf J(w) (sin w t - w t) / w^2 dw
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

REL_TOL = 1e-7        # program quadrature promises 1e-8 relative
ABS_TOL = 1e-11
CROSS_TOL = 1e-10     # closed form vs partial-transpose negativity
EXACT_TOL = 1e-12     # same formula evaluated twice in double precision
_M = np.array([2.0, 0.0, 0.0, -2.0])  # m1 + m2 on |1,1>, |1,-1>, |-1,1>, |-1,-1>


def _close(got, ref, rel=REL_TOL, abs_=ABS_TOL):
    return np.abs(np.asarray(got) - ref) <= rel * np.abs(ref) + abs_


def _report(problems, name, what, ok, t):
    ok = np.asarray(ok)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        problems.append(f"{name}: {what} fails at t={t[bad]!r} "
                        f"({int(np.sum(~ok))} of {ok.size} points)")


# ---------------------------------------------------------------- references

def ohmic_delta(coupling, s, omega_c, t):
    """Gamma-function closed form of the Ohmic phase, any s > 0."""
    t = np.asarray(t, dtype=float)
    if s == 1.0:
        return coupling / 4.0 * (np.arctan(omega_c * t) - omega_c * t)
    osc = (math.gamma(s - 1.0) * np.sin((s - 1.0) * np.arctan(omega_c * t))
           / (omega_c ** -2.0 + t * t) ** ((s - 1.0) / 2.0))
    return (coupling * omega_c ** (1.0 - s) / 4.0
            * (osc - t * math.gamma(s) * omega_c ** s))


def single_mode(coupling, omega_c, beta, t):
    t = np.asarray(t, dtype=float)
    gamma = (coupling / (2.0 * omega_c ** 2) * np.sin(omega_c * t / 2.0) ** 2
             / math.tanh(beta * omega_c / 2.0))
    delta = coupling / (4.0 * omega_c ** 2) * (np.sin(omega_c * t) - omega_c * t)
    return gamma, delta


def closed_form_negativity(gamma, delta):
    """The paper's N for the x-projected state; gamma may be +inf."""
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):
        u = -np.expm1(-16.0 * gamma)
        e8 = np.exp(-8.0 * gamma)
    s2 = np.sin(4.0 * np.asarray(delta)) ** 2
    return np.abs(u - np.sqrt(u * u + 16.0 * e8 * s2)) / 8.0


def rebuilt_state(theta, gamma, delta):
    """N and Tr rho^2 of rho(t) rebuilt for both spins at polar angle theta
    (phi = 0, h = 0); gamma = inf zeroes every M != N coherence."""
    a = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    c = np.kron(a, a)
    dm = _M[:, None] - _M[None, :]
    dm2 = _M[:, None] ** 2 - _M[None, :] ** 2
    g = np.asarray(gamma)[:, None, None]
    d = np.asarray(delta)[:, None, None]
    with np.errstate(invalid="ignore"):
        damp = np.where(dm == 0.0, 1.0, np.exp(-dm ** 2 * g))
    rho = np.outer(c, c) * damp * np.exp(-1j * dm2 * d)
    pt = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    eig = np.linalg.eigvalsh(pt)
    purity = np.sum(np.abs(rho) ** 2, axis=(1, 2))
    return -np.sum(np.minimum(eig, 0.0), axis=1), purity


def spectral_density(bath):
    lam, wc = mp.mpf(bath["lambda"]), mp.mpf(bath["omega_c"])
    if bath["family"] == "ohmic":
        s = mp.mpf(bath["s"])
        return lambda w: lam * w ** s * wc ** (1 - s) * mp.exp(-w / wc)
    q, n = mp.mpf(bath["q"]), int(bath["n"])
    return lambda w: lam / mp.pi * q * w ** n / ((w * w - wc * wc) ** 2 + q * q * w * w)


def _pole(bath):
    """Upper-half-plane pole of a Lorentzian J right of the imaginary axis."""
    wc, q = bath["omega_c"], bath["q"]
    return mp.mpc(mp.sqrt(mp.mpf(wc) ** 2 - mp.mpf(q) ** 2 / 4), mp.mpf(q) / 2)


def _breaks(bath, lo, hi):
    """Breakpoints in (lo, hi) around the structure of J."""
    wc = bath["omega_c"]
    if bath["family"] == "ohmic":
        pts = [wc * 2.0 ** k for k in range(-2, 7)]
    else:
        q = bath["q"]
        pts = [wc + k * q for k in (-16, -4, -1, -0.25, 0, 0.25, 1, 4, 16)]
    return [mp.mpf(p) for p in sorted(pts) if lo < p < hi]


def _osc_tail(h, bath, omega, t):
    """int_omega^inf h(w) J(w) e^{iwt} dw along the vertical ray omega + iy.

    h J is analytic right of omega in the upper half plane except at the
    Lorentzian pole, whose residue is added when the ray passes left of it.
    """
    j = spectral_density(bath)
    ray = 1j * mp.quad(lambda y: h(omega + 1j * y) * j(omega + 1j * y)
                       * mp.exp(1j * (omega + 1j * y) * t),
                       [0, 1 / t, 10 / t, mp.inf])
    if bath["family"] == "lorentzian":
        p = _pole(bath)
        if p.real > omega:
            lam, q, wc, n = (mp.mpf(bath[k]) for k in ("lambda", "q", "omega_c", "n"))
            d_prime = 4 * p * (p * p - wc * wc) + 2 * q * q * p
            ray += (2j * mp.pi * h(p) * lam * q * p ** int(n)
                    / (mp.pi * d_prime) * mp.exp(1j * p * t))
    return ray


def _head(f, bath, omega):
    pts = sorted(set(mp.linspace(0, omega, 5)) | set(_breaks(bath, 0, omega)))
    return mp.quad(f, pts)


def mp_gamma(bath, beta, t):
    """gamma(t) by mpmath: four oscillation periods on the real axis, then
    the cos part on a vertical ray and the rest as a plain tail integral."""
    j = spectral_density(bath)
    b, t = mp.mpf(beta), mp.mpf(t)
    omega = 8 * mp.pi / t

    def h(w):
        return mp.coth(b * w / 2) / (4 * w * w)

    head = _head(lambda w: 2 * h(w) * j(w) * mp.sin(w * t / 2) ** 2, bath, omega)
    tail = mp.quad(lambda w: h(w) * j(w),
                   [omega] + _breaks(bath, omega, mp.inf) + [mp.inf])
    return float(head + tail - _osc_tail(h, bath, omega, t).real)


def mp_delta(bath, t):
    """Delta(t) by mpmath, split like mp_gamma."""
    j = spectral_density(bath)
    t = mp.mpf(t)
    omega = 8 * mp.pi / t

    def h(w):
        return 1 / (4 * w * w)

    head = _head(lambda w: h(w) * j(w) * (mp.sin(w * t) - w * t), bath, omega)
    dc = mp.quad(lambda w: t * w * h(w) * j(w),
                 [omega] + _breaks(bath, omega, mp.inf) + [mp.inf])
    return float(head + _osc_tail(h, bath, omega, t).imag - dc)


# -------------------------------------------------------------------- checks

def check_record(name, cfg, rec) -> list[str]:
    """Invariants and closed forms for an x-projected scenario record."""
    p = []
    g = cfg["grid"]
    t = rec["t"]
    if t.shape != (g["n_points"],) or not np.allclose(
            t, np.linspace(g["t_start"], g["t_end"], g["n_points"]),
            rtol=0.0, atol=1e-12 * g["t_end"]):
        return [f"{name}: time grid differs from the requested one"]
    gamma, delta, neg = rec["gamma"], rec["delta"], rec["negativity"]
    bath = cfg["bath"]
    divergent = bath["family"] == "lorentzian" and bath["n"] == 0
    if divergent:
        _report(p, name, "gamma = inf", np.isinf(gamma) | (t == 0.0), t)
        _report(p, name, "N = 0", (neg == 0.0) | (t == 0.0), t)
    else:
        _report(p, name, "finite gamma >= 0", np.isfinite(gamma) & (gamma >= 0.0), t)
    _report(p, name, "finite Delta <= 0", np.isfinite(delta) & (delta <= 0.0), t)
    _report(p, name, "1/4 <= purity <= 1",
            (rec["purity"] >= 0.25 - EXACT_TOL) & (rec["purity"] <= 1.0 + EXACT_TOL), t)
    _report(p, name, "0 <= N <= 1/2", (neg >= 0.0) & (neg <= 0.5), t)
    ideal = 0.5 * np.abs(np.sin(4.0 * delta))
    _report(p, name, "N_ideal = |sin 4 Delta|/2",
            _close(rec["negativity_ideal"], ideal, 0.0, EXACT_TOL), t)
    _report(p, name, "N <= |sin 4 Delta|/2", neg <= ideal + EXACT_TOL, t)
    _report(p, name, "N = closed form",
            _close(neg, closed_form_negativity(gamma, delta), 0.0, EXACT_TOL), t)
    ref_neg, ref_purity = rebuilt_state(math.pi / 2, gamma, delta)
    _report(p, name, "N = eigvalsh of the rebuilt partial transpose",
            _close(neg, ref_neg, 0.0, CROSS_TOL), t)
    _report(p, name, "purity = Tr rho^2 of the rebuilt state",
            _close(rec["purity"], ref_purity, 0.0, CROSS_TOL), t)
    if bath["family"] == "ohmic":
        ref = ohmic_delta(bath["lambda"], bath["s"], bath["omega_c"], t)
        _report(p, name, "Delta = Gamma-function closed form", _close(delta, ref), t)
    return p


def check_mpmath(name, cfg, rec, index) -> list[str]:
    """gamma (and Lorentzian Delta) at one grid point against mpmath."""
    bath, t = cfg["bath"], float(rec["t"][index])
    p = []
    with mp.workdps(20):
        if not (bath["family"] == "lorentzian" and bath["n"] == 0):
            ref = mp_gamma(bath, cfg["beta"], t)
            if not _close(rec["gamma"][index], ref):
                p.append(f"{name}: gamma={rec['gamma'][index]!r} at t={t!r}, "
                         f"mpmath {ref!r}")
        if bath["family"] == "lorentzian":
            ref = mp_delta(bath, t)
            if not _close(rec["delta"][index], ref):
                p.append(f"{name}: Delta={rec['delta'][index]!r} at t={t!r}, "
                         f"mpmath {ref!r}")
    return p


def _parse_csv(text):
    comments, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows)


def check_sweep_csv(name, op, text) -> list[str]:
    """The tilted-angle sweep CSV against single-mode formulas and rho(t)."""
    from workloads import TILTED_THETAS
    comments, header, data = _parse_csv(text)
    bath, g = op["bath"], op["grid"]
    want = {"bath.family": bath["family"], "bath.lambda": bath["lambda"],
            "bath.omega_c": bath["omega_c"], "beta": op["beta"], "h": 0.0,
            "init.phi1": 0.0, "init.phi2": 0.0}
    for key, value in want.items():
        got = comments.get(key)
        same = got == value if isinstance(value, str) else \
            got is not None and float(got) == value
        if not same:
            return [f"{name}: config echo {key} = {got!r}, expected {value!r}"]
    if header != ["sweep_value", "t", "gamma", "delta", "negativity",
                  "negativity_ideal", "purity"]:
        return [f"{name}: unexpected CSV header {header!r}"]
    if data.shape != (len(TILTED_THETAS) * g["n_points"], 7):
        return [f"{name}: CSV holds {data.shape} values"]
    p = []
    grid = np.linspace(g["t_start"], g["t_end"], g["n_points"])
    for k, theta in enumerate(TILTED_THETAS):
        block = data[k * g["n_points"]:(k + 1) * g["n_points"]]
        sv, t, gamma, delta, neg, ideal, purity = block.T
        tag = f"{name} theta={theta:.6g}"
        if not (np.all(np.abs(sv - theta) <= 1e-15) and
                np.allclose(t, grid, rtol=0.0, atol=1e-12 * g["t_end"])):
            p.append(f"{tag}: sweep value or time grid differs from the request")
            continue
        rg, rd = single_mode(bath["lambda"], bath["omega_c"], op["beta"], t)
        _report(p, tag, "gamma = single-mode formula", _close(gamma, rg, 1e-9, 1e-15), t)
        _report(p, tag, "Delta = single-mode formula", _close(delta, rd, 1e-9, 1e-15), t)
        _report(p, tag, "gamma >= 0, Delta <= 0", (gamma >= 0.0) & (delta <= 0.0), t)
        _report(p, tag, "1/4 <= purity <= 1",
                (purity >= 0.25 - EXACT_TOL) & (purity <= 1.0 + EXACT_TOL), t)
        _report(p, tag, "0 <= N <= 1/2", (neg >= 0.0) & (neg <= 0.5), t)
        _report(p, tag, "N_ideal = |sin 4 Delta|/2",
                _close(ideal, 0.5 * np.abs(np.sin(4.0 * delta)), 0.0, EXACT_TOL), t)
        ref_neg, ref_purity = rebuilt_state(theta, gamma, delta)
        _report(p, tag, "N = eigvalsh of the rebuilt partial transpose",
                _close(neg, ref_neg, 0.0, CROSS_TOL), t)
        _report(p, tag, "purity = Tr rho^2 of the rebuilt state",
                _close(purity, ref_purity, 0.0, CROSS_TOL), t)
        if theta == math.pi / 2:
            _report(p, tag, "N = closed form",
                    _close(neg, closed_form_negativity(gamma, delta), 0.0, EXACT_TOL), t)
            _report(p, tag, "N <= |sin 4 Delta|/2",
                    neg <= 0.5 * np.abs(np.sin(4.0 * delta)) + EXACT_TOL, t)
    return p
