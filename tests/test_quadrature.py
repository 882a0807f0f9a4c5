import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinbath
import spinbath.decoherence
import spinbath.quadrature
from spinbath.errors import QuadratureFailure
from spinbath.quadrature import (
    IntegrationRequest,
    integrate_on_interval,
    integrate_semi_infinite,
)


def semi(f, t_scale=0.0, cutoff=1.0, **kw):
    return integrate_semi_infinite(IntegrationRequest(f, t_scale, cutoff, **kw))


def quiet(f):
    """f with its own division and overflow warnings silenced, so that any
    RuntimeWarning left comes from the package."""
    def g(w):
        with np.errstate(divide="ignore", over="ignore"):
            return f(w)
    return g


class TestSemiInfinite:
    def test_exponential_decay(self):
        r = semi(lambda w: np.exp(-w))
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-10)
        assert r.error_estimate <= max(1e-12, 1e-8 * abs(r.value))

    def test_oscillatory_with_cutoff(self):
        # int_0^inf sin(w t) e^{-w/wc} dw = t / (t^2 + wc^-2)
        t, wc = 5.0, 10.0
        r = semi(lambda w: np.sin(w * t) * np.exp(-w / wc), t_scale=t, cutoff=wc)
        assert r.converged
        assert r.value == pytest.approx(t / (t * t + wc ** -2), rel=1e-10)

    def test_log_divergent_tail(self):
        r = semi(lambda w: 1.0 / (1.0 + w))
        assert not r.converged

    def test_infrared_divergence(self):
        # refinement toward the origin ends where 1/w overflows
        with pytest.raises(QuadratureFailure):
            semi(quiet(lambda w: np.exp(-w) / w))

    def test_integrable_origin_power_law(self):
        r = semi(lambda w: w ** -0.9 * np.exp(-w))
        assert r.converged
        assert r.value == pytest.approx(math.gamma(0.1), rel=2e-8)

    @pytest.mark.parametrize("T", [1.0, 10.0, 100.0, 1000.0])
    def test_oscillation_robustness(self, T):
        # int_0^inf sin(wT) e^{-w} dw = T / (1 + T^2)
        r = semi(lambda w: np.sin(T * w) * np.exp(-w), t_scale=T)
        exact = T / (1.0 + T * T)
        assert r.converged
        assert abs(r.value - exact) / exact <= 1e-8

    def test_max_evals_exhaustion(self):
        r = semi(lambda w: np.sin(50 * w) * np.exp(-w), t_scale=50.0,
                 rel_tol=1e-14, abs_tol=1e-16, max_evals=2000)
        assert not r.converged

    def test_converged_error_within_tolerance(self):
        r = semi(lambda w: np.exp(-w) * np.cos(2 * w), t_scale=2.0)
        assert r.converged
        assert r.error_estimate <= max(1e-12, 1e-8 * abs(r.value))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a1, a2 = rng.uniform(0.5, 3.0, 2)
            k1, k2 = rng.uniform(0.0, 4.0, 2)
            c1, c2 = rng.uniform(-2.0, 2.0, 2)
            f = lambda w: np.cos(k1 * w) * np.exp(-a1 * w)
            g = lambda w: np.sin(k2 * w) * np.exp(-a2 * w)
            comb = lambda w: c1 * f(w) + c2 * g(w)
            ts = max(k1, k2)
            rf = semi(f, t_scale=k1, cutoff=1 / a1)
            rg = semi(g, t_scale=k2, cutoff=1 / a2)
            rc = semi(comb, t_scale=ts, cutoff=1 / min(a1, a2))
            expected = c1 * rf.value + c2 * rg.value
            assert abs(rc.value - expected) <= 10 * 1e-8 * (abs(expected) + 1e-12)

    def test_refinement_consistency(self):
        f = lambda w: np.sin(3 * w) * np.exp(-w / 2) / (1 + w)
        loose = semi(f, t_scale=3.0, cutoff=2.0, rel_tol=1e-6)
        tight = semi(f, t_scale=3.0, cutoff=2.0, rel_tol=5e-7)
        assert abs(loose.value - tight.value) <= loose.error_estimate

    def test_divergence_never_fires_for_integrable_powers(self):
        # int_0^inf w^(s-1) e^-w dw = Gamma(s)
        rng = np.random.default_rng(11)
        for s in rng.uniform(0.1, 3.0, 12):
            r = semi(lambda w, s=s: w ** (s - 1.0) * np.exp(-w))
            assert r.converged, f"not converged for s={s}"
            assert abs(r.value / math.gamma(s) - 1.0) <= 1e-8, f"s={s}"

    def test_divergence_fires_for_one_over_omega(self):
        for c in (0.3, 1.0, 4.0):
            with pytest.raises(QuadratureFailure):
                semi(quiet(lambda w, c=c: c / w * np.exp(-w)))

    def test_lower_offset_tail(self):
        # int_2^inf e^{-w} dw = e^{-2}
        r = integrate_semi_infinite(
            IntegrationRequest(lambda w: np.exp(-w), 0.0, 1.0), lower=2.0)
        assert r.converged
        assert r.value == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_resonant_feature_hint(self):
        # narrow Lorentzian line: int_0^inf dw (q/pi)/((w-w0)^2+q^2) ~ 1
        w0, q = 20.0, 0.02
        f = lambda w: (q / np.pi) / ((w - w0) ** 2 + q ** 2)
        r = integrate_semi_infinite(
            IntegrationRequest(f, 0.0, w0), features=[(w0, q)])
        assert r.converged
        # exact value 0.5 + atan(w0/q)/pi
        exact = 0.5 + math.atan(w0 / q) / math.pi
        assert r.value == pytest.approx(exact, rel=1e-9)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            IntegrationRequest(lambda w: w, rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegrationRequest(lambda w: w, cutoff_scale=-1.0)
        with pytest.raises(ValueError):
            IntegrationRequest(lambda w: w, max_evals=0)


class TestOnInterval:
    def test_polynomial_exact(self):
        r = integrate_on_interval(lambda w: w ** 2, 0.0, 1.0)
        assert r.converged
        assert abs(r.value - 1.0 / 3.0) < 1e-12

    def test_sine_over_full_period(self):
        r = integrate_on_interval(lambda w: np.sin(w), 0.0, 2 * np.pi)
        assert abs(r.value) < 1e-12

    def test_endpoint_singularity(self):
        r = integrate_on_interval(lambda w: w ** -0.5, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(2.0, rel=1e-8)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_on_interval(lambda w: w, 1.0, 1.0)

    def test_rule_degree(self):
        # the 15-point Kronrod rule is exact through degree 22 on one panel
        for deg in (13, 18, 22):
            r = integrate_on_interval(lambda w, d=deg: w ** d, 0.0, 1.0)
            assert abs(r.value - 1.0 / (deg + 1)) < 1e-14


class TestOutsideTheProductionPath:
    def test_runs_never_import_quadrature(self, tmp_path):
        # one preset of each family through the CLI, in a fresh interpreter
        code = (
            "import sys\n"
            "import spinbath, spinbath.cli\n"
            "for name in ('fig1_lambda1', 'fig3_s2', 'fig5b'):\n"
            "    out = sys.argv[1] + '/' + name + '.csv'\n"
            "    argv = ['run', '--preset', name, '-o', out]\n"
            "    assert spinbath.cli.main(argv) == 0\n"
            "print('spinbath.quadrature' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(spinbath.__file__))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
        assert len(list(tmp_path.iterdir())) == 3

    def test_star_import_never_imports_quadrature(self):
        code = ("import sys\n"
                "from spinbath import *\n"
                "print('spinbath.quadrature' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(spinbath.__file__))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("module,names", [
        (spinbath, ["IntegrationRequest", "IntegrationResult",
                    "integrate_on_interval", "integrate_semi_infinite"]),
        (spinbath.decoherence, ["integrate_on_interval",
                                "integrate_semi_infinite",
                                "ohmic_delta_by_quadrature",
                                "ohmic_delta_s2_closed_form"])])
    def test_old_names_are_the_quadrature_objects(self, module, names):
        for name in names:
            assert getattr(module, name) is getattr(spinbath.quadrature, name)
        with pytest.raises(AttributeError):
            module.no_such_name

