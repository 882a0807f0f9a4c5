import json
import math
import os
import resource
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import spinbath
import spinbath.cli
import spinbath.scenario
from spinbath import configio
from spinbath.cli import main

SMALL_CONFIG = """\
# single-mode bath, short grid
bath.family = single_mode
bath.lambda = 1
bath.omega_c = 20
beta = 1
h = 0
init.theta1 = pi/2
init.theta2 = pi/2
grid.t_start = 0
grid.t_end = 5
grid.n_points = 11
"""


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


class TestRunCommand:
    def test_csv_header_contract(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=5",
                                "--set", "grid.t_end=2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "gamma", "delta", "negativity",
                          "negativity_ideal", "purity"]
        assert len(rows) == 5

    def test_csv_round_trip_full_precision(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=7",
                                "--set", "grid.t_end=3",
                                "--output", str(path))
        assert code == 0
        header, rows = parse_csv(path.read_text())
        from spinbath.scenario import builtin_presets, run as run_scenario
        from spinbath.scenario import ScenarioConfig
        import spinbath.configio as configio
        nested = builtin_presets()["fig1_lambda1"].to_dict()
        configio.set_path(nested, "grid.n_points", 7)
        configio.set_path(nested, "grid.t_end", 3)
        rec = run_scenario(ScenarioConfig.from_dict(nested))
        for i, row in enumerate(rows):
            for j, col in enumerate(rec.columns()):
                assert row[j] == col[i], "printed value must re-parse exactly"

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG)
        code, out, err = invoke(capsys, "run", "--config", str(path))
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 11

    def test_missing_config_is_io_error(self, capsys):
        code, out, err = invoke(capsys, "run", "--config", "missing.toml")
        assert code == 4
        assert "missing.toml" in err

    def test_bad_override_is_config_error(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=1")
        assert code == 2

    def test_unknown_preset(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig99")
        assert code == 2

    def test_override_reflected_in_record(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig5b",
                                "--set", "bath.q=0.5",
                                "--set", "grid.n_points=4",
                                "--set", "grid.t_end=2",
                                "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["config"]["bath"]["q"] == 0.5

    def test_json_format(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=3",
                                "--set", "grid.t_end=1",
                                "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj["rows"][0]) == {"t", "gamma", "delta", "negativity",
                                       "negativity_ideal", "purity"}
        assert obj["version"]

    def test_json_states_only_when_asked(self, capsys):
        argv = ("run", "--preset", "fig1_lambda1", "--set", "grid.n_points=3",
                "--set", "grid.t_end=1", "--format", "json")
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and "states" not in json.loads(out)
        code, out, err = invoke(capsys, *argv,
                                "--set", "outputs=negativity,state_dump")
        assert code == 0
        obj = json.loads(out)
        rec = spinbath.scenario.run(
            spinbath.scenario.ScenarioConfig.from_dict(obj["config"]))
        assert len(rec.states) == 3 and obj["states"] == rec.states

    def test_set_without_equals_is_config_error(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "beta")
        assert code == 2
        assert out == "" and "--set expects key=value" in err

    def test_config_source_required(self, capsys):
        code, out, err = invoke(capsys, "run")
        assert code == 2
        assert out == "" and "--preset or --config" in err

    @pytest.mark.parametrize("line,message", [
        ("beta =", "empty value"), ("beta 2", "expected 'key = value'"),
        ("= 2", "empty key"), ("beta.x = 2", "clashes with a scalar entry")])
    def test_malformed_config_file_is_config_error(self, capsys, tmp_path,
                                                   line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        code, out, err = invoke(capsys, "run", "--config", str(path))
        assert code == 2
        assert out == "" and message in err

    def test_divergent_gamma_prints_inf(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "lorentz_n0",
                                "--set", "grid.n_points=3",
                                "--set", "grid.t_end=2")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        for line in lines[1:]:
            assert line.split(",")[1] == "inf"
            assert float(line.split(",")[3]) == 0.0

    def test_stdout_data_only(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=3",
                                "--set", "grid.t_end=1")
        assert code == 0
        assert err == ""


class TestSweepCommand:
    def test_groups_and_leading_column(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lambda",
                                "--values", "0.5,1,2",
                                "--set", "grid.n_points=4",
                                "--set", "grid.t_end=2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "sweep_value"
        assert len(rows) == 12
        assert [r[0] for r in rows[:4]] == [0.5] * 4

    def test_theta_sweep_with_pi_values(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig6_single_theta",
                                "--field", "init.theta",
                                "--values", "pi/8,pi/4,pi/2",
                                "--set", "grid.n_points=3",
                                "--set", "grid.t_end=2")
        assert code == 0
        header, rows = parse_csv(out)
        vals = sorted(set(r[0] for r in rows))
        assert vals == pytest.approx([math.pi / 8, math.pi / 4, math.pi / 2])

    def test_empty_values_rejected(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lambda", "--values", "")
        assert code == 2

    def test_non_numeric_value_is_config_error(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lambda", "--values", "1,soon")
        assert code == 2
        assert out == "" and "'soon' is not numeric" in err

    @pytest.mark.parametrize("spec", ["1:2", "1:2:3:4", "1:2:x", "a:2:3",
                                      "1:2:0"])
    def test_malformed_range_is_config_error(self, capsys, spec):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lambda", "--range", spec)
        assert code == 2
        assert out == "" and "--range" in err

    @pytest.mark.parametrize("n", ["10000001", str(10 ** 30)])
    def test_range_beyond_grid_cap_is_config_error(self, capsys, monkeypatch,
                                                   n):
        def build(*args):
            raise AssertionError("--range n must be rejected before any "
                                 "value is built")

        monkeypatch.setattr(spinbath.cli, "range", build, raising=False)
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lambda", "--range", f"1:2:{n}")
        assert code == 2
        assert out == "" and "--range n must lie in [1, 1e7]" in err

    def test_range_form(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig4_s2",
                                "--field", "bath.s", "--range", "2:4:5",
                                "--set", "grid.n_points=2",
                                "--set", "grid.t_end=1",
                                "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [g["sweep_value"] for g in obj["groups"]] == [2.0, 2.5, 3.0, 3.5, 4.0]


def data_lines(text):
    return [l for l in text.splitlines() if not l.startswith("#")]


def strict_json(text):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestOneWriter:
    @pytest.mark.parametrize("preset,field,values", [
        ("fig1_lambda1", "bath.lambda", ("0.5", "1", "2")),
        ("fig3_s2", "bath.s", ("2", "2.5", "3"))])
    def test_sweep_rows_are_run_rows(self, capsys, preset, field, values):
        grid = ("--set", "grid.n_points=5", "--set", "grid.t_end=2")
        code, out, err = invoke(capsys, "sweep", "--preset", preset,
                                "--field", field, "--values", ",".join(values),
                                *grid)
        assert code == 0
        expect = []
        for v in values:
            code, run_out, err = invoke(capsys, "run", "--preset", preset,
                                        "--set", f"{field}={v}", *grid)
            assert code == 0
            header, *rows = data_lines(run_out)
            expect += [f"{v},{row}" for row in rows]
        assert data_lines(out) == ["sweep_value," + header] + expect
        assert f"# sweep {field} = {','.join(values)}" in out.splitlines()

    def test_block_boundaries_keep_every_row(self, capsys, monkeypatch):
        argv = ("sweep", "--preset", "fig1_lambda1", "--field", "bath.lambda",
                "--values", "1,2", "--set", "grid.n_points=5")
        code, whole, err = invoke(capsys, *argv)
        monkeypatch.setattr(spinbath.cli, "_BLOCK_ROWS", 2)
        code2, blocked, err = invoke(capsys, *argv)
        assert code == code2 == 0
        assert blocked == whole
        assert len(data_lines(whole)) == 11

    def test_row_template_matches_fmt(self):
        # -0.0 and -inf are the two values "%.17g" writes unlike _fmt
        a = np.array([-0.0, -np.inf, np.inf, 0.0, 1.0 / 3.0, -2.5e-300])
        b = np.array([np.inf, 5, -0.0, -7.0, 1e300, -np.inf])
        _, _, *blocks = spinbath.cli._csv("", ("a", "b"), [((), (a, b))])
        assert "".join(blocks) == "".join(
            f"{spinbath.cli._fmt(x)},{spinbath.cli._fmt(y)}\n"
            for x, y in zip(a.tolist(), b.tolist()))

    def test_shared_and_own_cells_match_fmt(self, monkeypatch):
        # a is shared by both groups and formatted once, into the row
        # template; b and the lead cell are each group's own
        monkeypatch.setattr(spinbath.cli, "_BLOCK_ROWS", 4)
        fmt = spinbath.cli._fmt
        a = np.array([-0.0, -np.inf, np.inf, 0.0, 1.0 / 3.0, -2.5e-300])
        groups = [((-0.0,), (a, np.array([np.inf, 5, -0.0, -7.0, 1e300,
                                          -np.inf]))),
                  ((-np.inf,), (a.copy(), np.array([-np.inf, -0.0, 2.0, 0.0,
                                                    -1e-300, 0.1])))]
        _, header, *blocks = spinbath.cli._csv("", ("v", "a", "b"), groups)
        assert header == "v,a,b\n"
        assert "".join(blocks) == "".join(
            f"{fmt(v)},{fmt(x)},{fmt(y)}\n"
            for (v,), (col_a, col_b) in groups
            for x, y in zip(col_a.tolist(), col_b.tolist()))

    @pytest.mark.parametrize("preset,field,values,n_points", [
        ("fig6_single_theta", "init.theta", ("pi/8", "pi/4", "pi/2", "pi/8"),
         11),
        ("fig3_s2", "grid.n_points", ("5", "3", "9"), 7),
        ("fig5b", "bath.q", ("0.5",), 10),
        ("lorentz_n0", "init.theta", ("pi/8", "pi/4", "pi/2"), 9)])
    def test_grouped_rows_are_run_rows(self, capsys, monkeypatch, preset,
                                       field, values, n_points):
        # 4-row blocks: no group length is a multiple of the block, so a
        # table-wide block would straddle two groups
        monkeypatch.setattr(spinbath.cli, "_BLOCK_ROWS", 4)
        grid = ("--set", f"grid.n_points={n_points}")
        code, out, err = invoke(capsys, "sweep", "--preset", preset,
                                "--field", field, "--values", ",".join(values),
                                *grid)
        assert code == 0
        expect = []
        for v in values:
            code, run_out, err = invoke(capsys, "run", "--preset", preset,
                                        *grid, "--set", f"{field}={v}")
            assert code == 0
            header, *rows = data_lines(run_out)
            head = spinbath.cli._fmt(configio.parse_value(v))
            expect += [f"{head},{row}" for row in rows]
        assert data_lines(out) == ["sweep_value," + header] + expect
        if preset == "lorentz_n0":
            assert all(row.split(",")[2] == "inf" for row in expect)

    def test_single_group_streams_in_bounded_memory(self, tmp_path):
        # The command runs as the child of a small interpreter that reports
        # its children's peak: on Linux a process's own ru_maxrss starts
        # from the peak of the process that executed it, here pytest.
        # Streaming one block at a time, this 24 MB table peaked at 60.6 MiB
        # (most of three runs, Python 3.11, numpy 2.4); a writer that keeps
        # every block until the end peaks at 66.2 MiB.
        path = tmp_path / "big.csv"
        argv = [sys.executable, "-m", "spinbath.cli", "run", "--preset",
                "fig3_s2", "--set", "grid.n_points=200000", "-o", str(path)]
        code = ("import resource, subprocess, sys\n"
                f"subprocess.run({argv!r}, check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = os.path.dirname(os.path.dirname(spinbath.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stderr == ""
        assert path.stat().st_size > 20e6
        assert int(out.stdout) / 1024 < 64.0   # ru_maxrss is in KiB

    @pytest.mark.parametrize("argv", [
        ("run", "--preset", "lorentz_n0", "--set", "grid.n_points=3"),
        ("run", "--preset", "fig3_s2", "--set", "grid.n_points=3"),
        ("sweep", "--preset", "lorentz_n0", "--field", "bath.q",
         "--values", "0.05,0.5", "--set", "grid.n_points=3"),
        ("spectrum", "--preset", "fig5b", "--n", "11"),
        ("state-dump", "--preset", "lorentz_n0", "--t", "2")])
    def test_json_is_strict(self, capsys, argv):
        if argv[0] != "state-dump":
            argv += ("--format", "json")
        code, out, err = invoke(capsys, *argv)
        assert code == 0
        obj = strict_json(out)
        if "lorentz_n0" in argv:
            rows = ([obj] if argv[0] == "state-dump" else
                    obj.get("rows") or [r for g in obj["groups"]
                                        for r in g["rows"]])
            assert rows and all(r["gamma"] == "inf" for r in rows)


class TestSpectrumCommand:
    def test_lorentzian_peak_row(self, capsys):
        code, out, err = invoke(capsys, "spectrum", "--preset", "fig5b",
                                "--omega-min", "15", "--omega-max", "25",
                                "--n", "501")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["omega", "J"]
        peak = max(rows, key=lambda r: r[1])
        assert abs(peak[0] - 20.0) < 0.1

    def test_single_mode_rejected(self, capsys):
        code, out, err = invoke(capsys, "spectrum", "--preset", "fig1_lambda1")
        assert code == 2

    def test_ohmic_strictly_positive(self, capsys):
        code, out, err = invoke(capsys, "spectrum", "--preset", "fig3_s1",
                                "--omega-min", "0.1", "--omega-max", "50",
                                "--n", "100")
        assert code == 0
        header, rows = parse_csv(out)
        assert all(r[1] > 0 for r in rows)


class TestStateDumpCommand:
    def test_structure(self, capsys):
        code, out, err = invoke(capsys, "state-dump", "--preset",
                                "fig1_lambda1", "--t", "1.5")
        assert code == 0
        obj = json.loads(out)
        rho = np.array([[complex(re, im) for re, im in row]
                        for row in obj["rho"]])
        assert rho.shape == (4, 4)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert obj["t"] == 1.5

    def test_divergent_gamma_serialized(self, capsys):
        code, out, err = invoke(capsys, "state-dump", "--preset",
                                "lorentz_n0", "--t", "2.0")
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma"] == "inf"
        assert obj["gamma_divergent"] is True


class TestPresetCommands:
    def test_list_presets(self, capsys):
        code, out, err = invoke(capsys, "list-presets")
        assert code == 0
        names = out.split()
        assert "fig1_lambda0p01" in names and "fig6_lorentz_theta" in names

    def test_preset_text_round_trips(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "preset", "fig3_s2")
        assert code == 0
        path = tmp_path / "fig3_s2.cfg"
        path.write_text(out)
        code2, out2, err2 = invoke(capsys, "run", "--config", str(path),
                                   "--set", "grid.n_points=3",
                                   "--set", "grid.t_end=1")
        assert code2 == 0

    def test_unknown_preset_name(self, capsys):
        code, out, err = invoke(capsys, "preset", "figNaN")
        assert code == 2


def fresh_env():
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    return dict(os.environ, PYTHONPATH=src)


def run_fresh(*argv, timeout=120):
    """The CLI in a fresh interpreter, so any numpy warning would reach real
    stderr."""
    return subprocess.run([sys.executable, "-m", "spinbath.cli", *argv],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=timeout)


class TestErrorClasses:
    @pytest.mark.parametrize("s", ["200"])
    def test_non_finite_integrand_is_compute_error(self, s):
        proc = run_fresh("run", "--preset", "fig3_s1", "--set", f"bath.s={s}",
                         "--set", "grid.n_points=2")
        assert proc.returncode == 3
        assert "Warning" not in proc.stderr
        assert "not finite" in proc.stderr

    def test_tiny_ohmicity_runs_exactly(self):
        # Ohmic s = 0.02 is a valid bath with a finite gamma; the reference
        # is a 40-digit mpmath coth-series sum with a Hurwitz-zeta tail
        # (tests/test_ohmic_gamma.py), lam = 0.01, w_c = 10, beta = 1, t = 40
        proc = run_fresh("run", "--preset", "fig3_s1", "--set", "bath.s=0.02",
                         "--set", "grid.n_points=2")
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, rows = parse_csv(proc.stdout)
        gamma = dict(zip(header, rows[1]))["gamma"]
        assert rows[1][0] == 40.0
        assert gamma == pytest.approx(1807.087293102230184330249, rel=1e-12)

    @pytest.mark.parametrize("override", ["grid.t_end=1/0", "init=1"])
    def test_unparseable_override_is_config_error(self, capsys, override):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", override)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("run", "--set", "beta=(-8)**(1/3)"),
        ("sweep", "--field", "beta", "--values", "1,(-8)**0.5"),
        ("run", "--set", "beta=9**9**9"),
        ("sweep", "--field", "h", "--values", "9**9**9")])
    def test_arithmetic_without_a_real_value_is_config_error(self, argv):
        # a power with a complex value, and an integer power with no bound
        # on its size (9**9**9 ran for more than 10 s), end with one message
        # and exit 2, within the timeout
        proc = run_fresh(*argv[:1], "--preset", "fig1_lambda1", *argv[1:],
                         timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("spinbath: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_arithmetic_values_parse_as_before(self):
        for text, value in [("pi/8", math.pi / 8), ("2*pi", 2 * math.pi),
                            ("1e3", 1000.0), ("2**10", 1024.0),
                            ("2**-1", 0.5), ("(-2)**3", -8.0),
                            ("4**0.5", 2.0), ("2**2000/2**1990", 1024.0),
                            ("(-1)**100000001", -1.0)]:
            parsed = configio.parse_value(text)
            assert parsed == value and type(parsed) is type(value), text
        # no real value, or an integer power past 2^16384: kept as a bare
        # string, which no numeric field takes (9**9**9 is left to the
        # subprocess test above, where a timeout can stop it)
        for text in ("(-8)**(1/3)", "(-8)**0.5", "2**20000"):
            assert configio.parse_value(text) == text

    def test_closed_stdout_is_io_error(self):
        # the reader leaves after the first line, while the run still has
        # about 2 MB to write: exit 4 and one line on stderr, no traceback
        # and no complaint when the interpreter flushes stdout at exit
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinbath.cli", "run", "--preset",
             "fig7_single_lambda0p01", "--set", "grid.n_points=20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 4
        assert first.startswith(b"# spinbath")
        assert err.startswith("spinbath: ") and len(err.splitlines()) == 1

    def test_non_numeric_time_is_config_error(self, capsys):
        for t in ("soon", "-1", "nan", "inf", "-inf"):
            code, out, err = invoke(capsys, "state-dump", "--preset",
                                    "fig1_lambda1", f"--t={t}")
            assert code == 2, t
            assert out == "" and "--t" in err

    @pytest.mark.parametrize("t_end", ["inf", "1e400"])
    def test_infinite_grid_end_is_config_error(self, t_end):
        proc = run_fresh("run", "--preset", "fig1_lambda1",
                         "--set", f"grid.t_end={t_end}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Warning" not in proc.stderr and "t_end" in proc.stderr

    def test_usage_error_returns_exit_code(self, capsys):
        # "-inf" reads as an option, so --t has no value
        code, out, err = invoke(capsys, "state-dump", "--preset",
                                "fig1_lambda1", "--t", "-inf")
        assert code == 2
        assert out == "" and "usage:" in err

    def test_version_returns_zero(self, capsys):
        code, out, err = invoke(capsys, "--version")
        assert code == 0
        assert out == f"spinbath {spinbath.__version__}\n"

    @pytest.mark.parametrize("bound", [
        "--omega-max=inf", "--omega-max=nan", "--omega-min=inf",
        "--omega-min=-inf"])
    def test_non_finite_spectrum_range_is_config_error(self, bound):
        proc = run_fresh("spectrum", "--preset", "fig5b", bound, "--n", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Warning" not in proc.stderr and "omega-max" in proc.stderr

    @pytest.mark.parametrize("preset,omega_max,fmt", [
        ("fig5b", "1e300", "csv"), ("fig5b", "1e300", "json"),
        ("fig3_s2", "1e308", "csv")])
    def test_spectrum_beyond_float_range_is_compute_error(self, preset,
                                                          omega_max, fmt):
        proc = run_fresh("spectrum", "--preset", preset, "--omega-max",
                         omega_max, "--n", "5", "--format", fmt)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Warning" not in proc.stderr and "not finite" in proc.stderr

    def test_spectrum_points_beyond_grid_cap_is_config_error(
            self, capsys, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("--n must be rejected before any allocation")

        monkeypatch.setattr(np, "linspace", allocate)
        monkeypatch.setattr(spinbath.cli, "evaluate", allocate)
        code, out, err = invoke(capsys, "spectrum", "--preset", "fig5b",
                                "--n", "10000001")
        assert code == 2
        assert out == "" and "--n" in err

    def test_cross_check_failure_is_compute_error(self, capsys, monkeypatch):
        # a closed form 1e-9 off the numeric partial transpose (the
        # cross-check tolerance is 1e-10)
        exact = spinbath.scenario.negativity_closed_form
        monkeypatch.setattr(spinbath.scenario, "negativity_closed_form",
                            lambda g, d: SimpleNamespace(
                                value=exact(g, d).value + 1e-9))
        cfg = spinbath.scenario.builtin_presets()["fig1_lambda1"]
        with pytest.raises(spinbath.ComputeError, match="disagree"):
            spinbath.scenario.run(cfg)
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", "grid.n_points=3")
        assert code == 3
        assert out == "" and "disagree" in err

    def test_failed_file_write_leaves_no_file(self, tmp_path):
        # a 20,000-byte file size limit, with SIGXFSZ ignored, fails the
        # write partway through a row with EFBIG
        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (20_000, 20_000))

        path = tmp_path / "big.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spinbath.cli", "run", "--preset",
             "fig1_lambda1", "-o", str(path)],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
            preexec_fn=limit_file_size)
        assert proc.returncode == 4
        assert proc.stderr.startswith("spinbath: cannot write")
        assert len(proc.stderr.splitlines()) == 1
        assert not path.exists()

    def test_failed_write_removes_only_a_regular_file(self, tmp_path,
                                                      monkeypatch):
        def chunks():
            yield "t,gamma\n"
            raise OSError(28, "No space left on device")

        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        path = str(tmp_path / "out.csv")
        for target in (os.devnull, path):
            with pytest.raises(spinbath.cli._IoFailure, match="cannot write"):
                spinbath.cli._emit(chunks(), target)
        assert removed == [path]

    def test_compute_error_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "j.csv"
        code, out, err = invoke(capsys, "spectrum", "--preset", "fig5b",
                                "--omega-max", "1e300", "-o", str(path))
        assert code == 3
        assert not path.exists()

    def test_single_mode_beyond_float_range_is_compute_error(self):
        # beta omega_c = 2e-308: coth(beta omega_c / 2) overflows
        proc = run_fresh("run", "--preset", "fig1_lambda1",
                         "--set", "beta=1e-310", "--set", "grid.n_points=2")
        assert proc.returncode == 3
        assert "Warning" not in proc.stderr
        assert "not finite" in proc.stderr
        # the message names the bath and beta, as for every family
        assert "SingleMode(" in proc.stderr and "beta=1e-310" in proc.stderr

    @pytest.mark.parametrize("overrides", [
        ["bath.omega_c=1e-10"], ["bath.omega_c=1e-300"],
        ["bath.q=1e-300", "bath.omega_c=1e-300"]])
    def test_lorentzian_beyond_range_is_compute_error(self, overrides):
        # q / omega_c = 5e8 and 5e298 pass the overdamping limit; the last
        # leaves omega_c^-3 beyond the float range
        sets = [arg for o in overrides for arg in ("--set", o)]
        proc = run_fresh("run", "--preset", "fig5b", *sets)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("spinbath: Lorentzian")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("override", [
        "bath.lamda=5", "bath.s=2", "grid.t_stop=3", "init.phi=1", "betta=2",
        "bath.coupling=5"])
    def test_unknown_key_is_config_error(self, capsys, override):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", override)
        assert code == 2
        assert out == "" and override.split("=")[0] in err

    def test_sweep_of_unknown_key_is_config_error(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig1_lambda1",
                                "--field", "bath.lamda", "--values", "1,2")
        assert code == 2
        assert out == "" and "bath.lamda" in err

    @pytest.mark.parametrize("preset,override", [
        ("fig1_lambda1", "grid.n_points=2.9"), ("fig5b", "bath.n=1.5")])
    def test_non_integral_integer_is_config_error(self, capsys, preset,
                                                  override):
        code, out, err = invoke(capsys, "run", "--preset", preset,
                                "--set", override)
        assert code == 2
        assert out == "" and "must be an integer" in err

    def test_integral_float_integers_accepted(self, capsys):
        code, out, err = invoke(capsys, "run", "--preset", "fig5b",
                                "--set", "bath.n=2.0", "--set", "grid.t_end=2",
                                "--set", "grid.n_points=3e0")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert "# bath.n = 2" in out.splitlines()
