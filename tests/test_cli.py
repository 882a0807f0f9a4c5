import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinbath
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

    def test_range_form(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig4_s2",
                                "--field", "bath.s", "--range", "2:4:5",
                                "--set", "grid.n_points=2",
                                "--set", "grid.t_end=1",
                                "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [g["sweep_value"] for g in obj["groups"]] == [2.0, 2.5, 3.0, 3.5, 4.0]


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


class TestErrorClasses:
    @pytest.mark.parametrize("s", ["0.02", "200"])
    def test_non_finite_integrand_is_compute_error(self, s):
        # a fresh interpreter, so any numpy warning would reach real stderr
        src = os.path.dirname(os.path.dirname(spinbath.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "spinbath.cli", "run", "--preset", "fig3_s1",
             "--set", f"bath.s={s}", "--set", "grid.n_points=2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert "Warning" not in proc.stderr
        assert "not finite" in proc.stderr

    @pytest.mark.parametrize("override", ["grid.t_end=1/0", "init=1"])
    def test_unparseable_override_is_config_error(self, capsys, override):
        code, out, err = invoke(capsys, "run", "--preset", "fig1_lambda1",
                                "--set", override)
        assert code == 2

    def test_non_numeric_time_is_config_error(self, capsys):
        code, out, err = invoke(capsys, "state-dump", "--preset",
                                "fig1_lambda1", "--t", "soon")
        assert code == 2
