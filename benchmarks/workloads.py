"""Benchmark workloads: the operations each pass runs, made from a seed.

An operation is one call into the program's public entry points: a
``spinbath.scenario.run`` on a scenario config, or a ``spinbath.cli.main``
call with an argument list.  The bath parameters below are this
benchmark's own copy of the figure presets (``builtin_presets()``), so the
output checks never read them back from the program.

The figure workloads run the preset time grids exactly; the seed picks the
grid points checked against mpmath.  A shifted grid would hit isolated
times where the Ohmic Delta quadrature misses its tolerance (s = 4 near
t = 38.58926), so the failure count would depend on the seed.  The
tilted-state sweep takes the closed-form single-mode path, which cannot
fail, so there the seed moves the time grid by a fraction of one grid step
(same span, same point count).  The long-time super-Ohmic scans fail on
every run with ``QuadratureFailure``, a known fault of the Ohmic Delta
quadrature.

This module does not import spinbath.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ohmic_figures", "lorentz_figures", "tilted_states")

#: tilted_states grid size per angle; large enough that the (B, 8, 8)
#: Jacobi batch in pt_spectra outgrows the L2 cache
TILTED_POINTS = 10_000
TILTED_ANGLES = "pi/8,pi/4,pi/2"
TILTED_THETAS = (math.pi / 8, math.pi / 4, math.pi / 2)

#: grid points per run checked against mpmath; each costs about 0.2-0.5 s
MP_SAMPLES = 4

_OHMIC_FIGURES = [  # preset name, ohmicity s
    ("fig3_s0p5", 0.5), ("fig3_s1", 1.0), ("fig3_s2", 2.0), ("fig3_s3", 3.0),
    ("fig3_s4", 4.0), ("fig4_s2p5", 2.5), ("fig4_s3p5", 3.5),
]
#: long-time points whose Delta quadrature exhausts its evaluation budget:
#: (s, t) with s = 4 failing from t = 500, s = 3 from 1000, s = 2.5 at 2000.
#: One failing point per run (the other is t = 0), so the two scenario
#: threads never hold two failing panel sets at once and peak RSS repeats.
_OHMIC_LONG_SCANS = [(2.5, 2000.0), (3.0, 1000.0), (4.0, 500.0)]
_LORENTZ_FIGURES = [  # preset name, q, n, t_start, t_end, n_points
    ("fig5a", 0.05, 1, 0.0, 6000.0, 151),
    ("fig5b", 0.05, 2, 0.0, 500.0, 201),
    ("fig7_lorentz_q0p5", 0.5, 2, 0.0, 500.0, 151),
    ("fig7_lorentz_q5", 5.0, 2, 0.0, 500.0, 151),
    ("lorentz_n0", 0.05, 0, 0.5, 100.0, 200),
]


def _ohmic(s):
    return {"family": "ohmic", "lambda": 0.01, "s": s, "omega_c": 10.0}


def _lorentz(q, n):
    return {"family": "lorentzian", "lambda": 1.0, "q": q, "omega_c": 20.0,
            "n": n}


def _grid(t_start, t_end, n_points, shift):
    dt = (t_end - t_start) / (n_points - 1)
    return {"t_start": t_start + shift * dt, "t_end": t_end + shift * dt,
            "n_points": n_points}


def _scenario_op(name, bath, grid, expect=None):
    return {"name": name, "kind": "run", "expect": expect,
            "config": {"bath": bath, "beta": 1.0, "grid": grid}}


def make(workload: str, seed: int) -> dict:
    """Operations of one pass, plus the times sampled for mpmath checks."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "ohmic_figures":
        for name, s in _OHMIC_FIGURES:
            ops.append(_scenario_op(name, _ohmic(s), _grid(0.0, 40.0, 251, 0.0)))
        for s, t in _OHMIC_LONG_SCANS:
            ops.append(_scenario_op(f"ohmic_s{s:g}_t{t:g}", _ohmic(s),
                                    _grid(0.0, t, 2, 0.0),
                                    expect="QuadratureFailure"))
        samples = [(rng.randrange(len(_OHMIC_FIGURES)), rng.randrange(1, 251))
                   for _ in range(MP_SAMPLES)]
    elif workload == "lorentz_figures":
        for name, q, n, t0, t1, npts in _LORENTZ_FIGURES:
            ops.append(_scenario_op(name, _lorentz(q, n),
                                    _grid(t0, t1, npts, 0.0)))
        samples = [(k, rng.randrange(1, _LORENTZ_FIGURES[k][5])) for k in
                   rng.sample(range(len(_LORENTZ_FIGURES)), MP_SAMPLES)]
    elif workload == "tilted_states":
        grid = _grid(0.0, 40.0, TILTED_POINTS, rng.random())
        argv = ["sweep", "--preset", "fig6_single_theta",
                "--field", "init.theta", "--values", TILTED_ANGLES,
                "--set", f"grid.n_points={grid['n_points']}",
                "--set", f"grid.t_start={grid['t_start']!r}",
                "--set", f"grid.t_end={grid['t_end']!r}"]
        ops.append({"name": "fig6_single_theta_sweep", "kind": "cli",
                    "expect": None, "argv": argv,
                    "bath": {"family": "single_mode", "lambda": 1.0,
                             "omega_c": 20.0},
                    "beta": 1.0, "grid": grid})
        samples = []
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return {"ops": ops, "mp_samples": samples}
