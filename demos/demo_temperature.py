"""Temperature and the smoothness of entanglement oscillations.

Raising the temperature (smaller beta) boosts the thermal weight
coth(beta*omega/2) and with it the dephasing exponent gamma(t).  For a
single-mode bath this does not kill the entanglement, but it superimposes
fast short-term wiggles on the otherwise clean oscillation.
"""

import pathlib

import numpy as np

from spinbath import (
    BathConditions,
    SingleMode,
    factors,
    negativity_closed_form,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

bath = SingleMode(coupling=1.0, omega_c=20.0)
times = np.linspace(0.0, 40.0, 1601)

curves = {}
for beta in (1.0, 0.1, 0.01):
    df = factors(bath, BathConditions(beta), times)
    curves[beta] = negativity_closed_form(df.gamma, df.delta)
    gmax = df.gamma.max()
    print(f"beta = {beta:5g}: max gamma = {gmax:.4f}, "
          f"max N = {curves[beta].max():.4f}")

np.savetxt(OUT / "temperature_scan.csv",
           np.column_stack([times] + [curves[b] for b in (1.0, 0.1, 0.01)]),
           delimiter=",", header="t,N_beta1,N_beta0.1,N_beta0.01", comments="")
print(f"wrote {OUT / 'temperature_scan.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, axes = plt.subplots(3, 1, figsize=(7, 6), sharex=True)
    for ax, beta in zip(axes, (1.0, 0.1, 0.01)):
        ax.plot(times, curves[beta], lw=0.8)
        ax.set_ylabel(f"N ($\\beta$={beta})")
    axes[-1].set_xlabel("t")
    fig.suptitle("Single-mode bath at increasing temperature")
    fig.tight_layout()
    fig.savefig(OUT / "temperature_scan.png", dpi=150)
    print(f"wrote {OUT / 'temperature_scan.png'}")
except ImportError:
    pass
