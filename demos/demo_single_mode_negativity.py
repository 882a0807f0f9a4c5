"""Two spins coupled through one resonant bath mode.

The bath-induced Ising phase grows linearly with the coupling, so stronger
coupling entangles the spins faster: the first negativity maximum sits near
t = pi * omega_c / (2 * lambda).  At beta = 1 the dephasing exponent stays
tiny and every curve repeatedly returns close to the two-qubit ceiling 1/2.
"""

import csv
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

bc = BathConditions(beta=1.0)
times = np.linspace(0.0, 40.0, 801)
couplings = [0.01, 0.05, 0.5, 1.0, 2.0, 5.0]

curves = {}
for lam in couplings:
    df = factors(SingleMode(coupling=lam, omega_c=20.0), bc, times)
    curves[lam] = negativity_closed_form(df.gamma, df.delta).tolist()
    print(f"lambda = {lam:5g}: max N = {max(curves[lam]):.4f}")

with open(OUT / "single_mode_negativity.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"N_lambda{lam}" for lam in couplings])
    for i, t in enumerate(times):
        writer.writerow([t] + [curves[lam][i] for lam in couplings])
print(f"wrote {OUT / 'single_mode_negativity.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for lam in couplings:
        ax.plot(times, curves[lam], label=f"$\\lambda$ = {lam}")
    ax.set_xlabel("t")
    ax.set_ylabel("negativity")
    ax.set_title("Single-mode bath, $\\omega_c = 20$, $\\beta = 1$")
    ax.legend(ncol=2, fontsize=8)
    fig.tight_layout()
    fig.savefig(OUT / "single_mode_negativity.png", dpi=150)
    print(f"wrote {OUT / 'single_mode_negativity.png'}")
