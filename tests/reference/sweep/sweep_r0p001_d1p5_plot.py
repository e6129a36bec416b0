#!/usr/bin/env python3
"""Plot the emitted spectrum table (sweep_r0p001_d1p5.csv)."""
import json

import matplotlib.pyplot as plt
import numpy as np

with open("sweep_r0p001_d1p5.csv") as handle:
    data = np.genfromtxt([line for line in handle if not line.startswith("#")],
                         delimiter=",", names=True)
nu, ladder, crossed = data["nu"], data["L_inel"], data["C_inel"]
with open("sweep_r0p001_d1p5.json") as handle:
    sidecar = json.load(handle)

fig, ax = plt.subplots(figsize=(7, 4.5))
ax.plot(nu, ladder, label="background density")
ax.plot(nu, crossed, label="interference density")
ax.axhline(0.0, color="0.7", lw=0.8)
ax.set_xlabel("emission detuning (units of the decay rate)")
ax.set_ylabel("density per coupling power")
ax.set_title("enhancement factor %.6f" % sidecar["enhancement"])
ax.legend()
fig.tight_layout()
fig.savefig("sweep_r0p001_d1p5.png", dpi=160)
print("wrote sweep_r0p001_d1p5.png")
