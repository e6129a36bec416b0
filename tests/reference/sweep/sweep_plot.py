#!/usr/bin/env python3
"""Plot the sweep summary (sweep_summary.csv)."""
import matplotlib.pyplot as plt
import numpy as np

with open("sweep_summary.csv") as handle:
    data = np.genfromtxt([line for line in handle if not line.startswith("#")],
                         delimiter=",", names=True)
fig, ax = plt.subplots(figsize=(7, 4.5))
for detuning in np.unique(data["detuning"]):
    rows = data[data["detuning"] == detuning]
    order = np.argsort(rows["rabi"])
    ax.plot(rows["rabi"][order], rows["enhancement"][order], "o-",
            label="detuning %g" % detuning)
ax.set_xscale("log")
ax.set_xlabel("Rabi frequency (units of the decay rate)")
ax.set_ylabel("enhancement factor")
ax.legend()
fig.tight_layout()
fig.savefig("sweep_summary.png", dpi=160)
print("wrote sweep_summary.png")
