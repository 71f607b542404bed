"""
Bipartite entanglement versus the two detunings
===============================================

With the drive red-detuned from the magnon (delta_m_eff ~ +omega_b, the
anti-Stokes side) and the cavity on the Stokes side (delta_a ~ -omega_b),
the magnomechanical parametric interaction entangles magnons and phonons
and the cavity-magnon exchange distributes that entanglement to the
circulating microwave mode.  This walk maps the logarithmic negativity over
the detuning plane and finds the optimum.
"""


import numpy as np

from chiralcmm import presets
from chiralcmm.pipeline import run_sweep

# 41 x 41 keeps this demo quick; the bundled preset defaults to 101 x 101.
pre = presets.get("fig2a", grid_points=41)
print(pre.description, "-", "grid:",
      " x ".join(str(ax.num) for ax in pre.sweep.axes))

result = run_sweep(pre.params, pre.detunings, pre.sweep)
t = result.table                      # column name -> numpy array

wb = pre.params.omega_b
best = np.argmax(np.where(t["stable"] == 1, t["en_a_cw_m"], -1))
print("maximum E(microwave, magnon) = %.4f at delta_a = %+.2f w_b, "
      "delta_m_eff = %+.2f w_b"
      % (t["en_a_cw_m"][best], t["delta_a"][best] / wb,
         t["delta_m_eff"][best] / wb))

print("grid points without a steady state:", np.sum(t["stable"] == 0))

# Write the full map for external plotting.
with open("detuning_map.csv", "w", encoding="utf-8") as fh:
    fh.write(",".join(result.columns) + "\n")
    for row in result.rows():
        fh.write(",".join(format(v, ".9g") if isinstance(v, float) else str(v)
                          for v in row) + "\n")
print("full map written to detuning_map.csv")

# The same map is available from the command line:
#   chiralcmm sweep --config fig2a --out map.csv
