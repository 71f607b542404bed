"""
Thermal robustness of the nonreciprocal entanglement
====================================================

Warming the baths feeds thermal occupation into every mode and eventually
kills the entanglement.  Including a realistic backscattering J = kappa_m/2
and residual coupling chi = 0.1, the microwave-magnon entanglement survives
to roughly 125 mK and the microwave-phonon one to roughly 163 mK.
"""

from chiralcmm import presets
from chiralcmm.pipeline import run_sweep

for name, column in (("fig5a", "en_a_cw_m"), ("fig5b", "en_a_cw_b")):
    pre = presets.get(name, grid_points=26)
    res = run_sweep(pre.params, pre.detunings, pre.sweep)
    cw = res.table["drive_port"] == "cw"
    temps = res.table["temperature"][cw]
    values = res.table[column][cw]
    alive = temps[values > 0]
    print(f"{name}: {column}")
    for T, E in zip(temps[::5], values[::5]):
        bar = "#" * int(300 * E)
        print(f"   {T * 1e3:6.1f} mK  {E:.4f}  {bar}")
    print(f"   entanglement persists up to ~{alive.max() * 1e3:.0f} mK\n")
