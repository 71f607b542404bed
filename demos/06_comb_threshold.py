"""
Classical dynamics and the magnon frequency-comb threshold
==========================================================

The linearized treatment is only trustworthy while the classical means
settle to a fixed point.  Integrating the full nonlinear mean-field
equations from an empty cavity shows |<m>(t)| ringing up and settling at
moderate drive, and breaking into persistent self-oscillation (the comb
regime) beyond a critical drive.  The bisection for the critical |G_m|
(9 probes, about 523 700 right-hand-side calls) takes 0.7-0.75 s on 2
cores; this walk shows one probe on each side instead.
(The full search: `chiralcmm comb-threshold --config fig2b --gm-cap 12e6`,
which lands near 8.7 MHz at these settings.  The samples of one ring-up,
as CSV or JSONL with the metadata of the run:
`chiralcmm trajectory --config figs1 --out ringup.csv`.)
"""

import numpy as np

from chiralcmm.constants import hz, to_hz
from chiralcmm.params import Detunings, SystemParams
from chiralcmm.steady_state import (
    SQRT2,
    amplitude_for_gm,
    precompensated_detunings,
)
from chiralcmm.time_domain import classify_attractor, integrate_classical

params = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6), g_m=1.0)
det_eff = Detunings.effective(delta_a=-0.76 * params.omega_b,
                              delta_m_eff=0.65 * params.omega_b)

for target_mhz in (6.0, 9.5):
    # choose the drive that realizes |G_m| = target at the effective
    # detuning, pre-compensating the bare detuning for the dispersive shift
    E = amplitude_for_gm(params, det_eff, hz(target_mhz * 1e6))
    det = precompensated_detunings(params, det_eff, E)

    traj = integrate_classical(params, det, E)
    rep = classify_attractor(traj)
    print(f"target |G_m|/2pi = {target_mhz:.1f} MHz -> {rep.kind:12s} "
          f"(tail variation {rep.variation:.2e}, "
          f"realized |G_m|/2pi = {to_hz(SQRT2 * params.g_m * rep.mean_m_abs) / 1e6:.2f} MHz)")
    # a crude strip chart of the magnon amplitude ring-up
    amp = np.abs(traj.m)
    for k in np.linspace(0, amp.size - 1, 12, dtype=int):
        bar = "#" * int(40 * amp[k] / amp.max())
        print(f"     t = {traj.t[k] * 1e6:5.2f} us |m| {bar}")
