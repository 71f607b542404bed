"""
Steady state and stability of the driven chiral cavity
======================================================

Driving one circulating mode of the torus cavity builds up a coherent
magnon amplitude <m> through the cavity-magnon exchange coupling, and with
it the enhanced magnomechanical coupling G_m = sqrt(2) g_m <m>.  This walk
computes the means for both drive directions and locates the largest |G_m|
the linearized dynamics can support before losing stability.
"""

import numpy as np

from chiralcmm.constants import hz, to_hz
from chiralcmm.params import Detunings, SystemParams
from chiralcmm.steady_state import imperfect_means, resolve_drive
from chiralcmm.linear_model import max_stable_coupling

# The cavity of the phonon-optimized working point: total linewidth 5 MHz,
# strong cavity-magnon coupling of 8 MHz, mechanical mode at 10 MHz.
params = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6))
det = Detunings.effective(delta_a=-0.76 * params.omega_b,
                          delta_m_eff=0.65 * params.omega_b)

# A drive of 100 MHz (in amplitude units) on the clockwise mode: the magnon
# mean follows the closed-form expression of the coupled linear system
# (here with no backscattering, J = 0, and no CCW coupling, g_ccw = 0).
E = hz(100e6)
cw = imperfect_means(params, det, E)
print("CW drive:  <a_cw> = %.4g%+.4gj   <m> = %.4g%+.4gj"
      % (cw.a_cw.real, cw.a_cw.imag, cw.m.real, cw.m.imag))

# The counter-clockwise mode is decoupled from the magnon (chiral coupling),
# so driving it fills the cavity but never pumps the magnomechanics.  The
# drive port is a field of the parameters, like every other input.
ccw = imperfect_means(params.replace(drive_port="ccw"), det, E)
print("CCW drive: <a_ccw> = %.4g%+.4gj  <m> = %g  (chirality at work)"
      % (ccw.a_ccw.real, ccw.a_ccw.imag, abs(ccw.m)))

# Specifying the drive through |G_m| directly is the everyday workflow: the
# phase of G_m is inherited from <m>.
params_gm = params.replace()
field = resolve_drive(params_gm, det)
print("|G_m| spec: |G_m|/2pi = %.3f MHz, arg G_m = %+.3f rad"
      % (to_hz(abs(field.g_m_eff)) / 1e6, np.angle(field.g_m_eff)))

# Past a critical |G_m| the drift matrix acquires an eigenvalue with a
# positive real part and the steady state disappears.  A scan of [0, cap]
# brackets the boundary and bisection narrows it to the last stable float,
# whatever the cap; at these settings (strictly chiral, as J = 0 and
# g_ccw = 0) it sits near 11.95 MHz.
edge = max_stable_coupling(params, det, cap=hz(30e6))
print("stability edge: |G_m|/2pi = %.4f MHz" % (to_hz(edge) / 1e6))
