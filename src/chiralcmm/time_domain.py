"""Nonlinear classical mean-field dynamics and the frequency-comb threshold.

Integrates the five coupled equations for the mode averages (two circulating
cavity modes, magnon, mechanical position/momentum) in the frame rotating at
the drive frequency, with the full dispersive nonlinearity -i*g_m*<m><q> and
radiation-pressure-like force -g_m*|<m>|^2.  A drive that settles to a fixed
amplitude is classified STEADY; persistent amplitude oscillation of |<m>(t)|
marks the self-oscillation (comb) regime, and the threshold in |G_m| is
located by bisection on the drive scale.  The attractor is read from the
final WINDOW_FRAC of the run.

The ODE is integrated by ODEPACK's LSODA (L. Petzold, SIAM J. Sci. Stat.
Comput. 4, 136 (1983)), which switches between Adams and BDF steps as the
stiffness changes.  Its step loop and its interpolation onto the sample
grid both run in compiled code; only the right-hand side is a Python call,
and the samples cost no right-hand-side calls.  That call writes the
derivative into one preallocated array and returns it, so ``odeint`` has
no list to convert per call; the array is overwritten by the next call
(see :func:`make_rhs`).

LSODA is called through scipy's compiled extension
``scipy/integrate/_odepack*.so``, which :func:`_load_odepack` loads by
path: importing the ``scipy.integrate`` package would also import
``scipy.optimize`` and ``scipy.special``, which LSODA does not use and
which would cost every process that imports this module, the command line
included, about 0.25 s of start-up and 22 MB (scipy 1.17.1 on a 2-core
x86-64 host).  The extension's ``odeint`` and its 21 positional arguments
are private to scipy; the call is the one that ``scipy.integrate.odeint``
makes, verified on scipy 1.17.1, and gives the same samples and counts
bit for bit.

The integrated state is the 8 real components of the five averages, except
under chiral coupling: with J = 0 and the undriven port's coupling 0, the
drive never reaches the other circulating mode, which stays empty, and
only the 6 components of the driven mode, the magnon and the mechanics
are integrated (:func:`integrated_slots`).  The choice is read from the
parameters alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from .linear_model import bisect_edge, check_bisection
from .params import (
    DETUNING_PHYSICAL,
    DRIVE_CCW,
    DRIVE_CW,
    Detunings,
    NumericalCondition,
    SystemParams,
)
from .steady_state import (
    SQRT2,
    SingularConfigurationError,
    amplitude_for_gm,
    imperfect_means,
    precompensated_detunings,
    target_detunings,
)

STEADY = "steady"
OSCILLATORY = "oscillatory"

# relative peak-to-peak variation of |<m>| below which the motion is settled
STEADY_TOL = 1e-3

# final fraction of the run that the attractor is classified from
WINDOW_FRAC = 0.2

# LSODA error control: relative tolerance per component, and absolute
# tolerance per component as a fraction of that component's fixed-point
# scale.  At 1e-11 the fig2b probes at |G_m| = 6 and 9 MHz stay within
# 5e-12 and 6e-8 (max |dy_i|/s_i over the analysis window) of a run at
# 1e-13; at 1e-9, LSODA's error there is 8e-6.
ODE_METHOD = "LSODA"
RTOL = 1e-11
ATOL_REL = 1e-11
# steps LSODA may take between two samples before it gives up; far above
# any probe's need (the 12 MHz fig2b probe takes about 84 000 steps over
# its whole run of about 10 000 samples)
MXSTEP = 1_000_000

# ODEPACK's text for each failing istate, as scipy.integrate.odeint gives it
ODEPACK_FAILURES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}

SAMPLES_PER_PERIOD = 48   # trajectory samples per mechanical period
SETTLING_PERIODS = 200    # mechanical periods added to the ring-down time


class IntegrationError(NumericalCondition, RuntimeError):
    pass


def _load_odepack():
    """scipy's compiled ODEPACK extension, without the ``scipy.integrate``
    package.

    The module is registered as ``scipy.integrate._odepack``, so a later
    ``import scipy.integrate`` in the process reuses this one instance.
    Where no extension file is found under scipy's directory, the package
    import gives the same module.
    """
    name = "scipy.integrate._odepack"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), "integrate",
                        "_odepack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(name,
                                                             stem + suffix)
            spec = importlib.util.spec_from_file_location(
                name, stem + suffix, loader=loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            loader.exec_module(module)
            return module
    from scipy.integrate import _odepack
    return _odepack


_odepack = _load_odepack()


class InconclusiveError(NumericalCondition, RuntimeError):
    """The analysis window is too short to classify the attractor."""


@dataclass(frozen=True)
class Trajectory:
    """Classical mean-field trajectory on a uniform sample grid."""

    t: np.ndarray
    a_cw: np.ndarray
    a_ccw: np.ndarray
    m: np.ndarray
    q: np.ndarray
    p: np.ndarray
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def m_abs(self) -> np.ndarray:
        return np.abs(self.m)


def default_horizon(params: SystemParams) -> float:
    """Integration horizon: slowest relevant ring-down plus SETTLING_PERIODS
    mechanical periods.

    gamma_b is excluded from the decay-time bookkeeping when it is far below
    the other linewidths, since magnomechanical cooling (not the bare
    damping) then sets the mechanical settling rate.
    """
    rates = [params.kappa_a, params.kappa_m]
    if params.gamma_b / 2 >= 0.01 * min(rates):
        rates.append(params.gamma_b / 2)
    t_decay = 5.0 / min(rates)
    return t_decay + SETTLING_PERIODS * 2.0 * math.pi / params.omega_b


def _fixed_point_scales(params: SystemParams, det: Detunings,
                        E: float) -> np.ndarray:
    """Magnitude of each state component at the closed-form fixed point.

    Cavity components share max(|a_cw|, |a_ccw|), the magnon components
    take |m| and q, p take g_m*|m|^2/omega_b.  A vanishing scale (E = 0, a
    decoupled magnon, g_m = 0) or a singular mean field falls back to the
    largest scale, or 1.
    """
    try:
        sf = imperfect_means(params, det, E)
    except SingularConfigurationError:
        scales = np.zeros(8)
    else:
        a = max(abs(sf.a_cw), abs(sf.a_ccw))
        m = abs(sf.m)
        x = abs(params.g_m) * m * m / params.omega_b
        scales = np.array([a, a, a, a, m, m, x, x])
    fallback = scales.max() or 1.0
    return np.where(scales > 0, scales, fallback)


def integrated_slots(params: SystemParams) -> tuple[int, ...]:
    """The slots of the real state y = (Re a_cw, Im a_cw, Re a_ccw,
    Im a_ccw, Re m, Im m, q, p) that :func:`integrate_classical`
    integrates: all 8, or, when J = 0 and the undriven port's coupling is
    0, the 6 that leave out the undriven circulating mode.  That mode then
    starts empty and its derivative is +0.0 whatever the rest of the
    state, so it stays +0.0 exactly.
    """
    cw = params.drive_port == DRIVE_CW
    if params.J == 0 and (params.g_ccw if cw else params.g_cw) == 0:
        return (0, 1, 4, 5, 6, 7) if cw else (2, 3, 4, 5, 6, 7)
    return tuple(range(8))


def make_rhs(params: SystemParams, det: Detunings, E: float):
    """Right-hand side f(t, y) of the classical equations on the slots of
    the real state that :func:`integrated_slots` selects: all 8, or the 6
    of (driven mode, m, q, p) under chiral coupling.

    This is the integration hot loop, so it works on plain floats.  Each
    component repeats, operation for operation, the rounding of the complex
    form (d<a_cw>/dt = -(kappa_a + i*delta_a)<a_cw> - i(J<a_ccw> +
    g_cw<m>) + E_cw, and so on) and gives the same bits for any finite
    state.  It drops the products with an exact zero part, except the
    0.0*x terms of i*(g_cw<a_cw> + g_ccw<a_ccw>) and the final + 0.0 of
    the cavity equations, which decide the sign of a zero derivative.  The
    6-slot form is the 8-slot one at an empty undriven mode (+0.0): there
    the products with J and with the undriven coupling g_u are the signed
    zeros 0.0*J and 0.0*g_u, which it keeps as constants, and it gives the
    same bits as the complex form at the state embedded with +0.0.

    Every call returns the same float64 array, overwritten by the next
    call: ``odeint`` copies it into its own buffer at once, but a caller
    that keeps a derivative (``solve_ivp`` does) must copy it.
    """
    e_cw = E if params.drive_port == DRIVE_CW else 0.0
    e_ccw = E if params.drive_port == DRIVE_CCW else 0.0
    ca = params.kappa_a + 1j * det.delta_a
    cm_ = params.kappa_m + 1j * det.delta_m
    # the negated rates, since -x * y rounds as (-x) * y
    nar, cai, nmr, cmi = -ca.real, ca.imag, -cm_.real, cm_.imag
    gr, gl, J, gm = params.g_cw, params.g_ccw, params.J, params.g_m
    wb, nwb, gb = params.omega_b, -params.omega_b, params.gamma_b
    out = np.empty(len(integrated_slots(params)))
    dy = memoryview(out)

    if out.size == 6:
        g, gu = (gr, gl) if params.drive_port == DRIVE_CW else (gl, gr)
        zj, zu = 0.0 * J, 0.0 * gu

        def chiral_rhs(_t, y):
            ar, ai, mr, mi, q, p = y.tolist()
            w = cmi + gm * q
            ur = g * ar - 0.0 * ai + zu
            ui = g * ai + 0.0 * ar + 0.0
            dy[0] = nar * ar + cai * ai + (zj + g * mi) + E
            dy[1] = nar * ai - cai * ar - (zj + g * mr) + 0.0
            dy[2] = nmr * mr + w * mi - (0.0 * ur - ui)
            dy[3] = nmr * mi - w * mr - (0.0 * ui + ur)
            dy[4] = wb * p
            dy[5] = nwb * q - gb * p - gm * (mr * mr + mi * mi)
            return out

        return chiral_rhs

    def rhs(_t, y):
        ar, ai, cr, ci, mr, mi, q, p = y.tolist()
        w = cmi + gm * q
        ur = gr * ar - 0.0 * ai + (gl * cr - 0.0 * ci)
        ui = gr * ai + 0.0 * ar + (gl * ci + 0.0 * cr)
        dy[0] = nar * ar + cai * ai + (J * ci + gr * mi) + e_cw
        dy[1] = nar * ai - cai * ar - (J * cr + gr * mr) + 0.0
        dy[2] = nar * cr + cai * ci + (J * ai + gl * mi) + e_ccw
        dy[3] = nar * ci - cai * cr - (J * ar + gl * mr) + 0.0
        dy[4] = nmr * mr + w * mi - (0.0 * ur - ui)
        dy[5] = nmr * mi - w * mr - (0.0 * ui + ur)
        dy[6] = wb * p
        dy[7] = nwb * q - gb * p - gm * (mr * mr + mi * mi)
        return out

    return rhs


def integrate_classical(params: SystemParams, det: Detunings, E: float,
                        t_end: float | None = None) -> Trajectory:
    """Integrate the classical averages from the empty state (all modes 0).

    ``det.delta_m`` is the bare magnon detuning; the dispersive shift
    develops dynamically through the g_m*<m><q> term, so g_m must be given.
    With E = 0 the trajectory is identically zero.

    The samples lie on a uniform grid of SAMPLES_PER_PERIOD points per
    mechanical period from t = 0.  LSODA takes its first step size from
    the first output interval, so the fixed grid makes every run of the
    same inputs bitwise the same.

    Error control: LSODA accepts a step when the weighted max norm over
    components of err_i / (RTOL*|y_i| + ATOL_REL*s_i) is at most 1, where
    err_i is the local error estimate and s_i that component's magnitude
    at the closed-form fixed point (``imperfect_means`` at
    ``det.delta_m_eff``).  This is the same as
    integrating amplitudes non-dimensionalized by their fixed-point
    scales, so that near the fixed point, where p and a_ccw may approach
    0, no component is resolved to an absolute error far below the size
    of the state.  The scales move with (g_m, E) -> (g_m/s, s*E) like the
    state does, so the rescaling invariance of the dynamics carries over
    to the integrator.

    Only the slots of :func:`integrated_slots` are integrated; under
    chiral coupling the undriven circulating mode is written as +0.0, as
    an 8-component run leaves it.  Since the norm is a max over
    components, its identically zero components never enter the error
    test, and an Adams run of the 6 components gives the same samples,
    ``nfev`` and ``nst`` as one of all 8.  A BDF run can differ in
    round-off: LSODA's finite-difference Jacobian increment depends on the
    length of the state (the settling fig2b probe at |G_m| = 6 MHz takes
    the same 3 044 steps with 6 214 right-hand-side calls, against 6 292
    for all 8 components).

    ``stats`` records the right-hand-side calls (``nfev``), the accepted
    steps (``nst``) and whether LSODA switched to its stiff BDF method
    (``used_bdf``), and ``omega_b``, which sets the shortest window
    :func:`classify_attractor` accepts.  An LSODA failure raises
    IntegrationError.
    """
    if params.g_m is None:
        raise ValueError("integrate_classical requires g_m")
    wb = params.omega_b
    if t_end is None:
        t_end = default_horizon(params)
    slots = list(integrated_slots(params))
    atol = ATOL_REL * _fixed_point_scales(params, det, E)[slots]
    n_samples = max(int(SAMPLES_PER_PERIOD * t_end * wb / (2 * math.pi)), 200)
    t = np.linspace(0.0, t_end, n_samples)
    # the extension overwrites y0 in place (t it leaves alone): a start
    # state given by a caller must be passed as a copy
    y0 = np.zeros(len(slots))
    # the positional call of scipy.integrate.odeint: args, Dfun, col_deriv,
    # ml, mu, full_output, rtol, atol, tcrit, h0, hmax, hmin, ixpr, mxstep,
    # mxhnil, mxordn, mxords, tfirst
    sol, info, istate = _odepack.odeint(
        make_rhs(params, det, E), y0, t, (), None, 0, -1, -1, 1, RTOL, atol,
        None, 0.0, 0.0, 0.0, 0, MXSTEP, 0, 12, 5, 1)
    if istate < 0:
        raise IntegrationError(f"{ODE_METHOD} failed: istate {istate}, "
                               f"{ODEPACK_FAILURES[istate]}")
    y = [np.zeros(n_samples)] * 8
    for slot, column in zip(slots, sol.T):
        y[slot] = column
    return Trajectory(
        t=t, a_cw=y[0] + 1j * y[1], a_ccw=y[2] + 1j * y[3],
        m=y[4] + 1j * y[5], q=y[6], p=y[7],
        stats={"nfev": int(info["nfe"][-1]), "nst": int(info["nst"][-1]),
               "used_bdf": bool(np.any(info["mused"] == 2)), "omega_b": wb},
    )


@dataclass(frozen=True)
class AttractorReport:
    kind: str                    # STEADY or OSCILLATORY
    variation: float             # relative peak-to-peak of |<m>| in the window
    mean_m_abs: float
    dominant_frequency: float | None  # rad/s, oscillatory case only


def classify_attractor(traj: Trajectory) -> AttractorReport:
    """Settled vs self-oscillating, from the tail of the trajectory.

    The analysis window is the final WINDOW_FRAC of the run's samples and
    must span at least 10 mechanical periods; shorter windows raise
    InconclusiveError.
    """
    wb = traj.stats.get("omega_b")
    start = int(traj.t.size * (1.0 - WINDOW_FRAC))
    window_t = traj.t[start:]
    if wb is not None and (window_t[-1] - window_t[0]) < 10 * 2 * math.pi / wb:
        raise InconclusiveError("analysis window shorter than 10 mechanical periods")
    amp = traj.m_abs[start:]
    mean = float(np.mean(amp))
    peak = float(np.max(np.abs(amp)))
    if peak == 0.0:
        return AttractorReport(STEADY, 0.0, 0.0, None)
    variation = float(np.ptp(amp)) / max(mean, 1e-300)
    if variation < STEADY_TOL:
        return AttractorReport(STEADY, variation, mean, None)
    # dominant oscillation line of the tail spectrum (diagnostic only)
    detrended = amp - np.mean(amp)
    spec = np.abs(np.fft.rfft(detrended))
    freqs = np.fft.rfftfreq(amp.size, d=window_t[1] - window_t[0])
    k = int(np.argmax(spec[1:])) + 1
    return AttractorReport(OSCILLATORY, variation, mean,
                           2 * math.pi * float(freqs[k]))


@dataclass(frozen=True)
class CombThreshold:
    """Drive threshold for magnon-comb self-oscillation, in |G_m| terms."""

    value: float | None          # rad/s; None if no oscillation below the cap
    bracket: tuple[float, float] | None
    probes: tuple                # (target |G_m|, kind, realized |G_m|) triples
    # per probe: its ODE run's nfev, nst and used_bdf, and the
    # AttractorReport.variation
    probe_info: tuple = ()


def comb_threshold(params: SystemParams, det: Detunings, cap: float,
                   resolution: float) -> CombThreshold:
    """Bisect the drive scale for the onset of magnon self-oscillation: probe
    the cap, then halve [0, cap] to a bracket no wider than ``resolution``.

    In the effective detuning mode ``det`` carries the target effective
    detunings (held fixed along the sweep by adjusting the bare detuning per
    probe, the same bookkeeping the fixed-|G_m| steady-state sweeps use).
    In the physical mode ``det`` carries the bare detunings, which every
    probe integrates at; its drive is calibrated at the effective detuning
    that its target's dispersive shift implies (:func:`target_detunings`).
    The threshold is the midpoint of the final bracket of target
    |G_m| = sqrt(2)*g_m*|<m>|.  If g_m is not set, an arbitrary reference
    value is used internally; the reported |G_m| is invariant under the
    (g_m, E) -> (g_m/s, s*E) rescaling of the dynamics.  Every probe
    integrates from the empty state (all modes zero) over the default
    horizon.
    """
    check_bisection(cap=cap, resolution=resolution)
    if params.g_m is None:
        params = params.replace(g_m=1.0)
    if imperfect_means(params, det, 1.0).m == 0:
        # the drive cannot pump the magnon at all: no comb at any power
        return CombThreshold(value=None, bracket=None, probes=())

    probes, info = [], []

    def settles(gm_target: float) -> bool:
        probe_det = target_detunings(params, det, gm_target)
        E = amplitude_for_gm(params, probe_det, gm_target)
        if params.detuning_mode != DETUNING_PHYSICAL:
            probe_det = precompensated_detunings(params, probe_det, E)
        traj = integrate_classical(params, probe_det, E)
        rep = classify_attractor(traj)
        probes.append((gm_target, rep.kind, SQRT2 * params.g_m * rep.mean_m_abs))
        info.append({**{k: traj.stats[k] for k in ("nfev", "nst", "used_bdf")},
                     "variation": rep.variation})
        return rep.kind == STEADY

    bracket = (None if settles(cap)
               else bisect_edge(settles, 0.0, cap, resolution))
    value = None if bracket is None else 0.5 * (bracket[0] + bracket[1])
    return CombThreshold(value=value, bracket=bracket,
                         probes=tuple(probes), probe_info=tuple(info))
