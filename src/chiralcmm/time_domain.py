"""Nonlinear classical mean-field dynamics and the frequency-comb threshold.

Integrates the five coupled equations for the mode averages (two circulating
cavity modes, magnon, mechanical position/momentum) in the frame rotating at
the drive frequency, with the full dispersive nonlinearity -i*g_m*<m><q> and
radiation-pressure-like force -g_m*|<m>|^2.  A drive that settles to a fixed
amplitude is classified STEADY; persistent amplitude oscillation of |<m>(t)|
marks the self-oscillation (comb) regime, and the threshold in |G_m| is
located by bisection on the drive scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .linear_model import check_bisection
from .params import DRIVE_CCW, DRIVE_CW, Detunings, SystemParams
from .steady_state import SQRT2, SingularConfigurationError, imperfect_means

STEADY = "steady"
OSCILLATORY = "oscillatory"

# relative peak-to-peak variation of |<m>| below which the motion is settled
STEADY_TOL = 1e-3

# DOP853 error control: relative tolerance per component, and absolute
# tolerance per component as a fraction of that component's fixed-point scale
RTOL = 1e-9
ATOL_REL = 1e-9


class IntegrationError(RuntimeError):
    pass


class InconclusiveError(RuntimeError):
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


def default_horizon(params: SystemParams, periods: float = 200.0) -> float:
    """Integration horizon: slowest relevant ring-down plus a settling span.

    gamma_b is excluded from the decay-time bookkeeping when it is far below
    the other linewidths, since magnomechanical cooling (not the bare
    damping) then sets the mechanical settling rate.
    """
    rates = [params.kappa_a, params.kappa_m]
    if params.gamma_b / 2 >= 0.01 * min(rates):
        rates.append(params.gamma_b / 2)
    t_decay = 5.0 / min(rates)
    return t_decay + periods * 2.0 * math.pi / params.omega_b


def _fixed_point_scales(params: SystemParams, det: Detunings, E: float,
                        port: str, y0: np.ndarray) -> np.ndarray:
    """Magnitude of each state component at the closed-form fixed point.

    Cavity components share max(|a_cw|, |a_ccw|), the magnon components
    take |m| and q, p take g_m*|m|^2/omega_b.  A vanishing scale (E = 0, a
    decoupled magnon, g_m = 0) or a singular mean field falls back to the
    largest scale, max|y0|, or 1.
    """
    try:
        sf = imperfect_means(params, det, E, port)
    except SingularConfigurationError:
        scales = np.zeros(8)
    else:
        a = max(abs(sf.a_cw), abs(sf.a_ccw))
        m = abs(sf.m)
        x = abs(params.g_m) * m * m / params.omega_b
        scales = np.array([a, a, a, a, m, m, x, x])
    fallback = max(scales.max(), np.abs(y0).max()) or 1.0
    return np.where(scales > 0, scales, fallback)


def integrate_classical(params: SystemParams, det: Detunings, E: float,
                        t_end: float | None = None,
                        drive_port: str | None = None,
                        y0=None, samples_per_period: int = 48) -> Trajectory:
    """Integrate the classical averages from ``y0`` (default: all modes empty).

    ``det.delta_m`` is the bare magnon detuning; the dispersive shift
    develops dynamically through the g_m*<m><q> term, so g_m must be given.
    With E = 0 and a zero initial state the trajectory is identically zero.

    Error control: DOP853 accepts a step when the root mean square over
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
    """
    if params.g_m is None:
        raise ValueError("integrate_classical requires g_m")
    port = drive_port or params.drive_port
    e_cw = E if port == DRIVE_CW else 0.0
    e_ccw = E if port == DRIVE_CCW else 0.0
    ka, km, gb = params.kappa_a, params.kappa_m, params.gamma_b
    da, dm = det.delta_a, det.delta_m
    gr, gl, J, gm, wb = params.g_cw, params.g_ccw, params.J, params.g_m, params.omega_b
    ca = ka + 1j * da
    cm_ = km + 1j * dm

    def rhs(_t, y):
        # plain-float complex arithmetic: this is the integration hot loop
        yf = y.tolist()
        acw = complex(yf[0], yf[1])
        accw = complex(yf[2], yf[3])
        m = complex(yf[4], yf[5])
        q, p = yf[6], yf[7]
        d_acw = -ca * acw - 1j * (J * accw + gr * m) + e_cw
        d_accw = -ca * accw - 1j * (J * acw + gl * m) + e_ccw
        d_m = -(cm_ + 1j * gm * q) * m - 1j * (gr * acw + gl * accw)
        d_q = wb * p
        d_p = -wb * q - gb * p - gm * (m.real * m.real + m.imag * m.imag)
        return [d_acw.real, d_acw.imag, d_accw.real, d_accw.imag,
                d_m.real, d_m.imag, d_q, d_p]

    if t_end is None:
        t_end = default_horizon(params)
    y0 = np.zeros(8) if y0 is None else np.asarray(y0, dtype=float)
    atol = ATOL_REL * _fixed_point_scales(params, det, E, port, y0)
    n_samples = max(int(samples_per_period * t_end * wb / (2 * math.pi)), 200)
    t_eval = np.linspace(0.0, t_end, n_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected trial steps
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                        t_eval=t_eval, rtol=RTOL, atol=atol)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    y = sol.y
    return Trajectory(
        t=sol.t, a_cw=y[0] + 1j * y[1], a_ccw=y[2] + 1j * y[3],
        m=y[4] + 1j * y[5], q=y[6], p=y[7],
        stats={"nfev": sol.nfev, "omega_b": wb, "t_end": t_end,
               "drive_port": port, "amplitude": E},
    )


@dataclass(frozen=True)
class AttractorReport:
    kind: str                    # STEADY or OSCILLATORY
    variation: float             # relative peak-to-peak of |<m>| in the window
    mean_m_abs: float
    dominant_frequency: float | None  # rad/s, oscillatory case only


def classify_attractor(traj: Trajectory, window_frac: float = 0.2,
                       steady_tol: float = STEADY_TOL) -> AttractorReport:
    """Settled vs self-oscillating, from the tail of the trajectory.

    The analysis window is the final fraction of the run and must span at
    least 10 mechanical periods; shorter windows raise InconclusiveError.
    """
    wb = traj.stats.get("omega_b")
    n = traj.t.size
    start = int(n * (1.0 - window_frac))
    window_t = traj.t[start:]
    if wb is not None and (window_t[-1] - window_t[0]) < 10 * 2 * math.pi / wb:
        raise InconclusiveError("analysis window shorter than 10 mechanical periods")
    amp = traj.m_abs[start:]
    mean = float(np.mean(amp))
    peak = float(np.max(np.abs(amp)))
    if peak == 0.0:
        return AttractorReport(STEADY, 0.0, 0.0, None)
    variation = float(np.ptp(amp)) / max(mean, 1e-300)
    if variation < steady_tol:
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
    cap: float
    bracket: tuple[float, float] | None
    probes: tuple                # (target |G_m|, kind, realized |G_m|) triples
    probe_nfev: tuple = ()       # right-hand-side calls of each probe's ODE run

    @property
    def no_comb_below_cap(self) -> bool:
        return self.value is None


def _probe_setup(params: SystemParams, det: Detunings, gm_target: float):
    """Drive amplitude and bare detuning realizing |G_m| at delta_m_eff.

    The intended fixed point has |<m>| = gm_target/(sqrt(2)*g_m); the bare
    detuning is pre-compensated so that the dispersive shift lands the
    effective detuning exactly on det.delta_m_eff at that amplitude.
    """
    g_m, wb = params.g_m, params.omega_b
    m_target = gm_target / (SQRT2 * g_m)
    m_unit = imperfect_means(params, det, 1.0).m
    if m_unit == 0:
        raise ValueError("drive port does not pump the magnon mode")
    E = m_target / abs(m_unit)
    delta_m_bare = det.delta_m_eff + g_m**2 * m_target**2 / wb
    return E, Detunings(det.delta_a, delta_m_bare, det.delta_m_eff)


def comb_threshold(params: SystemParams, det: Detunings, cap: float,
                   resolution: float | None = None,
                   t_end: float | None = None) -> CombThreshold:
    """Bisect the drive scale for the onset of magnon self-oscillation.

    ``det`` carries the target effective detunings (held fixed along the
    sweep by adjusting the bare detuning per probe, the same bookkeeping the
    fixed-|G_m| steady-state sweeps use).  The threshold is reported as the
    effective coupling |G_m| = sqrt(2)*g_m*|<m>| of the settled state at the
    steady side of the final bracket.  If g_m is not set, an arbitrary
    reference value is used internally; the reported |G_m| is invariant
    under the (g_m, E) -> (g_m/s, s*E) rescaling of the dynamics.  Every
    probe integrates from the empty state (all modes zero).
    """
    if resolution is None:
        resolution = 2 * math.pi * 0.05e6
    check_bisection(cap, resolution)
    if params.g_m is None:
        params = params.replace(g_m=1.0)
    if imperfect_means(params, det, 1.0).m == 0:
        # the drive cannot pump the magnon at all: no comb at any power
        return CombThreshold(value=None, cap=cap, bracket=None, probes=())

    probes, nfev = [], []

    def probe(gm_target: float) -> str:
        E, det_bare = _probe_setup(params, det, gm_target)
        traj = integrate_classical(params, det_bare, E, t_end=t_end)
        rep = classify_attractor(traj)
        probes.append((gm_target, rep.kind, SQRT2 * params.g_m * rep.mean_m_abs))
        nfev.append(int(traj.stats["nfev"]))
        return rep.kind

    if probe(cap) == STEADY:
        return CombThreshold(value=None, cap=cap, bracket=None,
                             probes=tuple(probes), probe_nfev=tuple(nfev))
    lo, hi = 0.0, cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid) == STEADY:
            lo = mid
        else:
            hi = mid
    return CombThreshold(value=0.5 * (lo + hi), cap=cap, bracket=(lo, hi),
                         probes=tuple(probes), probe_nfev=tuple(nfev))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Dump a trajectory as CSV with a self-describing header."""
    header = (
        "# classical mean-field trajectory\n"
        "# columns: t [s], Re<a_cw>, Im<a_cw>, Re<a_ccw>, Im<a_ccw>, "
        "Re<m>, Im<m>, q, p (mode amplitudes dimensionless)\n"
        "t,re_a_cw,im_a_cw,re_a_ccw,im_a_ccw,re_m,im_m,q,p\n"
    )
    rows = np.column_stack([
        traj.t, traj.a_cw.real, traj.a_cw.imag, traj.a_ccw.real,
        traj.a_ccw.imag, traj.m.real, traj.m.imag, traj.q, traj.p,
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            fh.write(",".join(format(v, ".9g") for v in row) + "\n")
