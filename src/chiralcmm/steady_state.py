"""Classical steady-state means of the driven system.

The driven circulating mode builds up a large coherent amplitude which,
through the cavity-magnon exchange coupling, pumps the magnon mode; the
enhanced effective magnomechanical coupling is G_m = sqrt(2)*g_m*<m>.
This module evaluates the closed-form means for the strictly chiral
("ideal") configuration and for the general one with backscattering
J != 0 and residual coupling g_ccw != 0, and solves the dispersive-shift
self-consistency when the bare magnon detuning is what is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .params import (
    DETUNING_PHYSICAL,
    DRIVE_AMPLITUDE,
    DRIVE_CCW,
    DRIVE_CW,
    DRIVE_POWER,
    Detunings,
    SystemParams,
    drive_amplitude,
)

SQRT2 = math.sqrt(2.0)


class SingularConfigurationError(ValueError):
    """The mean-field system is singular at this exact parameter point."""


class ConvergenceError(RuntimeError):
    """The dispersive-shift fixed point did not converge."""


@dataclass(frozen=True)
class SteadyField:
    """Classical means and the effective magnomechanical coupling.

    Complex amplitudes are dimensionless (mode-amplitude units); ``g_m_eff``
    is the complex G_m in rad/s.  ``q_mean`` satisfies
    q = -g_m*|m|^2/omega_b whenever g_m is known.  When the configuration is
    specified through |G_m| and g_m is absent, the mode means are reported
    for unit drive amplitude (``e_amplitude`` is None in that case).
    """

    a_cw: complex
    a_ccw: complex
    m: complex
    q_mean: float
    g_m_eff: complex | None
    delta_m_eff: float
    e_amplitude: float | None
    meta: dict = field(default_factory=dict, compare=False)


def _by_port(port, cw_value, ccw_value):
    """``cw_value`` for a clockwise drive, ``ccw_value`` for a
    counter-clockwise one; ``port`` is one label or an array of labels."""
    if isinstance(port, str):
        if port not in (DRIVE_CW, DRIVE_CCW):
            raise ValueError(f"unknown drive port {port!r}")
        return cw_value if port == DRIVE_CW else ccw_value
    port = np.asarray(port)
    unknown = ~np.isin(port, (DRIVE_CW, DRIVE_CCW))
    if np.any(unknown):
        raise ValueError(f"unknown drive port {port[unknown][0]!r}")
    return np.where(port == DRIVE_CW, cw_value, ccw_value)


def _cavity_means(params: SystemParams, det: Detunings, E: float,
                  drive_port: str, m: complex) -> tuple[complex, complex]:
    """Back-substitute <m> into the 2x2 linear system for the cavity means."""
    ka = params.kappa_a + 1j * det.delta_a
    e_cw, e_ccw = _by_port(drive_port, E, 0.0), _by_port(drive_port, 0.0, E)
    b1 = e_cw - 1j * params.g_cw * m
    b2 = e_ccw - 1j * params.g_ccw * m
    det2 = ka * ka + params.J**2
    if np.any(det2 == 0):
        raise SingularConfigurationError("cavity mean-field system is singular")
    a_cw = (ka * b1 - 1j * params.J * b2) / det2
    a_ccw = (ka * b2 - 1j * params.J * b1) / det2
    return a_cw, a_ccw


def _pack(params: SystemParams, det: Detunings, E: float | None,
          a_cw: complex, a_ccw: complex, m: complex,
          delta_m_eff: float, **meta) -> SteadyField:
    g_m = params.g_m
    q_mean = -g_m * abs(m) ** 2 / params.omega_b if g_m is not None else 0.0
    g_m_eff = SQRT2 * g_m * m if g_m is not None else None
    return SteadyField(a_cw=a_cw, a_ccw=a_ccw, m=m, q_mean=q_mean,
                       g_m_eff=g_m_eff, delta_m_eff=delta_m_eff,
                       e_amplitude=E, meta=dict(meta))


def ideal_means(params: SystemParams, det: Detunings, E: float,
                drive_port: str | None = None) -> SteadyField:
    """Means for the strictly chiral configuration (J = 0).

    The non-driven circulating mode is decoupled and stays empty.  Under CW
    drive the magnon amplitude is
    <m> = -i*g_cw*E / [g_cw^2 + (kappa_a + i*delta_a)(kappa_m + i*delta_m_eff)];
    under CCW drive the same expression with the CCW coupling, which is 0 in
    the chiral case, so the magnomechanics is not pumped at all.
    Stacked parameters (and an array of ports) give arrays of means.
    """
    port = params.drive_port if drive_port is None else drive_port
    g = _by_port(port, params.g_cw, params.g_ccw)
    dme = det.delta_m_eff
    den = g * g + (params.kappa_a + 1j * det.delta_a) * (params.kappa_m + 1j * dme)
    if np.any(den == 0):
        raise SingularConfigurationError("vanishing mean-field denominator")
    m = -1j * g * E / den
    a_driven = (E - 1j * g * m) / (params.kappa_a + 1j * det.delta_a)
    a_cw = _by_port(port, a_driven, 0.0 + 0.0j)
    a_ccw = _by_port(port, 0.0 + 0.0j, a_driven)
    return _pack(params, det, E, a_cw, a_ccw, m, dme)


def imperfect_means(params: SystemParams, det: Detunings, E: float,
                    drive_port: str | None = None) -> SteadyField:
    """Closed-form means with backscattering J and residual coupling g_ccw.

    Reduces exactly to :func:`ideal_means` when J = 0 and the non-driven
    coupling vanishes.  Both circulating modes are generally populated.
    Stacked parameters (and an array of ports) give arrays of means.
    """
    port = params.drive_port if drive_port is None else drive_port
    ka, km = params.kappa_a, params.kappa_m
    da, dme = det.delta_a, det.delta_m_eff
    gr, gl, J = params.g_cw, params.g_ccw, params.J

    eps1 = gr * gr + gl * gl + ka * km - da * dme
    eps2 = ka * dme + km * da
    den = (km * J * J + ka * eps1 - da * eps2) \
        + 1j * (dme * J * J - 2 * J * gr * gl + da * eps1 + ka * eps2)
    if np.any(den == 0):
        raise SingularConfigurationError("vanishing mean-field denominator")
    # couplings of the driven and of the other circulating mode
    g_d, g_o = _by_port(port, gr, gl), _by_port(port, gl, gr)
    num = E * ((g_d * da - g_o * J) - 1j * g_d * ka)
    m = num / den
    a_cw, a_ccw = _cavity_means(params, det, E, port, m)
    return _pack(params, det, E, a_cw, a_ccw, m, dme)


def _closed_form(params, det, E, port):
    if params.J == 0 and (params.g_ccw == 0 or params.g_cw == 0):
        return ideal_means(params, det, E, port)
    return imperfect_means(params, det, E, port)


def self_consistent_solve(params: SystemParams, E: float,
                          drive_port: str | None = None,
                          det: Detunings | None = None,
                          tol: float = 1e-12, max_iter: int = 500,
                          damping: float = 0.5) -> SteadyField:
    """Fixed point of the coupled (<m>, <q>, delta_m_eff) system.

    The dispersive interaction shifts the magnon detuning by g_m*<q> with
    <q> = -g_m*|<m>|^2/omega_b, so the means obey a cubic self-consistency.
    Damped iteration from the zero-drive solution tracks the branch that is
    continuously connected to it; on non-convergence a bracketed 1-D root
    find on |<m>|^2 takes over.  All detected branches are reported in the
    ``meta`` field.
    """
    if params.g_m is None:
        raise ValueError("self_consistent_solve requires g_m")
    port = drive_port or params.drive_port
    base = det if det is not None else Detunings.physical(params)
    g_m, wb = params.g_m, params.omega_b

    def shifted(msq: float) -> Detunings:
        q = -g_m * msq / wb
        return Detunings(base.delta_a, base.delta_m, base.delta_m + g_m * q)

    if g_m == 0.0 or E == 0.0:
        out = _closed_form(params, shifted(0.0), E, port)
        return _pack(params, shifted(abs(out.m) ** 2), E, out.a_cw, out.a_ccw,
                     out.m, base.delta_m, iterations=1, branches=[abs(out.m) ** 2])

    msq = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        m_new = _closed_form(params, shifted(msq), E, port).m
        msq_new = (1 - damping) * msq + damping * abs(m_new) ** 2
        scale = max(msq_new, msq, 1e-300)
        if abs(msq_new - msq) <= tol * scale:
            msq = msq_new
            converged = True
            break
        msq = msq_new

    # residual of the modulus equation, for root bracketing and reporting
    def h(x: float) -> float:
        m = _closed_form(params, shifted(x), E, port).m
        return abs(m) ** 2 - x

    branches = _bracket_roots(h, msq if converged else None, params, det=base,
                              E=E, port=port)
    if not converged:
        if not branches:
            raise ConvergenceError(
                f"no self-consistent solution found after {max_iter} iterations")
        msq = branches[0]  # continuation from zero drive: smallest amplitude

    d = shifted(msq)
    out = _closed_form(params, d, E, port)
    return _pack(params, d, E, out.a_cw, out.a_ccw, out.m, d.delta_m_eff,
                 iterations=iterations, converged=converged, branches=branches)


def _bracket_roots(h, seed: float | None, params, det, E, port) -> list[float]:
    """All fixed points of the modulus equation on a geometric scan grid."""
    zero_shift = _closed_form(params, det, E, port).m
    scale = max(abs(zero_shift) ** 2, seed or 0.0, 1e-30)
    grid = np.concatenate(([0.0], np.geomspace(scale * 1e-6, scale * 1e3, 200)))
    vals = np.array([h(x) for x in grid])
    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(h, grid[i], grid[i + 1], xtol=1e-30, rtol=1e-14))
    dedup: list[float] = []
    for r in roots:
        if not any(math.isclose(r, s, rel_tol=1e-8, abs_tol=1e-20) for s in dedup):
            dedup.append(r)
    return sorted(dedup)


def amplitude_for_gm(params: SystemParams, det: Detunings, gm_target: float,
                     drive_port: str = DRIVE_CW) -> float:
    """Drive amplitude E that realizes |G_m| = gm_target at fixed delta_m_eff.

    Requires g_m.  The means are linear in E at fixed effective detuning, so
    E = gm_target / (sqrt(2)*g_m*|<m>(E=1)|).
    """
    if params.g_m is None:
        raise ValueError("amplitude_for_gm requires g_m")
    m1 = _closed_form(params, det, 1.0, drive_port).m
    if m1 == 0:
        raise SingularConfigurationError(
            "drive port does not pump the magnon mode; |G_m| target unreachable")
    return gm_target / (SQRT2 * params.g_m * abs(m1))


def resolve_drive(params: SystemParams, det: Detunings,
                  drive_port: str | None = None,
                  variant_imperfect: bool | None = None) -> SteadyField:
    """Evaluate the steady field for the configured drive specification.

    power/amplitude specs need g_m to convert <m> into G_m.  A |G_m| spec
    needs no g_m: the drive is calibrated on the strongly coupled port (the
    one with the larger cavity-magnon coupling), and the same underlying
    drive amplitude is implied for the opposite port, mirroring an
    equal-power comparison.

    Stacked parameters with an array of ports give a SteadyField of arrays;
    the self-consistent solve of the physical detuning mode then runs point
    by point.
    """
    port = params.drive_port if drive_port is None else drive_port
    if variant_imperfect is None:
        means = _closed_form
    elif variant_imperfect:
        means = imperfect_means
    else:
        means = ideal_means

    spec = params.drive
    if spec.kind in (DRIVE_POWER, DRIVE_AMPLITUDE):
        if params.g_m is None:
            raise ValueError(f"{spec.kind} drive spec requires g_m to form G_m")
        E = spec.value if spec.kind == DRIVE_AMPLITUDE else drive_amplitude(
            spec.value, params.omega_0, params.kappa_a_e)
        if params.detuning_mode != DETUNING_PHYSICAL:
            return means(params, det, E, port)
        if isinstance(port, str):
            return self_consistent_solve(params, E, port, det)
        return _stack_fields([
            self_consistent_solve(params.at(i), float(E[i]), str(p), det.at(i))
            for i, p in enumerate(port)])

    # |G_m| spec: calibrate on the dominant chiral port at unit amplitude.
    cal_cw = params.g_cw >= params.g_ccw
    cal_port = (np.where(cal_cw, DRIVE_CW, DRIVE_CCW) if np.ndim(cal_cw)
                else DRIVE_CW if cal_cw else DRIVE_CCW)
    m_cal = means(params, det, 1.0, cal_port).m
    if np.any(m_cal == 0):
        raise SingularConfigurationError(
            "|G_m| target unreachable: calibration port does not pump the magnon")
    scale = spec.value / (SQRT2 * abs(m_cal))   # equals g_m * E for any split
    out = means(params, det, 1.0, port)
    g_m_eff = SQRT2 * scale * out.m
    if params.g_m is not None and params.g_m > 0:
        E = scale / params.g_m
        full = means(params, det, E, port)
        return SteadyField(full.a_cw, full.a_ccw, full.m, full.q_mean,
                           g_m_eff, full.delta_m_eff, E, full.meta)
    return SteadyField(out.a_cw, out.a_ccw, out.m, 0.0, g_m_eff,
                       out.delta_m_eff, None, out.meta)


def _stack_fields(fields: list[SteadyField]) -> SteadyField:
    """One SteadyField of arrays from per-point fields (meta dropped)."""
    return SteadyField(*(np.array([getattr(f, name) for f in fields])
                         for name in ("a_cw", "a_ccw", "m", "q_mean", "g_m_eff",
                                      "delta_m_eff", "e_amplitude")))
