"""Classical steady-state means of the driven system.

The driven circulating mode builds up a large coherent amplitude which,
through the cavity-magnon exchange coupling, pumps the magnon mode; the
enhanced effective magnomechanical coupling is G_m = sqrt(2)*g_m*<m>.
This module is the one place that knows the mean field: one closed form
(backscattering J and residual coupling g_ccw included; the strictly
chiral configuration is its J = 0, g_ccw = 0 case), the dispersive-shift
self-consistency when the bare magnon detuning is what is known, the drive
amplitude that realizes a given |G_m|, and the bare detuning that lands the
shifted one where it is wanted.

The self-consistency is a real cubic in |<m>|^2, solved exactly and
array-aware.  Near a fold it has three real roots (magnon Kerr
bistability); the returned branch is the lowest root, the one continuous
with zero drive as the drive increases, and the number of real roots
travels with the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import (
    DETUNING_PHYSICAL,
    DRIVE_AMPLITUDE,
    DRIVE_CCW,
    DRIVE_CW,
    DRIVE_GM_ABS,
    DRIVE_POWER,
    Detunings,
    NumericalCondition,
    SystemParams,
    drive_amplitude,
)

SQRT2 = math.sqrt(2.0)

#: why a |G_m| drive spec is refused in the physical detuning mode: the
#: calibration holds delta_m_eff fixed, so the mode's dispersive shift would
#: silently be dropped
GM_ABS_PHYSICAL = (f"a {DRIVE_GM_ABS} drive spec needs detuning mode "
                   f"'effective': its dispersive shift in mode "
                   f"'{DETUNING_PHYSICAL}' is not modelled")


class SingularConfigurationError(NumericalCondition, ValueError):
    """The mean-field system is singular at this exact parameter point."""


class MeanFieldOverflowError(NumericalCondition, ValueError):
    """The mean field overflows: the drive is too strong for floating
    point."""


def _require_finite(*values) -> None:
    """Raise MeanFieldOverflowError unless every value (None skipped) is
    finite."""
    if not all(np.isfinite(v).all() for v in values if v is not None):
        raise MeanFieldOverflowError("mean field is not finite: the drive "
                                     "overflows floating point")


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
    counter-clockwise one; ``port`` is one label or an array of labels,
    already checked by SystemParams."""
    if isinstance(port, str):
        return cw_value if port == DRIVE_CW else ccw_value
    return np.where(port == DRIVE_CW, cw_value, ccw_value)


def _cavity_means(params: SystemParams, det: Detunings, E: float,
                  m: complex) -> tuple[complex, complex]:
    """Back-substitute <m> into the 2x2 linear system for the cavity means."""
    ka = params.kappa_a + 1j * det.delta_a
    port = params.drive_port
    e_cw, e_ccw = _by_port(port, E, 0.0), _by_port(port, 0.0, E)
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


def _denominator(params: SystemParams, det: Detunings):
    """Denominator of the closed-form magnon mean, <m> = num/den.

    It is linear in delta_m_eff with slope i*[(kappa_a + i*delta_a)^2 + J^2]
    and num does not depend on delta_m_eff, which makes the dispersive
    self-consistency a cubic.
    """
    ka, km = params.kappa_a, params.kappa_m
    da, dme = det.delta_a, det.delta_m_eff
    gr, gl, J = params.g_cw, params.g_ccw, params.J

    eps1 = gr * gr + gl * gl + ka * km - da * dme
    eps2 = ka * dme + km * da
    den = (km * J * J + ka * eps1 - da * eps2) \
        + 1j * (dme * J * J - 2 * J * gr * gl + da * eps1 + ka * eps2)
    if np.any(den == 0):
        raise SingularConfigurationError("vanishing mean-field denominator")
    return den


def imperfect_means(params: SystemParams, det: Detunings,
                    E: float) -> SteadyField:
    """Closed-form means with backscattering J and residual coupling g_ccw.

    Both circulating modes are generally populated.  With J = 0 and the
    non-driven coupling g_o = 0 this is the strictly chiral result
    <m> = -i*g_d*E / [g_d^2 + (kappa_a + i*delta_a)(kappa_m + i*delta_m_eff)]
    with the non-driven mode empty; a drive on the uncoupled port of the
    chiral configuration leaves <m> = 0 exactly.
    Stacked parameters give arrays of means.
    """
    port = params.drive_port
    den = _denominator(params, det)
    ka, da, J = params.kappa_a, det.delta_a, params.J
    # couplings of the driven and of the other circulating mode
    g_d = _by_port(port, params.g_cw, params.g_ccw)
    g_o = _by_port(port, params.g_ccw, params.g_cw)
    num = E * ((g_d * da - g_o * J) - 1j * g_d * ka)
    m = num / den
    a_cw, a_ccw = _cavity_means(params, det, E, m)
    return _pack(params, det, E, a_cw, a_ccw, m, det.delta_m_eff)


def self_consistent_solve(params: SystemParams, E: float,
                          det: Detunings | None = None) -> SteadyField:
    """Means when the bare magnon detuning is what is known.

    The dispersive interaction shifts the magnon detuning to
    delta_m_eff = delta_m + g_m*<q> with <q> = -g_m*x/omega_b, x = |<m>|^2.
    1/<m> is linear in delta_m_eff, so <m> = m0/(1 + r*y) with m0 the mean
    at the bare detuning, y = x/|m0|^2 and
    r = -i*(g_m^2*|m0|^2/omega_b)*[(kappa_a + i*delta_a)^2 + J^2]/den, den
    the closed form's denominator at the bare detuning.  y solves the real
    cubic y*|1 + r*y|^2 = 1, whose real roots are all positive; near a fold
    (magnon Kerr bistability) it has three.  Branch rule: the lowest root,
    the branch continuous with zero drive as the drive increases.
    ``meta["branches"]`` counts the real roots (1 or 3); it is 1 where there
    is no shift (E = 0, g_m = 0, or a port that does not pump the magnon).

    Stacked parameters with an array of amplitudes give arrays; one point
    is solved as a stack of one, so it gets the same bits as in any stack.
    """
    if params.g_m is None:
        raise ValueError("self_consistent_solve requires g_m")
    base = det if det is not None else Detunings.physical(params)
    if isinstance(params.drive_port, str):
        one = self_consistent_solve(params.stacked(1), np.full(1, E),
                                    base.stacked(1))
        return SteadyField(*(getattr(one, name)[0].item() for name in
                             ("a_cw", "a_ccw", "m", "q_mean", "g_m_eff",
                              "delta_m_eff")),
                           e_amplitude=E,
                           meta={"branches": int(one.meta["branches"][0])})

    g_m, wb = params.g_m, params.omega_b
    bare = Detunings(base.delta_a, base.delta_m, base.delta_m)
    x0 = np.abs(imperfect_means(params, bare, E).m) ** 2
    ka = params.kappa_a + 1j * base.delta_a
    r = (-1j * (g_m * g_m * x0 / wb) * (ka * ka + params.J ** 2)
         / _denominator(params, bare))
    y, branches = _lowest_root(r)
    q = -g_m * (x0 * y) / wb
    d = Detunings(base.delta_a, base.delta_m, base.delta_m + g_m * q)
    out = imperfect_means(params, d, E)
    return _pack(params, d, E, out.a_cw, out.a_ccw, out.m, d.delta_m_eff,
                 branches=branches)


def _lowest_root(r):
    """Lowest real root y of y*|1 + r*y|^2 = 1 for each entry of r, and the
    number of real roots.

    With z = 1/y the cubic is the monic z^3 - z^2 - 2*Re(r)*z - |r|^2 = 0,
    whose companion matrix stays well scaled for small r; the lowest y is
    its largest real z.  LAPACK marks real eigenvalues with an exact zero
    imaginary part.  Two Newton steps on the y form polish the root.  At
    r = 0 the cubic degenerates to y = 1, one root (z = 0 is no root of
    the y form).  Coefficients that overflow raise MeanFieldOverflowError.
    """
    p, q = r.real, r.real ** 2 + r.imag ** 2
    _require_finite(q)
    companion = np.zeros(r.shape + (3, 3))
    companion[..., 0, 0] = 1.0
    companion[..., 0, 1] = 2.0 * p
    companion[..., 0, 2] = q
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    z = np.linalg.eigvals(companion)
    real = z.imag == 0
    y = 1.0 / np.max(np.where(real, z.real, -np.inf), axis=-1)
    for _ in range(2):
        f = ((q * y + 2.0 * p) * y + 1.0) * y - 1.0
        y = y - f / ((3.0 * q * y + 4.0 * p) * y + 1.0)
    return y, np.where(r == 0, 1, np.count_nonzero(real, axis=-1))


def amplitude_for_gm(params: SystemParams, det: Detunings,
                     gm_target: float) -> float:
    """Drive amplitude E that realizes |G_m| = gm_target at det.delta_m_eff.

    The means are linear in E at fixed effective detuning, so
    E = gm_target / (sqrt(2)*g_m*|<m>(E=1)|).  Without g_m this is the
    product g_m*E (the amplitude at g_m = 1), through which alone G_m
    depends on the two.  Stacked parameters give an array.
    """
    m1 = imperfect_means(params, det, 1.0).m
    if np.any(m1 == 0):
        raise SingularConfigurationError(
            "drive port does not pump the magnon mode; |G_m| target unreachable")
    scale = gm_target / (SQRT2 * abs(m1))
    return scale if params.g_m is None else scale / params.g_m


def precompensated_detunings(params: SystemParams, det: Detunings,
                             E: float) -> Detunings:
    """Detunings whose bare magnon detuning lands the dispersively shifted
    one on det.delta_m_eff at drive amplitude E.

    delta_m = delta_m_eff + g_m^2*|<m>|^2/omega_b (that is, minus g_m*<q>)
    with <m> the closed-form mean at det.delta_m_eff; requires g_m.
    """
    if params.g_m is None:
        raise ValueError("precompensated_detunings requires g_m")
    m = imperfect_means(params, det, E).m
    shift = params.g_m ** 2 * abs(m) ** 2 / params.omega_b
    return Detunings(det.delta_a, det.delta_m_eff + shift, det.delta_m_eff)


def target_detunings(params: SystemParams, det: Detunings,
                     gm_abs: float) -> Detunings:
    """The detunings of a point that realizes |G_m| = gm_abs.

    In the physical detuning mode ``det`` holds the bare detunings, and the
    target alone fixes the dispersive shift: g_m*<q> = -g_m^2*|<m>|^2/omega_b
    = -|G_m|^2/(2*omega_b), so delta_m_eff = delta_m - gm_abs^2/(2*omega_b)
    whatever g_m and the drive.  In the effective mode ``det`` already holds
    the effective detunings and is returned as it is.
    """
    if params.detuning_mode != DETUNING_PHYSICAL:
        return det
    return Detunings(det.delta_a, det.delta_m,
                     det.delta_m - gm_abs ** 2 / (2.0 * params.omega_b))


# an overflow is refused as MeanFieldOverflowError, not warned about
@np.errstate(over="ignore", invalid="ignore")
def resolve_drive(params: SystemParams, det: Detunings) -> SteadyField:
    """Evaluate the steady field for the configured drive specification.

    power/amplitude specs need g_m to convert <m> into G_m.  A |G_m| spec
    needs no g_m: the drive is calibrated on the strongly coupled port (the
    one with the larger cavity-magnon coupling), and the same underlying
    drive amplitude is implied for the opposite port, mirroring an
    equal-power comparison.  A |G_m| spec in the physical detuning mode
    raises ValueError (GM_ABS_PHYSICAL).  Without g_m (or with g_m = 0) the means are
    reported for unit drive amplitude and ``e_amplitude`` is None.  In the
    physical detuning mode the means come from :func:`self_consistent_solve`.

    Stacked parameters give a SteadyField of arrays, in either detuning
    mode.  A mean field that overflows (a drive too strong for floating
    point) raises MeanFieldOverflowError.
    """
    field = _field_for_drive(params, det)
    _require_finite(field.a_cw, field.a_ccw, field.m, field.q_mean,
                    field.g_m_eff, field.delta_m_eff)
    return field


def _field_for_drive(params: SystemParams, det: Detunings) -> SteadyField:
    spec = params.drive
    if spec.kind in (DRIVE_POWER, DRIVE_AMPLITUDE):
        if params.g_m is None:
            raise ValueError(f"{spec.kind} drive spec requires g_m to form G_m")
        E = spec.value if spec.kind == DRIVE_AMPLITUDE else drive_amplitude(
            spec.value, params.omega_0, params.kappa_a_e)
        if params.detuning_mode != DETUNING_PHYSICAL:
            return imperfect_means(params, det, E)
        return self_consistent_solve(params, E, det)

    # |G_m| spec: calibrate on the dominant chiral port
    if params.detuning_mode == DETUNING_PHYSICAL:
        raise ValueError(GM_ABS_PHYSICAL)
    cal_cw = params.g_cw >= params.g_ccw
    cal_port = (np.where(cal_cw, DRIVE_CW, DRIVE_CCW) if np.ndim(cal_cw)
                else DRIVE_CW if cal_cw else DRIVE_CCW)
    scale = amplitude_for_gm(params.replace(g_m=None, drive_port=cal_port),
                             det, spec.value)   # g_m * E
    out = imperfect_means(params, det, 1.0)
    g_m_eff = SQRT2 * scale * out.m
    if params.g_m:
        E = scale / params.g_m
        full = imperfect_means(params, det, E)
        return SteadyField(full.a_cw, full.a_ccw, full.m, full.q_mean,
                           g_m_eff, full.delta_m_eff, E, full.meta)
    return SteadyField(out.a_cw, out.a_ccw, out.m, 0.0, g_m_eff,
                       out.delta_m_eff, None, out.meta)

