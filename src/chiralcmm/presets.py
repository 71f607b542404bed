"""Bundled operating points for the standard result figures.

Two families of detuning optima recur everywhere:

  * "magnon" set: kappa_a_e/2pi = 2.8 MHz, g_cw/2pi = 4 MHz,
    |G_m|/2pi = 4.0 MHz, optimum (delta_a, delta_m_eff) = (-0.72, 0.76) w_b
    - maximizes the microwave-magnon entanglement.
  * "phonon" set: kappa_a_e/2pi = 4.8 MHz, g_cw/2pi = 8 MHz,
    |G_m|/2pi = 2.5 MHz, optimum (-0.76, 0.65) w_b - maximizes the
    microwave-phonon entanglement.

The single-magnon magnomechanical rate g_m is never fixed by the
|G_m|-parametrized results; INFERRED_G_M back-derives it from the quoted
pairing of the comb-threshold coupling (2pi x 8.5 MHz) with a 0.9 W drive,
and is an inferred constant, not a measured one.  Any equal-power
drive-direction comparison is independent of its exact value because g_m
and the calibrated amplitude enter all observables only through their
product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import hz
from .output_mode import FilterSpec
from .params import Detunings, DriveSpec, SystemParams, drive_amplitude
from .pipeline import MeasureRequest, SweepAxis, SweepSpec
from .steady_state import amplitude_for_gm

GM_MAGNON = hz(4.0e6)   # |G_m| used with the magnon-optimal set
GM_PHONON = hz(2.5e6)   # |G_m| used with the phonon-optimal set

OPT_MAGNON = (-0.72, 0.76)   # (delta_a, delta_m_eff) in units of omega_b
OPT_PHONON = (-0.76, 0.65)

#: comb threshold <-> drive power pairing used to infer g_m
COMB_GM = hz(8.5e6)
COMB_POWER = 0.9  # W

#: output filter bandwidth in units of omega_b
FILTER_BANDWIDTH_RATIO = 0.1


def magnon_set(**overrides) -> SystemParams:
    base = dict(kappa_a_e=hz(2.8e6), g_cw=hz(4e6),
                drive=DriveSpec("gm_abs", GM_MAGNON))
    base.update(overrides)
    return SystemParams(**base)


def phonon_set(**overrides) -> SystemParams:
    base = dict(kappa_a_e=hz(4.8e6), g_cw=hz(8e6),
                drive=DriveSpec("gm_abs", GM_PHONON))
    base.update(overrides)
    return SystemParams(**base)


def optimum(params: SystemParams, which: str) -> Detunings:
    da, dme = OPT_MAGNON if which == "magnon" else OPT_PHONON
    return Detunings.effective(da * params.omega_b, dme * params.omega_b)


def inferred_g_m() -> float:
    """g_m back-derived from the comb threshold <-> 0.9 W correspondence.

    The product g_m*E that realizes COMB_GM for the chiral phonon set at
    its optimum detunings, divided by the amplitude E of a 0.9 W drive.
    Documented as an inferred constant.
    """
    p = phonon_set()
    E = drive_amplitude(COMB_POWER, p.omega_0, p.kappa_a_e)
    return amplitude_for_gm(p, optimum(p, "phonon"), COMB_GM) / E


def reference_amplitude(which: str) -> float:
    """Drive amplitude realizing the reference |G_m| in the chiral case.

    The fixed-power sweeps (backscattering, coupling-ratio, temperature,
    and their tripartite variants) all drive with the amplitude that yields
    the reference |G_m| for the corresponding chiral configuration (J = 0,
    g_ccw = 0) at its optimum detunings.
    """
    p = (magnon_set if which == "magnon" else phonon_set)(g_m=inferred_g_m())
    return amplitude_for_gm(p, optimum(p, which), p.drive.value)


def fixed_power_set(which: str, *, J: float = 0.0, chi: float = 0.0,
                    **overrides) -> SystemParams:
    """Imperfect-configuration base driven at the calibrated fixed power."""
    build = magnon_set if which == "magnon" else phonon_set
    p = build(g_m=inferred_g_m(),
              drive=DriveSpec("amplitude", reference_amplitude(which)),
              **overrides)
    return p.replace(J=J, g_ccw=chi * p.g_cw)


@dataclass(frozen=True)
class FigurePreset:
    name: str
    description: str
    params: SystemParams
    detunings: Detunings
    sweep: SweepSpec | None = None
    filter_spec: FilterSpec | None = None


def output_filter(params: SystemParams) -> FilterSpec:
    """Stokes-sideband filter: center -omega_b, bandwidth
    FILTER_BANDWIDTH_RATIO*omega_b."""
    return FilterSpec(omega_center=-params.omega_b,
                      tau=1.0 / (FILTER_BANDWIDTH_RATIO * params.omega_b))


def get(name: str, grid_points: int = 101) -> FigurePreset:
    """Build the figure preset of a name in PRESET_NAMES."""
    kappa_m = SystemParams().kappa_m

    if name in ("fig2a", "fig2b"):
        which, nu = ("magnon", "m") if name == "fig2a" else ("phonon", "b")
        p = magnon_set() if which == "magnon" else phonon_set()
        wb = p.omega_b
        sweep = SweepSpec(
            axes=(SweepAxis("delta_a", -2 * wb, 0.0, grid_points),
                  SweepAxis("delta_m_eff", 0.0, 2 * wb, grid_points)),
            request=MeasureRequest(pairs=(("a_cw", nu),), triples=()))
        return FigurePreset(name, f"microwave-{which} entanglement vs detunings",
                            p, optimum(p, which), sweep)
    if name == "fig2c":
        p = phonon_set(g_m=inferred_g_m())
        sweep = SweepSpec(
            axes=(SweepAxis("kappa_a_e", hz(0.5e6), hz(7.8e6), grid_points),
                  SweepAxis("power", 1e-3, 1.0, grid_points)),
            request=MeasureRequest(pairs=(("a_cw", "b"),), triples=()),
        )
        return FigurePreset(name, "microwave-phonon entanglement vs cavity "
                            "linewidth and drive power", p,
                            optimum(p, "phonon"), sweep)
    if name in ("fig2d_magnon", "fig2d_phonon"):
        which = "phonon" if name.endswith("phonon") else "magnon"
        p = magnon_set() if which == "magnon" else phonon_set()
        pair = ("a_cw", "m") if which == "magnon" else ("a_cw", "b")
        sweep = SweepSpec(axes=(SweepAxis("gamma_b", hz(10.0), hz(1e5), 51),),
                          request=MeasureRequest(pairs=(pair,), triples=()))
        return FigurePreset(name, "entanglement vs mechanical damping",
                            p, optimum(p, which), sweep, output_filter(p))
    if name in ("fig3a", "fig3b"):
        which = "magnon" if name == "fig3a" else "phonon"
        p = magnon_set() if which == "magnon" else phonon_set()
        wb = p.omega_b
        sweep = SweepSpec(axes=(SweepAxis("delta_a", -2 * wb, 0.0, grid_points),),
                          request=MeasureRequest(pairs=(),
                                                 triples=(("a_cw", "m", "b"),)))
        return FigurePreset(name, "tripartite residual contangle vs delta_a",
                            p, optimum(p, which), sweep)
    if name in ("fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b"):
        # the magnon pairs in a and c, the phonon pairs in b and d
        which = "magnon" if name[-1] in "ac" else "phonon"
        nu = "m" if which == "magnon" else "b"
        J = 0.5 * kappa_m if which == "magnon" else kappa_m
        # the swept quantity, the fixed imperfections and the title's "vs"
        axis, imperfections, versus = {
            "fig4ab": (SweepAxis("J", 0.0, 2 * kappa_m, grid_points),
                       {"chi": 0.1}, "backscattering"),
            "fig4cd": (SweepAxis("chi", 0.0, 0.2, grid_points), {"J": J},
                       "coupling ratio"),
            "fig5ab": (SweepAxis("temperature", 0.001, 0.25, grid_points),
                       {"J": J, "chi": 0.1}, "temperature"),
        }[name[:4] + ("ab" if name[-1] in "ab" else "cd")]
        p = fixed_power_set(which, **imperfections)
        sweep = SweepSpec(
            axes=(axis,), drive_ports=("cw", "ccw"),
            request=MeasureRequest(pairs=(("a_cw", nu), ("a_ccw", nu)), triples=()),
        )
        return FigurePreset(name, f"nonreciprocal entanglement vs {versus}",
                            p, optimum(p, which), sweep)
    if name in ("fig6a", "fig6b"):
        p = fixed_power_set("magnon", chi=0.1,
                            J=0.0 if name == "fig6a" else 0.5 * kappa_m)
        axis = (SweepAxis("J", 0.0, 2 * kappa_m, grid_points)
                if name == "fig6a" else SweepAxis("chi", 0.0, 0.2, grid_points))
        sweep = SweepSpec(
            axes=(axis,), drive_ports=("cw", "ccw"),
            request=MeasureRequest(
                pairs=(), triples=(("a_cw", "m", "b"), ("a_ccw", "m", "b"))),
        )
        return FigurePreset(name, "nonreciprocal tripartite contangle",
                            p, optimum(p, "magnon"), sweep)
    if name == "figs1":
        p = fixed_power_set("magnon", J=0.5 * kappa_m, chi=0.1)
        return FigurePreset(name, "classical magnon amplitude settling check",
                            p, optimum(p, "magnon"))
    raise KeyError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d_magnon", "fig2d_phonon",
                "fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d",
                "fig5a", "fig5b", "fig6a", "fig6b", "figs1")
