"""System parameters, detunings, and thermal-bath helpers.

All quantities are stored internally as angular frequencies / rates in
rad/s; constructors that accept ordinary frequencies (Hz) multiply by
2*pi on the way in.  Parameter objects are immutable and safe to share
across workers.

A *stacked* configuration (``SystemParams.stacked``, ``Detunings.stacked``)
holds an (n,) array in every rate field and in the drive port instead of
one value; the steady-state, drift and diffusion functions evaluate all n
points of such a stack at once, which is how the sweep engine runs a block
of grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import HBAR, KB, hz

DRIVE_CW = "cw"
DRIVE_CCW = "ccw"

DETUNING_PHYSICAL = "physical"
DETUNING_EFFECTIVE = "effective"

# Drive specification kinds: exactly one is set per configuration.
DRIVE_POWER = "power"          # drive power P0 in watts
DRIVE_AMPLITUDE = "amplitude"  # cavity drive amplitude E in rad/s
DRIVE_GM_ABS = "gm_abs"        # target |G_m| of the effective coupling, rad/s

#: the SystemParams fields that hold rates, frequencies or the temperature;
#: g_m, which no sweep varies, is not among them
RATE_FIELDS = ("omega_a", "omega_m", "omega_b", "omega_0", "kappa_a_i",
               "kappa_a_e", "kappa_m", "gamma_b", "g_cw", "g_ccw", "J",
               "temperature")


class NumericalCondition(Exception):
    """A known numerical condition: an in-row error of a sweep, exit 4 of a
    command.  ``points`` holds the indices of the failing points in the
    stack the raising call was given (index 0 for one point), and
    ``messages`` each one's message; ``str(exc)`` is the first one's."""

    def __init__(self, message: str, points=(0,), messages=None):
        super().__init__(message)
        self.points = np.asarray(points)
        self.messages = messages or [message]


def require(ok, condition: type, message) -> None:
    """Raise ``condition`` naming the points whose verdict in ``ok`` (one
    per point of a stack, or one bool for one point) is False; ``message``
    is their text, or a function that gives point i's."""
    points = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(points):
        messages = [message(i) if callable(message) else message
                    for i in points]
        raise condition(messages[0], points, messages)


def solves(routine, stack) -> np.ndarray:
    """Whether the numpy ``routine``, which fails a whole stack of matrices
    with LinAlgError, succeeds on each matrix of ``stack`` alone."""
    ok = np.ones(len(stack), dtype=bool)
    for i, matrix in enumerate(stack):
        try:
            routine(matrix)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


@dataclass(frozen=True)
class DriveSpec:
    """How the drive strength is specified.

    kind:  one of DRIVE_POWER, DRIVE_AMPLITUDE, DRIVE_GM_ABS.
    value: watts for power, rad/s otherwise (an array in a stack).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (DRIVE_POWER, DRIVE_AMPLITUDE, DRIVE_GM_ABS):
            raise ValueError(f"unknown drive spec kind {self.kind!r}")
        if not np.all(np.isfinite(self.value)) or np.any(self.value < 0):
            raise ValueError("drive value must be finite and >= 0")


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration of the two-circulating-mode magnomechanical cavity.

    Frequencies and rates in rad/s, temperature in kelvin.  ``g_m`` (the
    single-magnon magnomechanical rate) is optional: every result that is
    parametrized by the effective coupling magnitude |G_m| can be computed
    without it.  ``kappa_a`` is the total cavity linewidth
    kappa_a_i + kappa_a_e.  ``drive_port`` names the driven circulating
    mode, DRIVE_CW or DRIVE_CCW; every function that needs the port reads
    it from here.
    """

    omega_a: float = hz(10e9)    # degenerate circulating-mode resonance
    omega_m: float = hz(10e9)    # magnon (Kittel mode) resonance
    omega_b: float = hz(10e6)    # mechanical resonance
    omega_0: float = hz(10e9)    # drive frequency
    kappa_a_i: float = hz(0.2e6)
    kappa_a_e: float = hz(2.8e6)
    kappa_m: float = hz(1e6)
    gamma_b: float = hz(100.0)
    g_cw: float = hz(4e6)        # cavity-magnon coupling, clockwise mode
    g_ccw: float = 0.0           # cavity-magnon coupling, counter-clockwise mode
    g_m: float | None = None     # single-magnon magnomechanical rate (optional)
    J: float = 0.0               # backscattering coupling between the two modes
    temperature: float = 0.010
    drive_port: str = DRIVE_CW   # an (n,) array of labels in a stack
    drive: DriveSpec = field(default_factory=lambda: DriveSpec(DRIVE_GM_ABS, hz(4e6)))
    detuning_mode: str = DETUNING_EFFECTIVE

    def __post_init__(self):
        unknown = (set(np.atleast_1d(self.drive_port).tolist())
                   - {DRIVE_CW, DRIVE_CCW})
        if unknown:
            raise ValueError(f"unknown drive port {min(unknown, key=str)!r}")
        if self.detuning_mode not in (DETUNING_PHYSICAL, DETUNING_EFFECTIVE):
            raise ValueError(f"unknown detuning mode {self.detuning_mode!r}")

    @property
    def kappa_a(self) -> float:
        return self.kappa_a_i + self.kappa_a_e

    @property
    def quality_factor(self) -> float:
        return self.omega_b / self.gamma_b if self.gamma_b > 0 else math.inf

    def occupancies(self) -> tuple[float, float, float]:
        """Mean thermal excitation numbers (N_a, N_m, N_b) of the baths."""
        T = self.temperature
        return (
            thermal_occupancy(self.omega_a, T),
            thermal_occupancy(self.omega_m, T),
            thermal_occupancy(self.omega_b, T),
        )

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def stacked(self, n: int) -> "SystemParams":
        """n copies of this configuration as one stack: every rate field,
        the drive port and the drive value become (n,) arrays."""
        changes = {name: np.full(n, float(getattr(self, name)))
                   for name in RATE_FIELDS}
        drive = DriveSpec(self.drive.kind, np.full(n, float(self.drive.value)))
        return replace(self, drive=drive, drive_port=np.full(n, self.drive_port),
                       **changes)

    def at(self, index) -> "SystemParams":
        """The points ``index`` (an int, an index array or a mask) of a
        stacked configuration."""
        changes = {name: getattr(self, name)[index] for name in RATE_FIELDS}
        drive = DriveSpec(self.drive.kind, self.drive.value[index])
        return replace(self, drive=drive, drive_port=self.drive_port[index],
                       **changes)


@dataclass(frozen=True)
class Detunings:
    """Drive-frame detunings (rad/s).

    delta_a      = omega_a - omega_0, shared by both circulating modes.
    delta_m      = omega_m - omega_0 (bare magnon detuning).
    delta_m_eff  = delta_m + g_m * <q>, the dispersively shifted value that
                   enters the drift matrix.  Equal to delta_m when the
                   mechanical displacement vanishes or g_m = 0.
    """

    delta_a: float
    delta_m: float
    delta_m_eff: float

    @classmethod
    def effective(cls, delta_a: float, delta_m_eff: float) -> "Detunings":
        """Fix the effective magnon detuning directly (the default workflow)."""
        return cls(delta_a=delta_a, delta_m=delta_m_eff, delta_m_eff=delta_m_eff)

    @classmethod
    def physical(cls, params: SystemParams) -> "Detunings":
        """Bare detunings from the configured mode frequencies (no shift yet)."""
        da = params.omega_a - params.omega_0
        dm = params.omega_m - params.omega_0
        return cls(delta_a=da, delta_m=dm, delta_m_eff=dm)

    def stacked(self, n: int) -> "Detunings":
        """n copies as one stack of (n,) arrays."""
        return Detunings(*(np.full(n, float(v)) for v in
                           (self.delta_a, self.delta_m, self.delta_m_eff)))


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation N = 1/(exp(hbar*omega/k_B*T) - 1).

    Returns 0 at T = 0.  Monotone increasing in T, decreasing in omega.
    Either argument may be an array; the result then is one too.
    """
    omega = np.asarray(omega, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(temperature))):
        raise ValueError("thermal_occupancy requires finite inputs")
    if np.any(omega <= 0):
        raise ValueError("thermal_occupancy requires omega > 0")
    if np.any(temperature < 0):
        raise ValueError("thermal_occupancy requires T >= 0")
    with np.errstate(divide="ignore"):
        x = HBAR * omega / (KB * temperature)   # inf at T = 0
    # beyond x = 700 exp would overflow; the occupancy is indistinguishable
    # from 0 there
    n = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    return float(n) if n.ndim == 0 else n


def drive_amplitude(power: float, omega_0: float, kappa_a_e: float) -> float:
    """Cavity drive amplitude E = sqrt(2*kappa_a_e*P0/(hbar*omega_0)) in rad/s.

    Arrays in, array out."""
    if not all(np.all(np.isfinite(v)) for v in (power, omega_0, kappa_a_e)):
        raise ValueError("drive_amplitude requires finite inputs")
    if np.any(power < 0) or np.any(kappa_a_e < 0):
        raise ValueError("power and kappa_a_e must be >= 0")
    if np.any(omega_0 <= 0):
        raise ValueError("omega_0 must be > 0")
    E = np.sqrt(2.0 * kappa_a_e * power / (HBAR * omega_0))
    return float(E) if E.ndim == 0 else E


@dataclass(frozen=True)
class Diagnostic:
    level: str   # "error" | "warning"
    code: str
    message: str


def validate(params: SystemParams) -> list[Diagnostic]:
    """Check a configuration for physical consistency.

    Returns structured diagnostics and never raises: hard violations come
    back as "error" entries, regime cautions (resolved-sideband, mechanical
    quality factor) as "warning" entries.
    """
    out: list[Diagnostic] = []

    def err(code, msg):
        out.append(Diagnostic("error", code, msg))

    def warn(code, msg):
        out.append(Diagnostic("warning", code, msg))

    for name in RATE_FIELDS:
        value = getattr(params, name)
        if not math.isfinite(value):
            err("non_finite", f"{name} is not finite")
        elif value < 0:
            err("negative", f"{name} must be >= 0, got {value!r}")
    if params.g_m is not None and (not math.isfinite(params.g_m) or params.g_m < 0):
        err("negative", "g_m must be finite and >= 0 when given")

    if params.kappa_a <= 0:
        err("zero_kappa_a", "total cavity dissipation kappa_a must be > 0")
    if params.kappa_m <= 0:
        err("zero_kappa_m", "magnon dissipation kappa_m must be > 0")
    if params.gamma_b <= 0:
        err("zero_gamma_b",
            "gamma_b must be > 0: an undamped mechanical mode has no steady state")
    # the thermal occupancies and the drive power need positive frequencies
    for name in ("omega_a", "omega_m", "omega_b", "omega_0"):
        if getattr(params, name) <= 0:
            err(f"zero_{name}", f"{name} must be > 0")

    if params.gamma_b > 0 and params.omega_b > 0 and params.quality_factor < 100:
        warn("low_q", f"mechanical quality factor Q_b = {params.quality_factor:.1f} "
                      "< 100; the Markovian Brownian-noise model is questionable")
    if params.omega_b > 0 and params.kappa_m >= params.omega_b:
        warn("unresolved_sideband",
             "kappa_m >= omega_b: outside the resolved-sideband regime, "
             "sideband-selective driving is ineffective")
    return out


def errors_of(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.level == "error"]
