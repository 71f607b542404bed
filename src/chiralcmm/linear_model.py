"""Drift and diffusion matrices of the linearized quadrature dynamics.

The fluctuation vector is ordered
    [X_a_cw, Y_a_cw, X_a_ccw, Y_a_ccw, X_m, Y_m, q, p]
with X = (a + a^dag)/sqrt(2), Y = i(a^dag - a)/sqrt(2) and vacuum variance
1/2 per quadrature.  The "ideal" drift matrix describes the strictly chiral
configuration; the "imperfect" one adds the backscattering coupling J
between the circulating modes and the residual coupling g_ccw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Detunings, SystemParams

VARIANT_IDEAL = "ideal"
VARIANT_IMPERFECT = "imperfect"

MODE_ORDER = ("a_cw", "a_ccw", "m", "b")
QUAD_LABELS = ("X_a_cw", "Y_a_cw", "X_a_ccw", "Y_a_ccw", "X_m", "Y_m", "q", "p")

#: rows/columns of each mode's quadrature pair in the 8x8 matrices
MODE_SLOTS = {label: (2 * i, 2 * i + 1) for i, label in enumerate(MODE_ORDER)}

# eigenvalue real parts above -STABILITY_MARGIN * ||A|| count as non-negative
STABILITY_MARGIN = 1e-9


class UnstableSystemError(RuntimeError):
    """No stationary state exists: the drift matrix is not Hurwitz."""


@dataclass(frozen=True)
class LinearModel:
    """Drift matrix A, diffusion matrix D, and the stability verdict."""

    A: np.ndarray
    D: np.ndarray
    mode_order: tuple = MODE_ORDER
    stable: bool = False
    abscissa: float = np.nan


def build_drift(params: SystemParams, det: Detunings, g_m_eff: complex,
                variant: str = VARIANT_IMPERFECT) -> np.ndarray:
    """Assemble the 8x8 drift matrix.

    ``g_m_eff`` is the complex effective magnomechanical coupling G_m; its
    real and imaginary parts enter the magnon-mechanics block separately.
    The ideal variant requires J = 0 and g_ccw = 0 and has an exactly zero
    CCW coupling block.
    """
    if variant not in (VARIANT_IDEAL, VARIANT_IMPERFECT):
        raise ValueError(f"unknown drift variant {variant!r}")
    ka, km, gb = params.kappa_a, params.kappa_m, params.gamma_b
    da, dme = det.delta_a, det.delta_m_eff
    wb = params.omega_b
    gr = params.g_cw
    gre, gim = np.real(g_m_eff), np.imag(g_m_eff)
    values = [ka, km, gb, da, dme, wb, gr, params.g_ccw, params.J, gre, gim]
    if not np.all(np.isfinite(values)):
        raise ValueError("drift matrix inputs must be finite")

    if variant == VARIANT_IDEAL:
        if params.J != 0 or params.g_ccw != 0:
            raise ValueError("ideal variant requires J = 0 and g_ccw = 0")
        gl, J = 0.0, 0.0
    else:
        gl, J = params.g_ccw, params.J

    A = np.array([
        [-ka,  da,   0.0,  J,    0.0,  gr,   0.0,  0.0],
        [-da, -ka,  -J,    0.0, -gr,   0.0,  0.0,  0.0],
        [0.0,  J,   -ka,   da,   0.0,  gl,   0.0,  0.0],
        [-J,   0.0, -da,  -ka,  -gl,   0.0,  0.0,  0.0],
        [0.0,  gr,   0.0,  gl,  -km,   dme,  gim,  0.0],
        [-gr,  0.0, -gl,   0.0, -dme, -km,  -gre,  0.0],
        [0.0,  0.0,  0.0,  0.0,  0.0,  0.0,  0.0,  wb],
        [0.0,  0.0,  0.0,  0.0, -gre, -gim, -wb,  -gb],
    ])
    return A


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix of the input noises.

    diag[kappa_a(2N_a+1) x4, kappa_m(2N_m+1) x2, 0, gamma_b(2N_b+1)];
    the q row carries no noise because the Brownian force drives p only.
    """
    n_a, n_m, n_b = params.occupancies()
    ca = params.kappa_a * (2 * n_a + 1)
    cm = params.kappa_m * (2 * n_m + 1)
    cb = params.gamma_b * (2 * n_b + 1)
    return np.diag([ca, ca, ca, ca, cm, cm, 0.0, cb])


def is_stable(A: np.ndarray) -> tuple[bool, float]:
    """Routh-Hurwitz verdict from the spectral abscissa of A.

    Returns (stable, abscissa).  The threshold scales with ||A|| so that
    marginal numerical zeros in a matrix mixing rates across six decades
    are not misclassified.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("is_stable requires a finite matrix")
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver failed: {exc}") from exc
    abscissa = float(np.max(eig.real))
    return abscissa < -STABILITY_MARGIN * np.linalg.norm(A, 2), abscissa


def build_model(params: SystemParams, det: Detunings, g_m_eff: complex,
                variant: str = VARIANT_IMPERFECT) -> LinearModel:
    A = build_drift(params, det, g_m_eff, variant)
    D = build_diffusion(params)
    stable, absc = is_stable(A)
    return LinearModel(A=A, D=D, stable=stable, abscissa=absc)


@dataclass(frozen=True)
class CouplingEdge:
    """Result of the stability-boundary search over |G_m|."""

    value: float | None       # critical |G_m| in rad/s; None if cap reached
    cap: float
    bracket: tuple[float, float] | None

    @property
    def stable_up_to_cap(self) -> bool:
        return self.value is None


def max_stable_coupling(params: SystemParams, det: Detunings,
                        cap: float, resolution: float,
                        variant: str = VARIANT_IMPERFECT) -> CouplingEdge:
    """Largest |G_m| keeping the drift matrix stable, by bisection.

    Raises UnstableSystemError if the system is unstable already at
    |G_m| = 0.  The phase of G_m amounts to a local rotation of the magnon
    quadratures and does not move the boundary, so G_m is taken real.
    """
    def stable_at(g: float) -> bool:
        return is_stable(build_drift(params, det, g, variant))[0]

    if not stable_at(0.0):
        raise UnstableSystemError("system is unstable already at |G_m| = 0")
    if stable_at(cap):
        return CouplingEdge(value=None, cap=cap, bracket=None)

    lo, hi = 0.0, cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    return CouplingEdge(value=0.5 * (lo + hi), cap=cap, bracket=(lo, hi))
