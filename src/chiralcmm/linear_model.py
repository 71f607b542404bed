"""Drift and diffusion matrices of the linearized quadrature dynamics.

The fluctuation vector is ordered
    [X_a_cw, Y_a_cw, X_a_ccw, Y_a_ccw, X_m, Y_m, q, p]
with X = (a + a^dag)/sqrt(2), Y = i(a^dag - a)/sqrt(2) and vacuum variance
1/2 per quadrature.  The drift matrix carries the backscattering coupling
J between the circulating modes and the residual coupling g_ccw; the
strictly chiral configuration is its J = 0, g_ccw = 0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Detunings, NumericalCondition, SystemParams
from .steady_state import target_detunings

MODE_ORDER = ("a_cw", "a_ccw", "m", "b")
QUAD_LABELS = ("X_a_cw", "Y_a_cw", "X_a_ccw", "Y_a_ccw", "X_m", "Y_m", "q", "p")

#: rows/columns of each mode's quadrature pair in the 8x8 matrices
MODE_SLOTS = {label: (2 * i, 2 * i + 1) for i, label in enumerate(MODE_ORDER)}

# eigenvalue real parts above -STABILITY_MARGIN * ||A|| count as non-negative
STABILITY_MARGIN = 1e-9


class UnstableSystemError(NumericalCondition, RuntimeError):
    """No stationary state exists: the drift matrix is not Hurwitz."""


class LyapunovError(NumericalCondition, RuntimeError):
    """A failed eigenvalue solve of the gate, or a refused Lyapunov solution."""


@dataclass(frozen=True)
class LinearModel:
    """Drift matrix A, diffusion matrix D, and the stability verdict (stacks
    of them, one entry per point, for stacked parameters)."""

    A: np.ndarray
    D: np.ndarray
    stable: bool = False
    abscissa: float = np.nan


def build_drift(params: SystemParams, det: Detunings,
                g_m_eff: complex) -> np.ndarray:
    """Assemble the 8x8 drift matrix, or an (n, 8, 8) stack of them for
    stacked parameters.

    ``g_m_eff`` is the complex effective magnomechanical coupling G_m; its
    real and imaginary parts enter the magnon-mechanics block separately.
    With J = 0 and g_ccw = 0 the CCW coupling block is exactly zero.
    """
    values = np.broadcast_arrays(
        params.kappa_a, params.kappa_m, params.gamma_b, det.delta_a,
        det.delta_m_eff, params.omega_b, params.g_cw, params.g_ccw, params.J,
        np.real(g_m_eff), np.imag(g_m_eff))
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError("drift matrix inputs must be finite")
    ka, km, gb, da, dme, wb, gr, gl, J, gre, gim = values
    zero = np.zeros_like(ka)

    A = np.array([
        [-ka,  da,   zero, J,    zero, gr,   zero, zero],
        [-da, -ka,  -J,    zero, -gr,  zero, zero, zero],
        [zero, J,   -ka,   da,   zero, gl,   zero, zero],
        [-J,   zero, -da, -ka,  -gl,   zero, zero, zero],
        [zero, gr,   zero, gl,  -km,   dme,  gim,  zero],
        [-gr,  zero, -gl,  zero, -dme, -km,  -gre, zero],
        [zero, zero, zero, zero, zero, zero, zero, wb],
        [zero, zero, zero, zero, -gre, -gim, -wb,  -gb],
    ])
    return np.ascontiguousarray(np.moveaxis(A, (0, 1), (-2, -1)))


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix of the input noises (a stack of them for
    stacked parameters).

    diag[kappa_a(2N_a+1) x4, kappa_m(2N_m+1) x2, 0, gamma_b(2N_b+1)];
    the q row carries no noise because the Brownian force drives p only.
    """
    n_a, n_m, n_b = params.occupancies()
    ca = params.kappa_a * (2 * n_a + 1)
    cm = params.kappa_m * (2 * n_m + 1)
    cb = params.gamma_b * (2 * n_b + 1)
    diag = np.stack(np.broadcast_arrays(ca, ca, ca, ca, cm, cm, 0.0, cb), axis=-1)
    return diag[..., None] * np.eye(8)


def is_stable(A: np.ndarray) -> tuple[bool, float]:
    """Routh-Hurwitz verdict from the spectral abscissa of A.

    Returns (stable, abscissa), or arrays of both for an (n, 8, 8) stack.
    The threshold scales with ||A||_2 so that marginal numerical zeros in a
    matrix mixing rates across six decades are not misclassified.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("is_stable requires a finite matrix")
    stack = A.reshape((-1,) + A.shape[-2:])
    try:
        eig = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise LyapunovError(f"eigenvalue solver failed: {exc}") from exc
    abscissa = eig.real.max(axis=-1)
    # ||A||_2 <= ||A||_F, so the 2-norm (an SVD) can only change the verdict
    # where the abscissa lies in [-2 margin ||A||_F, 0); elsewhere the sign
    # and the Frobenius bound decide it alike
    frobenius = np.linalg.norm(stack, axis=(-2, -1))
    stable = abscissa < -2 * STABILITY_MARGIN * frobenius
    near = ~stable & (abscissa < 0)
    if np.any(near):
        two_norm = np.linalg.norm(stack[near], 2, axis=(-2, -1))
        stable[near] = abscissa[near] < -STABILITY_MARGIN * two_norm
    if A.ndim == 2:
        return bool(stable[0]), float(abscissa[0])
    return stable, abscissa


def build_model(params: SystemParams, det: Detunings,
                g_m_eff: complex) -> LinearModel:
    """Drift, diffusion and stability verdict at one point, or stacks of
    them for stacked parameters."""
    A = build_drift(params, det, g_m_eff)
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


def check_bisection(cap: float, resolution: float) -> None:
    """Reject a |G_m| search whose bisection could not end or has no range."""
    for name, value in (("cap", cap), ("resolution", resolution)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r} rad/s")


def bisect_edge(passes, cap: float, resolution: float):
    """Bracket (lo, hi) of the |G_m| where ``passes`` stops holding, or None
    if it still holds at the cap.

    Probes the cap first, then halves [0, cap] until the bracket is no wider
    than ``resolution``; ``passes`` must hold at lo and fail at hi.  Callers
    check the arguments with :func:`check_bisection` first.
    """
    if passes(cap):
        return None
    lo, hi = 0.0, cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def max_stable_coupling(params: SystemParams, det: Detunings,
                        cap: float, resolution: float) -> CouplingEdge:
    """Largest |G_m| keeping the drift matrix stable, by bisection.

    Raises UnstableSystemError if the system is unstable already at
    |G_m| = 0.  The phase of G_m amounts to a local rotation of the magnon
    quadratures and does not move the boundary, so G_m is taken real.  In
    the physical detuning mode ``det`` holds the bare detunings and each
    |G_m| is probed at the dispersive shift it implies
    (:func:`target_detunings`).
    """
    check_bisection(cap, resolution)

    def stable_at(g: float) -> bool:
        return is_stable(build_drift(params, target_detunings(params, det, g),
                                     g))[0]

    if not stable_at(0.0):
        raise UnstableSystemError("system is unstable already at |G_m| = 0")
    bracket = bisect_edge(stable_at, cap, resolution)
    if bracket is None:
        return CouplingEdge(value=None, cap=cap, bracket=None)
    lo, hi = bracket
    return CouplingEdge(value=0.5 * (lo + hi), cap=cap, bracket=bracket)
