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

from .params import Detunings, NumericalCondition, SystemParams, require, solves
from .steady_state import target_detunings

MODE_ORDER = ("a_cw", "a_ccw", "m", "b")
QUAD_LABELS = ("X_a_cw", "Y_a_cw", "X_a_ccw", "Y_a_ccw", "X_m", "Y_m", "q", "p")

#: rows/columns of each mode's quadrature pair in the 8x8 matrices
MODE_SLOTS = {label: (2 * i, 2 * i + 1) for i, label in enumerate(MODE_ORDER)}

# eigenvalue real parts above -STABILITY_MARGIN * ||A|| count as non-negative
STABILITY_MARGIN = 1e-9

#: |G_m| points of the stacked scan that brackets the stability edge
EDGE_SCAN = 33


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
    eig, ok = solves(np.linalg.eigvals, stack)
    require(ok, LyapunovError, "eigenvalue solver failed")
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


def check_bisection(**bounds: float) -> None:
    """Reject a |G_m| search whose ``cap`` (no range) or bisection
    ``resolution`` (no end) is not finite and positive."""
    for name, value in bounds.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r} rad/s")


def bisect_edge(passes, lo: float, hi: float, resolution: float = 0.0):
    """Halve the bracket (lo, hi), where ``passes`` holds at lo and fails at
    hi, until it is no wider than ``resolution`` or its ends are adjacent."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def max_stable_coupling(params: SystemParams, det: Detunings,
                        cap: float) -> float | None:
    """The last stable |G_m| before the drift matrix first loses stability
    in [0, cap], or None if every point of the scan is stable.

    A stacked :func:`is_stable` scan of EDGE_SCAN points of [0, cap]
    brackets the first edge, and bisection narrows it to adjacent floats,
    so the edge does not depend on the cap.  Raises UnstableSystemError if
    the system is unstable at |G_m| = 0.  G_m is taken real: its phase is a
    local rotation of the magnon quadratures and does not move the
    boundary.  In the physical detuning mode ``det`` holds the bare
    detunings and each |G_m| is probed at the dispersive shift it implies
    (:func:`target_detunings`).
    """
    check_bisection(cap=cap)

    def stable_at(g):
        return is_stable(build_drift(params, target_detunings(params, det, g),
                                     g))[0]

    scan = np.linspace(0.0, cap, EDGE_SCAN)
    stable = stable_at(scan)
    if not stable[0]:
        raise UnstableSystemError("system is unstable already at |G_m| = 0")
    if stable.all():
        return None
    first = int(np.argmin(stable))
    return bisect_edge(stable_at, *scan[first - 1:first + 1].tolist())[0]
