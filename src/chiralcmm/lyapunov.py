"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

Solved by the Bartels-Stewart method (Schur decomposition of A, Comm. ACM
15, 1972) through scipy; the test suite checks it against a dense
Kronecker-product solve and a time-integral oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linear_model import MODE_ORDER, UnstableSystemError, is_stable


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric 2n x 2n covariance matrix with mode labels."""

    V: np.ndarray
    mode_order: tuple


def solve_lyapunov(A: np.ndarray, D: np.ndarray,
                   mode_order: tuple = MODE_ORDER) -> CovMatrix:
    """Solve A V + V A^T = -D for the stationary covariance matrix V.

    Refuses unstable drift matrices (there is no steady state to report).
    The output is symmetrized and checked against the residual bound
    ||A V + V A^T + D|| <= 1e-10 (||A|| ||V|| + ||D||).
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or D.shape != (n, n):
        raise ValueError("A and D must be square and of equal size")
    stable, abscissa = is_stable(A)
    if not stable:
        raise UnstableSystemError(
            f"drift matrix is not stable (spectral abscissa {abscissa:.6g}); "
            "the system has no steady state")

    V = scipy.linalg.solve_continuous_lyapunov(A, -D)

    asym = np.linalg.norm(V - V.T) / max(np.linalg.norm(V), 1e-300)
    if asym > 1e-8:
        raise RuntimeError(f"Lyapunov solution asymmetric beyond tolerance: {asym:.3g}")
    V = 0.5 * (V + V.T)

    residual = np.linalg.norm(A @ V + V @ A.T + D)
    bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(V) + np.linalg.norm(D))
    if residual > bound:
        raise RuntimeError(
            f"Lyapunov residual {residual:.3g} exceeds bound {bound:.3g} "
            "(ill-conditioned solve)")
    return CovMatrix(V=V, mode_order=tuple(mode_order))


def extract_block(cm: CovMatrix, modes) -> CovMatrix:
    """Principal submatrix for the requested modes, in the requested order."""
    modes = tuple(modes)
    pos = {label: i for i, label in enumerate(cm.mode_order)}
    for label in modes:
        if label not in pos:
            raise KeyError(f"unknown mode label {label!r}")
    idx = np.array([k for label in modes
                    for k in (2 * pos[label], 2 * pos[label] + 1)])
    return CovMatrix(V=cm.V[np.ix_(idx, idx)], mode_order=modes)
