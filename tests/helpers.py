"""Shared constructions for the test suite: random stable systems, random
symplectic transformations, random physical covariance matrices, the
two-mode squeezed state with its known entanglement, and the Schur-method
Lyapunov oracle."""

import math

import numpy as np
import scipy.linalg

from chiralcmm.measures import symplectic_form


def random_stable_system(rng, n=8, margin=0.5):
    """Random (A, D) with A strictly Hurwitz and D symmetric PSD."""
    A = rng.normal(size=(n, n))
    absc = np.max(np.linalg.eigvals(A).real)
    A -= (absc + margin) * np.eye(n)
    B = rng.normal(size=(n, n))
    D = B @ B.T
    return A, D


def schur_lyapunov(A, D):
    """V with A V + V A^T = -D by the Bartels-Stewart (Schur) method."""
    return scipy.linalg.solve_continuous_lyapunov(A, -D)


def random_symplectic(rng, n_modes, scale=0.4):
    """exp(Omega K) with symmetric K: a random symplectic matrix."""
    from scipy.linalg import expm

    n2 = 2 * n_modes
    K = rng.normal(size=(n2, n2), scale=scale)
    K = 0.5 * (K + K.T)
    return expm(symplectic_form(n_modes) @ K)


def random_physical_cm(rng, n_modes, max_thermal=1.5):
    """S diag(nu) S^T with nu >= 1/2: a valid covariance matrix."""
    S = random_symplectic(rng, n_modes)
    nu = 0.5 + max_thermal * rng.uniform(size=n_modes)
    return S @ np.diag(np.repeat(nu, 2)) @ S.T


def two_mode_squeezed_cm(r, n_th=0.0):
    """Covariance matrix of a (thermal) two-mode squeezed state.

    Anticorrelated X / correlated Y quadratures, the orientation the
    teleportation combination sz V_ef picks out.  With n_th = 0 this is the
    pure two-mode squeezed vacuum, for which E_N = 2r under the vacuum-1/2
    convention.
    """
    c = (n_th + 0.5) * math.cosh(2.0 * r)
    s = -(n_th + 0.5) * math.sinh(2.0 * r)
    Z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])
