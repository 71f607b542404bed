"""Gaussian entanglement quantifiers and the teleportation figure of merit.

Conventions: quadrature ordering (X1, Y1, X2, Y2, ...), vacuum variance 1/2,
natural logarithms throughout.  Bipartite entanglement is the logarithmic
negativity E_N = max[0, -ln(2*eta_minus)] with eta_minus the smallest
symplectic eigenvalue of the partially transposed two-mode covariance
matrix; genuine tripartite entanglement is the minimum residual contangle
built from squared logarithmic negativities.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import CovMatrix

log = logging.getLogger(__name__)

# roundoff inside analytic square roots: clip, don't fail, beyond -CLIP_TOL
CLIP_TOL = 1e-12


class InvalidCovarianceError(ValueError):
    """The matrix is not a physically valid covariance matrix."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] blocks in (X, Y) ordering."""
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), omega2)


def symplectic_eigenvalues(V: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Symplectic spectrum of a symmetric 2n x 2n matrix, sorted ascending.

    The eigenvalues of Omega V come in pairs +-i*nu; the returned values are
    the n distinct |nu|.  A spectrum that does not pair up within ``tol``
    (relative to its largest value) is rejected as an invalid input.
    """
    V = np.asarray(V, dtype=float)
    n2 = V.shape[0]
    if V.shape != (n2, n2) or n2 % 2:
        raise InvalidCovarianceError("covariance matrix must be 2n x 2n")
    if np.linalg.norm(V - V.T) > tol * max(np.linalg.norm(V), 1e-300):
        raise InvalidCovarianceError("covariance matrix must be symmetric")
    n = n2 // 2
    ev = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ V)))
    pairs = ev.reshape(n, 2)
    scale = max(ev[-1], 1e-300)
    if np.any(np.abs(pairs[:, 1] - pairs[:, 0]) > tol * scale):
        raise InvalidCovarianceError(
            f"symplectic spectrum does not pair up: {ev}")
    return pairs.mean(axis=1)


def is_physical(V: np.ndarray, slack: float = 1e-9) -> bool:
    """Heisenberg check: every symplectic eigenvalue >= 1/2 - slack."""
    return bool(np.all(symplectic_eigenvalues(V) >= 0.5 - slack))


def partial_transpose(V: np.ndarray, modes) -> np.ndarray:
    """Momentum-sign flip on the listed modes (0-based indices)."""
    V = np.asarray(V, dtype=float)
    signs = np.ones(V.shape[0])
    for k in modes:
        signs[2 * k + 1] = -1.0
    P = np.diag(signs)
    return P @ V @ P


def _two_mode_dets(V4: np.ndarray):
    Ve = V4[:2, :2]
    Vf = V4[2:, 2:]
    Vef = V4[:2, 2:]
    return np.linalg.det(Ve), np.linalg.det(Vf), np.linalg.det(Vef)


def log_negativity(V4: np.ndarray | CovMatrix) -> float:
    """Logarithmic negativity of a two-mode Gaussian state.

    Uses the closed form
        eta_minus = 2^{-1/2} [Sigma - (Sigma^2 - 4 det V4)^{1/2}]^{1/2},
        Sigma = det V_e + det V_f - 2 det V_ef,
    and E_N = max[0, -ln(2*eta_minus)].  Symmetric under swapping the two
    modes; zero for separable states.
    """
    V4 = V4.V if isinstance(V4, CovMatrix) else np.asarray(V4, dtype=float)
    if V4.shape != (4, 4):
        raise InvalidCovarianceError("log_negativity expects a 4x4 matrix")
    de, df, dc = _two_mode_dets(V4)
    sigma = de + df - 2.0 * dc
    disc = sigma * sigma - 4.0 * np.linalg.det(V4)
    scale = max(abs(sigma * sigma), 1.0)
    if disc < -CLIP_TOL * scale:
        raise InvalidCovarianceError(
            f"negative discriminant {disc:.3g}: not a valid two-mode CM")
    inner = sigma - math.sqrt(max(disc, 0.0))
    if inner < -CLIP_TOL * max(abs(sigma), 1.0):
        raise InvalidCovarianceError("invalid two-mode CM (eta^2 < 0)")
    eta_minus = math.sqrt(max(inner, 0.0) / 2.0)
    if eta_minus <= 0.0:
        raise InvalidCovarianceError("degenerate two-mode CM (eta_minus = 0)")
    return max(0.0, -math.log(2.0 * eta_minus))


def one_vs_two_log_negativity(V6: np.ndarray | CovMatrix, single: int | str) -> float:
    """Logarithmic negativity across the 1|2 bipartition of a three-mode CM.

    Partial transposition flips the momentum of the ``single`` mode; the
    entanglement is -ln(2*nu_min) from the smallest symplectic eigenvalue of
    the transposed matrix.  If more than one eigenvalue drops below 1/2 the
    convention (smallest only) is logged, since the measure is then only a
    lower bound.
    """
    if isinstance(V6, CovMatrix):
        if isinstance(single, str):
            single = V6.mode_order.index(single)
        V6 = V6.V
    V6 = np.asarray(V6, dtype=float)
    if V6.shape != (6, 6):
        raise InvalidCovarianceError("one_vs_two expects a 6x6 matrix")
    nu = symplectic_eigenvalues(partial_transpose(V6, [single]))
    below = int(np.sum(nu < 0.5 - CLIP_TOL))
    if below > 1:
        log.info("partial transpose has %d symplectic eigenvalues below 1/2; "
                 "using the smallest only", below)
    return max(0.0, -math.log(2.0 * float(nu[0])))


@dataclass(frozen=True)
class ContangleReport:
    """Residual-contangle breakdown of a three-mode Gaussian state."""

    r_min: float
    residuals: dict          # focus mode index -> residual C_{i|jk}-C_{i|j}-C_{i|k}
    one_vs_two: dict         # focus mode index -> squared E across 1|2 split
    pairwise: dict           # (i, j) -> squared pairwise E_N
    monogamy_violations: tuple


def residual_contangle_min(V6: np.ndarray | CovMatrix,
                           violation_tol: float = 1e-9) -> ContangleReport:
    """Minimum residual contangle of a three-mode Gaussian state.

    The contangle of a split is the squared logarithmic negativity; the
    residual for focus mode i is C_{i|jk} - C_{i|j} - C_{i|k} and the
    reported measure is the minimum over the three focus choices, floored
    at zero.  Monogamy violations beyond ``violation_tol`` are reported as
    diagnostics rather than raised.
    """
    labels = V6.mode_order if isinstance(V6, CovMatrix) else (0, 1, 2)
    V6 = V6.V if isinstance(V6, CovMatrix) else np.asarray(V6, dtype=float)
    if V6.shape != (6, 6):
        raise InvalidCovarianceError("residual contangle expects a 6x6 matrix")

    def pair_cm(i, j):
        idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        return V6[np.ix_(idx, idx)]

    one_vs_two = {i: one_vs_two_log_negativity(V6, i) ** 2 for i in range(3)}
    pairwise = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # E_N is symmetric under swapping the two modes
        pairwise[(i, j)] = pairwise[(j, i)] = log_negativity(pair_cm(i, j)) ** 2

    residuals = {}
    violations = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        res = one_vs_two[i] - pairwise[(i, j)] - pairwise[(i, k)]
        residuals[i] = res
        if res < -violation_tol:
            violations.append((labels[i], res))
    r_min = max(0.0, min(residuals.values()))
    return ContangleReport(r_min=r_min, residuals=residuals,
                           one_vs_two=one_vs_two, pairwise=pairwise,
                           monogamy_violations=tuple(violations))


#: coherent-state covariance matrix, the default teleportation input
COHERENT_INPUT = 0.5 * np.eye(2)


def teleportation_fidelity(V_pair: np.ndarray | CovMatrix,
                           V_in: np.ndarray | None = None) -> float:
    """Fidelity of teleporting a single-mode Gaussian state over ``V_pair``.

    F = 1/sqrt(det V) with
    V = 2 V_in + sz V_e sz + sz V_ef + V_ef^T sz + V_f, sz = diag(1, -1),
    where mode e of the resource is measured together with the input and
    mode f receives the state.  A vacuum resource with a coherent input
    gives the classical boundary F = 1/2.
    """
    V4 = V_pair.V if isinstance(V_pair, CovMatrix) else np.asarray(V_pair, dtype=float)
    if V4.shape != (4, 4):
        raise InvalidCovarianceError("teleportation resource must be a 4x4 CM")
    V_in = COHERENT_INPUT if V_in is None else np.asarray(V_in, dtype=float)
    sz = np.diag([1.0, -1.0])
    Ve, Vf, Vef = V4[:2, :2], V4[2:, 2:], V4[:2, 2:]
    V = 2.0 * V_in + sz @ Ve @ sz.T + sz @ Vef + Vef.T @ sz.T + Vf
    det = float(np.linalg.det(V))
    if det <= 0.0:
        raise InvalidCovarianceError(f"teleportation output CM has det {det:.3g} <= 0")
    return 1.0 / math.sqrt(det)

