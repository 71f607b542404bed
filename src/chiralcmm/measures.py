"""Gaussian entanglement quantifiers and the teleportation figure of merit.

Conventions: quadrature ordering (X1, Y1, X2, Y2, ...), vacuum variance 1/2,
natural logarithms throughout.  Bipartite entanglement is the logarithmic
negativity E_N = max[0, -ln(2*eta_minus)] with eta_minus the smallest
symplectic eigenvalue of the partially transposed two-mode covariance
matrix; genuine tripartite entanglement is the minimum residual contangle
built from squared logarithmic negativities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import CovMatrix

# roundoff inside analytic square roots: clip, don't fail, beyond -CLIP_TOL
CLIP_TOL = 1e-12


class InvalidCovarianceError(ValueError):
    """The matrix is not a physically valid covariance matrix."""


def _matrices(V, size: int, what: str) -> np.ndarray:
    """V (a CovMatrix or an array) as a float array of one matrix or a stack,
    refused unless its matrices are ``size`` x ``size``."""
    V = V.V if isinstance(V, CovMatrix) else np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or V.shape[-2:] != (size, size):
        raise InvalidCovarianceError(what)
    return V


def _floor_at_zero(x: np.ndarray) -> np.ndarray:
    """max(0, x) pointwise, with +0.0 (never -0.0) where x <= 0."""
    return np.where(x > 0.0, x, 0.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] blocks in (X, Y) ordering."""
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), omega2)


def symplectic_eigenvalues(V: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Symplectic spectrum of a symmetric 2n x 2n matrix, sorted ascending
    (one row per matrix of a (points, 2n, 2n) stack).

    The eigenvalues of Omega V come in pairs +-i*nu; the returned values are
    the n distinct |nu|.  A spectrum that does not pair up within ``tol``
    (relative to its largest value) is rejected as an invalid input.
    """
    V = np.asarray(V, dtype=float)
    n2 = V.shape[-1]
    if V.ndim not in (2, 3) or V.shape[-2] != n2 or n2 % 2:
        raise InvalidCovarianceError("covariance matrix must be 2n x 2n")
    norm = np.maximum(np.linalg.norm(V, axis=(-2, -1)), 1e-300)
    if np.any(np.linalg.norm(V - V.swapaxes(-2, -1), axis=(-2, -1)) > tol * norm):
        raise InvalidCovarianceError("covariance matrix must be symmetric")
    n = n2 // 2
    # Omega V exactly: row 2k is row 2k+1 of V, row 2k+1 is minus row 2k
    swap = np.arange(n2) ^ 1
    sign = np.where(np.arange(n2) % 2, -1.0, 1.0)[:, None]
    ev = np.sort(np.abs(np.linalg.eigvals(sign * V[..., swap, :])), axis=-1)
    pairs = ev.reshape(ev.shape[:-1] + (n, 2))
    scale = np.maximum(ev[..., -1:], 1e-300)
    unpaired = np.any(np.abs(pairs[..., 1] - pairs[..., 0]) > tol * scale, axis=-1)
    if np.any(unpaired):
        bad = ev if ev.ndim == 1 else ev[unpaired][0]
        raise InvalidCovarianceError(
            f"symplectic spectrum does not pair up: {bad}")
    return pairs.mean(axis=-1)


def is_physical(V: np.ndarray, slack: float = 1e-9):
    """Heisenberg check: every symplectic eigenvalue >= 1/2 - slack (one
    verdict per matrix of a stack)."""
    ok = np.all(symplectic_eigenvalues(V) >= 0.5 - slack, axis=-1)
    return bool(ok) if np.ndim(ok) == 0 else ok


def partial_transpose(V: np.ndarray, modes) -> np.ndarray:
    """Momentum-sign flip on the listed modes (0-based indices)."""
    V = np.asarray(V, dtype=float)
    signs = np.ones(V.shape[-1])
    for k in modes:
        signs[2 * k + 1] = -1.0
    return signs[:, None] * V * signs


def log_negativity(V4: np.ndarray | CovMatrix):
    """Logarithmic negativity of a two-mode Gaussian state (one value per
    matrix of a (points, 4, 4) stack).

    Uses the closed form
        eta_minus = 2^{-1/2} [Sigma - (Sigma^2 - 4 det V4)^{1/2}]^{1/2},
        Sigma = det V_e + det V_f - 2 det V_ef,
    and E_N = max[0, -ln(2*eta_minus)].  Symmetric under swapping the two
    modes; zero for separable states.
    """
    V4 = _matrices(V4, 4, "log_negativity expects a 4x4 matrix")
    de, df, dc = (np.linalg.det(V4[..., :2, :2]), np.linalg.det(V4[..., 2:, 2:]),
                  np.linalg.det(V4[..., :2, 2:]))
    sigma = de + df - 2.0 * dc
    disc = sigma * sigma - 4.0 * np.linalg.det(V4)
    scale = np.maximum(np.abs(sigma * sigma), 1.0)
    bad = disc < -CLIP_TOL * scale
    if np.any(bad):
        worst = np.atleast_1d(disc)[np.atleast_1d(bad)][0]
        raise InvalidCovarianceError(
            f"negative discriminant {worst:.3g}: not a valid two-mode CM")
    inner = sigma - np.sqrt(np.maximum(disc, 0.0))
    if np.any(inner < -CLIP_TOL * np.maximum(np.abs(sigma), 1.0)):
        raise InvalidCovarianceError("invalid two-mode CM (eta^2 < 0)")
    eta_minus = np.sqrt(np.maximum(inner, 0.0) / 2.0)
    if np.any(eta_minus <= 0.0):
        raise InvalidCovarianceError("degenerate two-mode CM (eta_minus = 0)")
    e_n = _floor_at_zero(-np.log(2.0 * eta_minus))
    return float(e_n) if e_n.ndim == 0 else e_n


def _one_vs_two(V6: np.ndarray, single: int):
    """E across the 1|2 split and the number of symplectic eigenvalues of the
    partial transpose below 1/2, per matrix."""
    nu = symplectic_eigenvalues(partial_transpose(V6, [single]))
    below = np.sum(nu < 0.5 - CLIP_TOL, axis=-1)
    return _floor_at_zero(-np.log(2.0 * nu[..., 0])), below


def one_vs_two_log_negativity(V6: np.ndarray | CovMatrix, single: int | str):
    """Logarithmic negativity across the 1|2 bipartition of a three-mode CM
    (one value per matrix of a stack).

    Partial transposition flips the momentum of the ``single`` mode; the
    entanglement is -ln(2*nu_min) from the smallest symplectic eigenvalue of
    the transposed matrix.  If more than one eigenvalue drops below 1/2 the
    measure is only a lower bound; :func:`residual_contangle_min` reports
    how often that happens.
    """
    if isinstance(V6, CovMatrix) and isinstance(single, str):
        single = V6.mode_order.index(single)
    V6 = _matrices(V6, 6, "one_vs_two expects a 6x6 matrix")
    e = _one_vs_two(V6, single)[0]
    return float(e) if e.ndim == 0 else e


@dataclass(frozen=True)
class ContangleReport:
    """Residual-contangle breakdown of a three-mode Gaussian state.

    For a (points, 6, 6) stack every number is an array over the points and
    ``monogamy_violations`` holds one tuple per point.
    """

    r_min: float
    residuals: dict          # focus mode index -> residual C_{i|jk}-C_{i|j}-C_{i|k}
    one_vs_two: dict         # focus mode index -> squared E across 1|2 split
    pairwise: dict           # (i, j) -> squared pairwise E_N
    monogamy_violations: tuple
    # focus mode index -> symplectic eigenvalues below 1/2 of the 1|2
    # partial transpose; above 1, the 1|2 value is a lower bound
    below_half: dict


def residual_contangle_min(V6: np.ndarray | CovMatrix,
                           violation_tol: float = 1e-9) -> ContangleReport:
    """Minimum residual contangle of a three-mode Gaussian state (or of each
    state of a stack).

    The contangle of a split is the squared logarithmic negativity; the
    residual for focus mode i is C_{i|jk} - C_{i|j} - C_{i|k} and the
    reported measure is the minimum over the three focus choices, floored
    at zero.  Monogamy violations beyond ``violation_tol`` are reported as
    diagnostics rather than raised.
    """
    labels = V6.mode_order if isinstance(V6, CovMatrix) else (0, 1, 2)
    V6 = _matrices(V6, 6, "residual contangle expects a 6x6 matrix")
    stack = V6.reshape(-1, 6, 6)

    def pair_cm(i, j):
        idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
        return stack[:, idx[:, None], idx]

    one_vs_two, below_half = {}, {}
    for i in range(3):
        e, below_half[i] = _one_vs_two(stack, i)
        one_vs_two[i] = e ** 2
    pairwise = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # E_N is symmetric under swapping the two modes
        pairwise[(i, j)] = pairwise[(j, i)] = log_negativity(pair_cm(i, j)) ** 2

    residuals = {}
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        residuals[i] = one_vs_two[i] - pairwise[(i, j)] - pairwise[(i, k)]
    r_min = _floor_at_zero(np.minimum.reduce([residuals[i] for i in range(3)]))
    violations = tuple(
        tuple((labels[i], float(residuals[i][p])) for i in range(3)
              if residuals[i][p] < -violation_tol)
        for p in range(len(stack)))
    if V6.ndim == 3:
        return ContangleReport(r_min=r_min, residuals=residuals,
                               one_vs_two=one_vs_two, pairwise=pairwise,
                               monogamy_violations=violations,
                               below_half=below_half)

    def first(table):
        return {key: value[0].item() for key, value in table.items()}

    return ContangleReport(r_min=float(r_min[0]), residuals=first(residuals),
                           one_vs_two=first(one_vs_two),
                           pairwise=first(pairwise),
                           monogamy_violations=violations[0],
                           below_half=first(below_half))


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

