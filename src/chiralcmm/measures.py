"""Gaussian entanglement quantifiers and the teleportation figure of merit.

Conventions: quadrature ordering (X1, Y1, X2, Y2, ...), vacuum variance 1/2,
natural logarithms throughout.  Bipartite entanglement is the logarithmic
negativity E_N = max[0, -ln(2*eta_minus)] with eta_minus the smallest
symplectic eigenvalue of the partially transposed two-mode covariance
matrix; genuine tripartite entanglement is the minimum residual contangle
built from squared logarithmic negativities.

Every measure takes a plain array: one matrix, or a stack of them whose
leading axes the result keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import NumericalCondition, require, solves

# relative roundoff: analytic square roots clip, and don't fail, down to
# -CLIP_TOL; the Heisenberg check allows -CLIP_TOL * ||V||, and a pair (E_N)
# or a 1|2 split reads entangled below 1/2 - CLIP_TOL * ||V||, as the
# roundoff of a symplectic eigenvalue scales with ||V||
CLIP_TOL = 1e-12

# a matrix whose asymmetric part exceeds SYMMETRY_TOL of its norm is not a
# covariance matrix
SYMMETRY_TOL = 1e-8

# Heisenberg check: symplectic eigenvalues down to 1/2 - PHYSICAL_SLACK pass
PHYSICAL_SLACK = 1e-9

# residuals below -VIOLATION_TOL count as monogamy violations
VIOLATION_TOL = 1e-9


class InvalidCovarianceError(NumericalCondition, ValueError):
    """The matrix is not a physically valid covariance matrix."""


def _matrices(V, size: int, what: str) -> np.ndarray:
    """V as a float array of one matrix or a stack; a ValueError (a
    programming error, not a NumericalCondition) unless its matrices are
    ``size`` x ``size``, and an InvalidCovarianceError unless finite."""
    V = np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or V.shape[-2:] != (size, size):
        raise ValueError(what)
    require(np.isfinite(V).all(axis=(-2, -1)), InvalidCovarianceError,
            "covariance matrix must be finite")
    return V


def _floor_at_zero(x: np.ndarray) -> np.ndarray:
    """max(0, x) pointwise, with +0.0 (never -0.0) where x <= 0."""
    return np.where(x > 0.0, x, 0.0)


def _symmetric(V: np.ndarray) -> np.ndarray:
    """V as a float array of one symmetric 2n x 2n matrix or a stack of
    them: a wrong shape is a ValueError, an asymmetric matrix an
    InvalidCovarianceError."""
    V = np.asarray(V, dtype=float)
    n2 = V.shape[-1]
    if V.ndim not in (2, 3) or V.shape[-2] != n2 or n2 % 2:
        raise ValueError("covariance matrix must be 2n x 2n")
    # a non-finite matrix is the caller's to judge: inf - inf would warn
    W = np.where(np.isfinite(V).all(axis=(-2, -1))[..., None, None], V, 0.0)
    norm = np.maximum(np.linalg.norm(W, axis=(-2, -1)), 1e-300)
    require(np.linalg.norm(W - W.swapaxes(-2, -1), axis=(-2, -1))
            <= SYMMETRY_TOL * norm, InvalidCovarianceError,
            "covariance matrix must be symmetric")
    return V


def _omega_times(M: np.ndarray) -> np.ndarray:
    """Omega M exactly, Omega the symplectic form of the quadrature ordering:
    row 2k is row 2k+1 of M, row 2k+1 is minus row 2k."""
    n2 = M.shape[-2]
    sign = np.where(np.arange(n2) % 2, -1.0, 1.0)[:, None]
    return sign * M[..., np.arange(n2) ^ 1, :]


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive definite 2n x 2n matrix,
    sorted ascending (one row per matrix of a (points, 2n, 2n) stack).

    With V = L L^T (Cholesky), the Hermitian i L^T Omega L has the
    eigenvalues +-nu; the returned values are its n positive ones.  A matrix
    that is not finite or not positive definite is refused as an invalid
    input.
    """
    V = _symmetric(V)
    require(np.isfinite(V).all(axis=(-2, -1)), InvalidCovarianceError,
            "covariance matrix must be finite")
    L, ok = solves(np.linalg.cholesky, V)
    require(ok, InvalidCovarianceError,
            "covariance matrix must be positive definite")
    n = V.shape[-1] // 2
    M = L.swapaxes(-2, -1) @ _omega_times(L)
    return np.linalg.eigvalsh(1j * M)[..., n:]


def is_physical(V: np.ndarray):
    """Heisenberg check: V + i(1/2 - PHYSICAL_SLACK) Omega >= 0, that is
    (Williamson) every symplectic eigenvalue >= 1/2 - PHYSICAL_SLACK and V
    positive definite.  One LAPACK Cholesky of that matrix plus the roundoff
    CLIP_TOL ||V||_F I per stack (:func:`params.solves`), one verdict per
    matrix: its smallest eigenvalue may fall to -CLIP_TOL ||V||_F.  A
    non-finite matrix fails; it is factored as I, as LAPACK need not fail NaN."""
    V = _symmetric(V)
    finite = np.isfinite(V).all(axis=(-2, -1))
    eye = np.eye(V.shape[-1])
    V = np.where(finite[..., None, None], V, eye)
    shift = CLIP_TOL * np.linalg.norm(V, axis=(-2, -1))[..., None, None]
    _, ok = solves(np.linalg.cholesky, V + shift * eye
                   + 1j * (0.5 - PHYSICAL_SLACK) * _omega_times(eye))
    ok &= finite
    return bool(ok) if np.ndim(ok) == 0 else ok


def partial_transpose(V: np.ndarray, modes) -> np.ndarray:
    """Momentum-sign flip on the listed modes (0-based indices)."""
    V = np.asarray(V, dtype=float)
    signs = np.ones(V.shape[-1])
    for k in modes:
        signs[2 * k + 1] = -1.0
    return signs[:, None] * V * signs


def _det2(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def log_negativity(V4: np.ndarray):
    """Logarithmic negativity of a two-mode Gaussian state (one value per
    matrix of a (points, 4, 4) stack).

    Uses the closed form
        eta_minus = 2^{-1/2} [Sigma - (Sigma^2 - 4 det V4)^{1/2}]^{1/2},
        Sigma = det V_e + det V_f - 2 det V_ef,
    and E_N = -ln(2*eta_minus).  Symmetric under swapping the two modes.
    E_N is zero unless eta_minus falls below 1/2 by more than
    CLIP_TOL ||V4||_F: roundoff about 1/2, which scales with ||V4||, is no
    entanglement (a squeezed product state).

    Both differences of the closed form cancel in floating point: the
    discriminant at product states with nearly equal local determinants,
    and Sigma minus its root where eta_minus is near 1/2 and V4 is large
    (hot modes).  So the discriminant comes from a sum of terms that vanish
    at product states, and eta_minus^2 from
    2 det V4 / (Sigma + (Sigma^2 - 4 det V4)^{1/2}).
    """
    V4 = _matrices(V4, 4, "log_negativity expects a 4x4 matrix")
    Ve, Vf, Vef = V4[..., :2, :2], V4[..., 2:, 2:], V4[..., :2, 2:]
    de, df, dc = _det2(Ve), _det2(Vf), _det2(Vef)
    sigma = de + df - 2.0 * dc
    # Sigma^2 - 4 det V4, from
    # det V4 = de df + dc^2 - tr(Ve W Vef W Vf W Vef^T W), W = [[0, 1], [-1, 0]],
    # where W Vef W = -P, P = adj(Vef)^T
    P = Vef[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    chain = Ve @ P @ Vf @ P.swapaxes(-2, -1)
    disc = ((de - df) ** 2 - 4.0 * dc * (de + df)
            + 4.0 * np.trace(chain, axis1=-2, axis2=-1))
    scale = np.maximum(np.abs(sigma * sigma), 1.0)
    require(~(disc < -CLIP_TOL * scale), InvalidCovarianceError, lambda i:
            f"negative discriminant {np.ravel(disc)[i]:.3g}: "
            "not a valid two-mode CM")
    plus = sigma + np.sqrt(np.maximum(disc, 0.0))
    det_v = np.linalg.det(V4)
    require(~((plus <= 0.0) | (det_v <= 0.0)
              | np.any(np.diagonal(V4, axis1=-2, axis2=-1) <= 0.0, axis=-1)),
            InvalidCovarianceError,
            "invalid two-mode CM (eta_minus^2 <= 0 or a variance <= 0)")
    two_eta_sq = 8.0 * det_v / plus
    floor = 1.0 - 2.0 * CLIP_TOL * np.linalg.norm(V4, axis=(-2, -1))
    e_n = np.where(two_eta_sq < np.maximum(floor, 0.0) ** 2,
                   -0.5 * np.log(two_eta_sq), 0.0)
    return float(e_n) if e_n.ndim == 0 else e_n


def _one_vs_two(V6: np.ndarray, single: int) -> np.ndarray:
    """E across the 1|2 split, per matrix: -ln 2 nu_1 with nu_1 the smallest
    symplectic eigenvalue of the partial transpose, zero unless nu_1 falls
    below 1/2 by more than CLIP_TOL ||V6||_F: roundoff about 1/2, which
    scales with ||V6|| as in :func:`is_physical`, is no entanglement."""
    nu = symplectic_eigenvalues(partial_transpose(V6, [single]))[..., 0]
    floor = 0.5 - CLIP_TOL * np.linalg.norm(V6, axis=(-2, -1))
    return np.where(nu < floor, -np.log(2.0 * nu), 0.0)


@dataclass(frozen=True)
class ContangleReport:
    """Residual contangle of a three-mode Gaussian state, or of each state
    of a stack, whose leading shape ``...`` every field keeps."""

    r_min: np.ndarray        # (...): min over focus modes, floored at zero
    # (..., 3): C_{i|jk} - C_{i|j} - C_{i|k} for focus mode i, signed; a
    # value below -VIOLATION_TOL is a monogamy violation
    residuals: np.ndarray


def residual_contangle_min(V6: np.ndarray) -> ContangleReport:
    """Minimum residual contangle of a three-mode Gaussian state (or of each
    state of a stack).

    The contangle of a split is the squared logarithmic negativity; the
    residual for focus mode i is C_{i|jk} - C_{i|j} - C_{i|k} and the
    reported measure is the minimum over the three focus choices, floored
    at zero.  Negative residuals (monogamy violations) are kept in
    ``residuals`` rather than raised.

    C_{i|jk} comes from the smallest symplectic eigenvalue of the partial
    transpose alone: for a 1 x N split of a Gaussian state, at most one
    symplectic eigenvalue of the partial transpose lies below 1/2 beyond
    roundoff (A. Serafini, PRL 96, 110402 (2006); G. Adesso and
    F. Illuminati, J. Phys. A 40, 7821 (2007)).
    """
    V6 = _matrices(V6, 6, "residual contangle expects a 6x6 matrix")

    def pair_cm(i, j):
        idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
        return V6[..., idx[:, None], idx]

    pairwise = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # E_N is symmetric under swapping the two modes
        pairwise[(i, j)] = pairwise[(j, i)] = log_negativity(pair_cm(i, j)) ** 2
    residuals = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        residuals.append(_one_vs_two(V6, i) ** 2 - pairwise[(i, j)]
                         - pairwise[(i, k)])
    residuals = np.stack(residuals, axis=-1)
    return ContangleReport(r_min=_floor_at_zero(np.min(residuals, axis=-1)),
                           residuals=residuals)


#: coherent-state covariance matrix, the teleportation input
COHERENT_INPUT = 0.5 * np.eye(2)


def teleportation_fidelity(V_pair: np.ndarray):
    """Fidelity of teleporting a coherent state over ``V_pair`` (one value
    per matrix of a (points, 4, 4) stack).

    F = 1/sqrt(det V), V = 2 COHERENT_INPUT + sz V_e sz + sz V_ef
    + V_ef^T sz + V_f with sz = diag(1, -1): mode e of the resource is
    measured together with the input and mode f receives the state.  A
    vacuum resource gives the classical boundary F = 1/2.
    """
    V4 = _matrices(V_pair, 4, "teleportation resource must be a 4x4 CM")
    sz = np.diag([1.0, -1.0])
    Ve, Vf, Vef = V4[..., :2, :2], V4[..., 2:, 2:], V4[..., :2, 2:]
    V = (2.0 * COHERENT_INPUT + sz @ Ve @ sz.T + sz @ Vef
         + Vef.swapaxes(-2, -1) @ sz.T + Vf)
    det = np.linalg.det(V)
    require(~(det <= 0.0), InvalidCovarianceError, lambda i:
            f"teleportation output CM has det {np.ravel(det)[i]:.3g} <= 0")
    fidelity = 1.0 / np.sqrt(det)
    return float(fidelity) if fidelity.ndim == 0 else fidelity
