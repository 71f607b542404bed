"""Shared constructions for the test suite: random stable systems, the
symplectic form, random symplectic transformations, random physical
covariance matrices, the two-mode squeezed state with its known
entanglement, an off-design state that breaks the monogamy inequality,
the Schur-method Lyapunov oracle, the batched-inverse resolvent oracle,
the filtered pair of one point, the strictly chiral closed-form means,
the complex-form classical right-hand side and a measure with a
broadcasting bug."""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from chiralcmm.constants import hz
from chiralcmm.linear_model import MODE_SLOTS
from chiralcmm.lyapunov import solve_lyapunov
from chiralcmm.measures import log_negativity
from chiralcmm.output_mode import filtered_pair_cm
from chiralcmm.params import DRIVE_CW, Detunings, DriveSpec, SystemParams
from chiralcmm.steady_state import SQRT2, SteadyField


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


def inverse_susceptibility(A, omega):
    """(-i*omega*I - A)^{-1} by one batched inverse, a (k, n, n) stack over
    an array of k frequencies (A one matrix or one per frequency): the
    oracle of the library's modal resolvent."""
    w = np.asarray(omega, dtype=float)[..., None, None]
    return np.linalg.inv(-1j * w * np.eye(A.shape[-1]) - A)


def inverse_transfers(A, chans, port, kappa_a_e, omega):
    """Driven-port output (2x11) and magnon (2x11) transfer rows, stacked
    over an array of frequencies, from the inverse oracle."""
    MB = inverse_susceptibility(A, omega) @ chans.B
    rows = MODE_SLOTS["a_cw"] if port == DRIVE_CW else MODE_SLOTS["a_ccw"]
    T = np.zeros((2, 11))
    for i, c in enumerate(chans.port_channels[port]):
        T[i, c] = 1.0
    F_out = math.sqrt(2.0 * kappa_a_e) * MB[..., list(rows), :] - T
    return F_out, MB[..., list(MODE_SLOTS["m"]), :]


class InverseResolvent(NamedTuple):
    """The arguments of ``output_mode.modal_resolvent``, kept whole so that
    :func:`inverse_rows` can stand in for ``output_mode.susceptibility``."""

    A: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cond: np.ndarray


def inverse_resolvent(A, left, right):
    """An InverseResolvent in place of ``output_mode.modal_resolvent``,
    with kappa(P) = 1 at every point, so that none is refused."""
    return InverseResolvent(A, left, right, np.ones(np.shape(A)[:-2]))


def inverse_rows(res, omega, counts=None):
    """L (-i*omega*I - A)^{-1} R from the inverse oracle, with the
    arguments of ``output_mode.susceptibility``."""
    if counts is None:
        return res.left @ inverse_susceptibility(res.A, omega) @ res.right
    at = np.repeat(np.arange(len(counts)), counts)
    return (res.left[at] @ inverse_susceptibility(res.A[at], omega)
            @ res.right[at])


def filtered_point(A, D, params, spec):
    """``output_mode.filtered_pair_cm`` on a block of the one stable point
    (A, D, params): its (4, 4) filtered-pair covariance and its diagnostics
    (entry -> value)."""
    V = solve_lyapunov(A, D)
    cm, diagnostics = filtered_pair_cm(A[None], V[None], params.stacked(1),
                                       spec)
    return cm[0], {key: value[0] for key, value in diagnostics.items()}


def symplectic_form(n_modes):
    """Direct sum of [[0, 1], [-1, 0]] blocks in (X, Y) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


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


def off_design_state():
    """(params, detunings) of a warm, weakly driven stable point whose
    a_ccw:m:b state has one residual contangle slightly below zero (about
    -3e-6, focus mode a_ccw): a monogamy violation of the squared
    negativity."""
    p = SystemParams(kappa_a_e=hz(3.000046e6), g_cw=hz(6.136448e6),
                     g_ccw=hz(0.2528422e6), J=hz(1.0452631e6),
                     gamma_b=hz(2101.3921), temperature=0.04937237,
                     drive=DriveSpec("gm_abs", hz(3.6480122e6)))
    det = Detunings.effective(-0.84250274 * p.omega_b, 1.04799034 * p.omega_b)
    return p, det


def ideal_means(params, det, E):
    """Means of the strictly chiral configuration (J = 0) by its own closed
    form, an oracle for the library's general one.

    The non-driven circulating mode is decoupled and stays empty; the
    magnon amplitude is
    <m> = -i*g*E / [g^2 + (kappa_a + i*delta_a)(kappa_m + i*delta_m_eff)]
    with g the coupling of the driven mode.
    """
    port = params.drive_port
    g = params.g_cw if port == "cw" else params.g_ccw
    ka = params.kappa_a + 1j * det.delta_a
    m = -1j * g * E / (g * g + ka * (params.kappa_m + 1j * det.delta_m_eff))
    a_driven = (E - 1j * g * m) / ka
    a_cw, a_ccw = (a_driven, 0j) if port == "cw" else (0j, a_driven)
    g_m = params.g_m
    return SteadyField(
        a_cw=a_cw, a_ccw=a_ccw, m=m,
        q_mean=0.0 if g_m is None else -g_m * abs(m) ** 2 / params.omega_b,
        g_m_eff=None if g_m is None else SQRT2 * g_m * m,
        delta_m_eff=det.delta_m_eff, e_amplitude=E)


def complex_rhs(params, det, E):
    """Right-hand side of the classical equations in complex arithmetic,
    the form the library's float ``time_domain.make_rhs`` reproduces."""
    e_cw = E if params.drive_port == "cw" else 0.0
    e_ccw = E if params.drive_port == "ccw" else 0.0
    ca = params.kappa_a + 1j * det.delta_a
    cm_ = params.kappa_m + 1j * det.delta_m
    gr, gl, J, gm = params.g_cw, params.g_ccw, params.J, params.g_m
    wb, gb = params.omega_b, params.gamma_b

    def rhs(_t, y):
        yf = y.tolist()
        acw = complex(yf[0], yf[1])
        accw = complex(yf[2], yf[3])
        m = complex(yf[4], yf[5])
        q, p = yf[6], yf[7]
        d_acw = -ca * acw - 1j * (J * accw + gr * m) + e_cw
        d_accw = -ca * accw - 1j * (J * acw + gl * m) + e_ccw
        d_m = -(cm_ + 1j * gm * q) * m - 1j * (gr * acw + gl * accw)
        d_q = wb * p
        d_p = -wb * q - gb * p - gm * (m.real * m.real + m.imag * m.imag)
        return [d_acw.real, d_acw.imag, d_accw.real, d_accw.imag,
                d_m.real, d_m.imag, d_q, d_p]

    return rhs


def broadcasting_log_negativity(V):
    """log_negativity with a broadcasting bug: a (3,) array is added to its
    result.  A stack of 3 matrices passes unnoticed; any other stack fails
    with a ValueError from numpy."""
    return log_negativity(V) + np.zeros(3)
