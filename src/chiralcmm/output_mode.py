"""Covariance matrix of the filtered cavity output mode and the magnon mode.

The output field of the driven port is a_out = sqrt(2*kappa_a_e)*a - a_in
(external port only); a temporal mode of it is selected by a top-hat window
of duration tau centered (in frequency) at Omega, whose transform is

    g(omega) = sqrt(tau/2pi) * exp(i(omega-Omega)tau/2)
               * sinc[(omega-Omega)tau/2],

normalized so that the filtered mode is canonical.  Working in the frame
rotating at the drive, the quadrature Fourier components of every mode are
linear in the white input noises, u(omega) = (-i*omega*I - A)^{-1} n(omega),
and all second moments of the filtered pair follow from frequency integrals
of the corresponding spectral matrices.

Spectral convention: S(omega) is defined so that the stationary covariance
is V = (1/2pi) * Integral S(omega) d omega; a vacuum-fed output port then
has the flat spectrum S = I/2.

Sideband bookkeeping: the filtered X, Y quadratures mix the quadrature
Fourier components at +-(omega-Omega) through the kernel built from
alpha(omega) = g(omega) and beta(omega) = conj(g(-omega)); the vacuum
identity (exact 1/2 variances for a decoupled cold cavity) pins this
convention down and is asserted in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .linear_model import MODE_SLOTS
from .lyapunov import solve_lyapunov
from .params import DRIVE_CCW, DRIVE_CW, SystemParams

MAGNON_WINDOWED = "windowed"
MAGNON_INSTANT = "instant"

#: absolute error target of the frequency integrals; an error estimate
#: above 50 times it is refused
QUAD_ABS_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Frequency integration did not reach the requested accuracy."""


@dataclass(frozen=True)
class FilterSpec:
    """Top-hat output filter: central frequency Omega (rad/s, drive frame)
    and window duration tau (s); the bandwidth is 1/tau."""

    omega_center: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("filter duration tau must be positive and finite")


def filter_transform(spec: FilterSpec, omega) -> complex | np.ndarray:
    """Frequency response of the top-hat window (unit L2 norm)."""
    x = (np.asarray(omega, dtype=float) - spec.omega_center) * spec.tau / 2.0
    out = math.sqrt(spec.tau / (2.0 * math.pi)) * np.exp(1j * x) * np.sinc(x / math.pi)
    return complex(out) if np.ndim(omega) == 0 else out


def _quad_kernel(spec: FilterSpec, omega: float) -> np.ndarray:
    """2x2 kernel mapping quadrature Fourier components onto the filtered
    mode's quadratures; built from the +-sideband filter amplitudes."""
    alpha = filter_transform(spec, omega)
    beta = np.conj(filter_transform(spec, -omega))
    s, d = alpha + beta, alpha - beta
    return 0.5 * np.array([[s, 1j * d], [-1j * d, s]])


@dataclass(frozen=True)
class NoiseChannels:
    """Independent white-noise channels feeding the linear dynamics.

    Channel order: CW external port (X, Y), CW internal (X, Y), CCW external
    (X, Y), CCW internal (X, Y), magnon (X, Y), mechanical Brownian force.
    ``B`` maps channels into the quadrature equations (so B S B^T = D),
    ``sigma`` holds the symmetrized channel variances, and ``comm`` the
    channel commutator matrix (i*Omega_2 per bosonic quadrature pair; the
    Brownian force commutator is dropped with the Markov approximation).
    """

    B: np.ndarray
    sigma: np.ndarray
    comm: np.ndarray
    port_channels: dict
    n_port: float


def noise_channels(params: SystemParams) -> NoiseChannels:
    n_a, n_m, n_b = params.occupancies()
    r2ae = math.sqrt(2.0 * params.kappa_a_e)
    r2ai = math.sqrt(2.0 * params.kappa_a_i)
    r2m = math.sqrt(2.0 * params.kappa_m)
    B = np.zeros((8, 11))
    B[0, 0] = B[1, 1] = r2ae
    B[0, 2] = B[1, 3] = r2ai
    B[2, 4] = B[3, 5] = r2ae
    B[2, 6] = B[3, 7] = r2ai
    B[4, 8] = B[5, 9] = r2m
    B[7, 10] = 1.0
    sigma = np.array([n_a + 0.5] * 8 + [n_m + 0.5] * 2
                     + [params.gamma_b * (2 * n_b + 1)])
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    comm = np.zeros((11, 11), dtype=complex)
    for k in range(5):
        comm[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 1j * omega2
    ports = {DRIVE_CW: (0, 1), DRIVE_CCW: (4, 5)}
    return NoiseChannels(B=B, sigma=sigma, comm=comm, port_channels=ports,
                         n_port=n_a)


def susceptibility(A: np.ndarray, omega: float) -> np.ndarray:
    """(-i*omega*I - A)^{-1}, the response of u(omega) to the input noises."""
    n = A.shape[0]
    return np.linalg.inv(-1j * omega * np.eye(n) - A)


def _transfers(A, chans: NoiseChannels, port: str, kappa_a_e: float, omega: float):
    """Channel-to-signal transfer rows at omega: driven-port output (2x11)
    and magnon quadratures (2x11)."""
    MB = susceptibility(A, omega) @ chans.B
    rows = MODE_SLOTS["a_cw"] if port == DRIVE_CW else MODE_SLOTS["a_ccw"]
    T = np.zeros((2, 11))
    for i, c in enumerate(chans.port_channels[port]):
        T[i, c] = 1.0
    F_out = math.sqrt(2.0 * kappa_a_e) * MB[list(rows), :] - T
    F_mag = MB[list(MODE_SLOTS["m"]), :]
    return F_out, F_mag


@dataclass(frozen=True)
class FilteredPairCM:
    """4x4 covariance matrix of (filtered output, magnon) plus diagnostics."""

    V: np.ndarray
    mode_order: tuple = ("a_out", "m")
    meta: dict = field(default_factory=dict, compare=False)


def filtered_pair_cm(A: np.ndarray, D: np.ndarray, params: SystemParams,
                     spec: FilterSpec,
                     magnon_convention: str = MAGNON_WINDOWED,
                     drive_port: str | None = None) -> FilteredPairCM:
    """Covariance matrix of the filtered output mode and the magnon mode.

    magnon_convention:
      * "windowed": the magnon is read through the same top-hat window at
        its own central frequency +omega_b (the anti-Stokes side),
        renormalized by its computed commutator so the mode is canonical.
      * "instant": stationary intracavity magnon quadratures; their 2x2
        block is taken from the Lyapunov solution exactly and only the
        cross block is integrated.

    The white (frequency-flat) part of the output spectrum integrates
    against the filter analytically and only spectrally colored terms are
    integrated numerically, which keeps the truncation error of the slowly
    decaying sinc tail out of the result.
    """
    if magnon_convention not in (MAGNON_WINDOWED, MAGNON_INSTANT):
        raise ValueError(f"unknown magnon convention {magnon_convention!r}")
    port = drive_port or params.drive_port
    chans = noise_channels(params)
    sig = chans.sigma
    v_lyap = solve_lyapunov(A, D).V
    v_mag = v_lyap[np.ix_(MODE_SLOTS["m"], MODE_SLOTS["m"])]

    mag_spec = FilterSpec(omega_center=params.omega_b, tau=spec.tau)
    windowed = magnon_convention == MAGNON_WINDOWED
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def stacked_transfer(omega: float) -> np.ndarray:
        F_out, F_mag = _transfers(A, chans, port, params.kappa_a_e, omega)
        K_out = _quad_kernel(spec, omega)
        H = np.empty((4, 11), dtype=complex)
        H[:2] = K_out @ F_out
        H[2:] = (_quad_kernel(mag_spec, omega) @ F_mag if windowed
                 else inv_sqrt_2pi * F_mag)
        return H, K_out, F_mag

    n_port = chans.n_port + 0.5

    def integrand(omega: float) -> np.ndarray:
        H, K_out, F_mag = stacked_transfer(omega)
        full = (H * sig) @ H.conj().T
        # white output part, integrated analytically over the full line
        full[:2, :2] -= n_port * (K_out @ K_out.conj().T)
        if not windowed:
            # stationary magnon block comes from the Lyapunov solution
            full[2:, 2:] -= (1.0 / (2.0 * math.pi)) * (F_mag * sig) @ F_mag.conj().T
        # fold +-omega: the full-line integral of the two is 2*Re
        return 2.0 * np.real(full)

    widths = [40.0 / spec.tau,
              10.0 * (params.kappa_a + params.kappa_m + params.omega_b)]
    W = (max(abs(spec.omega_center), params.omega_b if windowed else 0.0)
         + max(widths))
    breakpoints = sorted({abs(spec.omega_center), params.omega_b,
                          abs(spec.omega_center) + 20 / spec.tau})
    pts = [p for p in breakpoints if 0 < p < W]
    val, err = quad_vec(integrand, 0.0, W, epsabs=QUAD_ABS_TOL, epsrel=1e-10,
                        points=pts, quadrature="gk21")
    tail = np.abs(integrand(W)) * W  # bound for a >= 1/omega^2 decaying tail
    tail_err = float(np.max(tail))
    if err > 50 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"frequency integral error estimate {err:.3g} exceeds "
            f"tolerance {QUAD_ABS_TOL:.3g}")

    V = val
    V[:2, :2] += n_port * np.eye(2)
    if not windowed:
        V[2:, 2:] += v_mag

    meta = {
        "magnon_convention": magnon_convention,
        "magnon_center": params.omega_b if windowed else None,
        "port": port,
        "port_rate": "kappa_a_e",
        "quad_error": float(err),
        "tail_estimate": tail_err,
        "window": W,
    }
    if windowed:
        c = _magnon_commutator(A, chans, mag_spec, W, pts)
        meta["magnon_commutator"] = c
        V[2:, :] /= math.sqrt(c)
        V[:, 2:] /= math.sqrt(c)
    V = 0.5 * (V + V.T)
    return FilteredPairCM(V=V, meta=meta)


def _magnon_commutator(A, chans: NoiseChannels, mag_spec: FilterSpec,
                       W: float, pts) -> float:
    """[f, f^dag] of the windowed magnon mode, for canonical renormalization.

    The window duration is comparable to the magnon lifetime, so the
    windowed intracavity operator is not automatically canonical; its
    commutator follows from the (state-independent) input commutators.
    """
    def integrand(omega: float) -> np.ndarray:
        MB = susceptibility(A, omega) @ chans.B
        F_mag = MB[list(MODE_SLOTS["m"]), :]
        K = _quad_kernel(mag_spec, omega)
        f = K @ F_mag @ chans.comm @ F_mag.conj().T @ K.conj().T
        return 2.0 * np.imag(f)  # +-omega fold of the antisymmetric part

    val, err = quad_vec(integrand, 0.0, W, epsabs=QUAD_ABS_TOL, epsrel=1e-10,
                        points=pts, quadrature="gk21")
    c = 0.5 * float(val[0, 1] - val[1, 0])
    if not (c > 0 and math.isfinite(c)):
        raise QuadratureError(f"windowed magnon commutator came out {c!r}")
    if err > 50 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"commutator integral error estimate {err:.3g} too large")
    return c
