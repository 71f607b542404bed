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

The magnon partner of the filtered output is the stationary intracavity
magnon mode, read at the same instant (C. Genes, D. Vitali, P. Tombesi,
PRA 78, 032316 (2008)): its 2x2 block is the magnon block of the block's
Lyapunov covariance, and only the output block and the output-magnon cross
block are integrated over frequency.

Quadrature: :func:`filtered_pair_cm` takes a block of points as stacks; its
frequency integrals run point by point, with an adaptive Gauss-Kronrod
21-point integrator (``adaptive_gk21``) that takes the steps of SciPy's
adaptive vector quadrature (``scipy.integrate``, gk21 rule): the same
initial intervals, heap, batch rule, error estimates and stops.  Each pass
evaluates the integrand on the 21 nodes of every interval it splits in one
stacked call (about 6 passes per point).

Resolvent: each point diagonalizes its drift matrix once,
A = P diag(lambda) P^{-1}, so that (-i*omega*I - A)^{-1} =
P diag(1/(-i*omega - lambda)) P^{-1}.  The rows the integrands read (the
driven port's output and the magnon) are folded into P, and the noise map
into P^{-1} B, once per point (``modal_resolvent``); a node then costs one
diagonal scaling and one (4x8)(8x11) product (``susceptibility``) instead
of an 8x8 inverse.  The modal values carry a relative error of about
kappa(P)*eps, with kappa(P) the condition number of the eigenvector
matrix, so a point whose kappa(P) exceeds MODAL_COND_MAX (a defective or
nearly defective drift matrix) is refused with QuadratureError.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linear_model import MODE_SLOTS
# nothing here calls solve_lyapunov: it stays only as a patch target of
# bench/tracer.py, like the pipeline.build_model re-export
from .lyapunov import extract_block, solve_lyapunov  # noqa: F401
from .params import DRIVE_CCW, DRIVE_CW, NumericalCondition, SystemParams

#: absolute error target of the frequency integrals; an error estimate
#: above 50 times it is refused
QUAD_ABS_TOL = 1e-6

#: largest condition number kappa(P) of the drift matrix's eigenvector
#: matrix that the modal resolvent accepts: its values carry a relative
#: error of about kappa(P)*eps, at most 2.2e-8 here, far below QUAD_ABS_TOL
#: against the O(1) covariance entries (kappa(P) is at most 3.14 over the
#: fig2d sweeps)
MODAL_COND_MAX = 1e8


class QuadratureError(NumericalCondition, RuntimeError):
    """Frequency integration did not reach the requested accuracy, or
    cannot (a nearly defective drift matrix, see MODAL_COND_MAX)."""


# Gauss-Kronrod 21-point rule on [-1, 1], from QUADPACK's QK21 (R. Piessens,
# E. de Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, QUADPACK,
# Springer 1983): the 21 Kronrod nodes, their weights, and the weights of
# the 10-point Gauss rule on the odd-indexed nodes
GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003])
_KRONROD_HALF = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
GK21_KRONROD_WEIGHTS = np.array(
    _KRONROD_HALF + (0.149445554002916905664936468389821,) + _KRONROD_HALF[::-1])
_GAUSS_HALF = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
GK21_GAUSS_WEIGHTS = np.array(_GAUSS_HALF + _GAUSS_HALF[::-1])

#: intervals split in one pass at most (as in SciPy's vector quadrature)
GK21_BATCH = 128


class QuadResult(NamedTuple):
    """Integral, its error estimate (Frobenius norm, rounding included),
    and the final partition as sorted (a, b) pairs."""

    value: np.ndarray
    error: float
    intervals: list


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed as np.linalg.norm sums one row."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """GK21 integrals of f over [lo_j, hi_j] with QUADPACK-style error and
    rounding estimates; all 21*k nodes go to f in one call."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = c + h * GK21_NODES[:, None]                      # (21, k), node-major
    fv = np.asarray(f(x.ravel()))
    shape = fv.shape[1:]
    fv = fv.reshape(21, len(lo), -1)
    # reductions over the leading axis add node by node, in SciPy's order
    v = GK21_KRONROD_WEIGHTS[:, None, None]
    s_k = np.sum(v * fv, axis=0)
    s_k_abs = np.sum(v * np.abs(fv), axis=0)
    s_g = np.sum(GK21_GAUSS_WEIGHTS[:, None, None] * fv[1::2], axis=0)
    s_k_dabs = np.sum(v * np.abs(fv - s_k / 2.0), axis=0)
    h = h[:, None]
    err = _row_norms((s_k - s_g) * h)
    dabs = _row_norms(s_k_dabs * h)
    scaled = (dabs != 0) & (err != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(scaled,
                       dabs * np.minimum(1.0, (200 * err / dabs) ** 1.5), err)
    round_err = _row_norms(50 * sys.float_info.epsilon * h * s_k_abs)
    err = np.where(round_err > sys.float_info.min,
                   np.maximum(err, round_err), err)
    return h * s_k, err.tolist(), round_err.tolist(), shape


def adaptive_gk21(f, a: float, b: float, points=(), *, epsabs: float,
                  epsrel: float, limit: int = 10000) -> QuadResult:
    """Adaptive GK21 integral of the array-valued f over [a, b].

    f maps a 1-D array of abscissae to a stack of values, one per abscissa.
    This is the algorithm of SciPy's adaptive vector quadrature
    (``scipy.integrate``, gk21 rule, Frobenius norm): initial intervals
    split at ``points``; a heap of intervals by error; passes that halve up
    to GK21_BATCH of the worst intervals while their summed error stays
    within the global error less tol/8; stops once the global error is
    below tol/8 or below the rounding error, with
    tol = max(epsabs, epsrel*|integral|), or at ``limit`` intervals.  Each
    pass evaluates the nodes of all its new intervals in one call of f.
    """
    a, b = float(a), float(b)
    bounds, prev = [], a
    for p in sorted(points):
        p = float(p)
        if not (a < p < b) or p == prev:
            continue
        bounds.append((prev, p))
        prev = p
    bounds.append((prev, b))

    lo, hi = np.array(bounds).T
    ig, err, rnd, shape = _gk21(f, lo, hi)
    total = ig[0].copy()
    global_error, rounding_error = err[0], rnd[0]
    for j in range(1, len(bounds)):
        total += ig[j]
        global_error += err[j]
        rounding_error += rnd[j]
    cache = {iv: ig[j] for j, iv in enumerate(bounds)}
    heap = [(-e, x1, x2) for e, (x1, x2) in zip(err, bounds)]
    heapq.heapify(heap)

    while heap and len(heap) < limit:
        tol = max(epsabs, epsrel * np.linalg.norm(total))
        batch, err_sum = [], 0.0
        for j in range(GK21_BATCH):
            if not heap or (j > 0 and err_sum > global_error - tol / 8):
                break
            neg_err, x1, x2 = heapq.heappop(heap)
            batch.append((-neg_err, x1, x2, 0.5 * (x1 + x2)))
            err_sum += -neg_err
        lo = np.array([x for _, x1, x2, c in batch for x in (x1, c)])
        hi = np.array([x for _, x1, x2, c in batch for x in (c, x2)])
        ig, err, rnd, _ = _gk21(f, lo, hi)
        for j, (old_err, x1, x2, c) in enumerate(batch):
            total += ig[2 * j] + ig[2 * j + 1] - cache.pop((x1, x2))
            global_error += err[2 * j] + err[2 * j + 1] - old_err
            rounding_error += rnd[2 * j] + rnd[2 * j + 1]
            for k, iv in ((2 * j, (x1, c)), (2 * j + 1, (c, x2))):
                cache[iv] = ig[k]
                heapq.heappush(heap, (-err[k], *iv))
        if len(heap) >= 2:
            tol = max(epsabs, epsrel * np.linalg.norm(total))
            if global_error < tol / 8 or global_error < rounding_error:
                break
        if not (math.isfinite(global_error) and math.isfinite(rounding_error)):
            break
    return QuadResult(value=total.reshape(shape),
                      error=global_error + rounding_error,
                      intervals=sorted((x1, x2) for _, x1, x2 in heap))


@dataclass(frozen=True)
class FilterSpec:
    """Top-hat output filter: central frequency Omega (rad/s, drive frame)
    and window duration tau (s), the bandwidth being 1/tau.  The filtered
    output is paired with the stationary intracavity magnon mode."""

    omega_center: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("filter duration tau must be positive and finite")


def filter_transform(spec: FilterSpec, omega) -> complex | np.ndarray:
    """Frequency response of the top-hat window (unit L2 norm), at one
    frequency or elementwise on an array."""
    x = (np.asarray(omega, dtype=float) - spec.omega_center) * spec.tau / 2.0
    out = math.sqrt(spec.tau / (2.0 * math.pi)) * np.exp(1j * x) * np.sinc(x / math.pi)
    return complex(out) if np.ndim(omega) == 0 else out


def _quad_kernel(spec: FilterSpec, omega) -> np.ndarray:
    """2x2 kernel mapping quadrature Fourier components onto the filtered
    mode's quadratures; built from the +-sideband filter amplitudes.  An
    array of k frequencies gives a (k, 2, 2) stack."""
    alpha = np.asarray(filter_transform(spec, omega))
    beta = np.conj(filter_transform(spec, -omega))
    s, d = alpha + beta, alpha - beta
    K = np.empty(alpha.shape + (2, 2), dtype=complex)
    K[..., 0, 0] = K[..., 1, 1] = 0.5 * s
    K[..., 0, 1] = 0.5j * d
    K[..., 1, 0] = -0.5j * d
    return K


@dataclass(frozen=True)
class NoiseChannels:
    """Independent white-noise channels feeding the linear dynamics.

    Channel order: CW external port (X, Y), CW internal (X, Y), CCW external
    (X, Y), CCW internal (X, Y), magnon (X, Y), mechanical Brownian force.
    ``B`` maps channels into the quadrature equations (so B S B^T = D),
    ``sigma`` holds the symmetrized channel variances.
    """

    B: np.ndarray
    sigma: np.ndarray
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
    ports = {DRIVE_CW: (0, 1), DRIVE_CCW: (4, 5)}
    return NoiseChannels(B=B, sigma=sigma, port_channels=ports, n_port=n_a)


class Resolvent(NamedTuple):
    """Rows of the resolvent, L (-i*omega*I - A)^{-1} R, in the eigenbasis
    A = P diag(lam) P^{-1}: ``left`` = L P, ``right`` = P^{-1} R, and the
    condition number ``cond`` = kappa(P)."""

    lam: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cond: float


def modal_resolvent(A: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> Resolvent:
    """One eigendecomposition of A with the rows ``left`` (r, n) and the
    right factor ``right`` (n, m) folded in; refused with QuadratureError
    where kappa(P) exceeds MODAL_COND_MAX."""
    lam, P = np.linalg.eig(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(P))
    if not cond <= MODAL_COND_MAX:
        raise QuadratureError(
            f"drift matrix eigenvector condition number {cond:.3g} exceeds "
            f"{MODAL_COND_MAX:.3g} (nearly defective)")
    return Resolvent(lam=lam, left=left @ P, right=np.linalg.solve(P, right),
                     cond=cond)


def susceptibility(res: Resolvent, omega: np.ndarray) -> np.ndarray:
    """L (-i*omega*I - A)^{-1} R, the rows L of the response of u(omega) to
    the inputs R, on a 1-D array of k frequencies: a (k, r, m) stack from
    one diagonal scaling and one product.  ``res`` comes from
    :func:`modal_resolvent`, which refuses a drift matrix whose eigenvector
    matrix is too ill-conditioned (MODAL_COND_MAX) for these values to hold
    their accuracy."""
    d = 1.0 / (-1j * np.asarray(omega, dtype=float)[:, None] - res.lam)
    k, (r, n) = len(d), res.left.shape
    scaled = (res.left * d[:, None, :]).reshape(k * r, n)
    return (scaled @ res.right).reshape(k, r, -1)


def _pair_resolvent(A, chans: NoiseChannels, port: str,
                    kappa_a_e: float) -> Resolvent:
    """Resolvent factors of the driven port's output rows (scaled by
    sqrt(2*kappa_a_e)) and the magnon rows, with the noise map B."""
    rows = MODE_SLOTS["a_cw"] if port == DRIVE_CW else MODE_SLOTS["a_ccw"]
    L = np.zeros((4, A.shape[0]))
    L[[0, 1], list(rows)] = math.sqrt(2.0 * kappa_a_e)
    L[[2, 3], list(MODE_SLOTS["m"])] = 1.0
    return modal_resolvent(A, L, chans.B)


def _transfers(res: Resolvent, chans: NoiseChannels, port: str, omega):
    """Channel-to-signal transfer rows at omega from the factors of
    :func:`_pair_resolvent`: driven-port output (2x11) and magnon
    quadratures (2x11), stacked (k, 2, 11) over an array of k
    frequencies."""
    MB = susceptibility(res, omega)
    T = np.zeros((2, 11))
    for i, c in enumerate(chans.port_channels[port]):
        T[i, c] = 1.0
    return MB[:, :2] - T, MB[:, 2:]


def _adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(M, -1, -2))


#: a filtered point's integral error estimate, tail bound, window and kappa(P)
FILTERED_DIAGNOSTICS = ("quad_error", "tail_estimate", "window", "modal_cond")


def _integrated_pair(A: np.ndarray, params: SystemParams, spec: FilterSpec):
    """One point's integrated pair covariance and FILTERED_DIAGNOSTICS."""
    port = params.drive_port
    chans = noise_channels(params)
    res = _pair_resolvent(A, chans, port, params.kappa_a_e)
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    n_port = chans.n_port + 0.5

    widths = [40.0 / spec.tau,
              10.0 * (params.kappa_a + params.kappa_m + params.omega_b)]
    W = abs(spec.omega_center) + max(widths)
    breakpoints = sorted({abs(spec.omega_center), params.omega_b,
                          abs(spec.omega_center) + 20 / spec.tau})
    pts = [p for p in breakpoints if 0 < p < W]

    def integrand(omega: np.ndarray) -> np.ndarray:
        # (k, 4, 4) on an array of k frequencies; the magnon block stays 0
        F_out, F_mag = _transfers(res, chans, port, omega)
        K_out = _quad_kernel(spec, omega)
        H = np.concatenate([K_out @ F_out, inv_sqrt_2pi * F_mag], axis=1)
        full = np.zeros((len(omega), 4, 4), dtype=complex)
        # output rows: the output block and the cross block
        full[:, :2] = (H[:, :2] * chans.sigma) @ _adjoint(H)
        # white output part, integrated analytically over the full line
        full[:, :2, :2] -= n_port * (K_out @ _adjoint(K_out))
        full[:, 2:, :2] = _adjoint(full[:, :2, 2:])
        # fold +-omega: the full-line integral of the two is 2*Re
        return 2.0 * np.real(full)

    val, err, _ = adaptive_gk21(integrand, 0.0, W, pts,
                                epsabs=QUAD_ABS_TOL, epsrel=1e-10)
    # bound for a >= 1/omega^2 decaying tail
    tail = np.abs(integrand(np.array([W]))[0]) * W
    if err > 50 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"frequency integral error estimate {err:.3g} exceeds "
            f"tolerance {QUAD_ABS_TOL:.3g}")
    val[:2, :2] += n_port * np.eye(2)
    return val, (err, np.max(tail), W, res.cond)


def filtered_pair_cm(A: np.ndarray, V: np.ndarray, params: SystemParams,
                     spec: FilterSpec) -> tuple[np.ndarray, dict]:
    """(n, 4, 4) covariance matrices of the driven port's output
    (``params.drive_port``) through the filter ``spec`` and the stationary
    magnon mode, and FILTERED_DIAGNOSTICS -> (n,) array, at n stable points
    (drift matrices A and Lyapunov covariances V as (n, 8, 8) stacks,
    ``params`` the stack of their parameters).

    The magnon block is V's exactly; the output and cross blocks are
    integrated, the white (frequency-flat) part of the output spectrum
    analytically, which keeps the truncation error of the slowly decaying
    sinc tail out of the result.  Raises QuadratureError where a point's
    kappa(P) (``modal_cond``, from one eigendecomposition of its A,
    :func:`modal_resolvent`) exceeds MODAL_COND_MAX or an integral's error
    estimate exceeds its tolerance.
    """
    n = len(A)
    cm = np.empty((n, 4, 4))
    diagnostics = np.empty((n, len(FILTERED_DIAGNOSTICS)))
    for i in range(n):
        cm[i], diagnostics[i] = _integrated_pair(A[i], params.at(i), spec)
    cm[:, 2:, 2:] = extract_block(V, ("m",))
    cm = 0.5 * (cm + cm.swapaxes(-2, -1))
    return cm, dict(zip(FILTERED_DIAGNOSTICS, diagnostics.T))
