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

Quadrature: :func:`filtered_pair_cm` takes a block of points as stacks,
and its frequency integrals run per block: an adaptive Gauss-Kronrod
21-point integrator (``adaptive_gk21``) advances every point of the block
in lockstep, each point taking the steps of SciPy's adaptive vector
quadrature (``scipy.integrate``, gk21 rule): the same initial intervals,
heap, batch rule, error estimates and stops.  A pass evaluates the
integrand on the 21 nodes of every interval that any point splits, in one
stacked call per GK21_CHUNK intervals: 21 or 23 calls for the 51 points
of a fig2d sweep, which took 306 or 357 calls point by point.  Each
point's nodes keep the order and the arithmetic of a block of one, so a
point gets the same bits in any block.

Resolvent: each point diagonalizes its drift matrix once (one stacked
eigendecomposition per block), A = P diag(lambda) P^{-1}, so that
(-i*omega*I - A)^{-1} = P diag(1/(-i*omega - lambda)) P^{-1}.  The rows
the integrands read (the driven port's output and the magnon) are folded
into P, and the noise map into P^{-1} B (``modal_resolvent``); a node then
costs one diagonal scaling and its share of one (4k x 8)(8 x 11) product
per point and pass (``susceptibility``) instead of an 8x8 inverse.  The
modal values carry a relative error of about kappa(P)*eps, with kappa(P)
the condition number of the eigenvector matrix, so a point whose kappa(P)
exceeds MODAL_COND_MAX (a defective or nearly defective drift matrix) is
refused with QuadratureError.
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

#: intervals per call of the integrand at most (unless one point's share of
#: a pass alone holds more): its largest array, the resolvent rows of 2 016
#: nodes, stays at 1.4 MB (calls of 256 intervals left the fig2d sweeps
#: holding about 5 MB more memory after the stage, which raised the
#: benchmark's peak RSS)
GK21_CHUNK = 96


class QuadResult(NamedTuple):
    """Integrals of n points as an (n, ...) stack, their (n,) error
    estimates (Frobenius norm, rounding included), and each point's final
    partition as sorted (a, b) pairs."""

    value: np.ndarray
    error: np.ndarray
    intervals: list


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed as np.linalg.norm sums one row."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _chunks(counts: np.ndarray):
    """Runs of whole points, (first interval, stop, the points' interval
    counts with 0 outside the run), each holding at most GK21_CHUNK
    intervals or one point."""
    ends = np.cumsum(counts)
    first = 0
    while first < ends[-1]:
        stop = ends[ends <= first + GK21_CHUNK].max(initial=first)
        if stop == first:
            stop = ends[ends > first].min()
        yield first, stop, np.where((ends > first) & (ends <= stop), counts, 0)
        first = stop


def _gk21_rule(f, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray):
    """GK21 integrals over one run of :func:`_chunks`, all its nodes in one
    call of f."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = c + h * GK21_NODES[:, None]                      # (21, k), node-major
    # each point's nodes node-major, as one point's (21, k_p) raveled
    owner = np.repeat(np.arange(len(counts)), counts)
    first = (np.cumsum(counts) - counts)[owner]
    order = (21 * first + counts[owner] * np.arange(21)[:, None]
             + np.arange(len(lo)) - first)
    flat = np.empty(x.size)
    flat[order] = x
    fv = np.asarray(f(flat, 21 * counts))
    shape = fv.shape[1:]
    fv = np.take(fv.reshape(x.size, -1), order, axis=0)  # (21, k, m)
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
    return h * s_k, err, round_err, shape


def _gk21(f, lo: np.ndarray, hi: np.ndarray, counts):
    """GK21 integrals of f over [lo_j, hi_j] with QUADPACK-style error and
    rounding estimates, the intervals point after point, counts[p] of them
    for point p.

    f(x, counts) gets the abscissae x of whole points, point after point,
    counts[p] of them for point p (0 for a point not in the call).  A
    point's abscissae are the nodes of its intervals node-major, its
    (21, k_p) grid raveled, as a block of one would give them.  A pass goes
    to f in runs of at most GK21_CHUNK intervals (:func:`_chunks`)."""
    counts = np.asarray(counts)
    runs = [_gk21_rule(f, lo[i:j], hi[i:j], part)
            for i, j, part in _chunks(counts)]
    ig, err, rnd, shapes = zip(*runs)
    return (np.concatenate(ig), np.concatenate(err).tolist(),
            np.concatenate(rnd).tolist(), shapes[0])


def _initial_intervals(a: float, b: float, points) -> list:
    """[a, b] split at the breakpoints inside it, in order."""
    bounds, prev = [], a
    for p in sorted(points):
        p = float(p)
        if not (a < p < b) or p == prev:
            continue
        bounds.append((prev, p))
        prev = p
    bounds.append((prev, b))
    return bounds


def adaptive_gk21(f, a, b, points, *, epsabs: float, epsrel: float,
                  limit: int = 10000) -> QuadResult:
    """Adaptive GK21 integrals of the array-valued f over [a_p, b_p], at n
    points at once (a, b and ``points``, the breakpoints of each, of
    length n).

    f(x, counts) maps the abscissae of several points, counts[p] of them for
    point p, point after point, to a stack of values, one per abscissa (see
    :func:`_gk21`).  Each point takes the steps of SciPy's adaptive vector
    quadrature (``scipy.integrate``, gk21 rule, Frobenius norm): initial
    intervals split at its breakpoints; a heap of intervals by error;
    passes that halve up to GK21_BATCH of the worst intervals while their
    summed error stays within the global error less tol/8; stops once the
    global error is below tol/8 or below the rounding error, with
    tol = max(epsabs, epsrel*|integral|), or at ``limit`` intervals.  The
    points advance in lockstep: each pass evaluates the nodes of the new
    intervals of every point still running in one call of :func:`_gk21`.
    """
    n = len(a)
    bounds = [_initial_intervals(float(a[p]), float(b[p]), points[p])
              for p in range(n)]
    lo, hi = np.array([iv for bd in bounds for iv in bd]).T
    ig, err, rnd, shape = _gk21(f, lo, hi, [len(bd) for bd in bounds])
    totals = np.empty((n, ig.shape[1]))
    global_error, rounding_error, caches, heaps = [], [], [], []
    j = 0
    for p, bd in enumerate(bounds):
        totals[p] = ig[j]
        ge, re = err[j], rnd[j]
        for i in range(j + 1, j + len(bd)):
            totals[p] += ig[i]
            ge += err[i]
            re += rnd[i]
        global_error.append(ge)
        rounding_error.append(re)
        caches.append({iv: ig[j + i] for i, iv in enumerate(bd)})
        heap = [(-e, x1, x2) for e, (x1, x2) in zip(err[j:j + len(bd)], bd)]
        heapq.heapify(heap)
        heaps.append(heap)
        j += len(bd)

    running = [p for p in range(n) if len(heaps[p]) < limit]
    while running:
        # each point's batch, popped from its heap
        tols = np.fmax(epsabs, epsrel * _row_norms(totals[running]))
        batches, counts = [], np.zeros(n, dtype=int)
        for p, tol in zip(running, tols.tolist()):
            heap, batch, err_sum = heaps[p], [], 0.0
            for j in range(GK21_BATCH):
                if not heap or (j > 0 and err_sum > global_error[p] - tol / 8):
                    break
                neg_err, x1, x2 = heapq.heappop(heap)
                batch.append((-neg_err, x1, x2, 0.5 * (x1 + x2)))
                err_sum += -neg_err
            batches.append(batch)
            counts[p] = 2 * len(batch)
        halves = [(x1, c, x2) for batch in batches for _, x1, x2, c in batch]
        lo = np.array([x for x1, c, _ in halves for x in (x1, c)])
        hi = np.array([x for _, c, x2 in halves for x in (c, x2)])
        ig, err, rnd, _ = _gk21(f, lo, hi, counts)
        # the batch's halves replace it, interval by interval
        old, j = [], 0
        for p, batch in zip(running, batches):
            cache, heap = caches[p], heaps[p]
            ge, re = global_error[p], rounding_error[p]
            for old_err, x1, x2, c in batch:
                old.append(cache.pop((x1, x2)))
                ge += err[2 * j] + err[2 * j + 1] - old_err
                re += rnd[2 * j] + rnd[2 * j + 1]
                for k, iv in ((2 * j, (x1, c)), (2 * j + 1, (c, x2))):
                    cache[iv] = ig[k]
                    heapq.heappush(heap, (-err[k], *iv))
                j += 1
            global_error[p], rounding_error[p] = ge, re
        np.add.at(totals, np.repeat(running, [len(bt) for bt in batches]),
                  ig[0::2] + ig[1::2] - np.array(old))
        # the stops
        tols = np.fmax(epsabs, epsrel * _row_norms(totals[running]))
        still = []
        for p, tol in zip(running, tols.tolist()):
            ge, re, size = global_error[p], rounding_error[p], len(heaps[p])
            if size >= 2 and (ge < tol / 8 or ge < re):
                continue
            if math.isfinite(ge) and math.isfinite(re) and size < limit:
                still.append(p)
        running = still
    return QuadResult(
        value=totals.reshape((n, *shape)),
        error=np.array(global_error) + np.array(rounding_error),
        intervals=[sorted((x1, x2) for _, x1, x2 in heap) for heap in heaps])


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
    """The channels of one point, or of a stack of n points as (n, ...)
    arrays."""
    n_a, n_m, n_b = (np.asarray(x) for x in params.occupancies())
    r2ae = np.sqrt(2.0 * params.kappa_a_e)
    r2ai = np.sqrt(2.0 * params.kappa_a_i)
    r2m = np.sqrt(2.0 * params.kappa_m)
    B = np.zeros(n_a.shape + (8, 11))
    B[..., 0, 0] = B[..., 1, 1] = r2ae
    B[..., 0, 2] = B[..., 1, 3] = r2ai
    B[..., 2, 4] = B[..., 3, 5] = r2ae
    B[..., 2, 6] = B[..., 3, 7] = r2ai
    B[..., 4, 8] = B[..., 5, 9] = r2m
    B[..., 7, 10] = 1.0
    sigma = np.stack([n_a + 0.5] * 8 + [n_m + 0.5] * 2
                     + [params.gamma_b * (2 * n_b + 1)], axis=-1)
    ports = {DRIVE_CW: (0, 1), DRIVE_CCW: (4, 5)}
    return NoiseChannels(B=B, sigma=sigma, port_channels=ports, n_port=n_a)


class Resolvent(NamedTuple):
    """Rows of the resolvent, L (-i*omega*I - A)^{-1} R, in the eigenbasis
    A = P diag(lam) P^{-1}: ``left`` = L P, ``right`` = P^{-1} R, and the
    condition number ``cond`` = kappa(P); one point, or (n, ...) stacks."""

    lam: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cond: np.ndarray


def modal_resolvent(A: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> Resolvent:
    """One eigendecomposition of A (one drift matrix or an (n, N, N)
    stack) with the rows ``left`` (r, N) and the right factor ``right``
    (N, m) folded in (stacked alike).  A point whose kappa(P) exceeds
    MODAL_COND_MAX is not to be used: its P may be singular, so its right
    factor is ``right`` itself."""
    lam, P = np.linalg.eig(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.cond(P)
    usable = np.asarray(cond <= MODAL_COND_MAX)[..., None, None]
    P_right = np.where(usable, P, np.eye(P.shape[-1]))
    return Resolvent(lam=lam, left=left @ P,
                     right=np.linalg.solve(P_right, right), cond=cond)


def susceptibility(res: Resolvent, omega: np.ndarray,
                   counts=None) -> np.ndarray:
    """L (-i*omega*I - A)^{-1} R, the rows L of the response of u(omega) to
    the inputs R, on a 1-D array of k frequencies: a (k, r, m) stack from
    one diagonal scaling and one product per point.  ``res`` comes from
    :func:`modal_resolvent`: one point, or a stack of n points, and then
    omega holds counts[p] frequencies of point p, point after point.  A
    point whose kappa(P) exceeds MODAL_COND_MAX (``res.cond``) would not
    hold the accuracy of these values."""
    omega = np.asarray(omega, dtype=float)
    lam, left, right = res.lam, res.left, res.right
    if counts is None:      # one point
        lam, left, right = lam[None], left[None], right[None]
        counts = [len(omega)]
    ends = np.cumsum(counts)
    (r, n), m = left.shape[1:], right.shape[-1]
    out = np.empty((len(omega), r, m), dtype=complex)
    for p in np.flatnonzero(counts):
        start, stop = ends[p] - counts[p], ends[p]
        d = 1.0 / (-1j * omega[start:stop, None] - lam[p])
        scaled = (left[p] * d[:, None, :]).reshape(-1, n)
        np.matmul(scaled, right[p], out=out[start:stop].reshape(-1, m))
    return out


def _pair_resolvent(A, chans: NoiseChannels, port,
                    kappa_a_e) -> Resolvent:
    """Resolvent factors of the driven port's output rows (scaled by
    sqrt(2*kappa_a_e)) and the magnon rows, with the noise map B; one point,
    or a stack with (n,) arrays of ports and kappa_a_e."""
    port = np.asarray(port)
    root = np.sqrt(2.0 * np.asarray(kappa_a_e))
    L = np.zeros(port.shape + (4, A.shape[-1]))
    for label, mode in ((DRIVE_CW, "a_cw"), (DRIVE_CCW, "a_ccw")):
        L[..., [0, 1], list(MODE_SLOTS[mode])] = \
            np.where(port == label, root, 0.0)[..., None]
    L[..., [2, 3], list(MODE_SLOTS["m"])] = 1.0
    return modal_resolvent(A, L, chans.B)


def _port_inputs(chans: NoiseChannels, port) -> np.ndarray:
    """(2, 11) selector of the driven port's input channels, or an (n, 2, 11)
    stack for (n,) ports: the output rows of :func:`_pair_resolvent` less
    these are the output field's transfer rows."""
    port = np.asarray(port)
    T = np.zeros(port.shape + (2, 11))
    for label, channels in chans.port_channels.items():
        T[..., [0, 1], list(channels)] = np.asarray(port == label)[..., None]
    return T


def _adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(M, -1, -2))


#: a filtered point's integral error estimate, tail bound, window and kappa(P)
FILTERED_DIAGNOSTICS = ("quad_error", "tail_estimate", "window", "modal_cond")

#: nodes per step of the integrand's pair algebra: its temporaries, about
#: 3 kB a node, stay in cache (one step per call, up to 2 016 nodes, ran
#: the stage about 1.3 times slower; 256 nodes were no faster, and raised
#: the benchmark's peak RSS by 1.5 MB)
PAIR_SLICE = 512


def _integrated_pairs(res: Resolvent, chans: NoiseChannels,
                      params: SystemParams, spec: FilterSpec, m: int):
    """Integrated pair covariances and FILTERED_DIAGNOSTICS of the first m
    points of a block, as (m, 4, 4) and (m, 4) stacks."""
    res = res._make(x[:m] for x in res)
    port = params.drive_port[:m]
    sigma, n_port = chans.sigma[:m], chans.n_port[:m] + 0.5
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)

    center = abs(spec.omega_center)
    omega_b = params.omega_b[:m]
    widths = 10.0 * (params.kappa_a + params.kappa_m + params.omega_b)[:m]
    W = center + np.maximum(40.0 / spec.tau, widths)
    breakpoints = np.stack(np.broadcast_arrays(
        center, omega_b, center + 20 / spec.tau), axis=-1)

    T = _port_inputs(chans, port)

    def integrand(omega: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # (k, 4, 4) on an array of k frequencies; the magnon block stays 0
        MB = susceptibility(res, omega, counts)
        owner = np.repeat(np.arange(m), counts)
        full = np.zeros((len(omega), 4, 4))
        # node by node from here, PAIR_SLICE nodes at a time
        for start in range(0, len(omega), PAIR_SLICE):
            rows = slice(start, start + PAIR_SLICE)
            at = owner[rows]
            K_out = _quad_kernel(spec, omega[rows])
            H = np.empty((len(at), 4, 11), dtype=complex)
            np.matmul(K_out, MB[rows, :2] - T[at], out=H[:, :2])
            np.multiply(inv_sqrt_2pi, MB[rows, 2:], out=H[:, 2:])
            # output rows: the output block and the cross block
            out = (H[:, :2] * sigma[at][:, None]) @ _adjoint(H)
            # white output part, integrated analytically over the full line
            out[:, :, :2] -= (n_port[at][:, None, None]
                              * (K_out @ _adjoint(K_out)))
            # fold +-omega: the full-line integral of the two is 2*Re
            full[rows, :2] = 2.0 * out.real
        full[:, 2:, :2] = np.swapaxes(full[:, :2, 2:], -1, -2)
        return full

    quad = adaptive_gk21(integrand, np.zeros(m), W, breakpoints,
                         epsabs=QUAD_ABS_TOL, epsrel=1e-10)
    # bound for a >= 1/omega^2 decaying tail
    tail = np.abs(integrand(W, np.ones(m, dtype=int))) * W[:, None, None]
    refused = np.flatnonzero(quad.error > 50 * QUAD_ABS_TOL)
    if len(refused):
        raise QuadratureError(
            f"frequency integral error estimate {quad.error[refused[0]]:.3g} "
            f"exceeds tolerance {QUAD_ABS_TOL:.3g}")
    val = quad.value
    val[:, :2, :2] += n_port[:, None, None] * np.eye(2)
    return val, np.stack([quad.error, np.max(tail, axis=(1, 2)), W,
                          res.cond], axis=-1)


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
    sinc tail out of the result.  Raises QuadratureError for the first
    point, in block order, whose kappa(P) (``modal_cond``, from one
    eigendecomposition of its A, :func:`modal_resolvent`) exceeds
    MODAL_COND_MAX or whose integral's error estimate exceeds its
    tolerance.
    """
    n = len(A)
    chans = noise_channels(params)
    res = _pair_resolvent(A, chans, params.drive_port, params.kappa_a_e)
    # the points before the first refused one are integrated: their
    # error-estimate refusals come before it in block order
    usable = res.cond <= MODAL_COND_MAX
    m = n if usable.all() else int(np.argmin(usable))
    cm = np.empty((n, 4, 4))
    diagnostics = np.empty((n, len(FILTERED_DIAGNOSTICS)))
    if m:
        cm[:m], diagnostics[:m] = _integrated_pairs(res, chans, params,
                                                    spec, m)
    if m < n:
        raise QuadratureError(
            f"drift matrix eigenvector condition number {res.cond[m]:.3g} "
            f"exceeds {MODAL_COND_MAX:.3g} (nearly defective)")
    cm[:, 2:, 2:] = extract_block(V, ("m",))
    cm = 0.5 * (cm + cm.swapaxes(-2, -1))
    return cm, dict(zip(FILTERED_DIAGNOSTICS, diagnostics.T))
