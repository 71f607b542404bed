"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

One solver for one system or a stack of them.  Each point is solved on the
connected components of its coupling graph (modes i and j are linked when
A[i, j], A[j, i] or D[i, j] is nonzero): between components V solves a
homogeneous Sylvester equation whose only solution for a stable A is 0, so
those entries are exact zeros.  Points are grouped by their partition, so a
point's result depends on that point alone.  On a component of s modes the
s(s+1)/2 independent entries of V solve a linear system assembled entrywise
from A (no matrix products), in LU solves of at most SOLVE_CHUNK * 36**2
entries.  The test suite checks it against a Schur (Bartels-Stewart) solve,
a dense Kronecker-product solve and a time-integral oracle.

A covariance matrix is a plain array, in the quadrature ordering of
``linear_model.MODE_ORDER``: :func:`extract_block` picks modes by label
through ``linear_model.MODE_SLOTS``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linear_model import MODE_SLOTS, LyapunovError, UnstableSystemError, is_stable
from .measures import SYMMETRY_TOL
from .params import require

#: a residual above RESIDUAL_TOL (||A|| ||V|| + ||D||) is ill-conditioned
RESIDUAL_TOL = 1e-10

#: a batched LU solve takes at most SOLVE_CHUNK * 36**2 matrix entries (0.33
#: MB), so a chunk stays in cache and adds little to a pooled sweep's peak RSS
SOLVE_CHUNK = 32


@lru_cache(maxsize=None)
def _sym_vec_maps(n: int):
    """Index maps of the symmetric-Kronecker form of A V + V A^T for n x n A.

    Unknown k is V[iu[k], ju[k]] (i <= j), and ``pos[i, j]`` is the unknown
    holding V[i, j].  Row k of the system is entry (p, q) of A V + V A^T:
    sum_r A[p, r] V[r, q] + A[q, r] V[p, r].  Each matrix entry is a sum of
    at most two entries of A; ``first`` and ``second`` index them in
    A.ravel() extended by one zero (index n*n) for the absent ones.
    """
    iu, ju = np.triu_indices(n)
    m = len(iu)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(m)
    first = np.full((m, m), n * n, dtype=np.intp)
    second = np.full((m, m), n * n, dtype=np.intp)
    for k, (p, q) in enumerate(zip(iu, ju)):
        for r in range(n):
            first[k, pos[r, q]] = p * n + r
            # for p == q both sums run over the same unknowns: 2 A[p, r]
            second[k, pos[p, r]] = q * n + r
    return iu, ju, pos, first, second


def _partitions(As: np.ndarray, Ds: np.ndarray) -> list:
    """(points, components) per partition of the stack's coupling graphs:
    the indices of the points that have it and its components as index
    tuples.  One closure per distinct nonzero pattern (a packed-bits key)."""
    n = As.shape[-1]
    link = (As != 0) | (Ds != 0)
    link = link | link.swapaxes(-2, -1)
    packed = np.packbits(link.reshape(len(As), n * n), axis=-1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, shown, inverse = np.unique(keys, return_index=True, return_inverse=True)
    groups = {}
    for k, point in enumerate(shown):
        reach = link[point] | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):   # paths of up to 2^bits > n steps
            reach = reach @ reach
        parts = tuple(sorted({tuple(np.flatnonzero(row)) for row in reach}))
        groups.setdefault(parts, []).append(k)
    return [(np.flatnonzero(np.isin(inverse, keys_of)), parts)
            for parts, keys_of in groups.items()]


def _sym_vec_solve(As: np.ndarray, Ds: np.ndarray) -> np.ndarray:
    """V of every system of a (points, s, s) stack, by the sym-vec form in
    m unknowns, SOLVE_CHUNK * 36**2 // m**2 systems per batched LU solve."""
    s = As.shape[-1]
    iu, ju, pos, first, second = _sym_vec_maps(s)
    size = max(1, SOLVE_CHUNK * 36**2 // len(iu)**2)
    a = np.concatenate((As.reshape(len(As), s * s), np.zeros((len(As), 1))),
                       axis=1)
    b = -Ds[:, iu, ju][..., None]
    V = np.empty_like(As)
    for k in range(0, len(As), size):
        chunk = slice(k, k + size)
        M = a[chunk, first]
        M += a[chunk, second]
        V[chunk] = np.linalg.solve(M, b[chunk])[:, pos, 0]
    return V


def solve_lyapunov(A: np.ndarray, D: np.ndarray,
                   gated: bool = False) -> np.ndarray:
    """Solve A V + V A^T = -D for the stationary covariance matrix V.

    A and D are n x n, or (points, n, n) stacks; V has the shape of A, with
    exact zeros between the components of each point's coupling graph.
    Refuses unstable drift matrices (there is no steady state to report);
    ``gated=True`` says the caller has already checked every A with
    :func:`is_stable`, which is then not repeated.  Every solution is
    checked for symmetry (to SYMMETRY_TOL) and finiteness and against the
    residual bound ||A V + V A^T + D|| <= RESIDUAL_TOL (||A|| ||V|| + ||D||).
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[-1]
    if A.ndim not in (2, 3) or A.shape[-2:] != (n, n) or D.shape != A.shape:
        raise ValueError("A and D must be square and of equal size")
    if not gated:
        stable, abscissa = is_stable(A)
        require(stable, UnstableSystemError, lambda i: (
            "drift matrix is not stable (spectral abscissa "
            f"{np.ravel(abscissa)[i]:.6g}); the system has no steady state"))

    As = A.reshape(-1, n, n)
    Ds = D.reshape(-1, n, n)
    V = np.zeros_like(As)
    for points, parts in _partitions(As, Ds):
        for part in parts:
            block = np.ix_(points, part, part)
            V[block] = _sym_vec_solve(As[block], Ds[block])

    norm_v = np.linalg.norm(V, axis=(-2, -1))
    asym = np.linalg.norm(V - V.swapaxes(-2, -1), axis=(-2, -1)) \
        / np.maximum(norm_v, 1e-300)
    require(asym <= SYMMETRY_TOL, LyapunovError, lambda i:   # NaN fails too
            f"Lyapunov solution asymmetric beyond tolerance: {asym[i]:.3g}")
    residual = np.linalg.norm(As @ V + V @ As.swapaxes(-2, -1) + Ds,
                              axis=(-2, -1))
    bound = RESIDUAL_TOL * (np.linalg.norm(As, axis=(-2, -1)) * norm_v
                            + np.linalg.norm(Ds, axis=(-2, -1)))
    require(residual <= bound, LyapunovError, lambda i: (
        f"Lyapunov residual {residual[i]:.3g} exceeds bound {bound[i]:.3g} "
        "(ill-conditioned solve)"))
    return V.reshape(A.shape)


def extract_block(V: np.ndarray, modes) -> np.ndarray:
    """Principal submatrix of the 8x8 covariance V (or of every matrix of a
    stack) for the labelled modes of ``MODE_SLOTS``, in the requested
    order."""
    for label in modes:
        if label not in MODE_SLOTS:
            raise KeyError(f"unknown mode label {label!r}")
    idx = np.array([k for label in modes for k in MODE_SLOTS[label]])
    return V[..., idx[:, None], idx]
