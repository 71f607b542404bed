"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

One solver for one system or a stack of them: the n(n+1)/2 independent
entries of the symmetric V solve a linear system whose matrix is assembled
entrywise from A (no matrix products, so a point's result does not depend
on the stack it is solved in), and numpy's batched LU solves every system
of the stack in one call.  The test suite checks it against a Schur
(Bartels-Stewart) solve, a dense Kronecker-product solve and a time-integral
oracle.

A covariance matrix is a plain array, in the quadrature ordering of
``linear_model.MODE_ORDER``: :func:`extract_block` picks modes by label
through ``linear_model.MODE_SLOTS``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linear_model import MODE_SLOTS, UnstableSystemError, is_stable


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


def solve_lyapunov(A: np.ndarray, D: np.ndarray,
                   gated: bool = False) -> np.ndarray:
    """Solve A V + V A^T = -D for the stationary covariance matrix V.

    A and D are n x n, or (points, n, n) stacks solved in one call; V has
    the shape of A.
    Refuses unstable drift matrices (there is no steady state to report);
    ``gated=True`` says the caller has already checked every A with
    :func:`is_stable`, which is then not repeated.  Every solution is
    checked for symmetry and finiteness and against the residual bound
    ||A V + V A^T + D|| <= 1e-10 (||A|| ||V|| + ||D||).
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[-1]
    if A.ndim not in (2, 3) or A.shape[-2:] != (n, n) or D.shape != A.shape:
        raise ValueError("A and D must be square and of equal size")
    if not gated:
        stable, abscissa = is_stable(A)
        if not np.all(stable):
            worst = np.flatnonzero(~np.atleast_1d(stable))[0]
            raise UnstableSystemError(
                f"drift matrix is not stable (spectral abscissa "
                f"{np.atleast_1d(abscissa)[worst]:.6g}); "
                "the system has no steady state")

    As = A.reshape(-1, n, n)
    Ds = D.reshape(-1, n, n)
    iu, ju, pos, first, second = _sym_vec_maps(n)
    a = np.concatenate((As.reshape(len(As), n * n), np.zeros((len(As), 1))),
                       axis=1)
    M = a[:, first]
    M += a[:, second]
    v = np.linalg.solve(M, -Ds[:, iu, ju][..., None])[..., 0]
    V = v[:, pos]

    norm_v = np.linalg.norm(V, axis=(-2, -1))
    asym = np.linalg.norm(V - V.swapaxes(-2, -1), axis=(-2, -1)) \
        / np.maximum(norm_v, 1e-300)
    bad = ~(asym <= 1e-8)   # NaN fails too
    if np.any(bad):
        raise RuntimeError("Lyapunov solution asymmetric beyond tolerance: "
                           f"{asym[bad][0]:.3g}")
    residual = np.linalg.norm(As @ V + V @ As.swapaxes(-2, -1) + Ds,
                              axis=(-2, -1))
    bound = 1e-10 * (np.linalg.norm(As, axis=(-2, -1)) * norm_v
                     + np.linalg.norm(Ds, axis=(-2, -1)))
    bad = ~(residual <= bound)
    if np.any(bad):
        raise RuntimeError(
            f"Lyapunov residual {residual[bad][0]:.3g} exceeds bound "
            f"{bound[bad][0]:.3g} (ill-conditioned solve)")
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
