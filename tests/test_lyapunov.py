import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg import expm
from scipy.stats import ortho_group

from chiralcmm import presets
from chiralcmm.constants import hz
from chiralcmm.linear_model import MODE_ORDER, build_model, is_stable
from chiralcmm.lyapunov import (
    SOLVE_CHUNK,
    UnstableSystemError,
    extract_block,
    solve_lyapunov,
)
from chiralcmm.params import Detunings, SystemParams
from chiralcmm.pipeline import grid_rows
from chiralcmm.steady_state import resolve_drive

from helpers import random_stable_system, schur_lyapunov


def integral_oracle(A, D, reltol=1e-11):
    """V = Int_0^inf exp(A t) D exp(A^T t) dt by adaptive quadrature."""
    absc = np.max(np.linalg.eigvals(A).real)
    t_cut = -60.0 / absc

    def f(t):
        E = expm(A * t)
        return E @ D @ E.T

    val, _ = quad_vec(f, 0.0, t_cut, epsabs=0.0, epsrel=reltol)
    return val


class TestSolver:
    def test_scalar_case(self):
        V = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert V[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_oracle_agreement_100_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D)
            V_ref = integral_oracle(A, D)
            assert np.linalg.norm(V - V_ref) <= 1e-8 * np.linalg.norm(V_ref)

    def test_residual_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D)
            res = np.linalg.norm(A @ V + V @ A.T + D)
            bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(V)
                             + np.linalg.norm(D))
            assert res <= bound
            assert_allclose(V, V.T, atol=0)

    def test_methods_agree(self):
        # against a dense solve of the full n^2 x n^2 Kronecker system
        rng = np.random.default_rng(44)
        for _ in range(20):
            A, D = random_stable_system(rng)
            v1 = solve_lyapunov(A, D)
            eye = np.eye(A.shape[0])
            v2 = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A),
                                 -D.ravel()).reshape(A.shape)
            assert_allclose(v1, v2, rtol=1e-8, atol=1e-12 * np.linalg.norm(v1))

    def test_stacked_solve_matches_schur_oracle(self):
        rng = np.random.default_rng(44)
        systems = [random_stable_system(rng) for _ in range(20)]
        A = np.array([a for a, _ in systems])
        D = np.array([d for _, d in systems])
        V = solve_lyapunov(A, D)
        assert V.shape == (20, 8, 8)
        for k, (a, d) in enumerate(systems):
            ref = schur_lyapunov(a, d)
            assert np.linalg.norm(V[k] - ref) <= 1e-9 * np.linalg.norm(ref)
            # a system's solution does not depend on the stack around it
            single = solve_lyapunov(a, d)
            assert np.array_equal(single, V[k])

    def test_stack_with_one_unstable_member_refused(self):
        rng = np.random.default_rng(46)
        A, D = random_stable_system(rng)
        unstable = A + 10.0 * np.eye(8)
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(np.array([A, unstable]), np.array([D, D]))

    def test_orthogonal_congruence_covariance(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            A, D = random_stable_system(rng)
            S = ortho_group.rvs(8, random_state=rng)
            V = solve_lyapunov(A, D)
            V_s = solve_lyapunov(S @ A @ S.T, S @ D @ S.T)
            assert np.linalg.norm(V_s - S @ V @ S.T) <= 1e-10 * np.linalg.norm(V)

    def test_refuses_unstable_drift(self):
        A = np.diag([1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(A, np.eye(8))

    def test_physical_point_covariance_is_quantum(self):
        from chiralcmm.measures import symplectic_eigenvalues

        p = SystemParams()
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        model = build_model(p, det, hz(4e6))
        V = solve_lyapunov(model.A, model.D)
        assert np.all(symplectic_eigenvalues(V) >= 0.5 - 1e-9)


def fig2a_systems(count):
    """Drift and diffusion stacks of ``count`` stable points of the fig2a
    detuning map, in grid order.  The first 215 of them have delta_a < 0,
    where a_ccw's two quadratures are coupled."""
    pre = presets.get("fig2a", grid_points=16)
    values, _ = grid_rows(pre.sweep)
    P = pre.params.stacked(len(values))
    det = Detunings.effective(values[:, 0], values[:, 1])
    model = build_model(P, det, resolve_drive(P, det).g_m_eff)
    assert np.sum(model.stable) >= count
    return model.A[model.stable][:count], model.D[model.stable][:count]


class TestChunks:
    # fig2a is chiral (J = g_ccw = 0): each point splits into a_cw, m, b
    # (21 unknowns) and a_ccw (3).  A chunk of the 21-unknown component
    # holds CHUNK systems, and the stack is two full chunks and a partial one
    ENTRIES = SOLVE_CHUNK * 36**2
    CHUNK = ENTRIES // 21**2
    SIZE = 2 * CHUNK + 3

    def test_stack_gives_the_bits_of_each_system_alone(self):
        A, D = fig2a_systems(self.SIZE)
        V = solve_lyapunov(A, D, gated=True)
        for k in range(self.SIZE):
            assert np.array_equal(V[k], solve_lyapunov(A[k], D[k]))

    def test_no_solve_takes_more_than_one_chunk(self, monkeypatch):
        # each solve takes at most SOLVE_CHUNK * 36**2 matrix entries: 94
        # systems of 21 unknowns, or the whole stack of 3-unknown ones
        A, D = fig2a_systems(self.SIZE)
        calls, solve = [], np.linalg.solve

        def recording(M, b):
            calls.append(M.shape[:2])
            return solve(M, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        solve_lyapunov(A, D, gated=True)
        assert max(systems * m**2 for systems, m in calls) <= self.ENTRIES
        assert calls == [(94, 21), (94, 21), (3, 21), (191, 3)]

    def test_unstable_system_in_the_second_chunk_refused(self):
        A, D = fig2a_systems(self.SIZE)
        k = self.CHUNK + 5
        # mirror the abscissa of point k to the right half-plane
        A[k] -= 2 * is_stable(A[k])[1] * np.eye(8)
        stable, abscissa = is_stable(A[k])
        assert not stable
        with pytest.raises(UnstableSystemError, match=re.escape(
                f"(spectral abscissa {abscissa:.6g})")):
            solve_lyapunov(A, D)


@st.composite
def split_stacks(draw):
    """A stack of random stable systems, each block-diagonal under a random
    permutation, and each point's components: a point takes one of up to
    three partitions of n modes into components of 1 to n modes."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    partitions = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 \
            else set()
        perm = rng.permutation(n)
        partitions.append(np.split(perm, sorted(cuts)))
    which = draw(st.lists(st.integers(0, len(partitions) - 1),
                          min_size=1, max_size=40))
    A, D = np.zeros((2, len(which), n, n))
    for k, p in enumerate(which):
        for part in partitions[p]:
            block = np.ix_(part, part)
            A[k][block], D[k][block] = random_stable_system(rng, len(part))
    return A, D, [partitions[p] for p in which]


class TestSplitSolve:
    @settings(max_examples=60, deadline=None)
    @given(split_stacks())
    def test_components_solve_alone(self, stack):
        A, D, parts = stack
        V = solve_lyapunov(A, D)
        for k, components in enumerate(parts):
            ref = schur_lyapunov(A[k], D[k])
            assert np.linalg.norm(V[k] - ref) <= 1e-10 * np.linalg.norm(ref)
            label = np.empty(len(A[k]), dtype=int)
            for c, part in enumerate(components):
                label[part] = c
            between = label[:, None] != label
            assert np.all(V[k][between] == 0.0)
            assert np.array_equal(solve_lyapunov(A[k], D[k]), V[k])


class TestExtractBlock:
    def cm(self):
        V = np.arange(64, dtype=float).reshape(8, 8)
        return V + V.T

    def test_pair_indexing(self):
        V = self.cm()
        out = extract_block(V, ("a_cw", "m"))
        idx = [0, 1, 4, 5]
        assert_allclose(out, V[np.ix_(idx, idx)])

    def test_identity(self):
        V = self.cm()
        out = extract_block(V, MODE_ORDER)
        assert_allclose(out, V)

    def test_triple_for_tripartite_measures(self):
        out = extract_block(self.cm(), ("a_cw", "m", "b"))
        assert out.shape == (6, 6)

    def test_reordering(self):
        V = self.cm()
        out = extract_block(V, ("m", "a_cw"))
        idx = [4, 5, 0, 1]
        assert_allclose(out, V[np.ix_(idx, idx)])

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            extract_block(self.cm(), ("nope",))
