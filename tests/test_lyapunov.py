import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg import expm
from scipy.stats import ortho_group

from chiralcmm.constants import hz
from chiralcmm.linear_model import build_model
from chiralcmm.lyapunov import (
    CovMatrix,
    UnstableSystemError,
    extract_block,
    solve_lyapunov,
)
from chiralcmm.params import Detunings, SystemParams

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
        cm = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]),
                            mode_order=("x",))
        assert cm.V[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_oracle_agreement_100_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D, mode_order=tuple("abcd")).V
            V_ref = integral_oracle(A, D)
            assert np.linalg.norm(V - V_ref) <= 1e-8 * np.linalg.norm(V_ref)

    def test_residual_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D, mode_order=tuple("abcd")).V
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
            v1 = solve_lyapunov(A, D, mode_order=tuple("abcd")).V
            eye = np.eye(A.shape[0])
            v2 = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A),
                                 -D.ravel()).reshape(A.shape)
            assert_allclose(v1, v2, rtol=1e-8, atol=1e-12 * np.linalg.norm(v1))

    def test_stacked_solve_matches_schur_oracle(self):
        rng = np.random.default_rng(44)
        systems = [random_stable_system(rng) for _ in range(20)]
        A = np.array([a for a, _ in systems])
        D = np.array([d for _, d in systems])
        V = solve_lyapunov(A, D, mode_order=tuple("abcd")).V
        assert V.shape == (20, 8, 8)
        for k, (a, d) in enumerate(systems):
            ref = schur_lyapunov(a, d)
            assert np.linalg.norm(V[k] - ref) <= 1e-9 * np.linalg.norm(ref)
            # a system's solution does not depend on the stack around it
            single = solve_lyapunov(a, d, mode_order=tuple("abcd")).V
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
            V = solve_lyapunov(A, D, mode_order=tuple("abcd")).V
            V_s = solve_lyapunov(S @ A @ S.T, S @ D @ S.T,
                                 mode_order=tuple("abcd")).V
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
        cm = solve_lyapunov(model.A, model.D)
        assert np.all(symplectic_eigenvalues(cm.V) >= 0.5 - 1e-9)


class TestExtractBlock:
    def cm(self):
        V = np.arange(64, dtype=float).reshape(8, 8)
        V = V + V.T
        return CovMatrix(V=V, mode_order=("a_cw", "a_ccw", "m", "b"))

    def test_pair_indexing(self):
        cm = self.cm()
        out = extract_block(cm, ("a_cw", "m"))
        idx = [0, 1, 4, 5]
        assert_allclose(out.V, cm.V[np.ix_(idx, idx)])
        assert out.mode_order == ("a_cw", "m")

    def test_identity(self):
        cm = self.cm()
        out = extract_block(cm, cm.mode_order)
        assert_allclose(out.V, cm.V)

    def test_triple_for_tripartite_measures(self):
        cm = self.cm()
        out = extract_block(cm, ("a_cw", "m", "b"))
        assert out.V.shape == (6, 6)

    def test_reordering(self):
        cm = self.cm()
        out = extract_block(cm, ("m", "a_cw"))
        idx = [4, 5, 0, 1]
        assert_allclose(out.V, cm.V[np.ix_(idx, idx)])

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            extract_block(self.cm(), ("nope",))
