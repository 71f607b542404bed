import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from chiralcmm.constants import HBAR, KB, hz
from chiralcmm.linear_model import (
    UnstableSystemError,
    build_diffusion,
    build_drift,
    build_model,
    is_stable,
    max_stable_coupling,
)
from chiralcmm.params import Detunings, DriveSpec, SystemParams
from chiralcmm.pipeline import evaluate_point
from chiralcmm.steady_state import amplitude_for_gm, target_detunings

# entries the drift matrices leave identically zero, for any parameters
IDEAL_ZERO = np.array([
    [0, 0, 1, 1, 1, 0, 1, 1],
    [0, 0, 1, 1, 0, 1, 1, 1],
    [1, 1, 0, 0, 1, 1, 1, 1],
    [1, 1, 0, 0, 1, 1, 1, 1],
    [1, 0, 1, 1, 0, 0, 0, 1],
    [0, 1, 1, 1, 0, 0, 0, 1],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
], dtype=bool)

IMPERFECT_ZERO = np.array([
    [0, 0, 1, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 1],
    [1, 0, 0, 0, 1, 0, 1, 1],
    [0, 1, 0, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 0, 0, 1],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
], dtype=bool)


def rand_point(rng):
    p = SystemParams(
        kappa_a_i=rng.uniform(hz(0.1e6), hz(1e6)),
        kappa_a_e=rng.uniform(hz(1e6), hz(6e6)),
        kappa_m=rng.uniform(hz(0.5e6), hz(2e6)),
        gamma_b=rng.uniform(hz(10), hz(1e4)),
        g_cw=rng.uniform(hz(1e6), hz(9e6)),
        g_ccw=rng.uniform(0, hz(2e6)),
        J=rng.uniform(0, hz(2e6)),
    )
    det = Detunings.effective(rng.uniform(-2, 2) * p.omega_b,
                              rng.uniform(-2, 2) * p.omega_b)
    gm = rng.uniform(0, hz(6e6)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return p, det, gm


class TestDrift:
    def test_decoupled_limit_eigenvalues(self):
        p = SystemParams(g_cw=0.0)
        det = Detunings.effective(-0.5 * p.omega_b, 0.3 * p.omega_b)
        A = build_drift(p, det, 0.0)
        ev = np.sort_complex(np.linalg.eigvals(A))
        expected = [-p.kappa_a + 1j * det.delta_a, -p.kappa_a - 1j * det.delta_a,
                    -p.kappa_a + 1j * det.delta_a, -p.kappa_a - 1j * det.delta_a,
                    -p.kappa_m + 1j * det.delta_m_eff,
                    -p.kappa_m - 1j * det.delta_m_eff]
        mech_roots = np.roots([1.0, p.gamma_b, p.omega_b ** 2])
        expected += list(mech_roots)
        assert_allclose(ev, np.sort_complex(np.array(expected)), rtol=1e-9)

    def test_imperfect_reduces_to_ideal(self):
        # J and g_ccw enter only entries that the chiral drift leaves zero
        rng = np.random.default_rng(21)
        for _ in range(20):
            p, det, gm = rand_point(rng)
            A = build_drift(p, det, gm)
            A0 = build_drift(p.replace(J=0.0, g_ccw=0.0), det, gm)
            assert np.array_equal(A[~IDEAL_ZERO], A0[~IDEAL_ZERO])

    def test_sparsity_pattern(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            p, det, gm = rand_point(rng)
            A = build_drift(p, det, gm)
            assert np.all(A[IMPERFECT_ZERO] == 0.0)
            p0 = p.replace(J=0.0, g_ccw=0.0)
            A0 = build_drift(p0, det, gm)
            assert np.all(A0[IDEAL_ZERO] == 0.0)

    def test_coupling_signs(self):
        p = SystemParams(J=hz(1e6), g_ccw=hz(0.3e6))
        det = Detunings.effective(-0.7 * p.omega_b, 0.6 * p.omega_b)
        gm = hz(2e6) * np.exp(0.4j)
        A = build_drift(p, det, gm)
        assert A[0, 1] == det.delta_a and A[1, 0] == -det.delta_a
        assert A[0, 5] == p.g_cw and A[1, 4] == -p.g_cw
        assert A[0, 3] == p.J and A[1, 2] == -p.J
        assert A[4, 6] == gm.imag and A[5, 6] == -gm.real
        assert A[7, 4] == -gm.real and A[7, 5] == -gm.imag
        assert A[6, 7] == p.omega_b and A[7, 6] == -p.omega_b
        assert A[7, 7] == -p.gamma_b


class TestDiffusion:
    def test_zero_temperature(self):
        p = SystemParams(temperature=0.0)
        D = build_diffusion(p)
        ka, km = p.kappa_a, p.kappa_m
        assert_allclose(np.diag(D), [ka, ka, ka, ka, km, km, 0.0, p.gamma_b],
                        rtol=1e-15)

    def test_mechanical_entry_thermal(self):
        p = SystemParams()  # 10 mK
        n_b = 1.0 / math.expm1(HBAR * p.omega_b / (KB * p.temperature))
        D = build_diffusion(p)
        assert D[7, 7] == pytest.approx(p.gamma_b * (2 * n_b + 1), rel=1e-12)
        assert D[6, 6] == 0.0

    def test_doubling_thermal_factor_scales_only_mechanical_row(self):
        p1 = SystemParams()
        n1 = p1.occupancies()[2]

        def factor(T):
            return 2.0 / math.expm1(HBAR * p1.omega_b / (KB * T)) + 1.0

        t2 = brentq(lambda T: factor(T) - 2 * (2 * n1 + 1), 0.005, 0.1)
        p2 = p1.replace(temperature=t2)
        D1, D2 = build_diffusion(p1), build_diffusion(p2)
        assert D2[7, 7] == pytest.approx(2 * D1[7, 7], rel=1e-10)
        assert_allclose(np.diag(D2)[:6], np.diag(D1)[:6], rtol=1e-9)


class TestStability:
    def test_identity_case(self):
        stable, absc = is_stable(-np.eye(8))
        assert stable and absc == pytest.approx(-1.0)

    def test_decoupled_damped_system_is_stable(self):
        p = SystemParams(g_cw=0.0)
        det = Detunings.effective(-p.omega_b, p.omega_b)
        assert is_stable(build_drift(p, det, 0.0))[0]

    def test_invariant_under_time_rescaling(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p, det, gm = rand_point(rng)
            A = build_drift(p, det, gm)
            verdict = is_stable(A)[0]
            for s in (1e-6, 1e-3, 42.0, 1e6):
                assert is_stable(s * A)[0] == verdict

    def test_eigen_failure_is_an_error(self):
        with pytest.raises(ValueError):
            is_stable(np.full((8, 8), np.nan))


class TestMaxStableCoupling:
    def stability_point(self):
        p = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6))
        det = Detunings.effective(-0.76 * p.omega_b, 0.65 * p.omega_b)
        return p, det

    def test_known_boundary(self):
        p, det = self.stability_point()
        edge = max_stable_coupling(p, det, cap=hz(30e6),
                                   resolution=hz(0.01e6))
        assert edge.value == pytest.approx(hz(11.9e6), rel=0.02)

    def test_decoupled_system_stable_up_to_cap(self):
        # cap kept below the bare magnomechanical parametric instability
        p = SystemParams(g_cw=0.0)
        det = Detunings.effective(-p.omega_b, p.omega_b)
        edge = max_stable_coupling(p, det, cap=hz(5e6),
                                   resolution=hz(0.01e6))
        assert edge.stable_up_to_cap and edge.value is None

    def test_invariant_under_coupling_phase(self):
        p, det = self.stability_point()
        rot = np.exp(1.1j)
        for g in np.linspace(0.0, hz(30e6), 61):
            assert is_stable(build_drift(p, det, g * rot))[0] \
                == is_stable(build_drift(p, det, g))[0]

    def test_physical_mode_edge_brackets_the_self_consistent_edge(self):
        # fig2b's cavity at zero bare detunings: each probe sees the
        # dispersive shift of its |G_m|, and the bracket's ends are stable
        # and unstable where the pipeline solves the mean field itself
        p = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6), g_m=hz(1.0),
                         detuning_mode="physical",
                         drive=DriveSpec("amplitude", hz(1e12)))
        det = Detunings.physical(p)
        edge = max_stable_coupling(p, det, cap=hz(20e6),
                                   resolution=hz(0.01e6))
        assert edge.value == pytest.approx(hz(0.5225e6), rel=1e-3)
        for gm, stable in zip(edge.bracket, (True, False)):
            E = amplitude_for_gm(p, target_detunings(p, det, gm), gm)
            row = evaluate_point(p.replace(drive=DriveSpec("amplitude", E)),
                                 det)
            assert abs(row["g_m_eff"]) == pytest.approx(gm, rel=1e-9)
            assert row["stable"] == stable

    def test_unstable_at_zero_coupling_raises(self):
        p = SystemParams(gamma_b=-1.0)
        det = Detunings.effective(-p.omega_b, p.omega_b)
        with pytest.raises(UnstableSystemError):
            max_stable_coupling(p, det, cap=hz(5e6), resolution=hz(0.01e6))


class TestCcwBlockClosure:
    def test_ideal_ccw_block_solves_its_own_lyapunov(self):
        from chiralcmm.lyapunov import solve_lyapunov

        p = SystemParams()
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        model = build_model(p, det, hz(4e6) * np.exp(0.3j))
        V = solve_lyapunov(model.A, model.D)
        n_a = p.occupancies()[0]
        assert_allclose(V[2:4, 2:4], (n_a + 0.5) * np.eye(2), atol=1e-12)
        assert_allclose(V[2:4, :2], 0.0, atol=1e-12)
        assert_allclose(V[2:4, 4:], 0.0, atol=1e-12)
