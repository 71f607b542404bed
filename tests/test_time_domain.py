import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralcmm.constants import hz
from chiralcmm.params import DRIVE_CCW, DRIVE_CW, Detunings, SystemParams
from chiralcmm.steady_state import (
    SQRT2,
    amplitude_for_gm,
    imperfect_means,
    precompensated_detunings,
)
from chiralcmm.time_domain import (
    OSCILLATORY,
    STEADY,
    STEADY_TOL,
    WINDOW_FRAC,
    InconclusiveError,
    Trajectory,
    _fixed_point_scales,
    classify_attractor,
    comb_threshold,
    default_horizon,
    integrate_classical,
    make_rhs,
    trajectory_to_csv,
)
from chiralcmm import presets

from helpers import complex_rhs


def bare_detunings(p, delta_a, delta_m):
    return Detunings(delta_a, delta_m, delta_m)


class TestIntegration:
    def test_zero_drive_zero_state(self):
        p = SystemParams(g_m=1.0)
        det = bare_detunings(p, -p.omega_b, p.omega_b)
        traj = integrate_classical(p, det, 0.0, t_end=2e-6)
        assert np.all(traj.m == 0) and np.all(traj.q == 0)
        assert np.all(traj.a_cw == 0)

    def test_linear_limit_matches_closed_form(self):
        # g_m = 0: final state equals the steady state at the bare detuning
        p = SystemParams(g_m=0.0)
        det = bare_detunings(p, -0.72 * p.omega_b, 0.76 * p.omega_b)
        E = hz(50e6)
        traj = integrate_classical(p, det, E, t_end=default_horizon(p))
        ref = imperfect_means(p, det, E)
        assert traj.m[-1] == pytest.approx(ref.m, rel=1e-6)
        assert traj.a_cw[-1] == pytest.approx(ref.a_cw, rel=1e-6)

    @settings(max_examples=8, deadline=None)
    @given(s=st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_invariance(self, s):
        # (g_m, E) -> (g_m/s, s E) leaves g_m-scaled trajectories unchanged
        p1 = SystemParams(g_m=2.0, kappa_a_e=hz(4.8e6), g_cw=hz(8e6))
        det = bare_detunings(p1, -0.76 * p1.omega_b, 0.65 * p1.omega_b)
        E = 5e14
        p2 = p1.replace(g_m=p1.g_m / s)
        t1 = integrate_classical(p1, det, E, t_end=4e-6)
        t2 = integrate_classical(p2, det, s * E, t_end=4e-6)
        scale = np.max(np.abs(p1.g_m * t1.m))
        assert np.max(np.abs(p1.g_m * t1.m - p2.g_m * t2.m)) <= 1e-6 * scale
        assert np.max(np.abs(p1.g_m * t1.q - p2.g_m * t2.q)) \
            <= 1e-6 * np.max(np.abs(p1.g_m * t1.q))

    def test_steady_state_satisfies_algebraic_equations(self):
        # drive strong enough that sideband cooling settles the mechanics
        # well inside the default horizon
        p = SystemParams(g_m=1.0, J=hz(0.5e6), g_ccw=0.1 * hz(4e6))
        det = bare_detunings(p, -0.72 * p.omega_b, 0.76 * p.omega_b)
        E = 1e15
        traj = integrate_classical(p, det, E)
        m, q, acw, accw = traj.m[-1], traj.q[-1], traj.a_cw[-1], traj.a_ccw[-1]
        p_mom = traj.p[-1]
        res_m = (-(p.kappa_m + 1j * det.delta_m) * m - 1j * p.g_m * m * q
                 - 1j * p.g_cw * acw - 1j * p.g_ccw * accw)
        assert abs(res_m) <= 1e-5 * abs((p.kappa_m + 1j * det.delta_m) * m)
        res_p = -p.omega_b * q - p.gamma_b * p_mom - p.g_m * abs(m) ** 2
        assert abs(res_p) <= 1e-5 * abs(p.omega_b * q)

    def test_deterministic(self):
        p = SystemParams(g_m=1.0)
        det = bare_detunings(p, -p.omega_b, p.omega_b)
        t1 = integrate_classical(p, det, 1e12, t_end=2e-6)
        t2 = integrate_classical(p, det, 1e12, t_end=2e-6)
        assert np.array_equal(t1.m, t2.m)
        assert np.array_equal(t1.q, t2.q)

    def test_tolerance_scales_fall_back_where_a_mode_is_empty(self):
        p = SystemParams(g_m=1.0)
        det = bare_detunings(p, -p.omega_b, p.omega_b)
        assert_allclose(_fixed_point_scales(p, det, 0.0, "cw", np.zeros(8)),
                        np.ones(8))
        y0 = np.full(8, -3.0)
        assert_allclose(_fixed_point_scales(p, det, 0.0, "cw", y0), 3.0)
        # magnon decoupled from the driven mode: its scales and those of
        # the mechanics take the cavity's
        p = SystemParams(g_cw=0.0, g_ccw=0.0, g_m=1.0)
        scales = _fixed_point_scales(p, det, 1e12, "cw", np.zeros(8))
        assert scales[0] > 0
        assert_allclose(scales, scales[0])

    def test_requires_g_m(self):
        p = SystemParams()
        det = bare_detunings(p, 0.0, 0.0)
        with pytest.raises(ValueError, match="g_m"):
            integrate_classical(p, det, 1.0)


# finite states and couplings whose products stay far from overflow; state
# components are often zero of either sign, where the sign of a zero
# derivative depends on every zero product of the complex form
state_component = st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(min_value=-1e30, max_value=1e30))
coupling = st.floats(min_value=-1e9, max_value=1e9)


class TestRightHandSide:
    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(state_component, min_size=8, max_size=8),
           J=coupling, g_ccw=coupling,
           g_m=st.floats(min_value=0.0, max_value=1e3),
           gamma_b=st.floats(min_value=0.0, max_value=1e7),
           delta_a=coupling, delta_m=coupling,
           E=st.floats(min_value=0.0, max_value=1e16),
           port=st.sampled_from([DRIVE_CW, DRIVE_CCW]))
    def test_float_form_matches_complex_form_bitwise(
            self, y, J, g_ccw, g_m, gamma_b, delta_a, delta_m, E, port):
        p = SystemParams(J=J, g_ccw=g_ccw, g_m=g_m, gamma_b=gamma_b)
        det = Detunings(delta_a, delta_m, delta_m)
        y = np.array(y)
        ours = make_rhs(p, det, E, port)(0.0, y)
        oracle = complex_rhs(p, det, E, port)(0.0, y)
        assert np.array(ours).tobytes() == np.array(oracle).tobytes()


def fig2b_probe(target_hz):
    """g_m, bare detunings and drive of the fig2b comb probe at a target."""
    pre = presets.get("fig2b")
    p = pre.params.replace(g_m=1.0)
    E = amplitude_for_gm(p, pre.detunings, hz(target_hz))
    return p, precompensated_detunings(p, pre.detunings, E), E


class TestWindowOnlySampling:
    @pytest.mark.parametrize("target_hz, t_end, kind", [
        (6e6, None, STEADY), (9e6, 6e-6, OSCILLATORY)])
    def test_window_is_the_tail_of_the_full_grid(self, target_hz, t_end, kind):
        p, det, E = fig2b_probe(target_hz)
        full = integrate_classical(p, det, E, t_end=t_end)
        tail = integrate_classical(p, det, E, t_end=t_end,
                                   window_frac=WINDOW_FRAC)
        n = full.t.size
        start = int(n * (1.0 - WINDOW_FRAC))
        assert tail.stats["n_grid"] == full.stats["n_grid"] == n
        assert tail.t.size == n - start
        for name in ("t", "a_cw", "a_ccw", "m", "q", "p"):
            assert getattr(tail, name).tobytes() == \
                getattr(full, name)[start:].tobytes()
        rep = classify_attractor(tail)
        assert rep == classify_attractor(full)
        assert rep.kind == kind
        assert tail.stats["nfev"] < full.stats["nfev"]

    def test_window_reaching_before_the_first_sample_raises(self):
        p, det, E = fig2b_probe(6e6)
        tail = integrate_classical(p, det, E, t_end=3e-6, window_frac=0.5)
        classify_attractor(tail, window_frac=0.5)
        with pytest.raises(ValueError, match="first"):
            classify_attractor(tail, window_frac=0.6)

    @pytest.mark.parametrize("window_frac", [0.0, -0.1, 1.5])
    def test_window_fraction_checked(self, window_frac):
        p, det, E = fig2b_probe(6e6)
        with pytest.raises(ValueError, match="window_frac"):
            integrate_classical(p, det, E, t_end=2e-6, window_frac=window_frac)

    def test_default_returns_the_full_grid(self):
        p, det, E = fig2b_probe(6e6)
        traj = integrate_classical(p, det, E, t_end=2e-6)
        n = traj.stats["n_grid"]
        assert traj.t.size == n
        assert np.array_equal(traj.t, np.linspace(0.0, 2e-6, n))


class TestClassification:
    def test_damped_linear_system_is_steady(self):
        p = SystemParams(g_m=0.0)
        det = bare_detunings(p, -0.72 * p.omega_b, 0.76 * p.omega_b)
        traj = integrate_classical(p, det, hz(50e6))
        rep = classify_attractor(traj)
        assert rep.kind == STEADY
        assert rep.dominant_frequency is None

    def test_settling_at_moderate_drive_with_backscattering(self):
        # the workhorse sanity check: reference drive, J = kappa_m/2 settles
        pre = presets.get("figs1")
        p, det_eff = pre.params, pre.detunings
        sf = imperfect_means(p, det_eff, p.drive.value)
        det = Detunings(det_eff.delta_a,
                        det_eff.delta_m_eff + p.g_m**2 * abs(sf.m) ** 2 / p.omega_b,
                        det_eff.delta_m_eff)
        traj = integrate_classical(p, det, p.drive.value)
        rep = classify_attractor(traj)
        assert rep.kind == STEADY
        assert np.mean(np.abs(traj.m[-traj.m.size // 5:])) \
            == pytest.approx(abs(sf.m), rel=1e-3)

    def test_short_window_is_inconclusive(self):
        p = SystemParams(g_m=1.0)
        det = bare_detunings(p, -p.omega_b, p.omega_b)
        traj = integrate_classical(p, det, 1e12, t_end=1e-6)
        with pytest.raises(InconclusiveError):
            classify_attractor(traj, window_frac=0.05)

    def test_oscillatory_signal_detected(self):
        t = np.linspace(0.0, 1.0, 20001)
        wb = 2 * math.pi * 200.0
        m = 1.0 + 0.1 * np.sin(wb * t)
        traj = Trajectory(t=t, a_cw=np.zeros_like(m, dtype=complex),
                          a_ccw=np.zeros_like(m, dtype=complex),
                          m=m.astype(complex), q=np.zeros_like(t),
                          p=np.zeros_like(t), stats={"omega_b": wb})
        rep = classify_attractor(traj)
        assert rep.kind == OSCILLATORY
        assert rep.dominant_frequency == pytest.approx(wb, rel=0.05)


class TestCombThreshold:
    def test_settling_probe_realizes_target_cheaply(self):
        # the benchmark's steady probe: fig2b at |G_m| = 6 MHz.  With a
        # scalar absolute tolerance it took 2.77 M right-hand-side calls.
        pre = presets.get("fig2b")
        p = pre.params.replace(g_m=1.0)
        target = hz(6e6)
        E = amplitude_for_gm(p, pre.detunings, target)
        traj = integrate_classical(
            p, precompensated_detunings(p, pre.detunings, E), E)
        rep = classify_attractor(traj)
        assert rep.kind == STEADY
        assert SQRT2 * p.g_m * rep.mean_m_abs == pytest.approx(target, rel=1e-8)
        assert traj.stats["nfev"] < 50_000

    def test_probe_below_threshold_settles(self):
        p = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6))
        det = Detunings.effective(-0.76 * p.omega_b, 0.65 * p.omega_b)
        res = comb_threshold(p, det, cap=hz(5e6), resolution=hz(0.05e6))
        assert res.no_comb_below_cap
        assert res.probes[0][1] == STEADY
        (variation,) = res.probe_variation
        assert 0 <= variation < STEADY_TOL

    def test_decoupled_cavity_never_combs(self):
        p = SystemParams(g_cw=0.0, g_m=1.0)
        det = Detunings.effective(-p.omega_b, 0.65 * p.omega_b)
        res = comb_threshold(p, det, cap=hz(1e6), resolution=hz(0.05e6))
        assert res.no_comb_below_cap


class TestTrajectoryDump:
    def test_csv_round_trip(self, tmp_path):
        p = SystemParams(g_m=1.0)
        det = bare_detunings(p, -p.omega_b, p.omega_b)
        traj = integrate_classical(p, det, 1e12, t_end=2e-6)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2] == "t,re_a_cw,im_a_cw,re_a_ccw,im_a_ccw,re_m,im_m,q,p"
        data = np.loadtxt(path, delimiter=",", skiprows=3)
        assert data.shape[1] == 9
        assert_allclose(data[:, 0], traj.t, rtol=1e-8)
