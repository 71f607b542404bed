import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import odeint, solve_ivp

from chiralcmm.constants import hz
from chiralcmm.params import DRIVE_CCW, DRIVE_CW, Detunings, SystemParams
from chiralcmm.steady_state import (
    SQRT2,
    amplitude_for_gm,
    imperfect_means,
    precompensated_detunings,
    self_consistent_solve,
)
from chiralcmm.time_domain import (
    OSCILLATORY,
    SAMPLES_PER_PERIOD,
    STEADY,
    STEADY_TOL,
    WINDOW_FRAC,
    InconclusiveError,
    IntegrationError,
    Trajectory,
    _fixed_point_scales,
    classify_attractor,
    comb_threshold,
    default_horizon,
    integrate_classical,
    integrated_slots,
    make_rhs,
)
from chiralcmm import presets, time_domain

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
        assert_allclose(_fixed_point_scales(p, det, 0.0), np.ones(8))
        # magnon decoupled from the driven mode: its scales and those of
        # the mechanics take the cavity's
        p = SystemParams(g_cw=0.0, g_ccw=0.0, g_m=1.0)
        scales = _fixed_point_scales(p, det, 1e12)
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
# J and the couplings are often a zero of either sign, so that a share of
# the examples is chiral and takes the 6-slot form
coupling_or_zero = st.one_of(st.sampled_from([0.0, -0.0]), coupling)

CHIRAL_CW_SLOTS, CHIRAL_CCW_SLOTS = [0, 1, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7]


def embedded(y, slots):
    """The 8-slot state of a state on ``slots``, +0.0 elsewhere."""
    full = np.zeros(8)
    full[slots] = y
    return full


def probe(case):
    """g_m, bare detunings and drive of a short test run: the fig2b comb
    probe at 9 MHz (cw, chiral), a ccw drive at g_cw = J = 0 (chiral), or
    a ccw drive with J and g_ccw nonzero, where every coupling term of the
    right-hand side acts."""
    if case == "fig2b-9MHz":
        return fig2b_probe(9e6)
    pre = presets.get("fig2b")
    p = pre.params.replace(g_m=1.0, drive_port=DRIVE_CCW)
    if case == "ccw-chiral":
        p = p.replace(g_cw=0.0, g_ccw=pre.params.g_cw)
    else:
        p = p.replace(J=hz(0.5e6), g_ccw=hz(1.5e6))
    E = amplitude_for_gm(p, pre.detunings, hz(5e6))
    return p, precompensated_detunings(p, pre.detunings, E), E


class TestRightHandSide:
    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(state_component, min_size=8, max_size=8),
           J=coupling_or_zero, g_cw=coupling_or_zero, g_ccw=coupling_or_zero,
           g_m=st.floats(min_value=0.0, max_value=1e3),
           gamma_b=st.floats(min_value=0.0, max_value=1e7),
           delta_a=coupling, delta_m=coupling,
           E=st.floats(min_value=0.0, max_value=1e16),
           port=st.sampled_from([DRIVE_CW, DRIVE_CCW]))
    def test_float_form_matches_complex_form_bitwise(
            self, y, J, g_cw, g_ccw, g_m, gamma_b, delta_a, delta_m, E, port):
        p = SystemParams(J=J, g_cw=g_cw, g_ccw=g_ccw, g_m=g_m,
                         gamma_b=gamma_b, drive_port=port)
        det = Detunings(delta_a, delta_m, delta_m)
        slots = list(integrated_slots(p))
        if J == 0 and (g_ccw if port == DRIVE_CW else g_cw) == 0:
            assert slots == (CHIRAL_CW_SLOTS if port == DRIVE_CW
                             else CHIRAL_CCW_SLOTS)
        else:
            assert slots == list(range(8))
        state = embedded(np.array(y)[slots], slots)
        ours = make_rhs(p, det, E)(0.0, state[slots])
        oracle = np.array(complex_rhs(p, det, E)(0.0, state))
        assert ours.tobytes() == oracle[slots].tobytes()
        # what makes dropping the undriven mode exact: its derivative at
        # the embedded state is +0.0
        dropped = np.delete(oracle, slots)
        assert np.all(dropped == 0.0) and not np.any(np.signbit(dropped))

    def test_every_call_returns_one_buffer(self):
        # the chiral form's buffer has 6 entries, the full form's 8
        for case, size in (("fig2b-9MHz", 6), ("ccw-backscattering", 8)):
            p, det, E = probe(case)
            slots = list(integrated_slots(p))
            rhs, oracle = make_rhs(p, det, E), complex_rhs(p, det, E)
            y1, y2 = np.random.default_rng(0).normal(size=(2, size))
            first = rhs(0.0, y1)
            kept = first.copy()
            second = rhs(0.0, y2)
            assert second is first
            assert first.dtype == np.float64 and first.shape == (size,)
            assert kept.tobytes() == \
                np.array(oracle(0.0, embedded(y1, slots)))[slots].tobytes()
            assert first.tobytes() == \
                np.array(oracle(0.0, embedded(y2, slots)))[slots].tobytes()

    @pytest.mark.parametrize("case", ["fig2b-9MHz", "ccw-chiral",
                                      "ccw-backscattering"])
    def test_integration_matches_the_list_form(self, case):
        # an 8-component odeint run of the complex form, with the same grid
        # and tolerances, gives the samples and counts of integrate_classical
        # bit for bit: the buffer is copied before the next call, and under
        # chiral coupling the dropped mode is +0.0 and outside the max norm
        p, det, E = probe(case)
        chiral = case != "ccw-backscattering"
        assert len(integrated_slots(p)) == (6 if chiral else 8)
        ours = integrate_classical(p, det, E, t_end=2e-6)
        y, info = odeint(complex_rhs(p, det, E), np.zeros(8), ours.t,
                         rtol=time_domain.RTOL,
                         atol=time_domain.ATOL_REL
                         * _fixed_point_scales(p, det, E),
                         mxstep=time_domain.MXSTEP, full_output=True,
                         tfirst=True)
        y = y.T
        oracle = {"a_cw": y[0] + 1j * y[1], "a_ccw": y[2] + 1j * y[3],
                  "m": y[4] + 1j * y[5], "q": y[6], "p": y[7]}
        for name, value in oracle.items():
            assert getattr(ours, name).tobytes() == value.tobytes()
        assert not np.any(info["mused"] == 2)
        assert (ours.stats["nfev"], ours.stats["nst"]) == \
            (info["nfe"][-1], info["nst"][-1])

    def test_settling_probe_matches_the_public_odeint(self, monkeypatch):
        # the settling fig2b probe switches to BDF, so the mxordn and mxords
        # positions of the extension call count: every sample and every
        # entry of LSODA's info dict match scipy.integrate.odeint's bits
        p, det, E = fig2b_probe(6e6)
        infos = []

        class Recorder:
            def odeint(self, *args):
                out = odepack.odeint(*args)
                infos.append(out[1])
                return out

        odepack = time_domain._odepack
        monkeypatch.setattr(time_domain, "_odepack", Recorder())
        ours = integrate_classical(p, det, E)
        slots = list(integrated_slots(p))
        y, info = odeint(make_rhs(p, det, E), np.zeros(len(slots)), ours.t,
                         rtol=time_domain.RTOL,
                         atol=time_domain.ATOL_REL
                         * _fixed_point_scales(p, det, E)[slots],
                         mxstep=time_domain.MXSTEP, full_output=True,
                         tfirst=True)
        ours_y = np.stack([ours.a_cw.real, ours.a_cw.imag, ours.m.real,
                           ours.m.imag, ours.q, ours.p])
        assert ours_y.tobytes() == np.ascontiguousarray(y.T).tobytes()
        assert np.any(info["mused"] == 2) and ours.stats["used_bdf"]
        (recorded,) = infos
        assert recorded.keys() == info.keys() - {"message"}
        for key, value in recorded.items():
            assert np.asarray(value).tobytes() == \
                np.asarray(info[key]).tobytes(), key
        assert (ours.stats["nfev"], ours.stats["nst"]) == \
            (info["nfe"][-1], info["nst"][-1])


def fig2b_probe(target_hz):
    """g_m, bare detunings and drive of the fig2b comb probe at a target."""
    pre = presets.get("fig2b")
    p = pre.params.replace(g_m=1.0)
    E = amplitude_for_gm(p, pre.detunings, hz(target_hz))
    return p, precompensated_detunings(p, pre.detunings, E), E


class TestSampleGrid:
    @pytest.mark.parametrize("target_hz, t_end, kind", [
        (6e6, None, STEADY), (9e6, 6e-6, OSCILLATORY)])
    def test_two_runs_are_bitwise_equal(self, target_hz, t_end, kind):
        p, det, E = fig2b_probe(target_hz)
        first = integrate_classical(p, det, E, t_end=t_end)
        second = integrate_classical(p, det, E, t_end=t_end)
        for name in ("t", "a_cw", "a_ccw", "m", "q", "p"):
            assert getattr(first, name).tobytes() == \
                getattr(second, name).tobytes()
        assert first.stats == second.stats
        rep = classify_attractor(first)
        assert rep == classify_attractor(second)
        assert rep.kind == kind

    def test_default_returns_the_full_grid(self):
        p, det, E = fig2b_probe(6e6)
        traj = integrate_classical(p, det, E, t_end=2e-6)
        n = traj.t.size
        assert n == max(int(SAMPLES_PER_PERIOD * 2e-6 * p.omega_b
                            / (2 * math.pi)), 200)
        assert np.array_equal(traj.t, np.linspace(0.0, 2e-6, n))

    def test_failed_run_raises(self, monkeypatch):
        monkeypatch.setattr(time_domain, "MXSTEP", 1)
        p, det, E = fig2b_probe(6e6)
        with pytest.raises(IntegrationError) as exc:
            integrate_classical(p, det, E, t_end=2e-6)
        assert str(exc.value) == ("LSODA failed: istate -1, Excess work "
                                  "done on this call (perhaps wrong Dfun "
                                  "type).")


class TestAccuracy:
    # max over the analysis window of |dy_i|/s_i against the oracle; DOP853
    # at the former tolerance of 1e-9 is off by 3.7e-8 and 1.7e-6
    @pytest.mark.parametrize("target_hz", [6e6, 9e6])
    def test_probe_window_matches_a_tight_dop853_run(self, target_hz):
        p, det, E = fig2b_probe(target_hz)
        traj = integrate_classical(p, det, E)
        start = int(traj.t.size * (1.0 - WINDOW_FRAC))
        scales = _fixed_point_scales(p, det, E)
        # the oracle integrates the same slots: the empty ccw mode is exact
        slots = list(integrated_slots(p))
        with np.errstate(over="ignore", invalid="ignore"):  # rejected steps
            # solve_ivp keeps each returned derivative: copy the buffer
            rhs = make_rhs(p, det, E)
            ref = solve_ivp(lambda t, y: rhs(t, y).copy(),
                            (0.0, traj.t[-1]), np.zeros(len(slots)),
                            method="DOP853", t_eval=traj.t[start:],
                            rtol=1e-13, atol=1e-13 * scales[slots])
        assert ref.success
        ref_y = np.zeros((8, ref.t.size))
        ref_y[slots] = ref.y
        ours = np.stack([traj.a_cw.real, traj.a_cw.imag, traj.a_ccw.real,
                         traj.a_ccw.imag, traj.m.real, traj.m.imag, traj.q,
                         traj.p])[:, start:]
        assert np.max(np.abs(ours - ref_y) / scales[:, None]) <= 2e-7


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
        # ten mechanical periods, of which the window holds two
        traj = integrate_classical(p, det, 1e12, t_end=1e-6)
        with pytest.raises(InconclusiveError):
            classify_attractor(traj)

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
        # LSODA settles it with its stiff method
        assert traj.stats["used_bdf"] and 0 < traj.stats["nst"] < 50_000

    def test_probe_below_threshold_settles(self):
        p = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6))
        det = Detunings.effective(-0.76 * p.omega_b, 0.65 * p.omega_b)
        res = comb_threshold(p, det, cap=hz(5e6), resolution=hz(0.05e6))
        assert res.value is None
        assert res.probes[0][1] == STEADY
        (info,) = res.probe_info
        assert 0 <= info["variation"] < STEADY_TOL

    def test_physical_mode_probes_integrate_at_the_bare_detunings(
            self, monkeypatch):
        # a bare magnon detuning of 6.5 kHz: the probe at the 2 MHz cap
        # integrates there, with the drive calibrated at the 200 kHz
        # dispersive shift its target implies
        p = presets.phonon_set(g_m=1.0, detuning_mode="physical",
                               omega_m=hz(10e9 + 6.5e3))
        det = Detunings.physical(p)
        cap = hz(2e6)
        calls = []

        def settled(params, probe_det, E):
            calls.append((probe_det, E))
            t = np.linspace(0.0, 1e-4, 2000)
            zero = np.zeros_like(t)
            return Trajectory(t=t, a_cw=zero, a_ccw=zero, m=zero + 1.0,
                              q=zero, p=zero,
                              stats={"omega_b": params.omega_b, "nfev": 0,
                                     "nst": 0, "used_bdf": False})

        monkeypatch.setattr(time_domain, "integrate_classical", settled)
        res = comb_threshold(p, det, cap=cap, resolution=hz(0.5e6))
        assert res.value is None
        ((probe_det, E),) = calls
        assert (probe_det.delta_a, probe_det.delta_m) == (det.delta_a,
                                                          det.delta_m)
        assert probe_det.delta_m_eff == pytest.approx(
            hz(6.5e3) - hz(200e3), rel=1e-9)
        # the calibrated drive realizes the target at the bare detunings
        sf = self_consistent_solve(p, E, det)
        assert abs(sf.g_m_eff) == pytest.approx(cap, rel=1e-9)
        assert sf.delta_m_eff == pytest.approx(probe_det.delta_m_eff,
                                               rel=1e-9)

    def test_decoupled_cavity_never_combs(self):
        p = SystemParams(g_cw=0.0, g_m=1.0)
        det = Detunings.effective(-p.omega_b, 0.65 * p.omega_b)
        res = comb_threshold(p, det, cap=hz(1e6), resolution=hz(0.05e6))
        assert res.value is None
