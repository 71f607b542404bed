import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad, quad_vec

from chiralcmm import cli, output_mode, pipeline, presets
from chiralcmm.constants import hz
from chiralcmm.linear_model import build_model
from chiralcmm.lyapunov import extract_block, solve_lyapunov
from chiralcmm.measures import log_negativity, symplectic_eigenvalues
from chiralcmm.linear_model import build_drift
from chiralcmm.output_mode import (
    FilterSpec,
    QuadratureError,
    QuadResult,
    _pair_resolvent,
    _port_inputs,
    adaptive_gk21,
    filter_transform,
    filtered_pair_cm,
    modal_resolvent,
    noise_channels,
    susceptibility,
)
from chiralcmm.params import (
    DRIVE_CCW,
    DRIVE_CW,
    DRIVE_GM_ABS,
    RATE_FIELDS,
    Detunings,
    DriveSpec,
    SystemParams,
)
from chiralcmm.pipeline import MeasureRequest, SweepAxis, SweepSpec
from chiralcmm.steady_state import resolve_drive
from helpers import (
    failing_gk21,
    filtered_point,
    inverse_resolvent,
    inverse_rows,
    inverse_transfers,
)


def transfers(res, chans, port, omega):
    """Driven-port output (2x11) and magnon (2x11) transfer rows of a stack
    of one point at an array of k frequencies, (k, 2, 11) each."""
    rows = susceptibility(res, omega, [len(omega)])
    return rows[:, :2] - _port_inputs(chans, port), rows[:, 2:]


def spectral_matrix(A, chans, omega, kappa_a_e, port="cw"):
    """Symmetrized spectral matrices at one frequency (V = (1/2pi) Int S):
    intracavity (8x8), driven-port output (2x2), output x magnon (2x2)."""
    w = np.array([omega])
    MB = susceptibility(modal_resolvent(A[None], np.eye(8), chans.B), w,
                        [1])[0]
    res = _pair_resolvent(A[None], chans, port, kappa_a_e)
    F_out, F_mag = (F[0] for F in transfers(res, chans, port, w))
    sig = chans.sigma
    return ((MB * sig) @ MB.conj().T, (F_out * sig) @ F_out.conj().T,
            (F_out * sig) @ F_mag.conj().T)


def fig2d_point():
    p = SystemParams()
    det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
    sf = resolve_drive(p, det)
    model = build_model(p, det, sf.g_m_eff)
    spec = FilterSpec(omega_center=-p.omega_b, tau=10.0 / p.omega_b)
    return p, model, spec


def fig2d_sweep(num):
    """The fig2d_magnon preset and its filtered gamma_b sweep cut to ``num``
    points."""
    pre = presets.get("fig2d_magnon")
    axis = pre.sweep.axes[0]
    request = MeasureRequest(pairs=pre.sweep.request.pairs,
                             triples=pre.sweep.request.triples,
                             filter_spec=pre.filter_spec)
    spec = SweepSpec(axes=(SweepAxis(axis.name, axis.start, axis.stop, num),),
                     drive_ports=pre.sweep.drive_ports, request=request)
    return pre, spec


class TestFilterTransform:
    def setup_method(self):
        self.spec = FilterSpec(omega_center=-hz(10e6), tau=1e-7)

    def test_peak_value(self):
        g0 = filter_transform(self.spec, self.spec.omega_center)
        assert abs(g0) == pytest.approx(math.sqrt(self.spec.tau / (2 * math.pi)),
                                        rel=1e-12)

    def test_sinc_zeros(self):
        peak = math.sqrt(self.spec.tau / (2 * math.pi))
        for k in (1, -1, 2, 5):
            w = self.spec.omega_center + 2 * math.pi * k / self.spec.tau
            assert abs(filter_transform(self.spec, w)) < 1e-10 * peak

    def test_unit_norm_within_slow_tail(self):
        spec = self.spec
        lo = spec.omega_center - 200.0 / spec.tau
        hi = spec.omega_center + 200.0 / spec.tau
        norm, _ = quad(lambda w: abs(filter_transform(spec, w)) ** 2, lo, hi,
                       limit=400)
        # |g|^2 has a sin^2/x^2 tail: the mass beyond x = (w-Omega)*tau/2 = 100
        # is 1/(100*pi), which bounds how close this window can get to 1
        assert norm == pytest.approx(1.0 - 1.0 / (100.0 * math.pi), abs=2e-4)
        assert norm == pytest.approx(1.0, abs=5e-3)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            FilterSpec(omega_center=0.0, tau=0.0)


class TestSpectralMatrix:
    def test_cold_decoupled_output_is_vacuum_flat(self):
        p = SystemParams(g_cw=0.0, temperature=0.0)
        det = Detunings.effective(-0.3 * p.omega_b, 0.5 * p.omega_b)
        model = build_model(p, det, 0.0)
        chans = noise_channels(p)
        for w in (0.0, 0.7 * p.omega_b, -2.3 * p.omega_b, 10 * p.omega_b):
            s_out = spectral_matrix(model.A, chans, w, p.kappa_a_e)[1]
            assert_allclose(s_out, 0.5 * np.eye(2), atol=1e-12)

    def test_vanishing_external_coupling_kills_cross_block(self):
        p = SystemParams(kappa_a_e=0.0, kappa_a_i=hz(3e6))
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        model = build_model(p, det, hz(4e6))
        chans = noise_channels(p)
        s_out_mag = spectral_matrix(model.A, chans, 0.9 * p.omega_b,
                                    p.kappa_a_e)[2]
        assert_allclose(s_out_mag, 0.0, atol=1e-15)

    def test_wiener_khinchin_reproduces_lyapunov_cm(self):
        p, model, _ = fig2d_point()
        chans = noise_channels(p)
        v_ref = solve_lyapunov(model.A, model.D)

        def f(w):
            return np.real(spectral_matrix(model.A, chans, w, p.kappa_a_e)[0])

        val, _ = quad_vec(f, -np.inf, np.inf, epsabs=1e-10, epsrel=1e-8,
                          points=[-p.omega_b, 0.0, p.omega_b])
        assert np.linalg.norm(val / (2 * math.pi) - v_ref) \
            <= 1e-4 * np.linalg.norm(v_ref)

    def test_susceptibility_definition(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        res = modal_resolvent(A[None], np.eye(2), np.eye(2))
        M = susceptibility(res, np.array([3.0]), [1])[0]
        assert_allclose(M @ (-3j * np.eye(2) - A), np.eye(2), atol=1e-14)


def exceptional_point(offset=0.0):
    """On resonance and without G_m, the CW cavity-magnon block has a
    Jordan block at g_cw = (kappa_a - kappa_m)/2, here 1 MHz: the point at
    g_cw = 1 MHz * (1 + offset)."""
    p = SystemParams(g_cw=hz(1e6 * (1.0 + offset)), temperature=0.0)
    return p, build_model(p, Detunings.effective(0.0, 0.0), 0.0)


def stacked_points(points):
    """One stack of the SystemParams ``points``: their rates and drive
    ports, and the first one's other fields."""
    rates = {name: np.array([float(getattr(p, name)) for p in points])
             for name in RATE_FIELDS}
    return points[0].stacked(len(points)).replace(
        drive_port=np.array([p.drive_port for p in points]), **rates)


def imperfect_point():
    """The T = 0.05 K point with backscattering and a weak CCW coupling."""
    p = SystemParams(kappa_a_e=hz(4.8e6), g_cw=hz(8e6), g_ccw=hz(0.8e6),
                     J=hz(0.5e6), temperature=0.05)
    det = Detunings.effective(-0.76 * p.omega_b, 0.65 * p.omega_b)
    model = build_model(p, det, resolve_drive(p, det).g_m_eff)
    spec = FilterSpec(omega_center=-p.omega_b, tau=8.0 / p.omega_b)
    return p, model, spec


class TestModalResolvent:
    """The eigendecomposition route against the batched-inverse oracle."""

    @settings(max_examples=60)
    @given(g_cw=st.sampled_from([0.0, 1e6, 4e6, 8e6]),
           g_ccw=st.sampled_from([0.0, 0.8e6, 4e6]),
           J=st.sampled_from([0.0, 0.5e6, 3e6]),
           port=st.sampled_from([DRIVE_CW, DRIVE_CCW]),
           d_a=st.floats(-2.0, 2.0), d_m=st.floats(-2.0, 2.0),
           gm=st.floats(0.0, 6e6), phase=st.floats(0.0, 2 * math.pi))
    def test_transfers_match_the_inverse_oracle(self, g_cw, g_ccw, J, port,
                                                d_a, d_m, gm, phase):
        # g_cw = g_ccw = J = 0 gives two copies of the bare cavity block:
        # a repeated eigenvalue pair
        p = SystemParams(g_cw=hz(g_cw), g_ccw=hz(g_ccw), J=hz(J),
                         drive_port=port)
        det = Detunings.effective(d_a * p.omega_b, d_m * p.omega_b)
        A = build_drift(p, det, hz(gm) * np.exp(1j * phase))
        chans = noise_channels(p)
        try:
            res = _pair_resolvent(A[None], chans, port, p.kappa_a_e)
        except QuadratureError:
            # refused for its kappa(P), as the exceptional point of
            # test_exceptional_point
            reject()
        lam = np.linalg.eigvals(A)
        w = np.concatenate([np.linspace(0.0, 3.0 * p.omega_b, 31),
                            np.abs(lam.imag)])
        ours = transfers(res, chans, port, w)
        ref = inverse_transfers(A, chans, port, p.kappa_a_e, w)
        # both routes resolve -i*omega*I - A to a relative error of about
        # eps*||A||/dist(i*omega, spectrum); the modal one adds kappa(P)
        sens = (np.linalg.norm(A, 2)
                / np.min(np.abs(-1j * w[:, None] - lam), axis=1))
        for F, F_ref in zip(ours, ref):
            scale = np.max(np.abs(F_ref), axis=(1, 2))
            tol = 100 * res.cond * np.finfo(float).eps * sens * scale
            assert np.all(np.max(np.abs(F - F_ref), axis=(1, 2)) <= tol)

    @pytest.mark.parametrize("case", ["instant", "imperfect"])
    def test_filtered_pair_cm_matches_the_inverse_oracle(self, case,
                                                         monkeypatch):
        p, model, spec = imperfect_point() if case == "imperfect" \
            else fig2d_point()
        ours, ours_diag = filtered_point(model.A, model.D, p, spec)
        monkeypatch.setattr(output_mode, "modal_resolvent", inverse_resolvent)
        monkeypatch.setattr(output_mode, "susceptibility", inverse_rows)
        ref, ref_diag = filtered_point(model.A, model.D, p, spec)
        assert np.max(np.abs(ours - ref)) <= 1e-12
        assert ours_diag["quad_error"] == pytest.approx(ref_diag["quad_error"],
                                                        rel=1e-6)
        assert 1.0 <= ours_diag["modal_cond"] < 10.0

    @pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-8, 1e-2])
    def test_exceptional_point(self, offset):
        # next to the exceptional point kappa(P) grows as offset^(-1/2),
        # and the modal error with it; at the point itself the resolvent
        # is refused, and with it the filtered pair
        p, model = exceptional_point(offset)
        chans = noise_channels(p)
        spec = FilterSpec(omega_center=-p.omega_b, tau=10.0 / p.omega_b)
        if offset == 0.0:
            with pytest.raises(QuadratureError,
                               match=r"condition number \S+ exceeds 1e\+08"):
                _pair_resolvent(model.A[None], chans, DRIVE_CW, p.kappa_a_e)
            with pytest.raises(QuadratureError, match="condition number"):
                filtered_point(model.A, model.D, p, spec)
            return
        res = _pair_resolvent(model.A[None], chans, DRIVE_CW, p.kappa_a_e)
        assert 1.0 < res.cond[0] * math.sqrt(offset) < 3.0
        w = np.linspace(0.0, 3.0 * p.omega_b, 31)
        for F, F_ref in zip(transfers(res, chans, DRIVE_CW, w),
                            inverse_transfers(model.A, chans, DRIVE_CW,
                                              p.kappa_a_e, w)):
            assert np.max(np.abs(F - F_ref)) <= 1e-14 * res.cond[0]

    def test_defective_drift_refused(self):
        # a Jordan block of the drift's own size: the eigenvector matrix is
        # numerically singular, so kappa(P) refuses the stack that holds
        # it, before its solve; the stack's other point alone is accepted
        A = np.diag([-1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0]) * 1e6
        A[0, 1] = 1e6
        A = np.stack([A, np.diag(np.arange(-8.0, 0.0)) * 1e6])
        with pytest.raises(QuadratureError, match="nearly defective"):
            modal_resolvent(A, np.eye(8)[None], np.eye(8)[None])
        res = modal_resolvent(A[1:], np.eye(8)[None], np.eye(8)[None])
        assert res.cond[0] == 1.0
        assert_allclose(susceptibility(res, np.array([0.0]), [1])[0],
                        np.linalg.inv(-A[1]), rtol=1e-14)

    def test_kappa_refusal_precedes_the_quadrature(self, monkeypatch):
        # a block of the fig2d point and the exceptional point of
        # test_exceptional_point, in either order: the block is refused for
        # the exceptional point's kappa(P) before any point is integrated,
        # even where the quadrature would refuse the fig2d point
        (p, model, spec), (q, bad) = fig2d_point(), exceptional_point()
        A = np.stack([model.A, bad.A])
        V = solve_lyapunov(A, np.stack([model.D, bad.D]))
        monkeypatch.setattr(output_mode, "adaptive_gk21", capped(1))
        calls = count_calls(monkeypatch, "adaptive_gk21")
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(QuadratureError, match="condition number"):
                filtered_pair_cm(A[order], V[order],
                                 stacked_points([p, q][order]), spec)
        assert calls == []

    def test_kappa_refused_row_costs_no_quadrature(self, monkeypatch):
        # the reversed delta_a sweep at delta_m_eff = 0: its 25 stable
        # points come before the kappa-refused row delta_a = 0, and are
        # integrated once, in one call
        cfg = cli.load_config(cli.build_parser().parse_args(
            ["sweep", "--config", "fig2d_magnon",
             "--set", "detuning.delta_m_eff=0",
             "--set", "sweep.axis1=delta_a,1e6,-1e6,51"]))
        points, real = [], output_mode.adaptive_gk21

        def counted(f, a, *args, **kwargs):
            points.append(len(a))
            return real(f, a, *args, **kwargs)
        monkeypatch.setattr(output_mode, "adaptive_gk21", counted)
        res = pipeline.run_sweep(cfg.params, cfg.detunings, cfg.sweep)
        assert res.table["error"][25].startswith(
            "QuadratureError: drift matrix eigenvector condition number")
        assert res.meta["error_rows"] == 1
        assert points == [25]


class TestTimeDomainOracle:
    """Independent check of the filtered-pair CM in the time domain.

    The filtered output quadratures are f = tau^{-1/2} Int_{-tau}^0
    R(Omega s) v_out(s) ds with R the rotation by Omega*s, so augmenting the
    state with the two accumulators f and propagating the differential
    Lyapunov equation of the 10-dimensional system across the window yields
    the (filtered output, instant magnon) covariance matrix without ever
    touching the frequency domain.
    """

    def oracle(self, A, params, spec, port_rows=(0, 1)):
        from scipy.integrate import solve_ivp

        from chiralcmm.output_mode import noise_channels

        chans = noise_channels(params)
        B, sig = chans.B, chans.sigma
        V_stat = solve_lyapunov(A, np.diag([0.0] * 8) + (B * sig) @ B.T)
        T_e = np.zeros((2, 11))
        T_e[0, chans.port_channels["cw"][0]] = 1.0
        T_e[1, chans.port_channels["cw"][1]] = 1.0
        P = np.zeros((2, 8))
        P[0, port_rows[0]] = P[1, port_rows[1]] = 1.0
        root = math.sqrt(2.0 * params.kappa_a_e)
        inv_rt = 1.0 / math.sqrt(spec.tau)
        omega = spec.omega_center

        def rot(t):
            c, s = math.cos(omega * t), math.sin(omega * t)
            return np.array([[c, -s], [s, c]])

        def rhs(t, y):
            S = y.reshape(10, 10)
            R = rot(t)
            At = np.zeros((10, 10))
            At[:8, :8] = A
            At[8:, :8] = inv_rt * root * (R @ P)
            Bt = np.vstack([B, -inv_rt * (R @ T_e)])
            N = (Bt * sig) @ Bt.T
            dS = At @ S + S @ At.T + N
            return dS.ravel()

        S0 = np.zeros((10, 10))
        S0[:8, :8] = V_stat
        sol = solve_ivp(rhs, (-spec.tau, 0.0), S0.ravel(), method="DOP853",
                        rtol=1e-10, atol=1e-12)
        assert sol.success
        S = sol.y[:, -1].reshape(10, 10)
        idx = [8, 9, 4, 5]  # filtered output pair, then magnon quadratures
        return S[np.ix_(idx, idx)]

    def test_matches_frequency_domain_route(self):
        p, model, spec = fig2d_point()
        freq, _ = filtered_point(model.A, model.D, p, spec)
        time_dom = self.oracle(model.A, p, spec)
        assert np.max(np.abs(freq - time_dom)) < 2e-5

    def test_matches_at_nonzero_temperature_and_imperfections(self):
        p, model, spec = imperfect_point()
        freq, _ = filtered_point(model.A, model.D, p, spec)
        time_dom = self.oracle(model.A, p, spec)
        assert np.max(np.abs(freq - time_dom)) < 2e-5


class TestFilteredPairCM:
    def test_vacuum_identity(self):
        p = SystemParams(g_cw=0.0, temperature=0.0)
        det = Detunings.effective(-0.4 * p.omega_b, 0.6 * p.omega_b)
        model = build_model(p, det, 0.0)
        spec = FilterSpec(omega_center=-p.omega_b, tau=10.0 / p.omega_b)
        out, _ = filtered_point(model.A, model.D, p, spec)
        assert_allclose(out, 0.5 * np.eye(4), atol=1e-6)

    def test_decoupled_pair_is_product_state(self):
        # G_m = 0: no magnomechanical link, filtered output x magnon separable
        p = SystemParams(temperature=0.0)
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        model = build_model(p, det, 0.0)
        spec = FilterSpec(omega_center=-p.omega_b, tau=10.0 / p.omega_b)
        out, _ = filtered_point(model.A, model.D, p, spec)
        assert_allclose(out[:2, 2:], 0.0, atol=1e-5)
        assert log_negativity(out) < 1e-9

    def test_reproduces_output_magnon_entanglement_and_fidelity(self):
        from chiralcmm.measures import teleportation_fidelity

        p, model, spec = fig2d_point()
        out, _ = filtered_point(model.A, model.D, p, spec)
        assert log_negativity(out) == pytest.approx(0.23, abs=0.02)
        assert teleportation_fidelity(out) == pytest.approx(0.55, abs=0.02)

    def test_physicality_of_filtered_cm(self):
        p, model, spec = fig2d_point()
        out, _ = filtered_point(model.A, model.D, p, spec)
        assert np.all(symplectic_eigenvalues(out) >= 0.5 - 1e-6)

    def test_entanglement_washes_out_at_large_bandwidth(self):
        p, model, spec = fig2d_point()
        values = []
        for ratio in (0.1, 0.3, 1.0, 3.0, 10.0):
            wide = replace(spec, tau=1.0 / (ratio * p.omega_b))
            out, _ = filtered_point(model.A, model.D, p, wide)
            values.append(log_negativity(out))
        assert values[0] > 0.1
        # monotone decrease over the last decade of the bandwidth sweep
        assert values[-3] >= values[-2] >= values[-1]
        assert values[-1] < 0.02

    def test_block_gives_the_bits_of_its_points(self, monkeypatch):
        # one block of points with their own window and breakpoints
        # (omega_b, kappa_m), both drive ports, and couplings, damping and
        # temperatures that stop their integrals after 4 to 7 passes: the
        # magnon block of each filtered covariance is V's, and each point
        # gives the bits of its block of one, diagnostics included
        pre = presets.get("fig2d_magnon")
        P = pre.params.stacked(6).replace(
            gamma_b=hz(np.array([10.0, 2e3, 1e5, 10.0, 5e4, 300.0])),
            omega_b=hz(np.array([10e6, 10e6, 10e6, 12e6, 9e6, 10e6])),
            kappa_m=hz(np.array([1e6, 1e6, 1.5e6, 1e6, 0.8e6, 1e6])),
            g_ccw=hz(np.array([0.0, 3e6, 0.0, 4e6, 1e6, 0.0])),
            temperature=np.array([0.01, 0.01, 0.01, 0.05, 0.0, 0.2]),
            drive=DriveSpec(DRIVE_GM_ABS,
                            hz(np.array([4e6, 4e6, 4e6, 2e6, 0.3e6, 0.0]))),
            drive_port=np.array([DRIVE_CW, DRIVE_CCW, DRIVE_CW, DRIVE_CCW,
                                 DRIVE_CW, DRIVE_CW]))
        det = pre.detunings.stacked(6)
        model = build_model(P, det, resolve_drive(P, det).g_m_eff)
        V = solve_lyapunov(model.A, model.D)
        cm, diagnostics = filtered_pair_cm(model.A, V, P, pre.filter_spec)
        assert cm.shape == (6, 4, 4)
        assert np.array_equal(cm[:, 2:, 2:], extract_block(V, ("m",)))
        assert len(set(diagnostics["window"])) == 4
        calls = count_calls(monkeypatch, "susceptibility")
        passes = []
        for k in range(6):
            before = len(calls)
            single, single_diagnostics = filtered_point(
                model.A[k], model.D[k], P.at(k), pre.filter_spec)
            passes.append(len(calls) - before - 1)     # and one tail call
            assert np.array_equal(cm[k], single)
            assert single_diagnostics == {key: value[k] for key, value
                                          in diagnostics.items()}
        assert sorted(set(passes)) == [4, 5, 6, 7]

    def test_susceptibility_calls_grow_with_passes(self, monkeypatch):
        # each pass evaluates every point still running at once, one call
        # per GK21_CHUNK intervals: 23 calls for these 51 points, where one
        # call per point and pass made 357
        calls = count_calls(monkeypatch, "susceptibility")
        pre, spec = fig2d_sweep(51)
        res = pipeline.run_sweep(pre.params, pre.detunings, spec)
        assert res.meta["error_rows"] == 0
        assert len(calls) <= 24

    def test_deterministic(self):
        p, model, spec = fig2d_point()
        v1, _ = filtered_point(model.A, model.D, p, spec)
        v2, _ = filtered_point(model.A, model.D, p, spec)
        assert np.array_equal(v1, v2)


def count_calls(monkeypatch, name):
    """The list that output_mode's function ``name`` appends to at each
    call, from now on."""
    calls, real = [], getattr(output_mode, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(output_mode, name, counted)
    return calls


def lorentzians(centers, widths):
    """Stacked integrand: a 2x3 block of sharp Lorentzian peaks per
    abscissa, the second row modulated by sin(3x)."""
    def f(x):
        x = np.asarray(x, dtype=float)
        peaks = np.stack([w / ((x - c) ** 2 + w ** 2)
                          for c, w in zip(centers, widths)], axis=-1)
        return np.stack([peaks, np.sin(3.0 * x)[..., None] * peaks], axis=-2)
    return f


def block_integrand(integrands):
    """The integrands of n points as one integrand of adaptive_gk21's
    block form."""
    def f(x, counts):
        at = np.repeat(np.arange(len(integrands)), counts)
        out = np.empty((len(x), 2, 3))
        for p, g in enumerate(integrands):
            out[at == p] = g(x[at == p])
        return out
    return f


def scipy_gk21(f, a, b, points=(), *, epsabs, epsrel, limit=10000):
    """The same integral by scipy's quad_vec on scalar calls of f."""
    val, err, info = quad_vec(lambda x: f(np.array([x]))[0], a, b,
                              epsabs=epsabs, epsrel=epsrel, limit=limit,
                              points=list(points) or None, quadrature="gk21",
                              full_output=True)
    return QuadResult(val, err, sorted(map(tuple, info.intervals.tolist())))


def scipy_gk21_block(f, a, b, points, **kwargs):
    """adaptive_gk21 by scipy_gk21, one point at a time."""
    def one(p):
        counts = np.eye(len(a), dtype=int)[p]
        return scipy_gk21(lambda x: f(x, counts), a[p], b[p], points[p],
                          **kwargs)
    results = [one(p) for p in range(len(a))]
    return QuadResult(np.stack([r.value for r in results]),
                      np.array([r.error for r in results]),
                      [r.intervals for r in results])


class TestAdaptiveGK21:
    """quad_vec is the oracle: the stacked integrator must visit the same
    intervals and return the same integral and error estimate, at each
    point of a block."""

    # the library's tolerances, and tighter ones that end at the
    # rounding-error stop or at the interval limit, where the batch rule
    # and the stops shape the final partition
    TOLERANCES = {"library": dict(epsabs=1e-6, epsrel=1e-10),
                  "rounding": dict(epsabs=0.0, epsrel=1e-14),
                  "unreachable": dict(epsabs=0.0, epsrel=1e-16, limit=400)}

    def check(self, integrands, a, b, points, tolerance):
        kwargs = self.TOLERANCES[tolerance]
        ours = adaptive_gk21(block_integrand(integrands), a, b, points,
                             **kwargs)
        assert ours.value.shape == (len(a), 2, 3)
        for p, f in enumerate(integrands):
            ref = scipy_gk21(f, a[p], b[p], points[p], **kwargs)
            assert ours.intervals[p] == ref.intervals
            assert (np.max(np.abs(ours.value[p] - ref.value))
                    <= 1e-14 * np.linalg.norm(ref.value))
            assert ours.error[p] == pytest.approx(ref.error, rel=1e-12)
        return ours

    @pytest.mark.parametrize("tolerance", sorted(TOLERANCES))
    @pytest.mark.parametrize("widths", [(1e-3, 1e-2, 5e-4), (0.1, 0.07, 0.13)],
                             ids=["sharp", "wide"])
    @pytest.mark.parametrize("points", [(), (0.3, 0.7, 1.1, 0.7, 9.0)],
                             ids=["plain", "breakpoints"])
    def test_matches_quad_vec_on_peaks(self, points, widths, tolerance):
        f = lorentzians((0.3, 1.0, 1.9), widths)
        ours = self.check([f], [0.0], [2.5], [points], tolerance)
        assert len(ours.intervals[0]) > 6     # the peaks force splits

    @settings(max_examples=12)
    @given(centers=st.lists(st.floats(0.05, 2.45), min_size=3, max_size=3),
           log_widths=st.lists(st.floats(-4.0, -1.0), min_size=3, max_size=3),
           split=st.booleans(), tolerance=st.sampled_from(sorted(TOLERANCES)))
    def test_matches_quad_vec_for_any_peaks(self, centers, log_widths, split,
                                            tolerance):
        f = lorentzians(centers, [10.0 ** w for w in log_widths])
        self.check([f], [0.0], [2.5], [sorted(centers) if split else ()],
                   tolerance)

    @pytest.mark.parametrize("tolerance", sorted(TOLERANCES))
    def test_each_point_of_a_block_matches_quad_vec(self, tolerance):
        # integrands with their own bounds and breakpoints; the block's
        # points take different numbers of passes and, at the limit, stop
        # in different ways
        integrands = [lorentzians((0.3, 1.0, 1.9), (0.1, 0.07, 0.13)),
                      lorentzians((-1.0, 0.5, 3.0), (2e-2, 0.3, 5e-3)),
                      lorentzians((0.1, 0.2, 0.3), (1.0, 2.0, 3.0)),
                      lorentzians((4.0, 4.5, 5.0), (3e-3, 1e-3, 1e-2))]
        a, b = [0.0, -2.0, 0.0, 3.0], [2.5, 4.0, 0.5, 6.0]
        points = [(0.3, 0.7, 1.1, 0.7, 9.0), (0.5,), (), (4.0, 5.0)]
        ours = self.check(integrands, a, b, points, tolerance)
        sizes = [len(iv) for iv in ours.intervals]
        assert len(set(sizes)) == len(sizes)
        if tolerance == "unreachable":
            assert 0 < sum(size >= 400 for size in sizes) < len(sizes)

    def test_filtered_pair_cm_matches_quad_vec(self, monkeypatch):
        p, model, spec = fig2d_point()
        ours, ours_diag = filtered_point(model.A, model.D, p, spec)
        monkeypatch.setattr(output_mode, "adaptive_gk21", scipy_gk21_block)
        ref, ref_diag = filtered_point(model.A, model.D, p, spec)
        assert np.max(np.abs(ours - ref)) <= 1e-14
        assert ours_diag["quad_error"] == pytest.approx(ref_diag["quad_error"],
                                                        rel=1e-12)


def capped(limit):
    """adaptive_gk21 with its interval limit cut to ``limit``, so that it
    stops after its initial intervals with a large error estimate."""
    real = adaptive_gk21

    def integrate(*args, **kwargs):
        return real(*args, **{**kwargs, "limit": limit})
    return integrate


class TestQuadratureFailure:
    def test_pair_integral_refused(self, monkeypatch):
        p, model, spec = fig2d_point()
        monkeypatch.setattr(output_mode, "adaptive_gk21", capped(1))
        with pytest.raises(QuadratureError, match="frequency integral error"):
            filtered_point(model.A, model.D, p, spec)

    def test_sweep_rows_carry_the_failure(self, monkeypatch):
        pre, spec = fig2d_sweep(6)
        good = list(pipeline.run_sweep(pre.params, pre.detunings, spec).rows())
        doomed = [good[1][0], good[4][0]]      # gamma_b of rows 1 and 4
        real = pipeline.filtered_pair_cm
        points = []

        def failing_for_doomed(A, V, params, *args, **kwargs):
            # the doomed points' integrals report an error estimate far
            # above the tolerance; the others keep their own
            points.append(len(A))
            with monkeypatch.context() as m:
                m.setattr(output_mode, "adaptive_gk21",
                          failing_gk21(np.isin(params.gamma_b, doomed)))
                return real(A, V, params, *args, **kwargs)

        monkeypatch.setattr(pipeline, "filtered_pair_cm", failing_for_doomed)
        res = pipeline.run_sweep(pre.params, pre.detunings, spec)
        assert res.meta["error_rows"] == 2
        # the one condition names both doomed points, and the block's four
        # other points are integrated once more
        assert points == [6, 4]
        for i, (row, ref) in enumerate(zip(res.rows(), good)):
            if i in (1, 4):
                assert row[:2] == ref[:2]
                assert row[-1].startswith("QuadratureError: frequency integral")
                assert all(np.isnan(v) for v in row[2:-1])
            else:
                assert repr(row) == repr(ref)

