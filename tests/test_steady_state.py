import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from chiralcmm import presets
from chiralcmm.constants import hz, to_hz
from chiralcmm.params import RATE_FIELDS, Detunings, DriveSpec, SystemParams
from chiralcmm.pipeline import evaluate_point
from chiralcmm.steady_state import (
    SQRT2,
    MeanFieldOverflowError,
    amplitude_for_gm,
    imperfect_means,
    precompensated_detunings,
    resolve_drive,
    self_consistent_solve,
)

from helpers import ideal_means


def mean_field_matrix(p, det):
    """The 3x3 complex mean-field system acting on (a_cw, a_ccw, m)."""
    ka = p.kappa_a + 1j * det.delta_a
    km = p.kappa_m + 1j * det.delta_m_eff
    return np.array([
        [ka, 1j * p.J, 1j * p.g_cw],
        [1j * p.J, ka, 1j * p.g_ccw],
        [1j * p.g_cw, 1j * p.g_ccw, km],
    ])


def mean_field_solve(p, det, E):
    """Direct numerical solve of the 3x3 complex mean-field system, an
    independent route to the closed forms; returns (a_cw, a_ccw, m)."""
    drive = (E, 0.0) if p.drive_port == "cw" else (0.0, E)
    return np.linalg.solve(mean_field_matrix(p, det),
                           np.array([*drive, 0.0], dtype=complex))


def modulus_cubic(p, det, E):
    """(u0, u1) with 1/<m> = u0 + u1*x at x = |<m>|^2 in the physical
    detuning mode, from the 3x3 system: by Cramer's rule 1/<m> = det(M)/N
    with N free of delta_m_eff, and det(M) has the slope
    i*[(kappa_a + i*delta_a)^2 + J^2] in delta_m_eff, which the dispersive
    shift moves by -g_m^2*x/omega_b."""
    bare = Detunings(det.delta_a, det.delta_m, det.delta_m)
    m0 = mean_field_solve(p, bare, E)[2]
    ka = p.kappa_a + 1j * det.delta_a
    N = m0 * np.linalg.det(mean_field_matrix(p, bare))
    return 1.0 / m0, -(p.g_m**2 / p.omega_b) * 1j * (ka * ka + p.J**2) / N


def rand_config(rng, j_max=hz(3e6)):
    p = SystemParams(
        kappa_a_i=rng.uniform(hz(0.1e6), hz(1e6)),
        kappa_a_e=rng.uniform(hz(1e6), hz(6e6)),
        kappa_m=rng.uniform(hz(0.5e6), hz(2e6)),
        g_cw=rng.uniform(hz(1e6), hz(9e6)),
        g_ccw=rng.uniform(0.0, hz(2e6)),
        J=rng.uniform(0.0, j_max),
        drive_port="cw" if rng.uniform() < 0.5 else "ccw",
    )
    det = Detunings.effective(rng.uniform(-2, 2) * p.omega_b,
                              rng.uniform(-2, 2) * p.omega_b)
    return p, det


class TestIdealMeans:
    def test_zero_drive(self):
        p = SystemParams()
        det = Detunings.effective(-p.omega_b, p.omega_b)
        sf = imperfect_means(p, det, 0.0)
        assert sf.a_cw == 0 and sf.a_ccw == 0 and sf.m == 0

    def test_chiral_decoupling_under_ccw_drive(self):
        p = SystemParams(drive_port="ccw")
        det = Detunings.effective(-p.omega_b, p.omega_b)
        sf = imperfect_means(p, det, hz(50e6))
        assert sf.m == 0 and sf.q_mean == 0
        assert sf.a_ccw != 0 and sf.a_cw == 0

    def test_magnon_amplitude_oracle(self):
        # direct complex-arithmetic evaluation, pinned as a regression value
        wb = hz(10e6)
        p = SystemParams(kappa_a_i=0.0, kappa_a_e=hz(3e6), kappa_m=hz(1e6),
                         g_cw=hz(4e6))
        det = Detunings.effective(-wb, wb)
        E = hz(100e6)
        g, ka, km = hz(4e6), hz(3e6), hz(1e6)
        expected = -1j * g * E / (g * g + (ka + 1j * -wb) * (km + 1j * wb))
        sf = imperfect_means(p, det, E)
        assert sf.m == pytest.approx(expected, rel=1e-14)
        assert abs(sf.m) == pytest.approx(3.3148538883453393, rel=1e-12)

    def test_driven_cavity_balance(self):
        # cavity equation residual: (kappa_a + i*delta_a)<a> + i*g<m> = E
        p = SystemParams()
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        E = hz(80e6)
        sf = imperfect_means(p, det, E)
        lhs = (p.kappa_a + 1j * det.delta_a) * sf.a_cw + 1j * p.g_cw * sf.m
        assert lhs == pytest.approx(E, rel=1e-12)


class TestImperfectMeans:
    def test_reduces_to_ideal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, det = rand_config(rng, j_max=0.0)
            p = p.replace(g_ccw=0.0)
            E = rng.uniform(hz(1e6), hz(1e9))
            a = ideal_means(p, det, E)
            b = imperfect_means(p, det, E)
            assert b.m == pytest.approx(a.m, rel=1e-12)
            assert b.a_cw == pytest.approx(a.a_cw, rel=1e-12)

    def test_matches_direct_linear_solve(self):
        # closed form vs the 3x3 complex mean-field system, 1000 draws
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p, det = rand_config(rng)
            E = rng.uniform(hz(1e6), hz(1e9))
            a = imperfect_means(p, det, E)
            a_cw, a_ccw, m = mean_field_solve(p, det, E)
            scale = max(abs(m), abs(a_cw), abs(a_ccw))
            assert abs(a.m - m) <= 1e-10 * scale
            assert abs(a.a_cw - a_cw) <= 1e-10 * scale
            assert abs(a.a_ccw - a_ccw) <= 1e-10 * scale

    def test_ccw_drive_j_mediated_pumping(self):
        # with g_ccw = 0, only the backscattering path drives the magnon
        p = SystemParams(J=hz(0.5e6), drive_port="ccw")
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        E = hz(100e6)
        a = imperfect_means(p, det, E)
        m = mean_field_solve(p, det, E)[2]
        assert a.m != 0
        assert a.m == pytest.approx(m, rel=1e-10)

    def test_ccw_drive_is_inefficient_at_equal_power(self):
        # backscattering-settings check: CCW drive pumps the magnon far less
        p = SystemParams(J=hz(0.5e6), g_ccw=0.1 * hz(4e6))
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        E = hz(100e6)
        cw = imperfect_means(p, det, E)
        ccw = imperfect_means(p.replace(drive_port="ccw"), det, E)
        assert abs(ccw.m) < 0.2 * abs(cw.m)


class TestLinearityAndNull:
    def test_means_linear_in_amplitude(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, det = rand_config(rng)
            e1 = rng.uniform(hz(1e6), hz(1e8))
            s = rng.uniform(2.0, 50.0)
            a = imperfect_means(p, det, e1)
            b = imperfect_means(p, det, s * e1)
            assert b.m == pytest.approx(s * a.m, rel=1e-12)
            assert b.a_cw == pytest.approx(s * a.a_cw, rel=1e-12)
            assert b.a_ccw == pytest.approx(s * a.a_ccw, rel=1e-12)

    def test_chiral_null_is_exact(self):
        p = SystemParams(drive_port="ccw")
        det = Detunings.effective(-p.omega_b, p.omega_b)
        sf = resolve_drive(p, det)
        assert sf.g_m_eff == 0


class TestSelfConsistentSolve:
    def test_gm_zero_single_pass(self):
        p = SystemParams(g_m=0.0, omega_a=hz(10.0072e9), omega_m=hz(10.0076e9),
                         detuning_mode="physical")
        sf = self_consistent_solve(p, hz(100e6))
        assert sf.meta["branches"] == 1
        assert sf.delta_m_eff == p.omega_m - p.omega_0

    def test_weak_drive_matches_one_shot(self):
        p = SystemParams(g_m=1.0, omega_a=hz(10.0072e9), omega_m=hz(10.0076e9),
                         detuning_mode="physical")
        det = Detunings.physical(p)
        E = hz(0.1e6)  # |G_m| << kappa_m
        sf = self_consistent_solve(p, E)
        one_shot = imperfect_means(p, det, E)
        assert sf.m == pytest.approx(one_shot.m, rel=1e-4)

    def test_strong_drive_matches_bracketing_oracle(self):
        # independent 1-D root find on the modulus equation for |<m>|^2
        p = SystemParams(g_m=1.2537, kappa_a_e=hz(4.8e6), g_cw=hz(8e6),
                         detuning_mode="physical")
        p = p.replace(omega_0=p.omega_a + 0.76 * p.omega_b,
                      omega_m=p.omega_a + 0.76 * p.omega_b + 0.65 * p.omega_b)
        det = Detunings.physical(p)
        E = 2.0e15
        g, ka, km = p.g_cw, p.kappa_a, p.kappa_m

        def modulus_residual(msq):
            dme = det.delta_m - p.g_m**2 * msq / p.omega_b
            den = g * g + (ka + 1j * det.delta_a) * (km + 1j * dme)
            return msq * abs(den) ** 2 - (g * E) ** 2

        msq_oracle = brentq(modulus_residual, 0.0, (E / km) ** 2,
                            xtol=1e-20, rtol=1e-14)
        sf = self_consistent_solve(p, E)
        assert abs(sf.m) ** 2 == pytest.approx(msq_oracle, rel=1e-9)
        # fixed-point consistency: q = -g_m |m|^2 / omega_b
        assert sf.q_mean == pytest.approx(-p.g_m * abs(sf.m) ** 2 / p.omega_b,
                                          rel=1e-12)

    @pytest.mark.parametrize("target_mhz, lower_mhz",
                             [(12.0, 11.936), (11.9, 11.900)])
    def test_fold_returns_the_stable_lower_branch(self, target_mhz, lower_mhz):
        # fig2b driven for |G_m| near 12 MHz from the pre-compensated bare
        # detuning: three branches, of which the lowest is linearly stable
        # and the far one (about 22 MHz) is not
        pre = presets.get("fig2b")
        p = pre.params.replace(g_m=1.0)
        E = amplitude_for_gm(p, pre.detunings, hz(target_mhz * 1e6))
        det = precompensated_detunings(p, pre.detunings, E)
        p = p.replace(detuning_mode="physical",
                      drive=DriveSpec("amplitude", E))
        sf = self_consistent_solve(p, E, det=det)
        assert to_hz(abs(sf.g_m_eff)) == pytest.approx(lower_mhz * 1e6,
                                                       abs=1e3)
        assert sf.meta["branches"] == 3
        row = evaluate_point(p, det)
        assert row["g_m_eff"] == sf.g_m_eff
        assert row["stable"] == 1 and row["abscissa"] < 0


# one point of the cubic property: J/kappa_m, g_ccw/g_cw, drive port,
# delta_a/omega_b, the effective delta_m/omega_b the bare detuning is
# pre-compensated for, and the |G_m| (MHz) that sets the drive, through the
# fold near 12 MHz.  J and g_ccw are 0 or at least 1e-3 of their scale, so
# that the oracle's cubic coefficients stay inside the float range.
CUBIC_POINT = st.tuples(st.just(0.0) | st.floats(1e-3, 1.0),
                        st.just(0.0) | st.floats(1e-3, 0.5),
                        st.sampled_from(["cw", "ccw"]),
                        st.floats(-1.5, 0.0), st.floats(0.0, 1.5),
                        st.floats(0.5, 14.0))


def _bits(value):
    return np.asarray(value).tobytes()


class TestCubicMeanField:
    @given(st.lists(CUBIC_POINT, min_size=1, max_size=6))
    def test_lowest_root_of_the_modulus_cubic(self, points):
        base = presets.phonon_set(g_m=1.0, detuning_mode="physical")
        wb = base.omega_b
        cases = []
        for j, chi, port, da, dme, gm_mhz in points:
            p = base.replace(J=j * base.kappa_m, g_ccw=chi * base.g_cw)
            det_eff = Detunings.effective(da * wb, dme * wb)
            E = amplitude_for_gm(p, det_eff, hz(gm_mhz * 1e6))
            cases.append((p.replace(drive_port=port),
                          precompensated_detunings(p, det_eff, E), E))
        stack = base.replace(**{name: np.array([getattr(c[0], name)
                                                for c in cases])
                                for name in RATE_FIELDS + ("drive_port",)})
        dets = Detunings(*(np.array([getattr(c[1], name) for c in cases])
                           for name in ("delta_a", "delta_m", "delta_m_eff")))
        stacked = self_consistent_solve(stack, np.array([c[2] for c in cases]),
                                        dets)

        for i, (p, det, E) in enumerate(cases):
            port = p.drive_port
            sf = self_consistent_solve(p, E, det)
            for name in ("a_cw", "a_ccw", "m", "q_mean", "g_m_eff",
                         "delta_m_eff"):
                assert _bits(getattr(sf, name)) == \
                    _bits(getattr(stacked, name)[i]), name
            assert sf.meta["branches"] == stacked.meta["branches"][i]

            if port == "ccw" and p.J == 0 and p.g_ccw == 0:
                # the chiral configuration's uncoupled port: no shift
                assert sf.m == 0 and sf.meta["branches"] == 1
                continue
            u0, u1 = modulus_cubic(p, det, E)
            x = abs(sf.m) ** 2
            assert abs(x * abs(u0 + u1 * x) ** 2 - 1) <= 1e-12
            roots = np.roots([abs(u1) ** 2, 2 * (u0 * u1.conjugate()).real,
                              abs(u0) ** 2, -1.0])
            real = [z.real for z in roots
                    if abs(z.imag) <= 1e-6 * abs(z) and z.real > 0]
            assert x == pytest.approx(min(real), rel=1e-9)
            assert sf.meta["branches"] == len(real)


class TestDriveResolution:
    def test_gm_abs_sets_magnitude_exactly(self):
        p = SystemParams(drive=DriveSpec("gm_abs", hz(4e6)))
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        sf = resolve_drive(p, det)
        assert abs(sf.g_m_eff) == pytest.approx(hz(4e6), rel=1e-12)

    def test_gm_abs_phase_follows_magnon_mean(self):
        p = SystemParams(drive=DriveSpec("gm_abs", hz(4e6)))
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        sf = resolve_drive(p, det)
        m1 = imperfect_means(p, det, 1.0).m
        assert cmath.phase(sf.g_m_eff) == pytest.approx(cmath.phase(m1), abs=1e-12)

    def test_amplitude_calibration_round_trip(self):
        p = SystemParams(g_m=0.8)
        det = Detunings.effective(-0.72 * p.omega_b, 0.76 * p.omega_b)
        E = amplitude_for_gm(p, det, hz(4e6))
        sf = ideal_means(p, det, E)
        assert SQRT2 * p.g_m * abs(sf.m) == pytest.approx(hz(4e6), rel=1e-12)

    def test_amplitude_spec_needs_gm(self):
        p = SystemParams(drive=DriveSpec("amplitude", hz(100e6)))
        det = Detunings.effective(-p.omega_b, p.omega_b)
        with pytest.raises(ValueError, match="g_m"):
            resolve_drive(p, det)

    def test_gm_abs_spec_refused_in_physical_mode(self):
        # the |G_m| calibration would silently drop the dispersive shift
        p = SystemParams(drive=DriveSpec("gm_abs", hz(4e6)), g_m=0.2,
                         detuning_mode="physical")
        with pytest.raises(ValueError, match="detuning mode 'effective'"):
            resolve_drive(p, Detunings.physical(p))

    @pytest.mark.parametrize("mode, value", [("effective", 1e307),
                                             ("physical", 1e150)])
    def test_overflowing_drive_is_refused(self, mode, value):
        # one stacked point's means (effective) or dispersive cubic
        # (physical) overflow; the stack is refused as a whole
        p = SystemParams(g_m=1.0, detuning_mode=mode,
                         drive=DriveSpec("amplitude", hz(1e6))).stacked(2)
        p = p.replace(drive=DriveSpec("amplitude", hz(np.array([1e6, value]))))
        omega_b = SystemParams().omega_b
        det = Detunings.effective(-0.72 * omega_b, 0.76 * omega_b)
        with pytest.raises(MeanFieldOverflowError, match="not finite"):
            resolve_drive(p, det)
        assert np.all(np.isfinite(resolve_drive(p.at([0]), det).m))
