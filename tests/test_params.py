import math

import numpy as np
import pytest

from chiralcmm.constants import HBAR, KB, hz, to_hz
from chiralcmm.params import (
    Detunings,
    DriveSpec,
    SystemParams,
    drive_amplitude,
    errors_of,
    thermal_occupancy,
    validate,
)
from chiralcmm.steady_state import self_consistent_solve


def drive_power(amplitude, omega_0, kappa_a_e):
    """Inverse of drive_amplitude: P0 = hbar*omega_0*E^2/(2*kappa_a_e)."""
    return HBAR * omega_0 * amplitude**2 / (2.0 * kappa_a_e)


def bose_einstein(omega, T):
    # independent evaluation from pinned constants
    return 1.0 / math.expm1(HBAR * omega / (KB * T))


class TestThermalOccupancy:
    def test_zero_temperature(self):
        assert thermal_occupancy(hz(10e9), 0.0) == 0.0

    def test_microwave_mode_is_frozen_out(self):
        # hbar*omega/kT ~ 48 at 10 GHz and 10 mK
        assert thermal_occupancy(hz(10e9), 0.010) < 1e-20

    def test_mechanical_occupancy_regression(self):
        n = thermal_occupancy(hz(10e6), 0.010)
        assert n == pytest.approx(bose_einstein(hz(10e6), 0.010), rel=1e-14)
        assert n == pytest.approx(20.340618351800995, rel=1e-12)

    def test_monotone_in_temperature_and_frequency(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w1, w2 = sorted(rng.uniform(1e6, 1e11, size=2))
            t1, t2 = sorted(rng.uniform(1e-4, 10.0, size=2))
            assert thermal_occupancy(w1, t1) < thermal_occupancy(w1, t2)
            assert thermal_occupancy(w1, t1) > thermal_occupancy(w2, t1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            thermal_occupancy(float("nan"), 0.01)
        with pytest.raises(ValueError):
            thermal_occupancy(hz(1e9), -1.0)
        with pytest.raises(ValueError):
            thermal_occupancy(0.0, 0.01)


class TestDriveAmplitude:
    def test_zero_power(self):
        assert drive_amplitude(0.0, hz(10e9), hz(2.8e6)) == 0.0

    def test_square_root_scaling(self):
        e1 = drive_amplitude(0.01, hz(10e9), hz(2.8e6))
        e4 = drive_amplitude(0.04, hz(10e9), hz(2.8e6))
        assert e4 == pytest.approx(2 * e1, rel=1e-14)

    def test_regression_value(self):
        e = drive_amplitude(0.01, hz(10e9), hz(2.8e6))
        expected = math.sqrt(2 * hz(2.8e6) * 0.01 / (HBAR * hz(10e9)))
        assert e == pytest.approx(expected, rel=1e-14)
        assert e == pytest.approx(2.304389740958623e14, rel=1e-10)

    def test_squared_amplitude_linear_in_power(self):
        base = drive_amplitude(0.002, hz(10e9), hz(2.8e6)) ** 2
        for k in range(1, 11):
            e2 = drive_amplitude(0.002 * k, hz(10e9), hz(2.8e6)) ** 2
            assert e2 == pytest.approx(k * base, rel=1e-12)

    def test_power_round_trip(self):
        e = drive_amplitude(0.37, hz(10e9), hz(4.8e6))
        assert drive_power(e, hz(10e9), hz(4.8e6)) == pytest.approx(0.37, rel=1e-12)


class TestValidate:
    def test_baseline_clean(self):
        assert errors_of(validate(SystemParams())) == []

    def test_zero_damping_is_an_error(self):
        diags = validate(SystemParams(gamma_b=0.0))
        assert any(d.code == "zero_gamma_b" for d in errors_of(diags))

    def test_unresolved_sideband_is_only_a_warning(self):
        p = SystemParams(kappa_m=2 * SystemParams().omega_b)
        diags = validate(p)
        assert errors_of(diags) == []
        assert any(d.code == "unresolved_sideband" for d in diags)

    def test_low_quality_factor_warns(self):
        p = SystemParams(gamma_b=SystemParams().omega_b / 50)
        assert any(d.code == "low_q" for d in validate(p))

    def test_never_raises(self):
        validate(SystemParams(kappa_m=float("inf")))


class TestUnits:
    def test_hz_round_trip(self):
        rng = np.random.default_rng(3)
        for v in rng.uniform(1e-3, 1e12, size=100):
            assert to_hz(hz(v)) == pytest.approx(v, rel=4e-16)

    def test_drive_spec_is_single_variant(self):
        with pytest.raises(ValueError):
            DriveSpec("both", 1.0)
        with pytest.raises(ValueError):
            DriveSpec("power", -1.0)


class TestDrivePort:
    def test_unknown_label_refused(self):
        with pytest.raises(ValueError, match="unknown drive port 'up'"):
            SystemParams(drive_port="up")
        stack = SystemParams().stacked(3)
        with pytest.raises(ValueError, match="unknown drive port 'up'"):
            stack.replace(drive_port=np.array(["cw", "up", "ccw"]))

    def test_stack_gives_back_the_port(self):
        stack = SystemParams(drive_port="ccw").stacked(3)
        assert stack.drive_port.tolist() == ["ccw"] * 3
        assert [stack.at(i).drive_port for i in range(3)] == ["ccw"] * 3
        mixed = stack.replace(drive_port=np.array(["cw", "ccw", "cw"]))
        assert [mixed.at(i).drive_port for i in range(3)] == ["cw", "ccw", "cw"]

    def test_at_selects_points_of_a_stack(self):
        stack = SystemParams().stacked(3).replace(
            drive_port=np.array(["cw", "ccw", "cw"]),
            gamma_b=np.array([1.0, 2.0, 3.0]),
            drive=DriveSpec("gm_abs", np.array([4.0, 5.0, 6.0])))
        for index, expected in ((np.array([2, 0]), [2, 0]),
                                (np.array([True, False, True]), [0, 2])):
            part = stack.at(index)
            assert part.gamma_b.tolist() == [1.0 + k for k in expected]
            assert part.drive.value.tolist() == [4.0 + k for k in expected]
            assert part.drive_port.tolist() == ["cw", "cw"]
            assert part.kappa_m.shape == (2,)
        point = stack.at(1)
        assert (point.gamma_b, point.drive.value, point.drive_port) \
            == (2.0, 5.0, "ccw")
        assert np.ndim(point.kappa_m) == 0
        assert stack.at(np.zeros(3, dtype=bool)).gamma_b.shape == (0,)


class TestDetunings:
    def test_effective_mode_passthrough(self):
        det = Detunings.effective(-1.0, 2.0)
        assert det.delta_m_eff == 2.0

    def test_no_shift_when_q_or_gm_vanishes(self):
        det = Detunings(1.0, 2.0, 2.0)
        p = SystemParams(g_m=5.0)
        assert self_consistent_solve(p, 0.0, det=det).delta_m_eff == det.delta_m
        p = SystemParams(g_m=0.0)
        assert self_consistent_solve(p, hz(1e9), det=det).delta_m_eff \
            == det.delta_m

    def test_physical_mode_from_frequencies(self):
        p = SystemParams(omega_a=hz(10.01e9), omega_m=hz(10.005e9),
                         omega_0=hz(10e9))
        det = Detunings.physical(p)
        assert det.delta_a == pytest.approx(hz(0.01e9))
        assert det.delta_m == pytest.approx(hz(0.005e9))
