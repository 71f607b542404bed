import pytest

from chiralcmm import presets
from chiralcmm.cli import load_config, preset_config_text
from chiralcmm.params import errors_of, validate
from chiralcmm.pipeline import SweepAxis, SweepSpec, evaluate_point, run_sweep


class _Args:
    set = None

    def __init__(self, config):
        self.config = config


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
class TestEveryPreset:
    def test_parameters_validate(self, name):
        pre = presets.get(name)
        assert errors_of(validate(pre.params)) == []

    def test_config_text_round_trip(self, name, tmp_path):
        # the serialized preset reloads into the same physical configuration
        pre = presets.get(name)
        path = tmp_path / f"{name}.cfg"
        path.write_text(preset_config_text(name), encoding="utf-8")
        cfg = load_config(_Args(str(path)))
        for attr in ("omega_a", "omega_b", "kappa_a_e", "kappa_a_i", "kappa_m",
                     "gamma_b", "g_cw", "g_ccw", "J", "temperature"):
            assert getattr(cfg.params, attr) == pytest.approx(
                getattr(pre.params, attr), rel=1e-14)
        # an empty g_m (written for None) reloads as None
        if pre.params.g_m is None:
            assert cfg.params.g_m is None
        else:
            assert cfg.params.g_m == pytest.approx(pre.params.g_m, rel=1e-14)
        assert cfg.params.drive.kind == pre.params.drive.kind
        assert cfg.params.drive.value == pytest.approx(pre.params.drive.value,
                                                       rel=1e-14)
        assert cfg.detunings.delta_a == pytest.approx(pre.detunings.delta_a,
                                                      rel=1e-14)
        if pre.sweep is not None:
            assert cfg.sweep is not None
            assert len(cfg.sweep.axes) == len(pre.sweep.axes)
            for got, want in zip(cfg.sweep.axes, pre.sweep.axes):
                assert got.name == want.name and got.num == want.num
                assert got.start == pytest.approx(want.start, rel=1e-14)
            assert cfg.sweep.drive_ports == pre.sweep.drive_ports
        if pre.filter_spec is None:
            assert cfg.filter_spec is None
        else:
            got, want = cfg.filter_spec, pre.filter_spec
            assert got.omega_center == pytest.approx(want.omega_center,
                                                      rel=1e-14)
            assert got.tau == want.tau

    def test_runs(self, name):
        pre = presets.get(name)
        if pre.sweep is None:
            assert evaluate_point(pre.params, pre.detunings)["stable"] == 1
            return
        # shrink every axis to 2 points: the preset must at least execute
        axes = tuple(SweepAxis(ax.name, ax.start, ax.stop, 2)
                     for ax in pre.sweep.axes)
        small = SweepSpec(axes=axes, drive_ports=pre.sweep.drive_ports,
                          request=pre.sweep.request)
        res = run_sweep(pre.params, pre.detunings, small)
        assert all(e == "" for e in res.table["error"])


@pytest.mark.parametrize("name", ["fig2d", "FIG2A", "Fig3a"])
def test_only_exact_preset_names(name):
    assert name not in presets.PRESET_NAMES
    with pytest.raises(KeyError):
        presets.get(name)
