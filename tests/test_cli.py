import json
import math

import numpy as np
import pytest

from chiralcmm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    parse_config_text,
)

BASE_CONFIG = """\
# minimal single-point configuration
[system]
kappa_a_e = 2.8e6
g_cw = 4.0e6

[drive]
port = cw
spec = gm_abs
value = 4.0e6

[detuning]
mode = effective
delta_a = -7.2e6
delta_m_eff = 7.6e6
"""

SWEEP_SECTION = """\
[sweep]
variant = ideal
ports = cw
pairs = a_cw:m
axis1 = delta_a,-10.0e6,-5.0e6,3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture
def sweep_config_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(BASE_CONFIG + SWEEP_SECTION, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_sections_and_comments(self):
        sec = parse_config_text("# hi\n[a]\nx = 1 # trailing\n\n[b]\ny = z\n")
        assert sec == {"a": {"x": "1"}, "b": {"y": "z"}}

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[a]\nx = 1\nbroken-line\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("x = 1\n")

    @pytest.mark.parametrize("override", ["system.g_m=abc", "drive.value=-1"])
    def test_malformed_value_exit_code(self, override, capsys):
        rc = main(["steady", "--config", "fig2b", "--set", override])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\ngamma_b = 0\n[detuning]\ndelta_a = 0\n"
                       "delta_m_eff = 0\n")
        rc = main(["steady", "--config", str(bad)])
        assert rc == EXIT_CONFIG
        assert "gamma_b" in capsys.readouterr().err


class TestOverrides:
    def test_set_flag_overrides_file(self, config_path):
        class Args:
            config = config_path
            set = ["drive.value=2.5e6"]
            drive = None
            variant = None
            filter_center = None
            filter_tau = None
            workers = 1

        cfg = load_config(Args())
        assert cfg.params.drive.value == pytest.approx(2 * math.pi * 2.5e6)

    def test_drive_flag(self, config_path):
        class Args:
            config = config_path
            set = None
            drive = "ccw"
            variant = None
            filter_center = None
            filter_tau = None
            workers = 1

        assert load_config(Args()).params.drive_port == "ccw"


class TestSteadyCommand:
    def test_ccw_ideal_prints_zero_coupling(self, config_path, tmp_path):
        out = tmp_path / "steady.csv"
        rc = main(["steady", "--config", config_path, "--drive", "ccw",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["abs_g_m_eff_hz"]) == 0.0

    def test_metadata_block_present(self, config_path, capsys):
        assert main(["steady", "--config", config_path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "# tool = chiralcmm" in text
        assert "# config_sha256 = " in text
        assert "# mode_order = a_cw,a_ccw,m,b" in text


class TestEntangleCommand:
    def test_unstable_point_reported_not_fatal(self, config_path, tmp_path):
        out = tmp_path / "ent.csv"
        rc = main(["entangle", "--config", config_path,
                   "--set", "drive.value=14e6", "--variant", "ideal",
                   "--out", str(out)])
        assert rc == EXIT_OK
        body = out.read_text()
        assert "stable,0" in body

    def test_filtered_outputs(self, config_path, tmp_path):
        out = tmp_path / "ent.csv"
        rc = main(["entangle", "--config", config_path, "--variant", "ideal",
                   "--filter-center=-10e6", "--filter-tau=1.5915494e-7",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["fidelity"]) > 0.5
        assert float(rows["filtered_en"]) > 0.2


class TestSweepCommand:
    def test_csv_output_formatting(self, sweep_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", sweep_config_path, "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",")[:2] == ["delta_a", "drive_port"]
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 3
        for ln in data:
            value = ln.split(",")[3]
            assert len(value.replace("-", "").replace(".", "")
                       .replace("e", "").replace("+", "")) <= 10

    def test_jsonl_output(self, sweep_config_path, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--config", sweep_config_path,
                   "--format", "jsonl", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["_meta"]
        assert meta["mode_order"] == ["a_cw", "a_ccw", "m", "b"]
        record = json.loads(lines[1])
        assert record["drive_port"] == "cw"

    def test_worker_flag_output_identical(self, sweep_config_path, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(["sweep", "--config", sweep_config_path, "--out", str(out1),
              "--workers", "1"])
        main(["sweep", "--config", sweep_config_path, "--out", str(out2),
              "--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_sweep_section(self, config_path, capsys):
        rc = main(["sweep", "--config", config_path])
        assert rc == EXIT_CONFIG


class TestStabilityEdgeCommand:
    def test_known_boundary(self, tmp_path):
        out = tmp_path / "edge.csv"
        rc = main(["stability-edge", "--config", "fig2b", "--variant", "ideal",
                   "--gm-cap", "30e6", "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["max_stable_gm_hz"]) == pytest.approx(11.9e6, rel=0.02)

    def test_inconsistent_variant_is_a_config_error(self):
        # the ideal variant requires J = 0: a configuration error, not an
        # instability
        rc = main(["stability-edge", "--config", "fig2b", "--variant", "ideal",
                   "--set", "system.j_coupling=1e5"])
        assert rc == EXIT_CONFIG


class TestPresets:
    def test_preset_loads(self, capsys):
        assert main(["steady", "--config", "fig2b"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "abs_g_m_eff_hz,2500000" in text
