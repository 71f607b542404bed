import json
import math
import time

import numpy as np
import pytest

from chiralcmm import cli, presets, time_domain
from chiralcmm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    parse_config_text,
)
from chiralcmm.constants import hz, to_hz
from chiralcmm.steady_state import amplitude_for_gm, precompensated_detunings

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

    def test_variants_share_one_mean_field(self, tmp_path):
        def values(variant):
            out = tmp_path / f"{variant}.csv"
            assert main(["steady", "--config", "fig2b", "--variant", variant,
                         "--out", str(out)]) == EXIT_OK
            return {k: float(v) for k, v in (
                line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#") and "field" not in line)}

        ideal, imperfect = values("ideal"), values("imperfect")
        assert ideal.keys() == imperfect.keys()
        for key, value in imperfect.items():
            assert ideal[key] == pytest.approx(value, rel=1e-12, nan_ok=True)

    def test_ideal_variant_rejects_backscattering(self, capsys):
        # the same J = 0 / g_ccw = 0 check as the ideal drift matrix
        rc = main(["steady", "--config", "fig2b", "--variant", "ideal",
                   "--set", "system.j_coupling=1e5"])
        assert rc == EXIT_CONFIG
        assert "ideal variant requires J = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        [],                                       # the config's |G_m| drive
        ["--set", "drive.spec=amplitude", "--set", "drive.value=1e8",
         "--set", "system.g_m=0.2", "--set", "sweep.axis1=gm_abs,1e6,4e6,2"],
    ], ids=["drive", "sweep-axis"])
    def test_gm_abs_refused_in_physical_mode(self, override, sweep_config_path,
                                             capsys):
        rc = main(["sweep", "--config", sweep_config_path,
                   "--set", "detuning.mode=physical", *override])
        assert rc == EXIT_CONFIG
        assert "detuning mode 'effective'" in capsys.readouterr().err

    def test_physical_mode_names_its_mean_field_branch(self, tmp_path):
        # fig2b driven for |G_m| = 12 MHz from the pre-compensated bare
        # detuning: the fold, where the cubic mean field has three branches
        pre = presets.get("fig2b")
        p = pre.params.replace(g_m=hz(1.0))
        E = amplitude_for_gm(p, pre.detunings, hz(12e6))
        det = precompensated_detunings(p, pre.detunings, E)
        f0 = to_hz(p.omega_0)
        physical = ["--set", "system.g_m=1.0", "--set", "drive.spec=amplitude",
                    "--set", f"drive.value={to_hz(E)!r}",
                    "--set", "detuning.mode=physical",
                    "--set", f"system.omega_a={f0 + to_hz(det.delta_a)!r}",
                    "--set", f"system.omega_m={f0 + to_hz(det.delta_m)!r}"]

        def meta(argv):
            out = tmp_path / "steady.csv"
            assert main(["steady", "--config", "fig2b", "--out", str(out),
                         *argv]) == EXIT_OK
            return dict(ln[2:].split(" = ", 1)
                        for ln in out.read_text().splitlines()
                        if ln.startswith("# ") and " = " in ln)

        branch = meta(physical)
        assert branch["mean_field_branch"] == "lowest"
        assert branch["mean_field_branches"] == "3"
        assert not any(key.startswith("mean_field") for key in meta([]))

    def test_metadata_block_present(self, config_path, capsys):
        assert main(["steady", "--config", config_path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "# tool = chiralcmm" in text
        assert "# config_sha256 = " in text
        assert "# mode_order = a_cw,a_ccw,m,b" in text

    def test_unwritable_out_fails_before_work(self, monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("computed a result it cannot write")

        monkeypatch.setattr(cli, "resolve_drive", refuse)
        rc = main(["steady", "--config", "fig2b", "--out", "/nonexistent/x.csv"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "/nonexistent/x.csv" in err

    def test_write_failure_is_a_config_error(self, monkeypatch, tmp_path,
                                             capsys):
        def full_disk(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_table", full_disk)
        rc = main(["steady", "--config", "fig2b",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No space left" in err


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

    def test_diagnostic_counts_in_metadata(self, sweep_config_path, tmp_path):
        counts = {"unphysical_rows": 0, "several_below_half_rows": 0,
                  "error_rows": 1}
        # the ideal variant refuses J != 0: the second of two rows is an error
        args = ["--set", "sweep.axis1=J,0.0,2.0e5,2"]
        csv_out, jsonl_out = tmp_path / "s.csv", tmp_path / "s.jsonl"
        assert main(["sweep", "--config", sweep_config_path, "--out",
                     str(csv_out), *args]) == EXIT_OK
        assert main(["sweep", "--config", sweep_config_path, "--out",
                     str(jsonl_out), "--format", "jsonl", *args]) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        for key, value in counts.items():
            assert f"# {key} = {value}" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "J,drive_port,stable,abs_g_m_eff,en_a_cw_m,error"
        assert [ln.split(",")[-1] != "" for ln in data[1:]] == [False, True]
        meta = json.loads(jsonl_out.read_text().splitlines()[0])["_meta"]
        assert {key: meta[key] for key in counts} == counts

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_quadrature_maxima_in_metadata(self, fmt, tmp_path):
        out = tmp_path / f"f.{fmt}"
        assert main(["sweep", "--config", "fig2d_magnon", "--workers", "1",
                     "--set", "sweep.axis1=gamma_b,10,1e5,3", "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        if fmt == "csv":
            meta = dict(ln[2:].split(" = ", 1) for ln in lines
                        if ln.startswith("# ") and " = " in ln)
        else:
            meta = json.loads(lines[0])["_meta"]
        for key in ("filtered_quad_error_max", "filtered_tail_estimate_max"):
            assert 0 < float(meta[key]) < 1e-3

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

    def test_unwritable_out_fails_before_sweep(self, sweep_config_path,
                                               monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("run_sweep called with an unwritable --out")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        rc = main(["sweep", "--config", sweep_config_path,
                   "--out", "/nonexistent/x.csv"])
        assert rc == EXIT_CONFIG
        assert "/nonexistent/x.csv" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag", [("--resolution", "0"),
                                      ("--gm-cap", "-5")],
                             ids=["resolution-0", "gm-cap-negative"])
    def test_bisection_arguments_checked(self, flag, capsys):
        t0 = time.perf_counter()
        rc = main(["stability-edge", "--config", "fig2b", "--variant", "ideal",
                   *flag])
        assert rc == EXIT_CONFIG
        assert time.perf_counter() - t0 < 1.0
        assert "finite and positive" in capsys.readouterr().err


def _fail_if_integrated(*_args, **_kwargs):
    raise AssertionError("integrate_classical called")


class TestCombThresholdCommand:
    def test_zero_resolution_rejected_before_any_probe(self, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(time_domain, "integrate_classical",
                            _fail_if_integrated)
        monkeypatch.setattr(cli, "integrate_classical", _fail_if_integrated)
        rc = main(["comb-threshold", "--config", "fig2b", "--resolution", "0"])
        assert rc == EXIT_CONFIG
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--dump-trajectory", "/nonexistent/t.csv"],
        ["--dump-trajectory", "t.csv", "--gm-cap", "12e6", "--resolution", "0"],
    ], ids=["unwritable", "resolution-0"])
    def test_dump_rejected_before_integration(self, argv, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "integrate_classical", _fail_if_integrated)
        rc = main(["comb-threshold", "--config", "figs1", *argv])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("mode", ["effective", "physical"])
    def test_dump_integrates_from_the_bare_detuning(self, mode, monkeypatch,
                                                    tmp_path):
        # an effective magnon detuning is pre-compensated for the dispersive
        # shift; a physical one already is the bare detuning
        calls = []

        def short_run(params, det, E):
            calls.append((det, E))
            return time_domain.integrate_classical(params, det, E, t_end=1e-7)

        monkeypatch.setattr(cli, "integrate_classical", short_run)
        argv = ["comb-threshold", "--config", "figs1", "--set",
                f"detuning.mode={mode}",
                "--dump-trajectory", str(tmp_path / "t.csv")]
        assert main(argv) == EXIT_OK
        cfg = load_config(cli.build_parser().parse_args(argv))
        ((det, E),) = calls
        assert E == cfg.params.drive.value
        if mode == "physical":
            assert det == cfg.detunings
        else:
            assert det == precompensated_detunings(cfg.params, cfg.detunings, E)
            assert det.delta_m > det.delta_m_eff == cfg.detunings.delta_m_eff

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_probes_in_metadata(self, fmt, tmp_path):
        # a cap below the threshold: one probe, which settles
        out = tmp_path / f"comb.{fmt}"
        rc = main(["comb-threshold", "--config", "fig2b", "--gm-cap", "6e6",
                   "--format", fmt, "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        if fmt == "csv":
            meta = dict(ln[2:].split(" = ", 1) for ln in lines
                        if ln.startswith("# ") and " = " in ln)
            meta["probes"] = json.loads(meta["probes"])
            data = [ln for ln in lines if not ln.startswith("#")]
            assert data[:2] == ["field,value", "gm_cap_hz,6000000"]
            assert data[2] == "comb_threshold_hz,nan"
        else:
            meta = json.loads(lines[0])["_meta"]
            assert json.loads(lines[1]) == {"field": "gm_cap_hz",
                                            "value": 6e6}
        assert meta["ode_start"] == "zero"
        (probe,) = meta["probes"]
        assert probe["target_hz"] == 6e6 and probe["kind"] == "steady"
        assert probe["realized_hz"] == pytest.approx(6e6, rel=1e-8)
        assert 0 < probe["nfev"] < 50_000
        assert 0 <= probe["variation"] < time_domain.STEADY_TOL


class TestPresets:
    def test_preset_loads(self, capsys):
        assert main(["steady", "--config", "fig2b"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "abs_g_m_eff_hz,2500000" in text
