import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chiralcmm import cli, pipeline, presets, time_domain
from chiralcmm.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    parse_config_text,
)
from chiralcmm.constants import hz, to_hz
from chiralcmm.measures import InvalidCovarianceError
from chiralcmm.steady_state import amplitude_for_gm, precompensated_detunings

from helpers import broadcasting_log_negativity

ROOT = Path(__file__).resolve().parents[1]

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


def read_meta(path, fmt):
    """Metadata of a CSV or JSONL output file (CSV values as strings)."""
    lines = path.read_text().splitlines()
    if fmt == "jsonl":
        return json.loads(lines[0])["_meta"]
    return dict(ln[2:].split(" = ", 1) for ln in lines
                if ln.startswith("# ") and " = " in ln)


def legacy_cell(value):
    """A CSV cell as the earlier writer formatted it: NaN spelled out,
    other floats (np.float64 included) to 9 significant digits, anything
    else through str."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".9g")
    return str(value)


def csv_meta(tmp_path, command, *argv):
    """Metadata entries of a CSV run of ``command`` on the fig2b preset."""
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", "fig2b", "--out", str(out),
                 *argv]) == EXIT_OK
    return dict(ln[2:].split(" = ", 1) for ln in out.read_text().splitlines()
                if ln.startswith("# ") and " = " in ln)


def fold_point_physical():
    """--set flags for fig2b driven for |G_m| = 12 MHz from the
    pre-compensated bare detuning in the physical detuning mode: the fold,
    where the cubic mean field has three branches."""
    pre = presets.get("fig2b")
    p = pre.params.replace(g_m=hz(1.0))
    E = amplitude_for_gm(p, pre.detunings, hz(12e6))
    det = precompensated_detunings(p, pre.detunings, E)
    f0 = to_hz(p.omega_0)
    return ["--set", "system.g_m=1.0", "--set", "drive.spec=amplitude",
            "--set", f"drive.value={to_hz(E)!r}",
            "--set", "detuning.mode=physical",
            "--set", f"system.omega_a={f0 + to_hz(det.delta_a)!r}",
            "--set", f"system.omega_m={f0 + to_hz(det.delta_m)!r}"]


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

    @pytest.mark.parametrize("override, message", [
        ("system.g_m=abc", "system.g_m: not a number: 'abc'"),
        ("drive.value=-1", "drive value must be finite and >= 0"),
    ], ids=["system.g_m=abc", "drive.value=-1"])
    def test_malformed_value_exit_code(self, override, message, capsys):
        rc = main(["steady", "--config", "fig2b", "--set", override])
        assert rc == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

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

        cfg = load_config(Args())
        assert cfg.params.drive.value == pytest.approx(2 * math.pi * 2.5e6)

    def test_sweep_variant_key_refused(self, tmp_path, capsys):
        # files written by earlier versions carry a drift-variant key
        path = tmp_path / "old.cfg"
        path.write_text(cli.preset_config_text("fig2a").replace(
            "[sweep]\n", "[sweep]\nvariant = ideal\n"), encoding="utf-8")
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep.variant" in err and "j_coupling = 0" in err

    @pytest.mark.parametrize("override, named, known", [
        ("system.jcoupling=1e5", "system.jcoupling", "j_coupling, g_m"),
        ("drives.port=ccw", "[drives]", "system, drive, detuning"),
        # the stationary magnon is the one reading of the filtered pair
        ("filter.magnon_convention=instant", "filter.magnon_convention",
         "(known: center, tau)"),
        ("filter.magnon_convention=windowed", "filter.magnon_convention",
         "(known: center, tau)"),
    ], ids=["key", "section", "magnon-convention-instant",
            "magnon-convention-windowed"])
    def test_unknown_key_refused(self, override, named, known, capsys):
        rc = main(["steady", "--config", "fig2b", "--set", override])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and known in err

    def test_variant_flag_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", "fig2a", "--variant", "ideal"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["steady", "--config", "fig2b", "--drive", "ccw"],
        ["entangle", "--config", "fig2d_magnon", "--filter-center", "-10e6"],
        ["entangle", "--config", "fig2d_magnon", "--filter-tau", "2e-7"],
        ["entangle", "--config", "fig2d_magnon",
         "--magnon-convention", "instant"],
        ["comb-threshold", "--config", "figs1", "--dump-trajectory", "t.csv"],
        ["steady", "--config", "fig2b", "--workers", "1"],
    ], ids=["drive", "filter-center", "filter-tau", "magnon-convention",
            "dump-trajectory", "workers-on-steady"])
    def test_removed_flag_refused(self, argv, monkeypatch, tmp_path):
        # each config key has one override, --set section.key=value
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists()

    def test_readme_commands_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        commands = [shlex.split(line)[1:] for line in readme.splitlines()
                    if line.startswith("chiralcmm ")]
        assert len(commands) >= 5
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestSteadyCommand:
    def test_ccw_ideal_prints_zero_coupling(self, config_path, tmp_path):
        out = tmp_path / "steady.csv"
        rc = main(["steady", "--config", config_path,
                   "--set", "drive.port=ccw", "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["abs_g_m_eff_hz"]) == 0.0

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
        branch = csv_meta(tmp_path, "steady", *fold_point_physical())
        assert branch["mean_field_branch"] == "lowest"
        assert branch["mean_field_branches"] == "3"
        assert not any(key.startswith("mean_field")
                       for key in csv_meta(tmp_path, "steady"))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_validation_warnings_reach_the_output(self, fmt, tmp_path):
        out = tmp_path / f"steady.{fmt}"
        assert main(["steady", "--config", "fig2b", "--format", fmt,
                     "--set", "system.gamma_b=2e6", "--set",
                     "system.kappa_m=20e6", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        if fmt == "csv":
            (line,) = [ln for ln in lines if ln.startswith("# warnings = ")]
            warnings = json.loads(line.split(" = ", 1)[1])
        else:
            warnings = json.loads(lines[0])["_meta"]["warnings"]
        assert [w.split(":")[0] for w in warnings] == ["low_q",
                                                       "unresolved_sideband"]
        assert "warnings" not in csv_meta(tmp_path, "steady")

    def test_ignored_detunings_warn(self, tmp_path):
        # the preset's effective detunings are dropped in the physical mode
        meta = csv_meta(tmp_path, "steady", *fold_point_physical())
        (warning,) = json.loads(meta["warnings"])
        assert warning.startswith("ignored_detunings: detuning.delta_a, "
                                  "detuning.delta_m_eff ignored")

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
                   "--set", "drive.value=14e6", "--out", str(out)])
        assert rc == EXIT_OK
        body = out.read_text()
        assert "stable,0" in body

    def test_physical_mode_names_its_mean_field_branch(self, tmp_path):
        branch = csv_meta(tmp_path, "entangle", *fold_point_physical())
        assert branch["mean_field_branch"] == "lowest"
        assert branch["mean_field_branches"] == "3"
        assert not any(key.startswith("mean_field")
                       for key in csv_meta(tmp_path, "entangle"))

    def test_filtered_outputs(self, config_path, tmp_path):
        out = tmp_path / "ent.csv"
        rc = main(["entangle", "--config", config_path,
                   "--set", "filter.center=-10e6",
                   "--set", "filter.tau=1.5915494e-7",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["fidelity"]) > 0.5
        assert float(rows["filtered_en"]) > 0.2

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_filtered_diagnostics_in_metadata(self, fmt, tmp_path):
        out = tmp_path / f"ent.{fmt}"
        assert main(["entangle", "--config", "fig2d_magnon",
                     "--format", fmt, "--out", str(out)]) == EXIT_OK
        meta = read_meta(out, fmt)
        assert 0 < float(meta["filtered_quad_error"]) < 1e-3
        assert 0 < float(meta["filtered_tail_estimate"]) < 1e-3
        assert float(meta["filtered_window"]) > 10 * hz(10e6)
        assert 1 <= float(meta["filtered_modal_cond"]) < 10
        assert "filtered_magnon_commutator" not in meta
        assert "magnon_convention" not in meta

    def test_no_filtered_diagnostics_without_a_filter(self, tmp_path):
        assert not any(key.startswith("filtered_")
                       for key in csv_meta(tmp_path, "entangle"))


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
        assert meta["quadrature_order"][:2] == ["X_a_cw", "Y_a_cw"]
        record = json.loads(lines[1])
        assert record["drive_port"] == "cw"

    def test_diagnostic_counts_in_metadata(self, sweep_config_path, tmp_path):
        counts = {"unphysical_rows": 0, "several_below_half_rows": 0,
                  "error_rows": 1}
        # at g_cw = 0 (and g_ccw = J = 0) the drive port does not pump the
        # magnon: the first of three rows is an error
        args = ["--set", "sweep.axis1=g_cw,0,1e6,3"]
        csv_out, jsonl_out = tmp_path / "s.csv", tmp_path / "s.jsonl"
        assert main(["sweep", "--config", sweep_config_path, "--out",
                     str(csv_out), *args]) == EXIT_OK
        assert main(["sweep", "--config", sweep_config_path, "--out",
                     str(jsonl_out), "--format", "jsonl", *args]) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        for key, value in counts.items():
            assert f"# {key} = {value}" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "g_cw,drive_port,stable,abs_g_m_eff,en_a_cw_m,error"
        assert data[1].endswith(",SingularConfigurationError: drive port does "
                                "not pump the magnon mode; |G_m| target "
                                "unreachable")
        assert [ln.split(",")[-1] != "" for ln in data[1:]] == [True, False,
                                                                 False]
        meta = json.loads(jsonl_out.read_text().splitlines()[0])["_meta"]
        assert {key: meta[key] for key in counts} == counts

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_quadrature_maxima_in_metadata(self, fmt, tmp_path):
        out = tmp_path / f"f.{fmt}"
        assert main(["sweep", "--config", "fig2d_magnon", "--workers", "1",
                     "--set", "sweep.axis1=gamma_b,10,1e5,3", "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
        meta = read_meta(out, fmt)
        for key in ("filtered_quad_error_max", "filtered_tail_estimate_max"):
            assert 0 < float(meta[key]) < 1e-3
        assert 1 <= float(meta["filtered_modal_cond_max"]) < 10

    def test_worker_flag_output_identical(self, sweep_config_path, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(["sweep", "--config", sweep_config_path, "--out", str(out1),
              "--workers", "1"])
        main(["sweep", "--config", sweep_config_path, "--out", str(out2),
              "--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, workers, sweep_config_path,
                                       monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_sweep", _fail_if_swept)
        rc = main(["sweep", "--config", sweep_config_path,
                   "--workers", workers])
        assert rc == EXIT_CONFIG
        assert f"--workers must be at least 1, got {workers}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("affinity", [True, False],
                             ids=["affinity-mask", "no-affinity-call"])
    def test_default_workers_are_the_usable_cpus(self, affinity,
                                                 sweep_config_path,
                                                 monkeypatch, tmp_path):
        seen = []
        run_sweep = cli.run_sweep

        def recording(*args, workers):
            seen.append(workers)
            return run_sweep(*args, workers=workers)

        monkeypatch.setattr(cli, "run_sweep", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if affinity:    # as under ``taskset -c 0`` on a larger host
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert main(["sweep", "--config", sweep_config_path, "--out",
                     str(tmp_path / "s.csv")]) == EXIT_OK
        assert seen == [1 if affinity else 3]

    def test_missing_sweep_section(self, config_path, capsys):
        rc = main(["sweep", "--config", config_path])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, message", [
        (["sweep.axis1=delta_a,-20e6,0,2", "sweep.axis2=delta_a,0,20e6,2"],
         "set the same quantity"),
        (["sweep.axis2=chi,0,1,2", "sweep.axis1=g_ccw,0,1e6,2"],
         "set the same quantity"),
        (["sweep.axis1=gm_abs,1e6,2e6,2", "sweep.axis2=power,0.1,0.2,2"],
         "set the same quantity"),
        (["sweep.ports=cw,cw"], "repeated entry 'cw' in drive_ports"),
        (["sweep.pairs=a_cw:m,a_cw:m"], "repeated entry 'a_cw:m' in pairs"),
        (["sweep.triples=a_cw:m:b,a_cw:m:b"],
         "repeated entry 'a_cw:m:b' in triples"),
        (["sweep.pairs=m:m"], "partition 'm:m' names mode 'm' twice"),
        (["sweep.triples=a_cw:m:m"],
         "partition 'a_cw:m:m' names mode 'm' twice"),
    ], ids=["same-axis", "chi-g_ccw", "two-drives", "ports", "pairs",
            "triples", "pair-mode-twice", "triple-mode-twice"])
    def test_ambiguous_sweep_refused(self, overrides, message, monkeypatch,
                                     capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("ran an ambiguous sweep")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        argv = ["sweep", "--config", "fig2a"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, kind", [
        (["drive.spec=power", "drive.value=0.5"], "power"),
        (["sweep.axis1=amplitude,1e9,2e9,3"], "amplitude"),
    ], ids=["spec", "axis"])
    def test_drive_without_g_m_refused(self, overrides, kind, monkeypatch,
                                       capsys):
        # fig3a has no g_m: no row could form G_m from this drive
        monkeypatch.setattr(cli, "run_sweep", _fail_if_swept)
        argv = ["sweep", "--config", "fig3a"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert (f"{kind} drive spec requires g_m to form G_m"
                in capsys.readouterr().err)

    def test_power_axis_runs_in_physical_mode(self, tmp_path):
        # fig2c's power axis drives every row, whatever its gm_abs spec
        grid = ["sweep.axis1=kappa_a_e,5e5,7.8e6,2",
                "sweep.axis2=power,0.001,1.0,2", "detuning.mode=physical"]
        data = []
        for spec in ([], ["drive.spec=power"]):
            out = tmp_path / f"run{len(data)}.csv"
            argv = ["sweep", "--config", "fig2c", "--out", str(out)]
            for item in grid + spec:
                argv += ["--set", item]
            assert main(argv) == EXIT_OK
            data.append([ln for ln in out.read_text().splitlines()
                         if not ln.startswith("#")])
        assert data[0] == data[1]
        assert len(data[0]) == 5
        assert all(ln.endswith(",") for ln in data[0][1:])   # no error rows

    @pytest.mark.parametrize("axis, field", [
        ("gamma_b,-10,10,3", "gamma_b must be >= 0"),
        ("temperature,0.01,-0.01,3", "temperature must be >= 0"),
        ("chi,-0.5,0.5,3", "g_ccw must be >= 0"),
    ], ids=["gamma_b", "temperature", "chi"])
    def test_rows_outside_the_domain_refused(self, axis, field, monkeypatch,
                                             capsys):
        # the same bound as for a --set value, checked before any row runs
        monkeypatch.setattr(cli, "run_sweep", _fail_if_swept)
        rc = main(["sweep", "--config", "fig3a", "--set", f"sweep.axis1={axis}"])
        assert rc == EXIT_CONFIG
        assert f"config error: sweep row: {field}" in capsys.readouterr().err

    def test_unwritable_out_fails_before_sweep(self, sweep_config_path,
                                               monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("run_sweep called with an unwritable --out")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        rc = main(["sweep", "--config", sweep_config_path,
                   "--out", "/nonexistent/x.csv"])
        assert rc == EXIT_CONFIG
        assert "/nonexistent/x.csv" in capsys.readouterr().err


class TestErrorPolicy:
    def test_programming_error_raises(self, monkeypatch):
        # a bug is no config error (exit 2): it ends with a traceback
        monkeypatch.setattr(pipeline, "log_negativity",
                            broadcasting_log_negativity)
        with pytest.raises(ValueError):
            main(["entangle", "--config", "fig2b"])

    def test_invalid_covariance_is_a_numerical_failure(self, monkeypatch,
                                                       capsys):
        def refuse(V):
            raise InvalidCovarianceError("not a covariance matrix")

        monkeypatch.setattr(pipeline, "log_negativity", refuse)
        assert main(["entangle", "--config", "fig2b"]) == EXIT_NUMERICAL
        assert ("numerical failure: not a covariance matrix"
                in capsys.readouterr().err)

    # a cavity drive amplitude whose mean field overflows: in the closed
    # form of the effective detuning mode, and in the dispersive cubic of
    # the physical one
    OVERFLOW = {"effective": ("amplitude,1e300,1e307,2", "1e307"),
                "physical": ("amplitude,1e150,1e200,2", "1e150")}

    @pytest.mark.parametrize("mode", sorted(OVERFLOW))
    def test_overflowing_mean_field_is_a_numerical_failure(self, mode,
                                                           tmp_path, capsys):
        axis, value = self.OVERFLOW[mode]
        args = ["--config", "fig3a", "--set", "system.g_m=1",
                "--set", "drive.spec=amplitude",
                "--set", f"detuning.mode={mode}"]
        out = tmp_path / "s.csv"
        assert main(["sweep", *args, "--set", f"sweep.axis1={axis}",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert "# error_rows = 2" in lines
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert all(row.endswith(",MeanFieldOverflowError: mean field is not "
                                "finite: the drive overflows floating point")
                   for row in rows)
        capsys.readouterr()
        assert main(["entangle", *args, "--set",
                     f"drive.value={value}"]) == EXIT_NUMERICAL
        assert ("numerical failure: mean field is not finite"
                in capsys.readouterr().err)


class TestStabilityEdgeCommand:
    def test_known_boundary(self, tmp_path):
        out = tmp_path / "edge.csv"
        rc = main(["stability-edge", "--config", "fig2b", "--gm-cap", "30e6",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and "field" not in line)
        assert float(rows["max_stable_gm_hz"]) == pytest.approx(11.9e6, rel=0.02)

    @pytest.mark.parametrize("flag", [("--resolution", "0"),
                                      ("--gm-cap", "-5")],
                             ids=["resolution-0", "gm-cap-negative"])
    def test_bisection_arguments_checked(self, flag, capsys):
        t0 = time.perf_counter()
        rc = main(["stability-edge", "--config", "fig2b", *flag])
        assert rc == EXIT_CONFIG
        assert time.perf_counter() - t0 < 1.0
        assert "finite and positive" in capsys.readouterr().err


def _fail_if_swept(*_args, **_kwargs):
    raise AssertionError("run_sweep called")


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
        assert meta["ode_method"] == "LSODA"
        assert float(meta["ode_rtol"]) == time_domain.RTOL
        assert float(meta["ode_atol_rel"]) == time_domain.ATOL_REL
        (probe,) = meta["probes"]
        assert probe["target_hz"] == 6e6 and probe["kind"] == "steady"
        assert probe["realized_hz"] == pytest.approx(6e6, rel=1e-8)
        assert 0 < probe["nfev"] < 50_000
        assert 0 < probe["nst"] < probe["nfev"]
        assert probe["used_bdf"] is True
        assert 0 <= probe["variation"] < time_domain.STEADY_TOL

    def test_stdout_starts_with_the_header(self, capsys):
        assert main(["comb-threshold", "--config", "fig2b",
                     "--gm-cap", "6e6"]) == EXIT_OK
        data = [ln for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")]
        assert data[:2] == ["field,value", "gm_cap_hz,6000000"]

    def test_failed_integration_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(time_domain, "MXSTEP", 1)
        rc = main(["comb-threshold", "--config", "fig2b", "--gm-cap", "6e6"])
        assert rc == EXIT_NUMERICAL
        assert "LSODA failed" in capsys.readouterr().err


TRAJECTORY_HEADER = "t,re_a_cw,im_a_cw,re_a_ccw,im_a_ccw,re_m,im_m,q,p"


class TestWriteTable:
    # NaN as float and np.float64, signed zero, infinities, integers,
    # strings and flags: every kind of cell the commands write
    CELLS = (1.5, -0.0, math.nan, np.float64(math.nan), np.float64(2 / 3),
             math.inf, -math.inf, 1e-300, 7, np.int64(3), "cw", True,
             "ValueError: temperature must be >= 0")

    def test_cells_format_as_before(self, config_path):
        cfg = load_config(cli.build_parser().parse_args(
            ["steady", "--config", config_path]))
        fh = io.StringIO()
        cli.write_table(fh, cfg, [f"c{i}" for i in range(len(self.CELLS))],
                        [self.CELLS, self.CELLS[::-1]], "csv")
        data = fh.getvalue().splitlines()[-2:]
        assert data == [",".join(map(legacy_cell, row))
                        for row in (self.CELLS, self.CELLS[::-1])]
        assert data[0].split(",")[2:4] == ["nan", "nan"]

    @pytest.mark.parametrize("argv", [
        ["steady", "--config", "fig2b"],
        ["entangle", "--config", "fig2d_magnon"],
        ["entangle", "--config", "fig2b", "--set", "drive.value=14e6"],
        # the middle row's filtered quadrature is refused (an error row)
        ["sweep", "--config", "fig2d_magnon", "--workers", "1",
         "--set", "detuning.delta_m_eff=0",
         "--set", "sweep.axis1=delta_a,-1e6,1e6,3"],
        ["stability-edge", "--config", "fig2b"],
        ["comb-threshold", "--config", "fig2b", "--gm-cap", "6e6"],
        ["trajectory", "--config", "figs1"],
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_every_command_writes_its_rows_as_before(self, argv, monkeypatch,
                                                     tmp_path):
        TestTrajectoryCommand.short_runs(monkeypatch)
        written = []
        real = cli.write_table

        def spy(fh, cfg, columns, rows, fmt, extra_meta=None):
            written.append([tuple(row) for row in rows])
            real(fh, cfg, columns, written[-1], fmt, extra_meta)

        monkeypatch.setattr(cli, "write_table", spy)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        data = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        (rows,) = written
        assert data == [",".join(map(legacy_cell, row)) for row in rows]


class TestTrajectoryCommand:
    @staticmethod
    def short_runs(monkeypatch):
        """Make the command integrate over 2 us instead of its default
        horizon; returns the list of (det, E, trajectory) of its runs."""
        runs = []

        def short_run(params, det, E):
            traj = time_domain.integrate_classical(params, det, E, t_end=2e-6)
            runs.append((det, E, traj))
            return traj

        monkeypatch.setattr(cli, "integrate_classical", short_run)
        return runs

    def test_unwritable_out_rejected_before_integration(self, monkeypatch):
        monkeypatch.setattr(cli, "integrate_classical", _fail_if_integrated)
        rc = main(["trajectory", "--config", "figs1",
                   "--out", "/nonexistent/t.csv"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("mode", ["effective", "physical"])
    def test_integrates_from_the_bare_detuning(self, mode, monkeypatch,
                                               tmp_path):
        # an effective magnon detuning is pre-compensated for the dispersive
        # shift; a physical one already is the bare detuning
        runs = self.short_runs(monkeypatch)
        argv = ["trajectory", "--config", "figs1", "--set",
                f"detuning.mode={mode}", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == EXIT_OK
        cfg = load_config(cli.build_parser().parse_args(argv))
        ((det, E, _),) = runs
        assert E == cfg.params.drive.value
        if mode == "physical":
            assert det == cfg.detunings
        else:
            assert det == precompensated_detunings(cfg.params, cfg.detunings, E)
            assert det.delta_m > det.delta_m_eff == cfg.detunings.delta_m_eff

    def test_rows_are_the_integrated_samples(self, monkeypatch, capsys):
        runs = self.short_runs(monkeypatch)
        assert main(["trajectory", "--config", "figs1"]) == EXIT_OK
        data = [ln for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")]
        assert data[0] == TRAJECTORY_HEADER
        ((_, _, traj),) = runs
        columns = (traj.t, traj.a_cw.real, traj.a_cw.imag, traj.a_ccw.real,
                   traj.a_ccw.imag, traj.m.real, traj.m.imag, traj.q, traj.p)
        assert data[1:] == [",".join(format(v, ".9g") for v in row)
                            for row in zip(*columns)]

    def test_jsonl_metadata_names_its_hidden_choices(self, monkeypatch,
                                                     tmp_path):
        runs = self.short_runs(monkeypatch)
        out = tmp_path / "t.jsonl"
        assert main(["trajectory", "--config", "fig2b", "--format", "jsonl",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["_meta"]
        ((_, _, traj),) = runs
        # fig2b sets no g_m: the inferred one is used and recorded
        assert meta["g_m_hz"] == to_hz(presets.inferred_g_m())
        assert meta["nfev"] == traj.stats["nfev"] > 0
        assert meta["ode_method"] == "LSODA" and meta["ode_start"] == "zero"
        first = json.loads(lines[1])
        assert list(first) == sorted(TRAJECTORY_HEADER.split(","))
        assert len(lines) == 1 + traj.t.size


class TestPresets:
    def test_preset_loads(self, capsys):
        assert main(["steady", "--config", "fig2b"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "abs_g_m_eff_hz,2500000" in text


class TestClosedStdout:
    def test_reader_closing_the_pipe_is_not_an_error(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "chiralcmm.cli", "sweep", "--config",
             "fig3a", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()    # before the table is written
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK
        assert err == b""
