"""Command-line outputs against the references the benchmark compares
them with.

Every benchmark sweep (the 101x101 ``fig2a`` map, the ten one-dimensional
figure presets and the two filtered ``fig2d`` sweeps) and the comb
threshold run through the command line exactly as the benchmark's seed-0
invocations do, and each CSV is compared with its recorded reference in
``bench/ref`` by ``bench/checks.compare_reference`` (numbers to a relative
1e-6).  This pins every recorded output at each test run; the references
are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from chiralcmm import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_checks",
                                               BENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

PRESETS = ("fig2a", "fig2d_magnon", "fig2d_phonon", "fig3a", "fig3b",
           "fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig6a",
           "fig6b")


@pytest.mark.parametrize("config", PRESETS)
def test_sweep_matches_its_reference(config, tmp_path):
    out = tmp_path / f"{config}.csv"
    argv = ["sweep", "--config", config, "--workers", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    header, rows = checks.read_csv(out)
    assert checks.compare_reference(config, header, rows) == []


def test_comb_threshold_matches_its_reference(tmp_path):
    out = tmp_path / "fig2b.csv"
    argv = ["comb-threshold", "--config", "fig2b", "--gm-cap", "12e6",
            "--resolution", "4e6", "--out", str(out)]
    assert cli.main(argv) == 0
    header, rows = checks.read_csv(out)
    assert checks.compare_reference("fig2b", header, rows) == []
