"""Sweep outputs against the references the benchmark compares them with.

The ten one-dimensional figure presets and the filtered ``fig2d_magnon``
sweep run through the command line exactly as the benchmark's seed-0
invocations do, and each CSV is compared with its recorded reference in
``bench/ref`` by ``bench/checks.compare_reference`` (numbers to a relative
1e-6).  This pins the row assembly of every sweep to the recorded outputs
at each test run; the references are only read.
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

PRESETS = ("fig2d_magnon", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
           "fig4d", "fig5a", "fig5b", "fig6a", "fig6b")


@pytest.mark.parametrize("config", PRESETS)
def test_sweep_matches_its_reference(config, tmp_path):
    out = tmp_path / f"{config}.csv"
    argv = ["sweep", "--config", config, "--workers", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    header, rows = checks.read_csv(out)
    assert checks.compare_reference(config, header, rows) == []
