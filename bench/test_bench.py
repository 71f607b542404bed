"""Tests of the benchmark itself: seeded inputs, reference comparison, and
the exact counts of the traced run repeating between runs."""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import checks
from run import END_TO_END
from tracer import LAYER_METRICS
from workloads import COMB_CAP_HZ, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent

EXACT_COUNTS = ("linear_model.is_stable.calls", "lyapunov.solve_lyapunov.calls",
                "output_mode.susceptibility.calls", "time_domain.nfev")


def test_benchmark_json_lists_what_the_script_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [m[:3] for m in LAYER_METRICS])


def test_seed_zero_runs_the_presets_and_other_seeds_repeat():
    for workload in WORKLOADS.values():
        plain = invocations(workload, 0, "out")
        assert all("--set" not in c.argv for c in plain)
        first = invocations(workload, 7, "out")
        assert first == invocations(workload, 7, "out")
        assert first != plain
    comb = invocations(WORKLOADS["comb_search"], 7, "out")[0]
    cap = float(comb.argv[comb.argv.index("--gm-cap") + 1])
    assert COMB_CAP_HZ < cap <= 1.05 * COMB_CAP_HZ and comb.rows == 3


def test_pooled_map_gets_the_same_inputs():
    calls = invocations(WORKLOADS["figure_sweeps"], 7, "out")
    single, pooled = (c for c in calls if c.config == "fig2a")
    assert (single.workers, pooled.workers) == (1, 2) and single.out != pooled.out
    assert single.rows == pooled.rows == 101 * 101

    def inputs(call):
        return [a for i, a in enumerate(call.argv) if call.argv[i - 1] == "--set"]

    assert inputs(single) == inputs(pooled) and len(inputs(single)) == 2


def test_reference_comparison_tolerates_rounding_only():
    with gzip.open(checks.reference_path("fig2b"), "rt", encoding="utf-8") as fh:
        header, rows = checks.parse_csv(fh.read())
    assert checks.compare_reference("fig2b", header, rows) == []
    value = float(rows[1][1])
    rounded = [rows[0], [rows[1][0], repr(value * (1 + 1e-8))]]
    assert checks.compare_reference("fig2b", header, rounded) == []
    moved = [rows[0], [rows[1][0], repr(value * 1.01)]]
    assert checks.compare_reference("fig2b", header, moved)


def _traced_counts(out: Path) -> dict:
    out.mkdir()
    small_map = ["--set", "sweep.axis1=delta_a,-20e6,0,4",
                 "--set", "sweep.axis2=delta_m_eff,0,20e6,4"]
    spec = {"mode": "traced", "invocations": [
        ["sweep", "--config", "fig2a", "--workers", "1", "--out",
         str(out / "map.csv"), *small_map],
        ["sweep", "--config", "fig2d_magnon", "--workers", "1", "--out",
         str(out / "filtered.csv"), "--set", "sweep.axis1=gamma_b,10,1e5,2"],
        ["comb-threshold", "--config", "fig2b", "--gm-cap", "12e6",
         "--resolution", "20e6", "--out", str(out / "comb.csv")],
    ]}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, check=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    return result["layers"]


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    for name in EXACT_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name
