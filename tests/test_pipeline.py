import io
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralcmm import linear_model, lyapunov, output_mode, pipeline
from chiralcmm.cli import EXIT_OK, main, write_table
from chiralcmm.constants import hz
from chiralcmm.linear_model import build_drift
from chiralcmm.lyapunov import extract_block
from chiralcmm.output_mode import FilterSpec
from chiralcmm.params import Detunings, DriveSpec, NumericalCondition
from chiralcmm.pipeline import (
    SWEEPABLE,
    MeasureRequest,
    SweepAxis,
    SweepSpec,
    evaluate_block,
    evaluate_point,
    grid_rows,
    nonreciprocity_contrast,
    run_sweep,
    sweep_columns,
)
from chiralcmm.steady_state import SingularConfigurationError, resolve_drive
from chiralcmm import presets

from helpers import (
    broadcasting_log_negativity,
    failing_gk21,
    off_design_state,
)


def _raise_type_error(*_args, **_kwargs):
    raise TypeError("not a domain error")


def _extract_with_b(V, modes):
    """``extract_block`` with the mode b added to every partition: a pair
    becomes a 6x6 block, a wrong shape for log_negativity."""
    return extract_block(V, (*modes, "b"))


#: the run config that write_table needs, for tables written in memory
_CFG = SimpleNamespace(digest="test", filter_spec=None, resolved_text="")


def magnon_point():
    p = presets.magnon_set()
    return p, presets.optimum(p, "magnon")


def _measures(row) -> dict:
    """The E_N and r_min columns of a row."""
    return {name: value for name, value in row.items()
            if name.startswith(("en_", "rmin_"))}


class TestEvaluatePoint:
    def test_optimal_point_is_entangled(self):
        p, det = magnon_point()
        row = evaluate_point(p, det)
        assert row["stable"] == 1
        assert row["en_a_cw_m"] > 0.04
        assert row["rmin_a_cw_m_b"] > 0
        assert row["unphysical"] is False

    def test_ideal_ccw_drive_measures_vanish(self):
        p, det = magnon_point()
        row = evaluate_point(p.replace(drive_port="ccw"), det)
        assert row["g_m_eff"] == 0
        for name, value in _measures(row).items():
            assert value <= 1e-8 if name.startswith("en_") else value == 0.0

    def test_unstable_point_has_no_measures(self):
        # the filter runs on an empty stack of stable points
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", hz(14e6)))
        request = MeasureRequest(
            filter_spec=FilterSpec(-p.omega_b, 10 / p.omega_b))
        row = evaluate_point(p, det, request)
        assert row["stable"] == 0
        assert len(_measures(row)) == 6
        assert all(np.isnan(value) for value in _measures(row).values())
        assert row["monogamy_violations"] == 0
        filtered = [name for name in row
                    if name.startswith("filtered_") or name == "fidelity"]
        assert len(filtered) == 6
        assert all(np.isnan(row[name]) for name in filtered)

    def test_monogamy_violations_counted(self):
        # one focus mode of a_ccw:m:b breaks the monogamy inequality here
        # (residuals about -3.0e-6, 4.9e-5 and 5.0e-5); r_min is floored
        p, det = off_design_state()
        tri = ("a_ccw", "m", "b")
        row = evaluate_point(p, det, MeasureRequest(pairs=(), triples=(tri,)))
        assert row["stable"] == 1
        assert row["monogamy_violations"] == 1
        assert row["rmin_a_ccw_m_b"] == 0.0
        both = MeasureRequest(pairs=(), triples=(tri, ("a_cw", "m", "b")))
        assert evaluate_point(p, det, both)["monogamy_violations"] == 1
        # the column exists only with triples
        pairs_only = MeasureRequest(triples=())
        assert "monogamy_violations" not in evaluate_point(p, det, pairs_only)

    def test_filtered_block_optional(self):
        p, det = magnon_point()
        req = MeasureRequest(
            filter_spec=FilterSpec(-p.omega_b, 10 / p.omega_b))
        row = evaluate_point(p, det, request=req)
        assert 0.5 < row["fidelity"] <= 1.0
        assert row["filtered_en"] > 0
        assert "filtered_en" not in evaluate_point(p, det)


class TestContrast:
    def test_ideal_case_is_unity(self):
        p, det = magnon_point()
        assert nonreciprocity_contrast(p, det, ("a_cw", "m")) \
            == pytest.approx(1.0, abs=1e-6)
        assert nonreciprocity_contrast(p, det, ("a_cw", "m", "b")) == 1.0

    def test_symmetric_configuration_is_zero(self):
        p = presets.magnon_set(g_ccw=hz(4e6))  # chi = 1, J = 0
        det = presets.optimum(p, "magnon")
        cw = evaluate_point(p, det)
        ccw = evaluate_point(p.replace(drive_port="ccw"), det)
        # mirror symmetry maps one drive onto the other
        assert cw["en_a_cw_m"] == pytest.approx(ccw["en_a_ccw_m"], rel=1e-9)
        c_pair = nonreciprocity_contrast(p, det, ("a_cw", "m"))
        c_mirror = nonreciprocity_contrast(p, det, ("a_ccw", "m"))
        assert c_pair + c_mirror == pytest.approx(0.0, abs=1e-9)

    def test_both_zero_gives_zero(self):
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", 0.0))
        assert nonreciprocity_contrast(p, det, ("a_cw", "b")) == 0.0

    @pytest.mark.parametrize("partition", [("a_cw", "m"), ("a_cw", "m", "b")])
    def test_is_the_contrast_of_the_two_rows(self, partition):
        # backscattering and a ccw coupling entangle through both ports
        p = presets.magnon_set(g_ccw=hz(2e6), J=hz(0.5e6))
        det = presets.optimum(p, "magnon")
        column = ("en_" if len(partition) == 2 else "rmin_") + "_".join(partition)
        e1, e2 = (evaluate_point(p.replace(drive_port=port), det)[column]
                  for port in ("cw", "ccw"))
        assert e1 > e2 > 0
        contrast = nonreciprocity_contrast(p.replace(drive_port="ccw"), det,
                                           partition)
        assert repr(contrast) == repr((e1 - e2) / (e1 + e2))

    def test_unstable_point_is_nan(self):
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", hz(14e6)))
        assert np.isnan(nonreciprocity_contrast(p, det, ("a_cw", "m")))

    def test_equal_power_ccw_coupling_is_weak(self):
        # backscattering configuration: CCW drive yields a much smaller G_m
        pre = presets.get("fig4a")
        p = pre.params.replace(J=0.5 * pre.params.kappa_m)
        cw = resolve_drive(p, pre.detunings)
        ccw = resolve_drive(p.replace(drive_port="ccw"), pre.detunings)
        assert abs(ccw.g_m_eff) < 0.2 * abs(cw.g_m_eff)


class TestSweep:
    def spec(self, pairs=(("a_cw", "m"),), ports=("cw",), n=3):
        p, det = magnon_point()
        wb = p.omega_b
        axes = (SweepAxis("delta_a", -1.0 * wb, -0.5 * wb, n),)
        return p, det, SweepSpec(axes=axes, drive_ports=ports,
                                 request=MeasureRequest(pairs=pairs, triples=()))

    def test_rows_match_single_point_evaluation(self):
        p, det, spec = self.spec()
        res = run_sweep(p, det, spec)
        for da, e_n in zip(res.table["delta_a"], res.table["en_a_cw_m"]):
            row = evaluate_point(p, Detunings.effective(da, det.delta_m_eff),
                                 spec.request)
            assert e_n == row["en_a_cw_m"]

    def test_row_order_cw_before_ccw(self):
        p, det, spec = self.spec(ports=("ccw", "cw"))
        res = run_sweep(p, det, spec)
        assert res.table["drive_port"].tolist() == ["cw", "ccw"] * 3

    @staticmethod
    def error_case(n=3):
        """(params, detunings, spec) of a sweep whose first row fails: at
        g_cw = g_ccw = J = 0 the drive port does not pump the magnon."""
        pre = presets.get("fig3a")
        return (pre.params.replace(g_ccw=0.0, J=0.0), pre.detunings,
                SweepSpec(axes=(SweepAxis("g_cw", 0.0, hz(1e6), n),),
                          request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                 triples=())))

    def test_identical_results_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 2)   # four blocks
        for errors, (p, det, spec) in ((False, self.spec(n=7)),
                                       (True, self.error_case(n=7))):
            results = [run_sweep(p, det, spec, workers=w) for w in (1, 2, 3)]
            jsonl = []
            for res in results:
                fh = io.StringIO()
                write_table(fh, _CFG, res.columns, res.rows(), "jsonl",
                            res.meta)
                jsonl.append(fh.getvalue())
            serial = results[0]
            stable = serial.table["stable"].tolist()
            assert all(type(v) is int or np.isnan(v) for v in stable)
            assert (serial.meta["error_rows"] > 0) == errors
            # JSONL writes an int column as 1 or 0, and NaN as null
            assert ('"stable": null' in jsonl[0]) == errors
            assert '"stable": 1}' in jsonl[0]
            assert '"stable": 1.0' not in jsonl[0]
            for res, text in zip(results[1:], jsonl[1:]):
                assert res.columns == serial.columns
                assert res.meta == serial.meta
                assert {name: _bits(column) for name, column in
                        _lists(res.table).items()} \
                    == {name: _bits(column) for name, column in
                        _lists(serial.table).items()}
                assert text == jsonl[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_caller_is_one_of_the_workers(self, monkeypatch, workers):
        # workers = k adds k - 1 threads to the calling one, which takes
        # blocks too
        p, det, spec = self.spec(n=6)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 1)   # six blocks
        caller = threading.get_ident()
        threads_before = threading.active_count()
        idents, counts = [], []

        def recording(*args):
            idents.append(threading.get_ident())
            counts.append(threading.active_count())
            time.sleep(0.005)           # so that every thread finds a block
            return evaluate_block(*args)

        monkeypatch.setattr(pipeline, "evaluate_block", recording)
        run_sweep(p, det, spec, workers=workers)
        assert len(idents) == 6 and caller in idents
        assert len(set(idents) - {caller}) <= workers - 1
        assert max(counts) <= threads_before + workers - 1
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("error", [KeyboardInterrupt, TypeError])
    def test_error_in_a_block_of_the_caller_starts_no_further_block(
            self, monkeypatch, error):
        p, det, spec = self.spec(n=40)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 1)   # 40 blocks
        caller = threading.get_ident()
        threads_before = threading.active_count()
        started = []

        def caller_fails(*args):
            started.append(threading.get_ident())
            if threading.get_ident() == caller:
                raise error("in a block of the calling thread")
            time.sleep(0.01)
            return evaluate_block(*args)

        monkeypatch.setattr(pipeline, "evaluate_block", caller_fails)
        with pytest.raises(error, match="calling thread"):
            run_sweep(p, det, spec, workers=2)
        # the pool thread ended its block before the error propagated
        assert threading.active_count() == threads_before
        assert started.count(caller) == 1 and len(started) < 40
        done = len(started)
        time.sleep(0.05)
        assert len(started) == done        # no block ran after the raise

    def test_blocks_run_in_this_process(self, monkeypatch):
        p, det, spec = self.spec(n=6)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 2)   # three blocks
        pids = []

        def recording(*args):
            pids.append(os.getpid())
            return evaluate_block(*args)

        monkeypatch.setattr(pipeline, "evaluate_block", recording)
        res = run_sweep(p, det, spec, workers=2)
        assert len(res.table["error"]) == 6
        assert pids == [os.getpid()] * 3
        assert multiprocessing.active_children() == []

    def test_programming_error_cancels_waiting_blocks(self, monkeypatch):
        p, det, spec = self.spec(n=40)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 1)   # 40 blocks
        evaluated = []

        def first_fails(params, det, spec, values, ports):
            evaluated.append(values[0, 0])
            if values[0, 0] == spec.axes[0].start:
                raise TypeError("not a domain error")
            time.sleep(0.01)
            return evaluate_block(params, det, spec, values, ports)

        monkeypatch.setattr(pipeline, "evaluate_block", first_fails)
        with pytest.raises(TypeError, match="not a domain error"):
            run_sweep(p, det, spec, workers=2)
        done = len(evaluated)
        assert done < 40
        time.sleep(0.05)
        assert len(evaluated) == done        # no block ran after the raise

    def test_per_point_failures_recorded_in_row(self):
        res = run_sweep(*self.error_case())
        assert [e != "" for e in res.table["error"]] == [True, False, False]

    def test_error_rows_carry_the_single_point_error(self):
        p, det, spec = self.error_case()
        res = run_sweep(p, det, spec)
        with pytest.raises(SingularConfigurationError) as exc:
            evaluate_point(p.replace(g_cw=res.table["g_cw"][0]), det,
                           spec.request)
        assert res.table["error"][0] == f"SingularConfigurationError: {exc.value}"
        value_names = set(res.table) - {"g_cw", "drive_port", "error"}
        assert value_names == set(itertools.chain(*sweep_columns(
            spec, p.detuning_mode))) - {"g_cw", "drive_port", "error"}
        assert all(np.isnan(res.table[name][0]) for name in value_names)
        assert res.meta == {"unphysical_rows": 0, "error_rows": 1}

    @pytest.mark.parametrize("target, mutation, error", [
        ("log_negativity", _raise_type_error, TypeError),
        # a ValueError, the family of the old in-row error net
        ("log_negativity", broadcasting_log_negativity, ValueError),
        # wrong-shaped covariances: a ValueError, not InvalidCovarianceError
        ("extract_block", _extract_with_b, ValueError),
    ], ids=["type-error", "broadcasting", "wrong-shape"])
    def test_programming_errors_fail_the_sweep(self, target, mutation, error,
                                               monkeypatch):
        p, det, spec = self.spec(n=5)
        monkeypatch.setattr(pipeline, target, mutation)
        with pytest.raises(error) as exc:
            run_sweep(p, det, spec)
        assert not isinstance(exc.value, NumericalCondition)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axes=(SweepAxis("delta_a", 0.0, 1.0, 1),))
        with pytest.raises(ValueError):
            SweepSpec(axes=(SweepAxis("nope", 0.0, 1.0, 5),))
        with pytest.raises(ValueError):
            SweepSpec(axes=(SweepAxis("delta_a", 0.0, np.inf, 5),))

    @pytest.mark.parametrize("pairs, triples", [
        ((("a_cw", "m"), ("b", "b")), ()),
        ((), (("a_cw", "m", "b"), ("a_ccw", "b", "a_ccw")))])
    def test_partition_naming_a_mode_twice_refused(self, pairs, triples):
        # it could only give rows whose covariance is singular
        request = MeasureRequest(pairs=pairs, triples=triples)
        with pytest.raises(ValueError, match="names mode .* twice"):
            SweepSpec(axes=(SweepAxis("delta_a", 0.0, 1.0, 5),),
                      request=request)


class TestLapackWork:
    def test_fig2a_map_makes_one_solve_per_chunk(self, tmp_path, monkeypatch):
        # the physicality check makes one stacked Cholesky call per block
        # and no eigvalsh call, and the Lyapunov stage one solve per chunk
        # of SOLVE_CHUNK * 36**2 matrix entries of each component of each
        # partition of a block's stable points.
        # fig2a is chiral: a point splits into a_cw, m, b (21 unknowns) and
        # a_ccw (3), whose two quadratures decouple at delta_a = 0 (1 each)
        counts = dict.fromkeys(("solve", "eigvalsh", "cholesky"), 0)

        def counting(name, function):
            def call(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return call

        for name in counts:
            monkeypatch.setattr(np.linalg, name,
                                counting(name, getattr(np.linalg, name)))
        out = tmp_path / "fig2a.csv"
        assert main(["sweep", "--config", "fig2a", "--workers", "1",
                     "--out", str(out)]) == EXIT_OK
        lines = [line.split(",") for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        rows = [dict(zip(lines[0], line)) for line in lines[1:]]
        assert len(rows) == 101 * 101

        expected = 0
        for k in range(0, len(rows), pipeline.BLOCK_POINTS):
            block = [r for r in rows[k:k + pipeline.BLOCK_POINTS]
                     if r["stable"] == "1"]
            for at_zero, unknowns in ((False, (21, 3)), (True, (21, 1, 1))):
                points = sum((float(r["delta_a"]) == 0.0) == at_zero
                             for r in block)
                for m in unknowns if points else ():
                    chunk = max(1, lyapunov.SOLVE_CHUNK * 36**2 // m**2)
                    expected += -(-points // chunk)
        blocks = -(-len(rows) // pipeline.BLOCK_POINTS)
        assert counts == {"solve": expected, "eigvalsh": 0, "cholesky": blocks}
        assert (expected, blocks) == (133, 20)


class TestTemperatureCurve:
    def test_monotone_decay_past_the_peak(self):
        # raising the bath temperature can first help (killing unwanted
        # correlations) but the curve must be non-increasing past its peak
        pre = presets.get("fig5a", grid_points=41)
        res = run_sweep(pre.params, pre.detunings, pre.sweep)
        values = [e for e, port in zip(res.table["en_a_cw_m"],
                                       res.table["drive_port"]) if port == "cw"]
        k = int(np.argmax(values))
        diffs = np.diff(values[k:])
        assert np.all(diffs <= 1e-6)


class TestDetuningOptimum:
    def test_coarse_grid_peaks_near_reference_point(self):
        # cheap version of the full-map reproduction (acceptance runs 101x101)
        pre = presets.get("fig2a", grid_points=41)
        t = run_sweep(pre.params, pre.detunings, pre.sweep).table
        best = int(np.argmax(np.where(t["stable"], t["en_a_cw_m"], -1)))
        wb = pre.params.omega_b
        assert t["delta_a"][best] / wb == pytest.approx(-0.72, abs=0.06)
        assert t["delta_m_eff"][best] / wb == pytest.approx(0.76, abs=0.06)
        assert t["en_a_cw_m"][best] > 0


def _bits(row):
    """A row in a form where equality means bitwise-equal numbers."""
    return [repr(float(v)) if isinstance(v, float) else repr(v) for v in row]


def _lists(table) -> dict:
    """A table with each column as a list of Python scalars, as a writer
    gets its rows."""
    return {name: column.tolist() for name, column in table.items()}


def _single_point_row(pre, values, port) -> dict:
    """The sweep row of one grid point, from evaluate_point: column name ->
    value, the axis values, the port and the error added.  A point that
    meets a numerical condition has NaN in every value column and the
    condition in ``error``."""
    p, d = pre.params, pre.detunings
    for ax, v in zip(pre.sweep.axes, values):
        p, d = SWEEPABLE[ax.name](p, d, float(v))
    try:
        row = evaluate_point(p.replace(drive_port=port), d, pre.sweep.request)
        error = ""
    except NumericalCondition as exc:
        row = dict.fromkeys(itertools.chain(*sweep_columns(
            pre.sweep, p.detuning_mode)), np.nan)
        error = f"{type(exc).__name__}: {exc}"
    row.update(zip((ax.name for ax in pre.sweep.axes), map(float, values)),
               drive_port=port, error=error)
    return row


def _block_preset(name):
    """The preset ``name`` on a coarse grid; a filtered preset's sweep
    requests its filter, as the CLI's does.  ``singular`` is fig3a at
    g_ccw = J = 0 over g_cw from 0, driven through both ports: the rows at
    g_cw = 0 fail, as the drive port does not pump the magnon.
    ``fig4a_chi0`` is fig4a at g_ccw = 0: only its J = 0 rows leave a_ccw
    uncoupled, so a block mixes points of two coupling graphs."""
    if name == "fig4a_chi0":
        pre = presets.get("fig4a", grid_points=9)
        return replace(pre, params=pre.params.replace(g_ccw=0.0))
    if name == "singular":
        pre = presets.get("fig3a")
        sweep = replace(pre.sweep, drive_ports=("cw", "ccw"),
                        axes=(SweepAxis("g_cw", 0.0, hz(1e6), 3),))
        return replace(pre, params=pre.params.replace(g_ccw=0.0, J=0.0),
                       sweep=sweep)
    pre = presets.get(name, grid_points=9)
    if pre.filter_spec is None:
        return pre
    request = replace(pre.sweep.request, filter_spec=pre.filter_spec)
    return replace(pre, sweep=replace(pre.sweep, request=request))


_BLOCK_PRESETS = ("fig2a", "fig4a", "fig4a_chi0", "fig2d_magnon", "singular")


class TestBlockEngine:
    # each preset again with SOLVE_CHUNK = 2 (Lyapunov chunks of 2 systems
    # of 36 unknowns, 5 of 21), so that a block of more than five points is
    # solved in several chunks
    @pytest.mark.parametrize("name, chunk", [
        *(pytest.param(name, lyapunov.SOLVE_CHUNK, id=name)
          for name in _BLOCK_PRESETS),
        *(pytest.param(name, 2, id=f"{name}-chunk2")
          for name in _BLOCK_PRESETS)])
    # the patch is the same for every example
    @settings(max_examples=15,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_block(self, name, chunk, data,
                                             monkeypatch):
        monkeypatch.setattr(lyapunov, "SOLVE_CHUNK", chunk)
        pre = _block_preset(name)
        values, ports = grid_rows(pre.sweep)
        # a filtered point costs milliseconds: fewer of them
        size = 12 if pre.filter_spec is None else 3
        idx = np.array(sorted(data.draw(st.sets(
            st.integers(0, len(ports) - 1), min_size=1, max_size=size))))
        cut = data.draw(st.integers(0, len(idx)))
        args = (pre.params, pre.detunings, pre.sweep)
        whole = evaluate_block(*args, values[idx], ports[idx])
        head = evaluate_block(*args, values[idx[:cut]], ports[idx[:cut]])
        tail = evaluate_block(*args, values[idx[cut:]], ports[idx[cut:]])
        assert list(head) == list(tail) == list(whole)
        whole = _lists(whole)
        for name, column in whole.items():
            assert _bits(head[name].tolist() + tail[name].tolist()) \
                == _bits(column)
        # evaluate_point returns the value columns, diagnostics included
        for k, i in enumerate(idx):
            expected = _single_point_row(pre, values[i], str(ports[i]))
            assert set(expected) == set(whole)
            assert _bits(whole[name][k] for name in whole) \
                == _bits(expected[name] for name in whole)

    def test_a_forced_lyapunov_failure_costs_one_more_solve(self,
                                                             monkeypatch):
        # fig2a row 5 100 fails the Lyapunov symmetry check in its block of
        # BLOCK_POINTS rows: the block is solved with the row, then once
        # more without it
        pre = presets.get("fig2a")
        values, ports = grid_rows(pre.sweep)
        first = 5100 // pipeline.BLOCK_POINTS * pipeline.BLOCK_POINTS
        rows = slice(first, first + pipeline.BLOCK_POINTS)
        args = (pre.params, pre.detunings, pre.sweep, values[rows],
                ports[rows])
        expected = _lists(evaluate_block(*args))
        da, dme = values[5100]
        solve, points = pipeline.solve_lyapunov, []

        def failing_at_5100(A, D, gated=False):
            points.append(len(A))
            doomed = (A[:, 0, 1] == da) & (A[:, 4, 5] == dme)
            return solve(A, np.where(doomed[:, None, None], np.nan, D),
                         gated=gated)

        monkeypatch.setattr(pipeline, "solve_lyapunov", failing_at_5100)
        block = _lists(evaluate_block(*args))
        assert len(points) == 2 and points[0] == points[1] + 1
        failed = [k for k, e in enumerate(block["error"]) if e]
        assert failed == [5100 - first]
        assert block["error"][failed[0]] == ("LyapunovError: Lyapunov "
                                             "solution asymmetric beyond "
                                             "tolerance: nan")
        for name, column in block.items():
            del column[failed[0]], expected[name][failed[0]]
            assert _bits(column) == _bits(expected[name])

    def test_a_forced_quadrature_failure_costs_one_more_quadrature(
            self, monkeypatch):
        # fig2d_magnon row 25 fails its quadrature's error test: the block
        # is integrated with the row, then once more without it
        pre = presets.get("fig2d_magnon")
        spec = replace(pre.sweep, request=replace(
            pre.sweep.request, filter_spec=pre.filter_spec))
        values, ports = grid_rows(spec)
        integrate, points = output_mode._integrated_pairs, []

        def failing_at_25(res, chans, params, filter_spec):
            points.append(len(res.cond))
            with monkeypatch.context() as m:
                m.setattr(output_mode, "adaptive_gk21",
                          failing_gk21(params.gamma_b == values[25, 0]))
                return integrate(res, chans, params, filter_spec)

        monkeypatch.setattr(output_mode, "_integrated_pairs", failing_at_25)
        table = evaluate_block(pre.params, pre.detunings, spec, values, ports)
        assert points == [51, 50]
        assert [k for k, e in enumerate(table["error"]) if e] == [25]
        assert table["error"][25].startswith(
            "QuadratureError: frequency integral error estimate 1 exceeds")

    def test_filtered_block_of_stable_and_unstable_points(self):
        # the filter runs on the block's stable points only; every row
        # still equals its single-point row
        pre = _block_preset("fig2d_magnon")
        spec = replace(pre.sweep, axes=(
            SweepAxis("gm_abs", hz(4e6), hz(14e6), 4),))
        values, ports = grid_rows(spec)
        block = _lists(evaluate_block(pre.params, pre.detunings, spec,
                                      values, ports))
        assert block["stable"] == [1, 1, 0, 0]
        for k, (value, port) in enumerate(zip(values[:, 0], ports)):
            p = pre.params.replace(drive=DriveSpec("gm_abs", value),
                                   drive_port=str(port))
            row = evaluate_point(p, pre.detunings, spec.request)
            assert _bits(block[name][k] for name in row) \
                == _bits(row.values())

    def test_physical_detuning_mode_rows_match_single_points(self):
        # the cubic mean field of the physical mode runs on the whole block
        p = presets.fixed_power_set("magnon", chi=0.1).replace(
            detuning_mode="physical", omega_a=hz(10e9) - 0.72 * hz(10e6),
            omega_m=hz(10e9) + 0.76 * hz(10e6))
        spec = SweepSpec(axes=(SweepAxis("temperature", 0.01, 0.05, 3),),
                         drive_ports=("cw", "ccw"),
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        pre = SimpleNamespace(params=p, detunings=Detunings.physical(p),
                              sweep=spec)
        res = run_sweep(p, pre.detunings, spec)
        values, ports = grid_rows(spec)
        assert res.meta["error_rows"] == 0
        table = _lists(res.table)
        for i, (v, port) in enumerate(zip(values, ports)):
            expected = _single_point_row(pre, v, str(port))
            assert set(expected) == set(table)
            assert _bits(table[name][i] for name in table) \
                == _bits(expected[name] for name in table)

    def test_physical_mode_drift_sees_the_dispersive_shift(self, monkeypatch):
        # the drift is built at the self-consistent delta_m_eff, not at the
        # bare magnon detuning the physical mode starts from
        p = presets.fixed_power_set("magnon", chi=0.1).replace(
            detuning_mode="physical", omega_a=hz(10e9) - 0.72 * hz(10e6),
            omega_m=hz(10e9) + 0.76 * hz(10e6))
        det = Detunings.physical(p)
        sf = resolve_drive(p, det)
        assert det.delta_m - sf.delta_m_eff > 0.05 * p.omega_b
        expected = build_drift(
            p, Detunings(det.delta_a, det.delta_m, sf.delta_m_eff), sf.g_m_eff)

        drifts = []
        build_model = linear_model.build_model

        def recording(*args):
            model = build_model(*args)
            drifts.append(model.A)
            return model

        monkeypatch.setattr(linear_model, "build_model", recording)
        evaluate_point(p, det)
        # the first row, at the configured temperature, is the same point
        spec = SweepSpec(axes=(SweepAxis("temperature", p.temperature, 0.05, 2),),
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        run_sweep(p, det, spec)
        assert len(drifts) == 2
        assert_allclose(drifts[0][0], expected, rtol=1e-12, atol=0)
        assert_allclose(drifts[1][0], expected, rtol=1e-12, atol=0)

    def test_quadrature_maxima_identical_across_worker_counts(self,
                                                              monkeypatch):
        pre = presets.get("fig2d_magnon")
        axis = pre.sweep.axes[0]
        request = MeasureRequest(pairs=(("a_cw", "m"),), triples=(),
                                 filter_spec=pre.filter_spec)
        spec = SweepSpec(axes=(SweepAxis(axis.name, axis.start, axis.stop, 7),),
                         request=request)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 3)   # three blocks
        single = run_sweep(pre.params, pre.detunings, spec, workers=1)
        pooled = run_sweep(pre.params, pre.detunings, spec, workers=2)
        assert single.meta == pooled.meta
        values, ports = grid_rows(spec)
        rows = [evaluate_point(pre.params.replace(gamma_b=v[0],
                                                  drive_port=str(port)),
                               pre.detunings, request)
                for v, port in zip(values, ports)]
        for entry in ("quad_error", "tail_estimate", "modal_cond"):
            assert single.meta[f"filtered_{entry}_max"] == max(
                row[f"filtered_{entry}"] for row in rows)

    def test_multistable_rows_identical_across_worker_counts(self,
                                                            monkeypatch):
        # a physical-mode detuning grid of the magnon set that crosses the
        # fold of the cubic mean field
        p = presets.fixed_power_set("magnon", chi=0.1).replace(
            detuning_mode="physical")
        wb = p.omega_b
        spec = SweepSpec(axes=(SweepAxis("delta_a", -1.5 * wb, 0.0, 5),
                               SweepAxis("delta_m_eff", 0.0, 1.5 * wb, 5)),
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        det = Detunings.physical(p)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 7)   # four blocks
        single = run_sweep(p, det, spec, workers=1)
        pooled = run_sweep(p, det, spec, workers=2)
        assert single.meta == pooled.meta
        values, _ = grid_rows(spec)
        expected = sum(resolve_drive(p, Detunings(da, dm, dm)).meta["branches"]
                       > 1 for da, dm in values)
        assert 0 < single.meta["multistable_rows"] == expected < len(values)
        effective = run_sweep(p.replace(detuning_mode="effective"), det, spec)
        assert "multistable_rows" not in effective.meta

    @staticmethod
    def _meta_case(case):
        """(params, detunings, spec) of a filtered sweep with error rows, a
        filtered sweep where every row fails, a physical-mode sweep across
        the fold of the mean field, and an unfiltered sweep with error
        rows."""
        if case == "physical":
            p = presets.fixed_power_set("magnon", chi=0.1).replace(
                detuning_mode="physical")
            wb = p.omega_b
            axes = (SweepAxis("delta_a", -1.5 * wb, 0.0, 4),
                    SweepAxis("delta_m_eff", 0.0, 1.5 * wb, 4))
            return p, Detunings.physical(p), SweepSpec(
                axes=axes, request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                  triples=()))
        if case == "errors":
            return TestSweep.error_case()
        # at delta_a = delta_m_eff = 0 the cw-driven drift matrix is nearly
        # defective and its filtered quadrature is refused
        pre = presets.get("fig2d_magnon")
        failing = case == "filtered_failing"
        axis = (SweepAxis("delta_a", 0.0, 0.0, 2) if failing
                else SweepAxis("delta_a", hz(-1e6), hz(1e6), 3))
        request = MeasureRequest(pairs=(("a_cw", "m"),),
                                 triples=(("a_cw", "m", "b"),),
                                 filter_spec=pre.filter_spec)
        return pre.params, Detunings.effective(0.0, 0.0), SweepSpec(
            axes=(axis,), drive_ports=("cw",) if failing else ("cw", "ccw"),
            request=request)

    @pytest.mark.parametrize("case", ["filtered", "filtered_failing",
                                      "physical", "errors"])
    def test_meta_is_one_reduction_per_column(self, case):
        p, det, spec = self._meta_case(case)
        res = run_sweep(p, det, spec)
        t = _lists(res.table)
        assert list(t) == list(itertools.chain(*sweep_columns(
            spec, p.detuning_mode)))
        expected = {
            "unphysical_rows": sum(v is True for v in t["unphysical"]),
            "error_rows": sum(e != "" for e in t["error"])}
        if case == "physical":
            expected["multistable_rows"] = sum(
                b > 1 for b, e in zip(t["branches"], t["error"]) if not e)
            assert expected["multistable_rows"] > 0
        if spec.request.filter_spec is not None:
            for entry in ("quad_error", "tail_estimate", "modal_cond"):
                values = [v for v in t[f"filtered_{entry}"] if not np.isnan(v)]
                expected[f"filtered_{entry}_max"] = max(values, default=None)
        assert list(res.meta.items()) == list(expected.items())
        if case != "physical":
            assert 0 < res.meta["error_rows"]
        if case.startswith("filtered"):
            failing = case == "filtered_failing"
            assert (res.meta["error_rows"] == len(t["error"])) == failing
            assert (res.meta["filtered_quad_error_max"] is None) == failing

    def test_unfiltered_sweep_has_no_quadrature_maxima(self):
        p, det = magnon_point()
        spec = SweepSpec(axes=(SweepAxis("chi", 0.0, 0.5, 2),),
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        assert "filtered_quad_error_max" not in run_sweep(p, det, spec).meta

    def test_output_identical_across_worker_counts(self, monkeypatch):
        pre = presets.get("fig2a", grid_points=23)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 128)
        assert 23 * 23 > 2 * pipeline.BLOCK_POINTS    # at least three blocks

        def table(workers):
            res = run_sweep(pre.params, pre.detunings, pre.sweep, workers=workers)
            buf = io.StringIO()
            write_table(buf, _CFG, res.columns, res.rows(), "csv", res.meta)
            return buf.getvalue().encode()

        assert table(1) == table(2)


class TestMemory:
    def test_table_holds_arrays_and_the_sweep_one_block(self):
        # a 45 x 45 fig2a map is four blocks.  Its table retains about 86 B
        # a row (8 B a float, 16 a complex, 12 the port, 8 the error
        # reference); Python lists took about 300.  The sweep's peak is one
        # block's working memory and the table, so nothing of a block
        # outlives it but its rows.
        pre = presets.get("fig2a", grid_points=45)
        values, ports = grid_rows(pre.sweep)
        assert 3 * pipeline.BLOCK_POINTS < len(ports) \
            <= 4 * pipeline.BLOCK_POINTS
        block = values[:pipeline.BLOCK_POINTS], ports[:pipeline.BLOCK_POINTS]
        args = (pre.params, pre.detunings, pre.sweep)
        evaluate_block(*args, *block)          # warm every lazy cache
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate_block(*args, *block)
            block_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            res = run_sweep(*args, workers=1)
            held, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(res.table["error"]) == len(ports)
        assert held / len(ports) < 150
        assert peak < block_peak + held


def _mirrored(column):
    """A column name with the two circulating modes swapped."""
    swap = {"a_cw": "a_ccw", "a_ccw": "a_cw"}
    return re.sub("a_c?cw", lambda mode: swap[mode.group()], column)


def _model_measures(p, det, g_m_eff):
    """Stability verdict, E_N of every pair and r_min of every triple of
    the four modes, from the drift at the coupling ``g_m_eff``."""
    model = linear_model.build_model(p, det, g_m_eff)
    if not model.stable:
        return False, {}, {}
    V = pipeline.solve_lyapunov(model.A, model.D)
    pairs = itertools.combinations(linear_model.MODE_ORDER, 2)
    e_n = {pair: pipeline.log_negativity(pipeline.extract_block(V, pair))
           for pair in pairs}
    r_min = {tri: pipeline.residual_contangle_min(
                 pipeline.extract_block(V, tri)).r_min
             for tri in pipeline.TRIPLES_DEFAULT}
    return True, e_n, r_min


#: random configurations around the magnon set, in Hz and omega_b units
_CONFIG = dict(
    g_cw=st.floats(0.5e6, 6e6), g_ccw=st.floats(0.5e6, 6e6),
    J=st.floats(0.0, 2e6), temperature=st.floats(0.005, 0.05),
    delta_a=st.floats(-1.0, -0.4), delta_m=st.floats(0.4, 1.0))


class TestMetamorphic:
    """Properties of the whole engine that tie different inputs together."""

    @pytest.mark.parametrize("mode", ["effective", "physical"])
    @settings(max_examples=8)
    @given(scale=st.floats(0.3, 1.2), **_CONFIG)
    def test_port_mirror(self, mode, scale, g_cw, g_ccw, J, temperature,
                         delta_a, delta_m):
        # driving ccw with (g_cw, g_ccw) = (x, y) is driving cw with (y, x)
        # once a_cw and a_ccw swap names, the filtered output included
        wb = hz(10e6)
        p = presets.magnon_set(g_cw=hz(g_cw), g_ccw=hz(g_ccw), J=hz(J),
                               temperature=temperature, drive_port="ccw")
        if mode == "effective":
            p = p.replace(drive=DriveSpec("gm_abs", scale * p.drive.value))
            det = Detunings.effective(delta_a * wb, delta_m * wb)
        else:
            p = p.replace(g_m=presets.inferred_g_m(), drive=DriveSpec(
                "amplitude", scale * presets.reference_amplitude("magnon")),
                detuning_mode="physical", omega_a=p.omega_0 + delta_a * wb,
                omega_m=p.omega_0 + delta_m * wb)
            det = Detunings.physical(p)
        request = MeasureRequest(filter_spec=presets.output_filter(p))
        ccw = evaluate_point(p, det, request)
        cw = evaluate_point(p.replace(g_cw=p.g_ccw, g_ccw=p.g_cw,
                                      drive_port="cw"), det, request)
        assert cw["stable"] == ccw["stable"]
        assert abs(cw["g_m_eff"]) == pytest.approx(abs(ccw["g_m_eff"]),
                                                   rel=1e-12)
        if not ccw["stable"]:
            return
        for name, value in _measures(ccw).items():
            assert cw[_mirrored(name)] == pytest.approx(value, abs=1e-12)
        assert cw["filtered_en"] == pytest.approx(ccw["filtered_en"], abs=1e-10)
        assert cw["fidelity"] == pytest.approx(ccw["fidelity"], abs=1e-10)

    @settings(max_examples=15)
    @given(gm=st.floats(0.5e6, 20e6), phase=st.floats(0.0, 2 * np.pi),
           **_CONFIG)
    def test_measures_do_not_depend_on_the_phase_of_g_m(
            self, gm, phase, g_cw, g_ccw, J, temperature, delta_a, delta_m):
        # a rotation of the cavity and magnon modes absorbs arg G_m; the
        # range of |G_m| reaches past the stability edge
        wb = hz(10e6)
        p = presets.magnon_set(g_cw=hz(g_cw), g_ccw=hz(g_ccw), J=hz(J),
                               temperature=temperature)
        det = Detunings.effective(delta_a * wb, delta_m * wb)
        stable, e_n, r_min = _model_measures(p, det, hz(gm))
        turned = _model_measures(p, det, hz(gm) * np.exp(1j * phase))
        assert turned[0] == stable
        for ours, theirs in zip((e_n, r_min), turned[1:]):
            assert ours.keys() == theirs.keys()
            for key, value in ours.items():
                assert theirs[key] == pytest.approx(value, abs=1e-12)

    @settings(max_examples=15)
    @given(gm=st.floats(0.5e6, 8e6), **_CONFIG)
    def test_uncoupled_cavity_is_not_entangled_with_the_magnon(
            self, gm, g_cw, g_ccw, J, temperature, delta_a, delta_m):
        wb = hz(10e6)
        p = presets.magnon_set(g_cw=0.0, g_ccw=0.0, J=hz(J),
                               temperature=temperature)
        det = Detunings.effective(delta_a * wb, delta_m * wb)
        stable, e_n, _ = _model_measures(p, det, hz(gm))
        if stable:
            assert e_n[("a_cw", "m")] <= 1e-13
            assert e_n[("a_ccw", "m")] <= 1e-13

    @settings(max_examples=15)
    @given(**_CONFIG)
    def test_zero_temperature_without_g_m_is_vacuum(
            self, g_cw, g_ccw, J, temperature, delta_a, delta_m):
        # the beam-splitter couplings keep the cavity and magnon in vacuum
        wb = hz(10e6)
        p = presets.magnon_set(g_cw=hz(g_cw), g_ccw=hz(g_ccw), J=hz(J),
                               temperature=0.0)
        det = Detunings.effective(delta_a * wb, delta_m * wb)
        model = linear_model.build_model(p, det, 0.0)
        assert model.stable
        V = pipeline.solve_lyapunov(model.A, model.D)
        block = pipeline.extract_block(V, ("a_cw", "a_ccw", "m"))
        assert_allclose(block, 0.5 * np.eye(6), rtol=0, atol=1e-12)


def test_import_loads_no_scipy(tmp_path):
    # the sweep engine is numpy-only.  scipy comes with time_domain, which
    # loads ODEPACK's extension alone: neither the command line nor a run
    # that integrates no ODE imports the scipy.integrate package or what
    # it pulls in (scipy.optimize, scipy.special)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, chiralcmm.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    code = f"""
import sys
from chiralcmm import cli, time_domain
for argv in (["steady", "--config", "fig2b"],
             ["trajectory", "--config", "fig2b"]):
    assert cli.main([*argv, "--out", {str(tmp_path / "out.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy.integrate"
             or m.startswith(("scipy.optimize", "scipy.special"))))
import scipy.integrate
from scipy.integrate import _odepack
print(_odepack is time_domain._odepack
      and scipy.integrate._odepack_py._odepack is _odepack)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]
