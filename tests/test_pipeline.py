import io
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralcmm import linear_model, pipeline
from chiralcmm.cli import write_table
from chiralcmm.constants import hz
from chiralcmm.linear_model import build_drift
from chiralcmm.output_mode import FilterSpec
from chiralcmm.params import Detunings, DriveSpec
from chiralcmm.pipeline import (
    BLOCK_POINTS,
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
from chiralcmm.steady_state import resolve_drive
from chiralcmm import presets

from helpers import off_design_state


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
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", hz(14e6)))
        row = evaluate_point(p, det)
        assert row["stable"] == 0
        assert len(_measures(row)) == 6
        assert all(np.isnan(value) for value in _measures(row).values())
        assert row["monogamy_violations"] == 0

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
        assert res.table["drive_port"] == ["cw", "ccw"] * 3

    @staticmethod
    def error_spec():
        # a negative temperature has no thermal occupancy: rows 2 and 3 fail
        return SweepSpec(axes=(SweepAxis("temperature", 0.01, -0.03, 3),),
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))

    def test_identical_results_across_worker_counts(self, monkeypatch):
        p, det, spec = self.spec(n=4)
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", 2)   # two blocks each
        for spec in (spec, self.error_spec()):
            serial = run_sweep(p, det, spec, workers=1)
            parallel = run_sweep(p, det, spec, workers=2)
            np.testing.assert_equal(parallel.table, serial.table)  # NaN == NaN
            assert parallel.columns == serial.columns
            assert serial.meta == parallel.meta

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
        p, det, _ = self.spec()
        res = run_sweep(p, det, self.error_spec())
        errors = res.table["error"]
        assert errors[0] == ""
        assert any(e != "" for e in errors[1:])

    def test_error_rows_carry_the_single_point_error(self):
        p, det, _ = self.spec()
        spec = self.error_spec()
        res = run_sweep(p, det, spec)
        with pytest.raises(ValueError) as exc:
            evaluate_point(p.replace(temperature=res.table["temperature"][2]),
                           det, spec.request)
        assert res.table["error"][2] == f"ValueError: {exc.value}"
        value_names = set(res.table) - {"temperature", "drive_port", "error"}
        assert value_names == set(itertools.chain(*sweep_columns(
            spec, p.detuning_mode))) - {"temperature", "drive_port", "error"}
        assert all(np.isnan(res.table[name][2]) for name in value_names)
        assert res.meta == {"unphysical_rows": 0, "several_below_half_rows": 0,
                            "error_rows": 2}

    def test_programming_errors_fail_the_sweep(self, monkeypatch):
        p, det, spec = self.spec()

        def broken(*_args, **_kwargs):
            raise TypeError("not a domain error")

        monkeypatch.setattr(pipeline, "log_negativity", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            run_sweep(p, det, spec)

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


def _single_point_row(pre, values, port) -> dict:
    """The sweep row of one grid point, from evaluate_point: column name ->
    value, the axis values, the port and an empty error added."""
    p, d = pre.params, pre.detunings
    for ax, v in zip(pre.sweep.axes, values):
        p, d = SWEEPABLE[ax.name](p, d, float(v))
    row = evaluate_point(p.replace(drive_port=port), d, pre.sweep.request)
    row.update(zip((ax.name for ax in pre.sweep.axes), map(float, values)),
               drive_port=port, error="")
    return row


def _block_preset(name):
    """The preset ``name`` on a coarse grid; a filtered preset's sweep
    requests its filter, as the CLI's does."""
    pre = presets.get(name, grid_points=9)
    if pre.filter_spec is None:
        return pre
    request = replace(pre.sweep.request, filter_spec=pre.filter_spec)
    return replace(pre, sweep=replace(pre.sweep, request=request))


class TestBlockEngine:
    @pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig2d_magnon"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_block(self, name, data):
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
        for name, column in whole.items():
            assert _bits(head[name] + tail[name]) == _bits(column)
        # evaluate_point returns the value columns, diagnostics included
        for k, i in enumerate(idx):
            expected = _single_point_row(pre, values[i], str(ports[i]))
            assert set(expected) == set(whole)
            assert _bits(whole[name][k] for name in whole) \
                == _bits(expected[name] for name in whole)

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
        for i, (v, port) in enumerate(zip(values, ports)):
            expected = _single_point_row(pre, v, str(port))
            assert set(expected) == set(res.table)
            assert _bits(res.table[name][i] for name in res.table) \
                == _bits(expected[name] for name in res.table)

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
            p, det = magnon_point()
            return p, det, TestSweep.error_spec()
        pre = presets.get("fig2d_magnon")
        temperatures = ((-0.01, -0.03) if case == "filtered_failing"
                        else (0.01, -0.01))
        request = MeasureRequest(pairs=(("a_cw", "m"),),
                                 triples=(("a_cw", "m", "b"),),
                                 filter_spec=pre.filter_spec)
        return pre.params, pre.detunings, SweepSpec(
            axes=(SweepAxis("temperature", *temperatures, 3),),
            drive_ports=("cw", "ccw"), request=request)

    @pytest.mark.parametrize("case", ["filtered", "filtered_failing",
                                      "physical", "errors"])
    def test_meta_is_one_reduction_per_column(self, case):
        p, det, spec = self._meta_case(case)
        res = run_sweep(p, det, spec)
        t = res.table
        assert list(t) == list(itertools.chain(*sweep_columns(
            spec, p.detuning_mode)))
        expected = {
            "unphysical_rows": sum(v is True for v in t["unphysical"]),
            "several_below_half_rows":
                sum(v is True for v in t["several_below_half"]),
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

    def test_output_identical_across_worker_counts(self):
        pre = presets.get("fig2a", grid_points=23)
        assert 23 * 23 > 2 * BLOCK_POINTS    # at least three blocks

        class _Cfg:
            digest = "test"
            filter_spec = None
            resolved_text = ""

        def table(workers):
            res = run_sweep(pre.params, pre.detunings, pre.sweep, workers=workers)
            buf = io.StringIO()
            write_table(buf, _Cfg(), res.columns, res.rows(), "csv", res.meta)
            return buf.getvalue().encode()

        assert table(1) == table(2)


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


def test_import_loads_no_scipy():
    # the sweep engine is numpy-only: scipy is loaded by time_domain alone,
    # for the ODE
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, chiralcmm.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
