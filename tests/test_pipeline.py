import io
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
    partition_key,
    run_sweep,
)
from chiralcmm.steady_state import resolve_drive
from chiralcmm import presets


def magnon_point():
    p = presets.magnon_set()
    return p, presets.optimum(p, "magnon")


class TestEvaluatePoint:
    def test_optimal_point_is_entangled(self):
        p, det = magnon_point()
        rep = evaluate_point(p, det, "ideal")
        assert rep.stable
        assert rep.e_n["a_cw|m"] > 0.04
        assert rep.r_min["a_cw|m|b"] > 0
        assert rep.physical

    def test_ideal_ccw_drive_measures_vanish(self):
        p, det = magnon_point()
        rep = evaluate_point(p, det, "ideal", drive_port="ccw")
        assert rep.g_m_eff == 0
        for value in rep.e_n.values():
            assert value <= 1e-8
        for value in rep.r_min.values():
            assert value == 0.0

    def test_unstable_point_has_no_measures(self):
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", hz(14e6)))
        rep = evaluate_point(p, det, "ideal")
        assert not rep.stable
        assert rep.e_n == {} and rep.r_min == {}

    def test_filtered_block_optional(self):
        p, det = magnon_point()
        req = MeasureRequest(filter_spec=FilterSpec(-p.omega_b, 10 / p.omega_b),
                             magnon_convention="instant")
        rep = evaluate_point(p, det, "ideal", request=req)
        assert 0.5 < rep.fidelity <= 1.0
        assert rep.filtered_e_n > 0


class TestContrast:
    def test_ideal_case_is_unity(self):
        p, det = magnon_point()
        cw = evaluate_point(p, det, "ideal", "cw")
        ccw = evaluate_point(p, det, "ideal", "ccw")
        assert nonreciprocity_contrast(cw, ccw, ("a_cw", "m")) \
            == pytest.approx(1.0, abs=1e-6)
        assert nonreciprocity_contrast(cw, ccw, ("a_cw", "m", "b")) == 1.0

    def test_symmetric_configuration_is_zero(self):
        p = presets.magnon_set(g_ccw=hz(4e6))  # chi = 1, J = 0
        det = presets.optimum(p, "magnon")
        cw = evaluate_point(p, det, "imperfect", "cw")
        ccw = evaluate_point(p, det, "imperfect", "ccw")
        # mirror symmetry maps one drive onto the other
        assert cw.e_n["a_cw|m"] == pytest.approx(ccw.e_n["a_ccw|m"], rel=1e-9)
        c_pair = nonreciprocity_contrast(cw, ccw, ("a_cw", "m"))
        c_mirror = nonreciprocity_contrast(cw, ccw, ("a_ccw", "m"))
        assert c_pair + c_mirror == pytest.approx(0.0, abs=1e-9)

    def test_both_zero_gives_zero(self):
        p, det = magnon_point()
        p = p.replace(drive=DriveSpec("gm_abs", 0.0))
        cw = evaluate_point(p, det, "ideal", "cw")
        ccw = evaluate_point(p, det, "ideal", "ccw")
        assert nonreciprocity_contrast(cw, ccw, ("a_cw", "b")) == 0.0

    def test_mismatched_configurations_rejected(self):
        p, det = magnon_point()
        cw = evaluate_point(p, det, "ideal", "cw")
        other = evaluate_point(p.replace(temperature=0.02), det, "ideal", "ccw")
        with pytest.raises(ValueError):
            nonreciprocity_contrast(cw, other, ("a_cw", "m"))

    def test_equal_power_ccw_coupling_is_weak(self):
        # backscattering configuration: CCW drive yields a much smaller G_m
        pre = presets.get("fig4a")
        p = pre.params.replace(J=0.5 * pre.params.kappa_m)
        cw = resolve_drive(p, pre.detunings, "cw")
        ccw = resolve_drive(p, pre.detunings, "ccw")
        assert abs(ccw.g_m_eff) < 0.2 * abs(cw.g_m_eff)


class TestSweep:
    def spec(self, pairs=(("a_cw", "m"),), ports=("cw",), n=3):
        p, det = magnon_point()
        wb = p.omega_b
        axes = (SweepAxis("delta_a", -1.0 * wb, -0.5 * wb, n),)
        return p, det, SweepSpec(axes=axes, drive_ports=ports,
                                 variant="ideal",
                                 request=MeasureRequest(pairs=pairs, triples=()))

    def test_rows_match_single_point_evaluation(self):
        p, det, spec = self.spec()
        res = run_sweep(p, det, spec)
        for row in res.rows:
            d = dict(zip(res.columns, row))
            det_i = Detunings.effective(d["delta_a"], det.delta_m_eff)
            rep = evaluate_point(p, det_i, "ideal", "cw", spec.request)
            assert d["en_a_cw_m"] == rep.e_n["a_cw|m"]

    def test_row_order_cw_before_ccw(self):
        p, det, spec = self.spec(ports=("ccw", "cw"))
        res = run_sweep(p, det, spec)
        ports = [row[1] for row in res.rows]
        assert ports == ["cw", "ccw"] * 3

    def test_identical_results_across_worker_counts(self):
        p, det, spec = self.spec(n=4)
        serial = run_sweep(p, det, spec, workers=1)
        parallel = run_sweep(p, det, spec, workers=3)
        assert serial.rows == parallel.rows

    def test_per_point_failures_recorded_in_row(self):
        p, det, _ = self.spec()
        # chi > 1 with the |G_m| spec calibrates on the ccw port and makes the
        # ideal-variant drift builder reject the configuration
        spec = SweepSpec(axes=(SweepAxis("chi", 0.0, 2.0, 3),),
                         variant="ideal",
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        res = run_sweep(p, det, spec)
        errors = [row[-1] for row in res.rows]
        assert errors[0] == ""
        assert any(e != "" for e in errors[1:])

    def test_error_rows_carry_the_single_point_error(self):
        p, det, _ = self.spec()
        spec = SweepSpec(axes=(SweepAxis("chi", 0.0, 2.0, 3),),
                         variant="ideal",
                         request=MeasureRequest(pairs=(("a_cw", "m"),),
                                                triples=()))
        res = run_sweep(p, det, spec)
        with pytest.raises(ValueError) as exc:
            evaluate_point(p.replace(g_ccw=2.0 * p.g_cw), det, "ideal", "cw",
                           spec.request)
        assert res.rows[2][-1] == f"ValueError: {exc.value}"
        assert all(np.isnan(v) for v in res.rows[2][2:-1])
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


class TestTemperatureCurve:
    def test_monotone_decay_past_the_peak(self):
        # raising the bath temperature can first help (killing unwanted
        # correlations) but the curve must be non-increasing past its peak
        pre = presets.get("fig5a", grid_points=41)
        res = run_sweep(pre.params, pre.detunings, pre.sweep)
        values = [dict(zip(res.columns, r))["en_a_cw_m"]
                  for r in res.rows if r[1] == "cw"]
        k = int(np.argmax(values))
        diffs = np.diff(values[k:])
        assert np.all(diffs <= 1e-6)


class TestDetuningOptimum:
    def test_coarse_grid_peaks_near_reference_point(self):
        # cheap version of the full-map reproduction (acceptance runs 101x101)
        pre = presets.get("fig2a", grid_points=41)
        res = run_sweep(pre.params, pre.detunings, pre.sweep)
        rows = [dict(zip(res.columns, r)) for r in res.rows]
        best = max(rows, key=lambda r: r["en_a_cw_m"] if r["stable"] else -1)
        wb = pre.params.omega_b
        assert best["delta_a"] / wb == pytest.approx(-0.72, abs=0.06)
        assert best["delta_m_eff"] / wb == pytest.approx(0.76, abs=0.06)
        assert best["en_a_cw_m"] > 0


def _bits(row):
    """A row in a form where equality means bitwise-equal numbers."""
    return [repr(float(v)) if isinstance(v, float) else repr(v) for v in row]


def _single_point_row(pre, values, port):
    """The sweep row of one grid point, from evaluate_point."""
    p, d = pre.params, pre.detunings
    for ax, v in zip(pre.sweep.axes, values):
        p, d = SWEEPABLE[ax.name](p, d, float(v))
    req = pre.sweep.request
    rep = evaluate_point(p, d, pre.sweep.variant, port, req)
    row = [float(v) for v in values] + [port, int(rep.stable),
                                        np.abs(np.array([rep.g_m_eff]))[0]]
    row += [rep.e_n.get(partition_key(q), np.nan) for q in req.pairs]
    row += [rep.r_min.get(partition_key(t), np.nan) for t in req.triples]
    return row + [""]


class TestBlockEngine:
    @pytest.mark.parametrize("name", ["fig2a", "fig4a"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_block(self, name, data):
        pre = presets.get(name, grid_points=9)
        values, ports = grid_rows(pre.sweep)
        idx = np.array(sorted(data.draw(st.sets(
            st.integers(0, len(ports) - 1), min_size=1, max_size=12))))
        cut = data.draw(st.integers(0, len(idx)))
        args = (pre.params, pre.detunings, pre.sweep)
        whole, _ = evaluate_block(*args, values[idx], ports[idx])
        head, _ = evaluate_block(*args, values[idx[:cut]], ports[idx[:cut]])
        tail, _ = evaluate_block(*args, values[idx[cut:]], ports[idx[cut:]])
        assert [_bits(r) for r in head + tail] == [_bits(r) for r in whole]
        for row, i in zip(whole, idx):
            expected = _single_point_row(pre, values[i], str(ports[i]))
            assert _bits(row) == _bits(expected)

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
        for row, v, port in zip(res.rows, values, ports):
            assert _bits(row) == _bits(_single_point_row(pre, v, str(port)))

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
        evaluate_point(p, det, "imperfect", "cw")
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
        quad = [evaluate_point(pre.params.replace(gamma_b=v[0]), pre.detunings,
                               spec.variant, str(port), request).meta["filtered"]
                for v, port in zip(values, ports)]
        assert single.meta["filtered_quad_error_max"] == max(
            m["quad_error"] for m in quad)
        assert single.meta["filtered_tail_estimate_max"] == max(
            m["tail_estimate"] for m in quad)

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
            magnon_convention = "instant"
            resolved_text = ""

        def table(workers):
            res = run_sweep(pre.params, pre.detunings, pre.sweep, workers=workers)
            buf = io.StringIO()
            write_table(buf, _Cfg(), res.columns, res.rows, "csv", res.meta)
            return buf.getvalue().encode()

        assert table(1) == table(2)
