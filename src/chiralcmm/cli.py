"""Command-line interface: config ingestion and one subcommand per analysis.

Configuration files are flat ``key = value`` text with ``[section]``
headers; frequency-like values are given in Hz (the quantity divided by
2*pi) and converted to angular units on load.  ``--set section.key=value``
is the one way to override a file value from the command line.  Every
result, the ``trajectory`` samples included, goes through one writer: to
``--out`` or stdout, as CSV or JSONL, after a metadata block (tool version,
resolved-config digest, conventions) sufficient to reproduce the run.

Exit codes: 0 success (a reader that closes stdout early included),
2 configuration error, refused before any work, 3 instability where a
stable system is required, 4 another known numerical condition
(``params.NumericalCondition``).  Any other exception is a bug and raises.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, linear_model, measures, presets, time_domain
from .constants import hz, to_hz
from .linear_model import (
    MODE_ORDER,
    QUAD_LABELS,
    UnstableSystemError,
    check_bisection,
    max_stable_coupling,
)
from .output_mode import FilterSpec
from .params import (
    DETUNING_EFFECTIVE,
    DETUNING_PHYSICAL,
    DRIVE_CCW,
    DRIVE_CW,
    DRIVE_GM_ABS,
    Detunings,
    Diagnostic,
    DriveSpec,
    NumericalCondition,
    SystemParams,
    errors_of,
    validate,
)
from .pipeline import (
    FILTERED_COLUMNS,
    PAIRS_DEFAULT,
    SWEEPABLE,
    MeasureRequest,
    SweepAxis,
    SweepSpec,
    evaluate_point,
    run_sweep,
)
from .steady_state import (
    GM_ABS_PHYSICAL,
    precompensated_detunings,
    resolve_drive,
)
from .time_domain import (
    ATOL_REL,
    ODE_METHOD,
    RTOL,
    comb_threshold,
    integrate_classical,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration schema

_SYSTEM_HZ = ("omega_a", "omega_m", "omega_b", "omega_0", "kappa_a_i",
              "kappa_a_e", "kappa_m", "gamma_b", "g_cw", "g_ccw",
              "j_coupling", "g_m")
_DRIVE_KINDS = ("gm_abs", "amplitude", "power")
_AXIS_HZ = {"delta_a", "delta_m_eff", "J", "g_cw", "g_ccw", "kappa_a_e",
            "kappa_a_i", "kappa_m", "gamma_b", "omega_b", "gm_abs", "amplitude"}
#: the keys of each config section; any other section or key is refused
_SECTION_KEYS = {
    "system": _SYSTEM_HZ + ("temperature",),
    "drive": ("port", "spec", "value"),
    "detuning": ("mode", "delta_a", "delta_m_eff"),
    "filter": ("center", "tau"),
    "sweep": ("axis1", "axis2", "ports", "pairs", "triples"),
}


def parse_config_text(text: str) -> dict:
    """Parse flat key=value text with [section] headers into a nested dict."""
    out: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[section][key.lower()] = value
    return out


def _get_float(sections, section, key, default=None):
    raw = sections.get(section, {}).get(key)
    if raw is None or raw == "":
        if default is None:
            raise ConfigError(f"missing required value {section}.{key}")
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite")
    return value


def _get_str(sections, section, key, default=None, choices=None):
    raw = sections.get(section, {}).get(key, default)
    if raw is None:
        raise ConfigError(f"missing required value {section}.{key}")
    raw = raw.strip().lower()
    if choices and raw not in choices:
        raise ConfigError(f"{section}.{key}: expected one of {choices}, got {raw!r}")
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, fully resolved before execution."""

    params: SystemParams
    detunings: Detunings
    sweep: SweepSpec | None
    filter_spec: FilterSpec | None
    resolved_text: str
    digest: str
    meta: dict = field(default_factory=dict, compare=False)


def _build_params(sections) -> SystemParams:
    defaults = SystemParams()
    kw = {}
    for key in _SYSTEM_HZ:
        attr = "J" if key == "j_coupling" else key
        if key == "g_m":
            # empty or absent: None (inferred where a command needs it)
            given = sections.get("system", {}).get(key)
            kw["g_m"] = hz(_get_float(sections, "system", key)) if given else None
            continue
        kw[attr] = hz(_get_float(sections, "system", key,
                                 default=to_hz(getattr(defaults, attr))))
    kw["temperature"] = _get_float(sections, "system", "temperature",
                                   default=defaults.temperature)
    port = _get_str(sections, "drive", "port", default=DRIVE_CW,
                    choices=(DRIVE_CW, DRIVE_CCW))
    kind = _get_str(sections, "drive", "spec", default="gm_abs",
                    choices=_DRIVE_KINDS)
    value = _get_float(sections, "drive", "value", default=to_hz(defaults.drive.value))
    mode = _get_str(sections, "detuning", "mode", default=DETUNING_EFFECTIVE,
                    choices=(DETUNING_EFFECTIVE, DETUNING_PHYSICAL))
    try:
        drive = DriveSpec(kind, value if kind == "power" else hz(value))
        return SystemParams(drive_port=port, drive=drive, detuning_mode=mode,
                            **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(sections) -> None:
    for section, keys in sections.items():
        known = _SECTION_KEYS.get(section)
        if known is None:
            raise ConfigError(f"[{section}]: unknown section (known: "
                              f"{', '.join(_SECTION_KEYS)})")
        for key in keys:
            if key not in known:
                hint = ("; the strictly chiral case is system.j_coupling = 0, "
                        "system.g_ccw = 0" if section == "sweep" else "")
                raise ConfigError(f"{section}.{key}: unknown key (known: "
                                  f"{', '.join(known)}){hint}")


def _build_detunings(sections, params: SystemParams,
                     diags: list[Diagnostic]) -> Detunings:
    """The run's detunings; in the physical mode they come from the
    frequencies, and a given delta_a or delta_m_eff adds a warning to
    ``diags``."""
    if params.detuning_mode == DETUNING_PHYSICAL:
        ignored = [f"detuning.{key}" for key in ("delta_a", "delta_m_eff")
                   if key in sections.get("detuning", {})]
        if ignored:
            diags.append(Diagnostic(
                "warning", "ignored_detunings",
                f"{', '.join(ignored)} ignored: in detuning mode 'physical' "
                "the detunings come from omega_a, omega_m and omega_0"))
        return Detunings.physical(params)
    da = hz(_get_float(sections, "detuning", "delta_a"))
    dme = hz(_get_float(sections, "detuning", "delta_m_eff"))
    return Detunings.effective(da, dme)


def _parse_partitions(raw: str, size: int):
    out = []
    for chunk in filter(None, (c.strip() for c in raw.split(","))):
        modes = tuple(m.strip() for m in chunk.split(":"))
        if len(modes) != size or any(m not in MODE_ORDER for m in modes):
            raise ConfigError(f"bad partition {chunk!r}")
        out.append(modes)
    return tuple(out)


def _build_sweep(sections, filter_spec) -> SweepSpec | None:
    sweep = sections.get("sweep")
    if not sweep:
        return None
    axes = []
    for ax in ("axis1", "axis2"):
        raw = sweep.get(ax)
        if raw is None:
            continue
        parts = [s.strip() for s in raw.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"sweep.{ax}: expected 'name,start,stop,num'")
        name = parts[0]
        try:
            start, stop, num = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"sweep.{ax}: {exc}") from exc
        if name in _AXIS_HZ:
            start, stop = hz(start), hz(stop)
        axes.append(SweepAxis(name, start, stop, num))
    if not axes:
        raise ConfigError("sweep section present but no axis1 given")
    ports = tuple(p.strip() for p in sweep.get("ports", "cw").split(","))
    pairs = (_parse_partitions(sweep["pairs"], 2) if "pairs" in sweep
             else PAIRS_DEFAULT)
    triples = _parse_partitions(sweep.get("triples", ""), 3)
    request = MeasureRequest(pairs=pairs, triples=triples,
                             filter_spec=filter_spec)
    try:
        return SweepSpec(axes=tuple(axes), drive_ports=ports, request=request)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_filter(sections, params) -> FilterSpec | None:
    sec = sections.get("filter")
    if not sec:
        return None
    center = hz(_get_float(sections, "filter", "center",
                           default=-to_hz(params.omega_b)))
    tau = _get_float(sections, "filter", "tau",
                     default=10.0 / params.omega_b)
    try:
        return FilterSpec(omega_center=center, tau=tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _canonical_text(sections: dict) -> str:
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        for key in sorted(sections[section]):
            lines.append(f"{key} = {sections[section][key]}")
    return "\n".join(lines) + "\n"


def _check_sweep_rows(params: SystemParams, det: Detunings, axes) -> None:
    """Refuse sweep rows outside the domain of :func:`validate`.  The corners
    are enough: a setter writes one field, affine in each axis value (chi
    writes chi * g_cw), and each error bound is linear in the fields."""
    for corner in itertools.product(*[(ax.start, ax.stop) for ax in axes]):
        p = params
        try:
            for ax, value in zip(axes, corner):
                p = SWEEPABLE[ax.name](p, det, value)[0]
            messages = [d.message for d in errors_of(validate(p))]
        except ValueError as exc:     # a drive setter's DriveSpec
            messages = [str(exc)]
        if messages:
            raise ConfigError("sweep row: " + "; ".join(messages))


def load_config(args) -> RunConfig:
    sections: dict = {}
    if args.config:
        if args.config in presets.PRESET_NAMES:
            text = preset_config_text(args.config)
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        sections = parse_config_text(text)
    for item in args.set or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, key = key.split(".", 1)
        sections.setdefault(section.strip().lower(), {})[key.strip().lower()] = \
            value.strip()
    _check_keys(sections)

    params = _build_params(sections)
    diags = validate(params)
    errors = errors_of(diags)
    if errors:
        raise ConfigError("; ".join(d.message for d in errors))
    detunings = _build_detunings(sections, params, diags)
    filter_spec = _build_filter(sections, params)
    sweep = _build_sweep(sections, filter_spec)
    axes = sweep.axes if sweep is not None else ()
    if axes:
        _check_sweep_rows(params, detunings, axes)
    # resolve_drive's refusals.  A sweep's rows take the drive of its drive
    # axis, else the spec; steady, entangle and trajectory resolve the spec,
    # and trajectory infers a missing g_m.
    command = getattr(args, "command", None)
    rows = next((ax.name for ax in axes if ax.name in _DRIVE_KINDS),
                params.drive.kind)
    resolves_spec = command in ("steady", "entangle", "trajectory")
    kind = params.drive.kind if resolves_spec else rows
    if DRIVE_GM_ABS in (rows, kind) and params.detuning_mode == DETUNING_PHYSICAL:
        raise ConfigError(GM_ABS_PHYSICAL)
    if (kind != DRIVE_GM_ABS and params.g_m is None
            and command in ("steady", "entangle", "sweep")):
        raise ConfigError(f"{kind} drive spec requires g_m to form G_m")
    if command in ("comb-threshold", "stability-edge"):
        bounds = {"cap": hz(args.gm_cap)}
        if command == "comb-threshold":
            bounds["resolution"] = hz(args.resolution)
        try:
            check_bisection(**bounds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    resolved = _canonical_text(sections)
    digest = hashlib.sha256(resolved.encode()).hexdigest()
    warnings = [f"{d.code}: {d.message}" for d in diags if d.level == "warning"]
    return RunConfig(params=params, detunings=detunings, sweep=sweep,
                     filter_spec=filter_spec,
                     resolved_text=resolved, digest=digest,
                     meta={"warnings": warnings} if warnings else {})


def preset_config_text(name: str) -> str:
    """Config-file text of a named figure preset; preset names given to
    ``--config`` load through it."""
    pre = presets.get(name)
    p, det = pre.params, pre.detunings
    lines = [f"# preset {name}: {pre.description}", "[system]"]
    for key in _SYSTEM_HZ:
        attr = "J" if key == "j_coupling" else key
        value = getattr(p, attr)
        if value is None:
            lines.append(f"{key} =")
        else:
            lines.append(f"{key} = {to_hz(value)!r}")
    lines.append(f"temperature = {p.temperature!r}")
    lines += ["[drive]", f"port = {p.drive_port}", f"spec = {p.drive.kind}"]
    value = p.drive.value if p.drive.kind == "power" else to_hz(p.drive.value)
    lines.append(f"value = {value!r}")
    lines += ["[detuning]", "mode = effective",
              f"delta_a = {to_hz(det.delta_a)!r}",
              f"delta_m_eff = {to_hz(det.delta_m_eff)!r}"]
    if pre.sweep is not None:
        s = pre.sweep
        lines.append("[sweep]")
        lines.append(f"ports = {','.join(s.drive_ports)}")
        for i, ax in enumerate(s.axes, start=1):
            start, stop = ax.start, ax.stop
            if ax.name in _AXIS_HZ:
                start, stop = to_hz(start), to_hz(stop)
            lines.append(f"axis{i} = {ax.name},{start!r},{stop!r},{ax.num}")
        if s.request.pairs:
            lines.append("pairs = " + ",".join(":".join(t) for t in s.request.pairs))
        if s.request.triples:
            lines.append("triples = "
                         + ",".join(":".join(t) for t in s.request.triples))
    if pre.filter_spec is not None:
        lines += ["[filter]",
                  f"center = {to_hz(pre.filter_spec.omega_center)!r}",
                  f"tau = {pre.filter_spec.tau!r}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output formatting

def write_table(fh, cfg: RunConfig, columns, rows, fmt: str,
                extra_meta: dict | None = None) -> None:
    """Write the metadata (tool, digest, conventions and ``extra_meta``;
    tuples are name lists), then the rows, as CSV or JSONL.  In CSV, a
    null, bool, list or dict metadata value is written as JSON."""
    meta = {"tool": f"chiralcmm {__version__}", "config_sha256": cfg.digest,
            "mode_order": MODE_ORDER, "quadrature_order": QUAD_LABELS,
            **(extra_meta or {})}
    if fmt == "jsonl":
        head = {"_meta": {**meta, "config": cfg.resolved_text}}
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for row in rows:
            record = {c: (None if isinstance(v, float) and math.isnan(v) else v)
                      for c, v in zip(columns, row)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return
    for key, value in meta.items():
        if isinstance(value, tuple):
            value = ",".join(value)
        elif value is None or isinstance(value, (bool, list, dict)):
            value = json.dumps(value)
        fh.write(f"# {key} = {value}\n")
    for line in cfg.resolved_text.splitlines():
        fh.write(f"# cfg: {line}\n")
    fh.write(",".join(columns) + "\n")
    # one % template per run of rows with the same cell types (a sweep has
    # one, and another for its error rows): floats, np.float64 included, to
    # 9 significant digits, anything else through str
    kinds = None
    for row in rows:
        row = tuple(row)
        row_kinds = tuple(map(type, row))
        if row_kinds != kinds:
            kinds = row_kinds
            template = ",".join("%.9g" if issubclass(k, float) else "%s"
                                for k in kinds) + "\n"
        fh.write(template % row)


def _check_output_path(args) -> None:
    """Refuse an ``--out`` path that cannot be written, before any
    computation starts."""
    path = args.out
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write output {path!r}")


def _write_result(args, cfg: RunConfig, columns, rows,
                  extra_meta: dict | None = None) -> int:
    """Write a result table to ``--out`` (default stdout); its metadata
    adds the config's validation warnings, if any."""
    extra_meta = {**(extra_meta or {}), **cfg.meta}
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_table(fh, cfg, columns, rows, args.format, extra_meta)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc
    else:
        write_table(sys.stdout, cfg, columns, rows, args.format, extra_meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _branch_meta(cfg: RunConfig, branches: int | None) -> dict:
    """The physical detuning mode names the branch of its cubic mean field
    (see steady_state.self_consistent_solve)."""
    if cfg.params.detuning_mode != DETUNING_PHYSICAL:
        return {}
    return {"mean_field_branch": "lowest", "mean_field_branches": branches}


def cmd_steady(cfg: RunConfig, args) -> int:
    sf = resolve_drive(cfg.params, cfg.detunings)
    columns = ("field", "value")
    gm = sf.g_m_eff if sf.g_m_eff is not None else float("nan")
    rows = [
        ("re_a_cw", sf.a_cw.real), ("im_a_cw", sf.a_cw.imag),
        ("re_a_ccw", sf.a_ccw.real), ("im_a_ccw", sf.a_ccw.imag),
        ("re_m", sf.m.real), ("im_m", sf.m.imag),
        ("q_mean", sf.q_mean),
        ("abs_g_m_eff_hz", to_hz(abs(gm))),
        ("arg_g_m_eff", float(np.angle(gm)) if sf.g_m_eff is not None
         else float("nan")),
        ("delta_m_eff_hz", to_hz(sf.delta_m_eff)),
        ("e_amplitude", sf.e_amplitude if sf.e_amplitude is not None
         else float("nan")),
    ]
    # + 0.0 prints the empty mode of a chiral drive as 0, not -0
    return _write_result(args, cfg, columns,
                         [(name, value + 0.0) for name, value in rows],
                         _branch_meta(cfg, sf.meta.get("branches")))


def _measure_thresholds() -> dict:
    """The thresholds that decide a point's ``stable``, whether its
    covariance is physical, where E_N is zero and which residual contangles
    count as monogamy violations, read from their modules."""
    return {"stability_margin": linear_model.STABILITY_MARGIN,
            "physical_slack": measures.PHYSICAL_SLACK,
            "clip_tol": measures.CLIP_TOL,
            "violation_tol": measures.VIOLATION_TOL}


def cmd_entangle(cfg: RunConfig, args) -> int:
    row = evaluate_point(cfg.params, cfg.detunings,
                         MeasureRequest(filter_spec=cfg.filter_spec))
    stable = bool(row["stable"])
    columns = ("field", "value")
    rows = [("stable", row["stable"]), ("abscissa", row["abscissa"]),
            ("abs_g_m_eff_hz", to_hz(abs(complex(row["g_m_eff"]))))]
    diagnostics = {}    # an unstable point writes no measures
    if stable:
        rows += [(name, value) for name, value in row.items()
                 if name.startswith(("en_", "rmin_"))
                 or name in FILTERED_COLUMNS[:2]]
        diagnostics = {name: row[name] for name in FILTERED_COLUMNS[2:]
                       if name in row}
    return _write_result(args, cfg, columns, rows,
                         {"stable": stable, **_measure_thresholds(),
                          **_branch_meta(cfg, row.get("branches")),
                          **diagnostics})


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else all of the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand needs a [sweep] section")
    workers = _usable_cpus() if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    result = run_sweep(cfg.params, cfg.detunings, cfg.sweep, workers=workers)
    return _write_result(args, cfg, result.columns, result.rows(),
                         {**result.meta, **_measure_thresholds()})


#: the classical ODE's start state, integrator and tolerances, written to
#: the metadata of every command that integrates it
_ODE_META = {"ode_start": "zero", "ode_method": ODE_METHOD,
             "ode_rtol": RTOL, "ode_atol_rel": ATOL_REL}


def cmd_trajectory(cfg: RunConfig, args) -> int:
    """The classical mean-field ring-up at the configured drive, from the
    empty state; without g_m, the inferred value is used and recorded."""
    params = cfg.params
    if params.g_m is None:
        params = params.replace(g_m=presets.inferred_g_m())
    E = resolve_drive(params, cfg.detunings).e_amplitude
    if E is None:
        raise ConfigError("trajectory needs an amplitude/power drive spec "
                          "(or a nonzero g_m with a |G_m| spec)")
    det = cfg.detunings
    if params.detuning_mode != DETUNING_PHYSICAL:
        det = precompensated_detunings(params, det, E)
    traj = integrate_classical(params, det, E)
    columns = ("t", "re_a_cw", "im_a_cw", "re_a_ccw", "im_a_ccw",
               "re_m", "im_m", "q", "p")
    rows = np.column_stack([
        traj.t, traj.a_cw.real, traj.a_cw.imag, traj.a_ccw.real,
        traj.a_ccw.imag, traj.m.real, traj.m.imag, traj.q, traj.p,
    ]).tolist()
    return _write_result(args, cfg, columns, rows,
                         {"g_m_hz": to_hz(params.g_m), **_ODE_META,
                          "horizon_s": time_domain.default_horizon(params),
                          **{k: traj.stats[k]
                             for k in ("nfev", "nst", "used_bdf")}})


def cmd_comb_threshold(cfg: RunConfig, args) -> int:
    res = comb_threshold(cfg.params, cfg.detunings, cap=hz(args.gm_cap),
                         resolution=hz(args.resolution))
    columns = ("field", "value")
    rows = [("gm_cap_hz", args.gm_cap)]
    if res.value is None:
        rows.append(("comb_threshold_hz", float("nan")))
        rows.append(("note", "no self-oscillation below cap"))
    else:
        rows.append(("comb_threshold_hz", to_hz(res.value)))
    probes = [{"target_hz": to_hz(target), "kind": kind,
               "realized_hz": to_hz(realized), **info}
              for (target, kind, realized), info
              in zip(res.probes, res.probe_info)]
    bracket = None if res.bracket is None else [to_hz(g) for g in res.bracket]
    # the horizon of every probe, and the analysis window and tolerance
    # that decide each probe's kind
    return _write_result(args, cfg, columns, rows,
                         {**_ODE_META,
                          "horizon_s": time_domain.default_horizon(cfg.params),
                          "window_frac": time_domain.WINDOW_FRAC,
                          "steady_tol": time_domain.STEADY_TOL,
                          "resolution_hz": args.resolution,
                          "bracket_hz": bracket, "probes": probes})


def cmd_stability_edge(cfg: RunConfig, args) -> int:
    edge = max_stable_coupling(cfg.params, cfg.detunings, cap=hz(args.gm_cap))
    columns = ("field", "value")
    rows = [("gm_cap_hz", args.gm_cap)]
    if edge is None:
        rows.append(("max_stable_gm_hz", float("nan")))
        rows.append(("note", "stable up to cap"))
    else:
        rows.append(("max_stable_gm_hz", to_hz(edge)))
    # the margin that decides whether a scanned |G_m| is stable
    return _write_result(args, cfg, columns, rows,
                         {"stability_margin": linear_model.STABILITY_MARGIN})


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, and every call returns the same instance."""
    parser = argparse.ArgumentParser(
        prog="chiralcmm",
        description="steady-state entanglement and classical dynamics of a "
                    "chiral cavity-magnomechanical system")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file path or preset name "
                       f"({', '.join(presets.PRESET_NAMES)})")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("steady", help="classical steady-state means and G_m")
    common(p)
    p = sub.add_parser("entangle", help="single-point entanglement report")
    common(p)
    p = sub.add_parser("sweep", help="run the [sweep] grid of the config "
                                     "(ports from sweep.ports)")
    common(p)
    p.add_argument("--workers", type=int, default=None,
                   help="threads sharing the sweep's blocks of grid "
                        "points, at least 1; a sweep of one block runs on "
                        "one (default: the CPUs this process may use)")
    p = sub.add_parser("trajectory",
                       help="classical mean-field trajectory at the "
                            "configured drive, from the empty state")
    common(p)
    p = sub.add_parser("comb-threshold",
                       help="drive threshold for magnon self-oscillation")
    common(p)
    p.add_argument("--gm-cap", type=float, metavar="HZ", default=12e6)
    p.add_argument("--resolution", type=float, metavar="HZ", default=0.05e6)
    p = sub.add_parser("stability-edge", help="largest stable |G_m|")
    common(p)
    p.add_argument("--gm-cap", type=float, metavar="HZ", default=20e6)
    return parser


_COMMANDS = {
    "steady": cmd_steady,
    "entangle": cmd_entangle,
    "sweep": cmd_sweep,
    "trajectory": cmd_trajectory,
    "comb-threshold": cmd_comb_threshold,
    "stability-edge": cmd_stability_edge,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_path(args)
        cfg = load_config(args)
        code = _COMMANDS[args.command](cfg, args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point it at devnull
        # so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UnstableSystemError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NumericalCondition as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
