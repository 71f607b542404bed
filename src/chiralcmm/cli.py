"""Command-line interface: config ingestion and one subcommand per analysis.

Configuration files are flat ``key = value`` text with ``[section]``
headers; frequency-like values are given in Hz (the quantity divided by
2*pi) and converted to angular units on load.  CLI ``--set`` flags override
file values.  Every output starts with a metadata block (tool version,
resolved-config digest, conventions) sufficient to reproduce the run.

Exit codes: 0 success, 2 configuration error (an output path that cannot
be written included), 3 instability where a stable system is required,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, presets
from .constants import hz, to_hz
from .linear_model import (
    MODE_ORDER,
    QUAD_LABELS,
    VARIANT_IDEAL,
    VARIANT_IMPERFECT,
    UnstableSystemError,
    check_bisection,
    check_variant,
    max_stable_coupling,
)
from .output_mode import MAGNON_INSTANT, MAGNON_WINDOWED, FilterSpec
from .params import (
    DETUNING_EFFECTIVE,
    DETUNING_PHYSICAL,
    DRIVE_CCW,
    DRIVE_CW,
    DRIVE_GM_ABS,
    Detunings,
    DriveSpec,
    SystemParams,
    errors_of,
    validate,
)
from .pipeline import (
    MeasureRequest,
    SweepAxis,
    SweepSpec,
    evaluate_point,
    run_sweep,
)
from .steady_state import (
    GM_ABS_PHYSICAL,
    SingularConfigurationError,
    precompensated_detunings,
    resolve_drive,
)
from .time_domain import (
    IntegrationError,
    comb_threshold,
    integrate_classical,
    trajectory_to_csv,
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
_AXIS_HZ = {"delta_a", "delta_m_eff", "J", "g_cw", "g_ccw", "kappa_a_e",
            "kappa_a_i", "kappa_m", "gamma_b", "omega_b", "gm_abs", "amplitude"}


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
    magnon_convention: str
    resolved_text: str
    digest: str
    workers: int = 1
    meta: dict = field(default_factory=dict, compare=False)


def _build_params(sections) -> SystemParams:
    defaults = SystemParams()
    kw = {}
    for key in _SYSTEM_HZ:
        attr = "J" if key == "j_coupling" else key
        if key == "g_m":
            raw = sections.get("system", {}).get("g_m", "")
            kw["g_m"] = hz(float(raw)) if raw else None
            continue
        kw[attr] = hz(_get_float(sections, "system", key,
                                 default=to_hz(getattr(defaults, attr))))
    kw["temperature"] = _get_float(sections, "system", "temperature",
                                   default=defaults.temperature)
    port = _get_str(sections, "drive", "port", default=DRIVE_CW,
                    choices=(DRIVE_CW, DRIVE_CCW))
    kind = _get_str(sections, "drive", "spec", default="gm_abs",
                    choices=("gm_abs", "amplitude", "power"))
    value = _get_float(sections, "drive", "value", default=to_hz(defaults.drive.value))
    drive = DriveSpec(kind, value if kind == "power" else hz(value))
    mode = _get_str(sections, "detuning", "mode", default=DETUNING_EFFECTIVE,
                    choices=(DETUNING_EFFECTIVE, DETUNING_PHYSICAL))
    return SystemParams(drive_port=port, drive=drive, detuning_mode=mode, **kw)


def _build_detunings(sections, params: SystemParams) -> Detunings:
    if params.detuning_mode == DETUNING_PHYSICAL:
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


def _build_sweep(sections, filter_spec, convention) -> SweepSpec | None:
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
    variant = _get_str(sections, "sweep", "variant", default=VARIANT_IMPERFECT,
                       choices=(VARIANT_IDEAL, VARIANT_IMPERFECT))
    pairs = _parse_partitions(sweep.get("pairs", "a_cw:m,a_cw:b,a_ccw:m,a_ccw:b"), 2)
    triples = _parse_partitions(sweep.get("triples", ""), 3)
    request = MeasureRequest(pairs=pairs, triples=triples,
                             filter_spec=filter_spec,
                             magnon_convention=convention)
    try:
        return SweepSpec(axes=tuple(axes), drive_ports=ports, variant=variant,
                         request=request)
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
    if getattr(args, "drive", None):
        sections.setdefault("drive", {})["port"] = args.drive
    if getattr(args, "variant", None) and "sweep" in sections:
        sections["sweep"]["variant"] = args.variant
    if getattr(args, "filter_center", None) is not None:
        sections.setdefault("filter", {})["center"] = str(args.filter_center)
    if getattr(args, "filter_tau", None) is not None:
        sections.setdefault("filter", {})["tau"] = str(args.filter_tau)

    params = _build_params(sections)
    diags = validate(params)
    errors = errors_of(diags)
    if errors:
        raise ConfigError("; ".join(d.message for d in errors))
    detunings = _build_detunings(sections, params)
    convention = _get_str(sections, "filter", "magnon_convention",
                          default=MAGNON_INSTANT,
                          choices=(MAGNON_INSTANT, MAGNON_WINDOWED))
    filter_spec = _build_filter(sections, params)
    sweep = _build_sweep(sections, filter_spec, convention)
    gm_abs = params.drive.kind == DRIVE_GM_ABS or (
        sweep is not None and any(ax.name == "gm_abs" for ax in sweep.axes))
    if gm_abs and params.detuning_mode == DETUNING_PHYSICAL:
        raise ConfigError(GM_ABS_PHYSICAL)
    resolved = _canonical_text(sections)
    digest = hashlib.sha256(resolved.encode()).hexdigest()
    workers = getattr(args, "workers", None)
    if workers is None:
        workers = os.cpu_count() or 1
    return RunConfig(params=params, detunings=detunings, sweep=sweep,
                     filter_spec=filter_spec, magnon_convention=convention,
                     resolved_text=resolved, digest=digest,
                     workers=max(workers, 1),
                     meta={"warnings": [d.message for d in diags
                                        if d.level == "warning"]})


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
        lines.append(f"variant = {s.variant}")
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
                  f"tau = {pre.filter_spec.tau!r}",
                  "magnon_convention = instant"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output formatting

def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".9g")
    return str(value)


def metadata_lines(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    meta = {
        "tool": f"chiralcmm {__version__}",
        "config_sha256": cfg.digest,
        "mode_order": ",".join(MODE_ORDER),
        "quadrature_order": ",".join(QUAD_LABELS),
        "magnon_convention": cfg.magnon_convention,
    }
    meta.update(extra or {})
    lines = [f"# {k} = {json.dumps(v) if isinstance(v, (list, dict)) else v}"
             for k, v in meta.items()]
    lines += [f"# cfg: {line}" for line in cfg.resolved_text.splitlines()]
    return lines


def write_table(fh, cfg: RunConfig, columns, rows, fmt: str,
                extra_meta: dict | None = None) -> None:
    if fmt == "jsonl":
        head = {"_meta": {"tool": f"chiralcmm {__version__}",
                          "config_sha256": cfg.digest,
                          "mode_order": list(MODE_ORDER),
                          "magnon_convention": cfg.magnon_convention,
                          **(extra_meta or {}),
                          "config": cfg.resolved_text}}
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for row in rows:
            record = {c: (None if isinstance(v, float) and math.isnan(v) else v)
                      for c, v in zip(columns, row)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return
    for line in metadata_lines(cfg, extra_meta):
        fh.write(line + "\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _check_output_paths(args) -> None:
    """Refuse ``--out`` and ``--dump-trajectory`` paths that cannot be
    written, before any computation starts."""
    for path in (getattr(args, "out", None),
                 getattr(args, "dump_trajectory", None)):
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if (os.path.isdir(path) or not os.path.isdir(parent)
                or not os.access(parent, os.W_OK)):
            raise ConfigError(f"cannot write output {path!r}")


def _write_result(args, cfg: RunConfig, columns, rows,
                  extra_meta: dict | None = None) -> int:
    """Write a result table to ``--out`` (default stdout)."""
    if getattr(args, "out", None):
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

def cmd_steady(cfg: RunConfig, args) -> int:
    # one mean field for both variants; --variant ideal only insists on the
    # chiral configuration, as the ideal drift matrix does
    if args.variant:
        check_variant(cfg.params, args.variant)
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
    # the physical detuning mode names the branch of its cubic mean field
    # (see steady_state.self_consistent_solve)
    extra = ({"mean_field_branch": "lowest",
              "mean_field_branches": sf.meta["branches"]}
             if cfg.params.detuning_mode == DETUNING_PHYSICAL else None)
    # + 0.0 prints the empty mode of a chiral drive as 0, not -0
    return _write_result(args, cfg, columns,
                         [(name, value + 0.0) for name, value in rows], extra)


def cmd_entangle(cfg: RunConfig, args) -> int:
    variant = args.variant or (cfg.sweep.variant if cfg.sweep else VARIANT_IMPERFECT)
    request = MeasureRequest(filter_spec=cfg.filter_spec,
                             magnon_convention=cfg.magnon_convention)
    rep = evaluate_point(cfg.params, cfg.detunings, variant, request=request)
    columns = ("field", "value")
    rows = [("stable", int(rep.stable)), ("abscissa", rep.abscissa),
            ("abs_g_m_eff_hz", to_hz(abs(rep.g_m_eff)))]
    for key, value in rep.e_n.items():
        rows.append((f"en_{key.replace('|', '_')}", value))
    for key, value in rep.r_min.items():
        rows.append((f"rmin_{key.replace('|', '_')}", value))
    if rep.filtered_e_n is not None:
        rows += [("filtered_en", rep.filtered_e_n), ("fidelity", rep.fidelity)]
    return _write_result(args, cfg, columns, rows,
                         {"variant": variant, "stable": rep.stable})


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand needs a [sweep] section")
    result = run_sweep(cfg.params, cfg.detunings, cfg.sweep, workers=cfg.workers)
    return _write_result(args, cfg, result.columns, result.rows,
                         {"variant": cfg.sweep.variant, **result.meta})


def cmd_comb_threshold(cfg: RunConfig, args) -> int:
    cap = hz(args.gm_cap if args.gm_cap is not None else 12e6)
    check_bisection(cap, hz(args.resolution))
    if args.dump_trajectory:
        params = cfg.params
        if params.g_m is None:
            params = params.replace(g_m=presets.inferred_g_m())
        E = resolve_drive(params, cfg.detunings).e_amplitude
        if E is None:
            raise ConfigError("trajectory dump needs an amplitude/power drive "
                              "spec (or g_m with a |G_m| spec)")
        det = cfg.detunings
        if params.detuning_mode != DETUNING_PHYSICAL:
            det = precompensated_detunings(params, det, E)
        traj = integrate_classical(params, det, E)
        try:
            trajectory_to_csv(traj, args.dump_trajectory)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.dump_trajectory!r}: "
                              f"{exc}") from exc
        print(f"trajectory written to {args.dump_trajectory}")
        if args.gm_cap is None:
            return EXIT_OK
    res = comb_threshold(cfg.params, cfg.detunings, cap=cap,
                         resolution=hz(args.resolution))
    columns = ("field", "value")
    rows = [("gm_cap_hz", to_hz(res.cap))]
    if res.no_comb_below_cap:
        rows.append(("comb_threshold_hz", float("nan")))
        rows.append(("note", "no self-oscillation below cap"))
    else:
        rows.append(("comb_threshold_hz", to_hz(res.value)))
    probes = [{"target_hz": to_hz(target), "kind": kind,
               "realized_hz": to_hz(realized), "nfev": nfev,
               "variation": variation}
              for (target, kind, realized), nfev, variation
              in zip(res.probes, res.probe_nfev, res.probe_variation)]
    return _write_result(args, cfg, columns, rows,
                         {"ode_start": "zero", "probes": probes})


def cmd_stability_edge(cfg: RunConfig, args) -> int:
    variant = args.variant or VARIANT_IMPERFECT
    edge = max_stable_coupling(cfg.params, cfg.detunings, cap=hz(args.gm_cap),
                               resolution=hz(args.resolution), variant=variant)
    columns = ("field", "value")
    rows = [("gm_cap_hz", args.gm_cap)]
    if edge.stable_up_to_cap:
        rows.append(("max_stable_gm_hz", float("nan")))
        rows.append(("note", "stable up to cap"))
    else:
        rows.append(("max_stable_gm_hz", to_hz(edge.value)))
    return _write_result(args, cfg, columns, rows, {"variant": variant})


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--drive", choices=(DRIVE_CW, DRIVE_CCW))
        p.add_argument("--variant", choices=(VARIANT_IDEAL, VARIANT_IMPERFECT))
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--workers", type=int, default=None,
                       help="processes sharing a sweep's blocks of grid "
                            "points; a sweep of one block runs in-process "
                            "(default: all cores)")

    p = sub.add_parser("steady", help="classical steady-state means and G_m")
    common(p)
    p = sub.add_parser("entangle", help="single-point entanglement report")
    common(p)
    p.add_argument("--filter-center", type=float, metavar="HZ",
                   help="output filter central frequency (drive frame, Hz)")
    p.add_argument("--filter-tau", type=float, metavar="S",
                   help="output filter window duration (s)")
    p.add_argument("--magnon-convention",
                   choices=(MAGNON_WINDOWED, MAGNON_INSTANT))
    p = sub.add_parser("sweep", help="run the [sweep] grid of the config")
    common(p)
    p = sub.add_parser("comb-threshold",
                       help="drive threshold for magnon self-oscillation")
    common(p)
    p.add_argument("--gm-cap", type=float, metavar="HZ", default=None,
                   help="search cap on |G_m| (Hz, default 12e6)")
    p.add_argument("--resolution", type=float, metavar="HZ", default=0.05e6)
    p.add_argument("--dump-trajectory", metavar="PATH",
                   help="write the classical trajectory at the configured "
                        "drive to CSV (skips the search unless --gm-cap given)")
    p = sub.add_parser("stability-edge", help="largest stable |G_m|")
    common(p)
    p.add_argument("--gm-cap", type=float, metavar="HZ", default=20e6)
    p.add_argument("--resolution", type=float, metavar="HZ", default=0.01e6)
    return parser


_COMMANDS = {
    "steady": cmd_steady,
    "entangle": cmd_entangle,
    "sweep": cmd_sweep,
    "comb-threshold": cmd_comb_threshold,
    "stability-edge": cmd_stability_edge,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "magnon_convention", None):
        args.set = (args.set or []) + [
            f"filter.magnon_convention={args.magnon_convention}"]
    try:
        _check_output_paths(args)
        cfg = load_config(args)
    except ValueError as exc:  # ConfigError and malformed values alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except UnstableSystemError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (SingularConfigurationError, IntegrationError, FloatingPointError,
            np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError, inconsistent parameter combinations
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
