"""Benchmark workloads: which CLI invocations each one runs, per seed.

Seed 0 runs the shipped presets exactly.  Any other seed shifts every sweep
axis of the workload by a seeded 0-1/2 of one grid step (upwards, so that
damping rates, couplings and temperatures stay non-negative) and raises the
comb-search cap by a seeded 0-5 %.  Half a step keeps the lowest-damping
fig2d_magnon row within criterion 3's band: a full step of the gamma_b axis
is 2 kHz, where the filtered E_N has physically dropped to 0.209.  The
shifts reach the program only as ``--set`` overrides, so it sees nothing
but the generated inputs.

The sweep grids are read from the presets as ``chiralcmm.cli`` loads them,
so ``chiralcmm`` must be importable from the checkout's ``src``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

COMB_CONFIG = "fig2b"
COMB_CAP_HZ = 12e6
COMB_RESOLUTION_HZ = 4e6
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple          # preset names, one 1-worker CLI invocation each
    comb: bool = False      # comb-threshold instead of sweep
    pooled: tuple = ()      # configs run once more with POOL_WORKERS workers


# figure_sweeps runs, in this order, the 101x101 fig2a map (per-point
# small-matrix work), the ten 1-D presets of fig3-fig6 (imperfect variant,
# both drive ports, tripartite contangles), the two filtered-output damping
# sweeps of fig2d (frequency quadrature) and the fig2a map again behind the
# CLI's process pool, the default path on a 2-core host.
WORKLOADS = {w.name: w for w in (
    Workload("figure_sweeps",
             ("fig2a", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d",
              "fig5a", "fig5b", "fig6a", "fig6b", "fig2d_magnon", "fig2d_phonon"),
             pooled=("fig2a",)),
    Workload("comb_search", (COMB_CONFIG,), comb=True),
)}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, output file and expected row count."""

    config: str
    argv: tuple
    out: str
    rows: int               # sweep rows, or bisection probes for the comb
    workers: int = 1


def grid(config: str) -> tuple[tuple, tuple]:
    """Drive ports and sweep axes ``(name, start, stop, num)`` of a preset as
    the CLI loads it, with the axes in the units its config files use."""
    from chiralcmm import cli
    from chiralcmm.constants import to_hz

    sweep = cli.load_config(cli.build_parser().parse_args(
        ["sweep", "--config", config])).sweep
    axes = []
    for ax in sweep.axes:
        start, stop = ax.start, ax.stop
        if ax.name in cli._AXIS_HZ:
            start, stop = to_hz(start), to_hz(stop)
        axes.append((ax.name, start, stop, ax.num))
    return sweep.drive_ports, tuple(axes)


def _shifted_axes(axes, rng: random.Random) -> list[str]:
    sets = []
    for i, (name, start, stop, num) in enumerate(axes, start=1):
        shift = 0.5 * rng.random() * (stop - start) / (num - 1)
        axis = f"{name},{start + shift!r},{stop + shift!r},{num}"
        sets += ["--set", f"sweep.axis{i}={axis}"]
    return sets


def expected_probes(cap_hz: float) -> int:
    """Probes of the bisection: the cap, then halvings down to the resolution."""
    return 1 + math.ceil(math.log2(cap_hz / COMB_RESOLUTION_HZ))


def invocations(workload: Workload, seed: int, out_dir: str) -> list[Invocation]:
    """The workload's CLI calls for ``seed``, writing CSVs into ``out_dir``."""
    rng = random.Random(seed)
    calls = []
    sets = {}
    for config in workload.configs:
        out = f"{out_dir}/{config}.csv"
        if workload.comb:
            cap = COMB_CAP_HZ * (1.0 + (0.05 * rng.random() if seed else 0.0))
            argv = ("comb-threshold", "--config", config, "--gm-cap", repr(cap),
                    "--resolution", repr(COMB_RESOLUTION_HZ), "--out", out)
            calls.append(Invocation(config, argv, out, expected_probes(cap)))
            continue
        ports, axes = grid(config)
        sets[config] = _shifted_axes(axes, rng) if seed else []
        rows = len(ports) * math.prod(ax[3] for ax in axes)
        argv = ("sweep", "--config", config, "--workers", "1", "--out", out,
                *sets[config])
        calls.append(Invocation(config, argv, out, rows))
    for config in workload.pooled:
        single = next(c for c in calls if c.config == config)
        out = f"{out_dir}/{config}_pool.csv"
        argv = ("sweep", "--config", config, "--workers", str(POOL_WORKERS),
                "--out", out, *sets[config])
        calls.append(Invocation(config, argv, out, single.rows, POOL_WORKERS))
    return calls
