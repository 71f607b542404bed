"""Spans around the calls between chiralcmm modules, and the per-layer
metrics computed from them.

The tracer replaces each public function in the module namespace where its
caller looks it up (``chiralcmm.pipeline.solve_lyapunov``, not only
``chiralcmm.lyapunov.solve_lyapunov``), so nothing inside the package
changes.  A span records its name, start and end, the span that was open
when it began, and the index of the CLI invocation it belongs to.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, INVOCATION, NOTE = range(6)

# (module, attribute, span name, note taken from (args, result) or None)
PATCHES = (
    ("chiralcmm.cli", "load_config", "cli.load_config", None),
    ("chiralcmm.cli", "write_table", "cli.write_table", None),
    ("chiralcmm.cli", "run_sweep", "pipeline.run_sweep", None),
    ("chiralcmm.cli", "comb_threshold", "time_domain.comb_threshold", None),
    ("chiralcmm.pipeline", "evaluate_point", "pipeline.evaluate_point", None),
    ("chiralcmm.pipeline", "resolve_drive", "steady_state.resolve_drive", None),
    ("chiralcmm.pipeline", "build_model", "linear_model.build_model",
     lambda args, model: bool(model.stable)),
    ("chiralcmm.linear_model", "is_stable", "linear_model.is_stable", None),
    ("chiralcmm.lyapunov", "is_stable", "linear_model.is_stable", None),
    ("chiralcmm.pipeline", "solve_lyapunov", "lyapunov.solve_lyapunov", None),
    ("chiralcmm.output_mode", "solve_lyapunov", "lyapunov.solve_lyapunov", None),
    ("chiralcmm.pipeline", "extract_block", "pipeline.extract_block", None),
    ("chiralcmm.pipeline", "log_negativity", "measures.log_negativity", None),
    ("chiralcmm.pipeline", "residual_contangle_min",
     "measures.residual_contangle_min", None),
    ("chiralcmm.pipeline", "is_physical", "measures.is_physical", None),
    ("chiralcmm.pipeline", "teleportation_fidelity",
     "measures.teleportation_fidelity", None),
    ("chiralcmm.pipeline", "filtered_pair_cm", "output_mode.filtered_pair_cm", None),
    ("chiralcmm.output_mode", "susceptibility", "output_mode.susceptibility", None),
    ("chiralcmm.time_domain", "integrate_classical",
     "time_domain.integrate_classical", lambda args, traj: int(traj.stats["nfev"])),
    ("chiralcmm.time_domain", "classify_attractor",
     "time_domain.classify_attractor", lambda args, rep: rep.kind),
)

# Per-layer metrics: (name, unit, better, the end-to-end metric and
# workload part it should move).  A faster layer saves at most its traced
# share of the blocking path: solve_lyapunov is about half of the fig2a
# map's traced time but under 2 % of the filtered-output sweeps'.
MAP = "rows_per_s on figure_sweeps (fig2a map)"
LINES = "wall_s on figure_sweeps (fig3-fig6 lines)"
FILTERED = "wall_s on figure_sweeps (fig2d filtered output)"
COMB = "wall_s on comb_search"
LAYER_METRICS = (
    ("pipeline.evaluate_point.calls", "count", "lower", MAP),
    ("pipeline.evaluate_point.busy_s", "s", "lower", MAP),
    ("pipeline.evaluate_point.self_s", "s", "lower", MAP),
    ("pipeline.run_sweep.self_s", "s", "lower", MAP),
    ("lyapunov.solve_lyapunov.calls", "count", "lower", MAP),
    ("lyapunov.solve_lyapunov.busy_s", "s", "lower", MAP),
    ("linear_model.build_model.busy_s", "s", "lower", MAP),
    ("linear_model.is_stable.calls", "count", "lower", MAP),
    ("linear_model.stable_share", "ratio", "higher", MAP),
    ("measures.is_physical.busy_s", "s", "lower", MAP),
    ("measures.log_negativity.calls", "count", "lower", MAP),
    ("measures.log_negativity.busy_s", "s", "lower", MAP),
    ("pipeline.extract_block.busy_s", "s", "lower", MAP),
    ("measures.residual_contangle_min.calls", "count", "lower", LINES),
    ("measures.residual_contangle_min.busy_s", "s", "lower", LINES),
    ("steady_state.resolve_drive.busy_s", "s", "lower", LINES),
    ("output_mode.filtered_pair_cm.calls", "count", "lower", FILTERED),
    ("output_mode.filtered_pair_cm.busy_s", "s", "lower", FILTERED),
    ("output_mode.susceptibility.calls", "count", "lower", FILTERED),
    ("output_mode.susceptibility.per_point", "count", "lower", FILTERED),
    ("time_domain.integrate_classical.calls", "count", "lower", COMB),
    ("time_domain.integrate_classical.busy_s", "s", "lower", COMB),
    ("time_domain.nfev", "count", "lower", COMB),
    ("time_domain.us_per_rhs", "us", "lower", COMB),
    ("time_domain.classify_attractor.busy_s", "s", "lower", COMB),
    ("time_domain.steady_share", "ratio", "lower", COMB),
    ("cli.load_config.busy_s", "s", "lower", "setup_s on both workloads"),
    ("cli.write_table.busy_s", "s", "lower", "wall_s on figure_sweeps"),
    ("trace.overhead_s", "s", "lower",
     "none: spans times the cost of one wrapper, see wrapper_cost"),
)


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.invocation, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of PATCHES for the rest of the process."""
        for module_name, attr, name, note in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), note))


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds that one span adds to a call, measured here on a function
    that does nothing, with and without a wrapper."""
    def nothing():
        return None

    traced = Tracer().wrap("nothing", nothing)
    t0 = perf_counter()
    for _ in range(calls):
        nothing()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Every per-layer metric of LAYER_METRICS."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    covered: defaultdict = defaultdict(float)  # span index -> child time
    for span in spans:
        duration = span[END] - span[START]
        calls[span[NAME]] += 1
        busy[span[NAME]] += duration
        if span[PARENT] >= 0:
            covered[span[PARENT]] += duration
    self_time: defaultdict = defaultdict(float)
    for i, span in enumerate(spans):
        self_time[span[NAME]] += span[END] - span[START] - covered[i]

    stable = sum(1 for s in spans
                 if s[NAME] == "linear_model.build_model" and s[NOTE])
    nfev = steady_busy = 0.0
    last_probe = None
    for span in spans:
        if span[NAME] == "time_domain.integrate_classical":
            nfev += span[NOTE]
            last_probe = span
        elif (span[NAME] == "time_domain.classify_attractor"
              and span[NOTE] == "steady" and last_probe is not None):
            steady_busy += last_probe[END] - last_probe[START]

    out = {}
    for metric, *_ in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "busy_s":
            out[metric] = busy[layer]
        elif stat == "self_s":
            out[metric] = self_time[layer]
    integrate = busy["time_domain.integrate_classical"]
    out["linear_model.stable_share"] = _ratio(stable, calls["linear_model.build_model"])
    out["output_mode.susceptibility.per_point"] = _ratio(
        calls["output_mode.susceptibility"], calls["output_mode.filtered_pair_cm"])
    out["time_domain.nfev"] = int(nfev)
    out["time_domain.us_per_rhs"] = _ratio(1e6 * integrate, nfev)
    out["time_domain.steady_share"] = _ratio(steady_busy, integrate)
    out["trace.overhead_s"] = len(spans) * wrapper_cost()
    return out
