"""End-to-end evaluation: parameters -> steady state -> drift/diffusion ->
stability gate -> covariance -> entanglement measures, plus grid sweeps and
the drive-direction contrast.

Evaluation runs on blocks of points.  A block goes through every stage as
arrays: stacked parameters, the mean field (closed form, or the stacked
cubic of the physical detuning mode), (n, 8, 8) drift and diffusion
stacks, one stability gate, one stacked Lyapunov solve and the vectorized
measures.  Only the filtered-output quadrature (one stacked call per
adaptive pass) runs point by point inside a block.  Every stage treats
each point on its own, so a row does not depend on the block it is
evaluated in, and ``evaluate_point`` is the same evaluator run on a block
of one point.

A sweep lists its rows in a fixed order: row-major over the grid (the last
axis varies fastest), clockwise drive before counter-clockwise at each grid
point.  It cuts that list into contiguous blocks of BLOCK_POINTS rows.
``workers > 1`` maps whole blocks onto a pool of threads in this process; a
sweep of one block runs in the calling thread.  The result is the same for
any worker count.

A block that meets a domain error (the ValueError and RuntimeError
families: singular mean field, invalid covariance, quadrature failure,
instability, a refused Lyapunov solve) is split in halves until each
failing point stands alone; those rows carry ``"<Type>: <message>"`` and
the others are unaffected.  Any other exception fails the sweep.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import linear_model
# pipeline.build_model stays the single-point helper (bench/tracer.py wraps
# it and reads one verdict per call); blocks go through
# linear_model.build_model
from .linear_model import build_model  # noqa: F401
from .lyapunov import extract_block, solve_lyapunov
from .measures import (
    is_physical,
    log_negativity,
    residual_contangle_min,
    teleportation_fidelity,
)
from .output_mode import FilterSpec, filtered_pair_cm
from .params import (
    DETUNING_PHYSICAL,
    DRIVE_CCW,
    DRIVE_CW,
    Detunings,
    DriveSpec,
    SystemParams,
)
from .steady_state import resolve_drive

#: rows per block: the block's (n, 36, 36) Lyapunov system takes 1.3 MB
BLOCK_POINTS = 128

#: exceptions that become in-row errors of a sweep
DOMAIN_ERRORS = (ValueError, RuntimeError)

PAIRS_DEFAULT = (("a_cw", "m"), ("a_cw", "b"), ("a_ccw", "m"), ("a_ccw", "b"))
TRIPLES_DEFAULT = (("a_cw", "m", "b"), ("a_ccw", "m", "b"))


def partition_key(modes) -> str:
    return "|".join(modes)


@dataclass(frozen=True)
class MeasureRequest:
    """Which quantities to evaluate at each parameter point."""

    pairs: tuple = PAIRS_DEFAULT
    triples: tuple = TRIPLES_DEFAULT
    filter_spec: FilterSpec | None = None     # enables filtered-output block


@dataclass(frozen=True)
class EntReport:
    """Measures for one parameter point.

    Unstable points carry no measures: only steady-state quantities are
    reported.  ``echo`` identifies the configuration up to the drive port so
    that drive-direction comparisons can verify they compare like with like.
    ``meta`` holds the mean-field branch count in the physical detuning mode
    (``branches``) and the filtered-output diagnostics (``filtered``).
    """

    stable: bool
    abscissa: float
    drive_port: str
    g_m_eff: complex
    e_n: dict
    r_min: dict
    filtered_e_n: float | None
    fidelity: float | None
    physical: bool | None
    echo: tuple
    meta: dict = field(default_factory=dict, compare=False)


def evaluate_point(params: SystemParams, det: Detunings,
                   request: MeasureRequest | None = None) -> EntReport:
    """Full single-point evaluation: the block evaluator on one point."""
    request = request or MeasureRequest()
    block = _evaluate(params, det, request, (), np.empty((1, 0)),
                      np.array([params.drive_port]))
    echo = (params.replace(drive_port=DRIVE_CW), det)
    stable = bool(block.stable[0])
    meta = {} if block.branches is None else {"branches": int(block.branches[0])}
    common = dict(stable=stable, abscissa=float(block.abscissa[0]),
                  drive_port=params.drive_port,
                  g_m_eff=complex(block.g_m_eff[0]), echo=echo)
    if not stable:
        return EntReport(e_n={}, r_min={}, filtered_e_n=None, fidelity=None,
                         physical=None, meta=meta, **common)
    e_n = {key: float(v[0]) for key, v in block.e_n.items()}
    r_min = {key: float(v[0]) for key, v in block.r_min.items()}
    filtered_e_n = fidelity = None
    if request.filter_spec is not None:
        filtered_e_n = float(block.filtered_e_n[0])
        fidelity = float(block.fidelity[0])
        meta["filtered"] = block.filtered_meta[0]
    return EntReport(e_n=e_n, r_min=r_min, filtered_e_n=filtered_e_n,
                     fidelity=fidelity, physical=bool(block.physical[0]),
                     meta=meta, **common)


@dataclass(frozen=True)
class _Block:
    """Results of one block, one array entry per point; the measures are
    NaN (``physical`` False) at unstable points."""

    stable: np.ndarray
    abscissa: np.ndarray
    g_m_eff: np.ndarray
    e_n: dict               # partition key -> values
    r_min: dict
    filtered_e_n: np.ndarray
    fidelity: np.ndarray
    filtered_meta: list
    physical: np.ndarray
    several_below_half: np.ndarray   # a 1|2 split had > 1 eigenvalue below 1/2
    branches: np.ndarray | None      # real mean-field roots (physical mode)


def _evaluate(params: SystemParams, det: Detunings, request: MeasureRequest,
              axes: tuple, values: np.ndarray, ports: np.ndarray) -> _Block:
    """Evaluate the points ``params``/``det`` with ``axes`` set to the rows
    of ``values``, each driven through its entry of ``ports``."""
    n = len(ports)
    P, dets = params.stacked(n).replace(drive_port=ports), det.stacked(n)
    for k, ax in enumerate(axes):
        P, dets = SWEEPABLE[ax.name](P, dets, values[:, k])
    steady = resolve_drive(P, dets)
    # the drift sees the shifted magnon detuning: the input one, or the
    # self-consistent one of the physical detuning mode
    dets = Detunings(dets.delta_a, dets.delta_m, steady.delta_m_eff)
    model = linear_model.build_model(P, dets, steady.g_m_eff)
    ok = model.stable
    cm = solve_lyapunov(model.A[ok], model.D[ok], gated=True)

    def at_stable(x, fill=np.nan):
        out = np.full(n, fill, dtype=np.asarray(x).dtype)
        out[ok] = x
        return out

    e_n = {partition_key(pair): at_stable(log_negativity(extract_block(cm, pair)))
           for pair in request.pairs}
    r_min = {}
    several_below = np.zeros(n, dtype=bool)
    for tri in request.triples:
        report = residual_contangle_min(extract_block(cm, tri))
        r_min[partition_key(tri)] = at_stable(report.r_min)
        several_below |= at_stable(
            np.any([b > 1 for b in report.below_half.values()], axis=0), False)

    filtered_e_n, fidelity = np.full(n, np.nan), np.full(n, np.nan)
    filtered_meta = [None] * n
    if request.filter_spec is not None:
        for i in np.flatnonzero(ok):
            out = filtered_pair_cm(model.A[i], model.D[i], P.at(i),
                                   request.filter_spec)
            filtered_e_n[i] = log_negativity(out.V)
            fidelity[i] = teleportation_fidelity(out.V)
            filtered_meta[i] = out.meta

    return _Block(stable=ok, abscissa=model.abscissa, g_m_eff=steady.g_m_eff,
                  e_n=e_n, r_min=r_min, filtered_e_n=filtered_e_n,
                  fidelity=fidelity, filtered_meta=filtered_meta,
                  physical=at_stable(is_physical(cm.V), False),
                  several_below_half=several_below,
                  branches=steady.meta.get("branches"))


def nonreciprocity_contrast(report_cw: EntReport, report_ccw: EntReport,
                            partition) -> float:
    """(E_cw - E_ccw)/(E_cw + E_ccw) for one partition, in [0, 1].

    1 for perfectly one-way entanglement (the exact chiral case), 0 for a
    direction-symmetric configuration or when both vanish.  The two reports
    must describe identical configurations up to the drive port.
    """
    if report_cw.echo != report_ccw.echo:
        raise ValueError("reports do not come from matching configurations")
    key = partition_key(partition) if not isinstance(partition, str) else partition
    table_cw = report_cw.e_n if key in report_cw.e_n else report_cw.r_min
    table_ccw = report_ccw.e_n if key in report_ccw.e_n else report_ccw.r_min
    e1, e2 = table_cw[key], table_ccw[key]
    if e1 + e2 == 0.0:
        return 0.0
    return (e1 - e2) / (e1 + e2)


# ---------------------------------------------------------------------------
# sweeps

def _set_delta_a(p, d, v):
    return p, Detunings(v, d.delta_m, d.delta_m_eff)


def _set_delta_m_eff(p, d, v):
    return p, Detunings(d.delta_a, v, v)


def _set_chi(p, d, v):
    return p.replace(g_ccw=v * p.g_cw), d


def _param_setter(name):
    def set_(p, d, v):
        return p.replace(**{name: v}), d
    return set_


def _drive_setter(kind):
    def set_(p, d, v):
        return p.replace(drive=DriveSpec(kind, v)), d
    return set_


SWEEPABLE = {
    "delta_a": _set_delta_a,
    "delta_m_eff": _set_delta_m_eff,
    "chi": _set_chi,
    "J": _param_setter("J"),
    "g_cw": _param_setter("g_cw"),
    "g_ccw": _param_setter("g_ccw"),
    "kappa_a_e": _param_setter("kappa_a_e"),
    "kappa_a_i": _param_setter("kappa_a_i"),
    "kappa_m": _param_setter("kappa_m"),
    "gamma_b": _param_setter("gamma_b"),
    "temperature": _param_setter("temperature"),
    "omega_b": _param_setter("omega_b"),
    "gm_abs": _drive_setter("gm_abs"),
    "amplitude": _drive_setter("amplitude"),
    "power": _drive_setter("power"),
}

#: the quantity a sweep variable writes, where it is not its own name; two
#: axes that write one quantity are refused
_WRITES = {"chi": "g_ccw", "gm_abs": "drive", "amplitude": "drive",
           "power": "drive"}


def _repeated(items) -> list:
    """The entries of ``items`` that repeat an earlier one, in order."""
    items = list(items)
    return [x for i, x in enumerate(items) if x in items[:i]]


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    num: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True)
class SweepSpec:
    """1-D or 2-D grid specification over named parameters."""

    axes: tuple
    drive_ports: tuple = (DRIVE_CW,)
    request: MeasureRequest = field(default_factory=MeasureRequest)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps support 1 or 2 axes")
        for ax in self.axes:
            if ax.num < 2:
                raise ValueError(f"axis {ax.name!r} needs at least 2 points")
            if not (np.isfinite(ax.start) and np.isfinite(ax.stop)):
                raise ValueError(f"axis {ax.name!r} range must be finite")
            if ax.name not in SWEEPABLE:
                raise ValueError(f"unknown sweep variable {ax.name!r}; "
                                 f"choose from {sorted(SWEEPABLE)}")
        if _repeated(_WRITES.get(ax.name, ax.name) for ax in self.axes):
            raise ValueError("sweep axes "
                             + " and ".join(ax.name for ax in self.axes)
                             + " set the same quantity")
        ports = tuple(self.drive_ports)
        if any(p not in (DRIVE_CW, DRIVE_CCW) for p in ports):
            raise ValueError("drive_ports must be cw/ccw")
        for what, entries in (("drive_ports", ports),
                              ("pairs", map(":".join, self.request.pairs)),
                              ("triples", map(":".join, self.request.triples))):
            repeated = _repeated(entries)
            if repeated:
                raise ValueError(f"repeated entry {repeated[0]!r} in {what}")


@dataclass(frozen=True)
class SweepResult:
    columns: tuple
    rows: tuple          # tuples aligned with columns
    spec: SweepSpec
    # sweep-level counts of per-row diagnostics (see run_sweep)
    meta: dict = field(default_factory=dict, compare=False)


def _row_columns(spec: SweepSpec) -> tuple:
    cols = [ax.name for ax in spec.axes]
    cols += ["drive_port", "stable", "abs_g_m_eff"]
    cols += [f"en_{'_'.join(p)}" for p in spec.request.pairs]
    cols += [f"rmin_{'_'.join(t)}" for t in spec.request.triples]
    if spec.request.filter_spec is not None:
        cols += ["filtered_en", "fidelity"]
    cols += ["error"]
    return tuple(cols)


def grid_rows(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis values (rows x axes) and drive port of every row, in row order."""
    ports = sorted(spec.drive_ports, key=lambda p: p != DRIVE_CW)  # cw first
    mesh = np.meshgrid(*(ax.values() for ax in spec.axes), indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return (np.repeat(points, len(ports), axis=0),
            np.tile(np.array(ports), len(points)))


#: sweep metadata keys of the diagnostic counts (summed over blocks)
SWEEP_COUNTS = ("unphysical_rows", "several_below_half_rows", "error_rows")
#: sweep metadata key of a physical-mode sweep: rows whose cubic mean field
#: has more than one branch (summed over blocks)
MULTISTABLE = "multistable_rows"
#: sweep metadata keys of a filtered sweep's largest quadrature error, tail
#: estimate and eigenvector condition number kappa(P) over its filtered rows
#: (None if no row was filtered), and the filtered_pair_cm meta entries they
#: are taken from
SWEEP_MAXIMA = {"filtered_quad_error_max": "quad_error",
                "filtered_tail_estimate_max": "tail_estimate",
                "filtered_modal_cond_max": "modal_cond"}


def _merge(diag_a: dict, diag_b: dict) -> dict:
    """Diagnostics of two row sets together: counts add, maxima take the
    larger (NaN stands for no filtered row)."""
    return {key: (float(np.fmax(value, diag_b[key])) if key in SWEEP_MAXIMA
                  else value + diag_b[key])
            for key, value in diag_a.items()}


def evaluate_block(params: SystemParams, det: Detunings, spec: SweepSpec,
                   values: np.ndarray, ports: np.ndarray):
    """Rows of the sweep points given by ``values`` and ``ports`` (as from
    :func:`grid_rows`), and their diagnostics: the SWEEP_COUNTS counts, in
    the physical detuning mode the MULTISTABLE count and, for a filtered
    sweep, the SWEEP_MAXIMA maxima."""
    maxima = dict.fromkeys(SWEEP_MAXIMA if spec.request.filter_spec else (),
                           np.nan)
    multistable = ({MULTISTABLE: 0}
                   if params.detuning_mode == DETUNING_PHYSICAL else {})
    try:
        block = _evaluate(params, det, spec.request, spec.axes, values, ports)
    except DOMAIN_ERRORS as exc:
        if len(ports) == 1:
            pad = len(_row_columns(spec)) - len(spec.axes) - 2
            row = (*values[0].tolist(), str(ports[0]), *[np.nan] * pad,
                   f"{type(exc).__name__}: {exc}")
            return [row], {**dict(zip(SWEEP_COUNTS, (0, 0, 1))), **multistable,
                           **maxima}
        half = len(ports) // 2
        rows_a, diag_a = evaluate_block(params, det, spec, values[:half],
                                        ports[:half])
        rows_b, diag_b = evaluate_block(params, det, spec, values[half:],
                                        ports[half:])
        return rows_a + rows_b, _merge(diag_a, diag_b)

    columns = [*values.T.tolist(), ports.tolist(),
               block.stable.astype(int).tolist(),
               np.abs(block.g_m_eff).tolist()]
    columns += [block.e_n[partition_key(p)].tolist() for p in spec.request.pairs]
    columns += [block.r_min[partition_key(t)].tolist()
                for t in spec.request.triples]
    if spec.request.filter_spec is not None:
        columns += [block.filtered_e_n.tolist(), block.fidelity.tolist()]
    columns.append([""] * len(ports))
    counts = (np.sum(block.stable & ~block.physical),
              np.sum(block.several_below_half), 0)
    if multistable:
        multistable = {MULTISTABLE: int(np.sum(block.branches > 1))}
    if maxima:
        filtered = [m for m in block.filtered_meta if m is not None]
        maxima = {key: max((m[entry] for m in filtered), default=np.nan)
                  for key, entry in SWEEP_MAXIMA.items()}
    return list(zip(*columns)), {**dict(zip(SWEEP_COUNTS, map(int, counts))),
                                 **multistable, **maxima}


def run_sweep(params: SystemParams, det: Detunings, spec: SweepSpec,
              workers: int = 1) -> SweepResult:
    """Evaluate the grid; deterministic row order regardless of worker count.

    ``meta`` counts the rows whose covariance fails :func:`is_physical`, the
    rows where a 1|2 partial transpose had more than one symplectic
    eigenvalue below 1/2, and the rows with an in-row error.  A sweep in
    the physical detuning mode adds the count of rows whose mean field has
    several branches (MULTISTABLE).  A filtered sweep adds the largest
    quadrature error estimate, tail estimate and modal condition number of
    its filtered rows (SWEEP_MAXIMA).

    ``workers > 1`` evaluates the blocks on that many threads of this
    process.  Most of a block's time is spent in numpy's stacked LAPACK
    calls, which release the GIL: the ``eigvals`` of
    :func:`linear_model.is_stable` and :func:`is_physical` and the batched
    solve of the Lyapunov system.  The rest of a block is Python that holds
    the GIL; that share caps the speed-up (1 -> 2 workers gives about 1.5x
    on the fig2a map on 2 cores) and limits scaling on hosts with many
    cores.  Blocks must not call ``odeint``: ODEPACK keeps its state in
    Fortran common blocks and is not re-entrant.  If a block raises an
    exception outside DOMAIN_ERRORS, or the caller is interrupted (Ctrl-C),
    the blocks that have not started are cancelled and the exception
    propagates once the running ones end.
    """
    values, ports = grid_rows(spec)
    starts = range(0, len(ports), BLOCK_POINTS)
    blocks = ([values[i:i + BLOCK_POINTS] for i in starts],
              [ports[i:i + BLOCK_POINTS] for i in starts])
    evaluate = functools.partial(evaluate_block, params, det, spec)
    workers = min(workers, len(starts))
    if workers <= 1:
        results = list(map(evaluate, *blocks))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(evaluate, *blocks))
        finally:
            pool.shutdown(cancel_futures=True)
    rows = [row for block_rows, _ in results for row in block_rows]
    meta = functools.reduce(_merge, (diag for _, diag in results))
    for key in SWEEP_MAXIMA:
        if key in meta and np.isnan(meta[key]):
            meta[key] = None
    return SweepResult(columns=_row_columns(spec), rows=tuple(rows), spec=spec,
                       meta=meta)
