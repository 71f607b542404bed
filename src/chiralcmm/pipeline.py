"""End-to-end evaluation: parameters -> steady state -> drift/diffusion ->
stability gate -> covariance -> entanglement measures, plus grid sweeps and
the drive-direction contrast.

Evaluation runs on blocks of points.  A block goes through every stage as
arrays: stacked parameters, the mean field (closed form, or the stacked
cubic of the physical detuning mode), (n, 8, 8) drift and diffusion
stacks, one stability gate, one stacked Lyapunov solve and the vectorized
measures, the filtered output among them, whose frequency quadrature
advances all the block's points in lockstep (``output_mode``).  Every
stage treats each point on its own, so a row does not depend on the block
it is evaluated in.  ``evaluate_point`` is the same evaluator run on a block of
one point, and ``nonreciprocity_contrast`` on a block of two: one point
driven through each port.

A sweep lists its rows in a fixed order: row-major over the grid (the last
axis varies fastest), clockwise drive before counter-clockwise at each grid
point.  It cuts that list into contiguous blocks of BLOCK_POINTS rows.
``workers > 1`` maps whole blocks onto a pool of threads in this process; a
sweep of one block runs in the calling thread.  The result is the same for
any worker count.

Every result is one table: column name -> list with one entry per point.
A block's table holds the written columns of a sweep and the diagnostic
columns computed on the way (:func:`sweep_columns`).  ``evaluate_point``
returns the one row of its table as a dict, column name -> value, and each
sweep metadata key is one reduction of one column over the joined table
(SWEEP_META).

A block that meets a known numerical condition (a
:class:`~chiralcmm.params.NumericalCondition`: singular or overflowing
mean field, invalid covariance, quadrature failure, a refused Lyapunov
solve) is split
in halves until each failing point stands alone; those rows carry
``"<Type>: <message>"`` in ``error`` and NaN in every value column, and
the others are unaffected.  Any other exception is a bug and fails the
sweep; input errors are refused before a sweep starts.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import linear_model
# nothing here calls pipeline.build_model: it stays only as a patch target
# of bench/tracer.py until the tracer wraps linear_model.build_model
from .linear_model import build_model  # noqa: F401
from .lyapunov import extract_block, solve_lyapunov
from .measures import (
    VIOLATION_TOL,
    is_physical,
    log_negativity,
    residual_contangle_min,
    teleportation_fidelity,
)
from .output_mode import FILTERED_DIAGNOSTICS, FilterSpec, filtered_pair_cm
from .params import (
    DETUNING_PHYSICAL,
    DRIVE_CCW,
    DRIVE_CW,
    Detunings,
    DriveSpec,
    NumericalCondition,
    SystemParams,
)
from .steady_state import resolve_drive

#: rows per block: the block's (n, 36, 36) Lyapunov system takes 1.3 MB
BLOCK_POINTS = 128

PAIRS_DEFAULT = (("a_cw", "m"), ("a_cw", "b"), ("a_ccw", "m"), ("a_ccw", "b"))
TRIPLES_DEFAULT = (("a_cw", "m", "b"), ("a_ccw", "m", "b"))


@dataclass(frozen=True)
class MeasureRequest:
    """Which quantities to evaluate at each parameter point."""

    pairs: tuple = PAIRS_DEFAULT
    triples: tuple = TRIPLES_DEFAULT
    filter_spec: FilterSpec | None = None     # enables filtered-output block


def evaluate_point(params: SystemParams, det: Detunings,
                   request: MeasureRequest | None = None) -> dict:
    """The sweep row of one point, driven through ``params.drive_port``:
    each value column of :func:`sweep_columns` -> its value.  The measures
    are NaN at an unstable point.  This is the block evaluator on a block of
    one point, so the values equal those of the point's row in a sweep."""
    table = _evaluate(params, det, request or MeasureRequest(), (),
                      np.empty((1, 0)), np.array([params.drive_port]))
    return {name: column[0] for name, column in table.items()}


def _column(prefix: str, modes) -> str:
    """Column name of a measure of a partition, e.g. ``en_a_cw_m``."""
    return f"{prefix}_{'_'.join(modes)}"


#: the columns of a filtered block: the two a sweep writes, then each
#: filtered_pair_cm diagnostic as the column ``filtered_<entry>``
FILTERED_COLUMNS = ("filtered_en", "fidelity",
                    *(f"filtered_{key}" for key in FILTERED_DIAGNOSTICS))


def sweep_columns(spec, detuning_mode: str):
    """The columns of a sweep table: those a sweep writes, in order, and the
    diagnostic ones.  All but the axes, ``drive_port`` and ``error`` are
    value columns, whose measures are NaN at unstable points.
    ``unphysical``: a stable covariance fails :func:`is_physical`;
    ``several_below_half``: a 1|2 partial transpose had more than one
    symplectic eigenvalue below 1/2; ``monogamy_violations`` (with
    triples): focus modes, over all triples, whose residual contangle is
    below -VIOLATION_TOL; ``branches``: real roots of the cubic mean
    field."""
    request = spec.request
    written = [ax.name for ax in spec.axes] + ["drive_port", "stable",
                                               "abs_g_m_eff"]
    written += [_column("en", p) for p in request.pairs]
    written += [_column("rmin", t) for t in request.triples]
    diagnostic = ["abscissa", "g_m_eff", "unphysical", "several_below_half"]
    if request.triples:
        diagnostic.append("monogamy_violations")
    if detuning_mode == DETUNING_PHYSICAL:
        diagnostic.append("branches")
    if request.filter_spec is not None:
        written += FILTERED_COLUMNS[:2]
        diagnostic += FILTERED_COLUMNS[2:]
    return (*written, "error"), tuple(diagnostic)


def _evaluate(params: SystemParams, det: Detunings, request: MeasureRequest,
              axes: tuple, values: np.ndarray, ports: np.ndarray) -> dict:
    """The value columns (see :func:`sweep_columns`) of the points
    ``params``/``det`` with ``axes`` set to the rows of ``values``, each
    driven through its entry of ``ports``: column name -> list with one
    entry per point."""
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
    V = solve_lyapunov(model.A[ok], model.D[ok], gated=True)

    def at_stable(x, fill=np.nan) -> list:
        out = np.full(n, fill, dtype=np.asarray(x).dtype)
        out[ok] = x
        return out.tolist()

    table = {"stable": ok.astype(int).tolist(),
             "abs_g_m_eff": np.abs(steady.g_m_eff).tolist()}
    for pair in request.pairs:
        table[_column("en", pair)] = at_stable(
            log_negativity(extract_block(V, pair)))
    several_below, violations = False, 0
    for tri in request.triples:
        report = residual_contangle_min(extract_block(V, tri))
        table[_column("rmin", tri)] = at_stable(report.r_min)
        several_below = several_below | np.any(report.below_half > 1, axis=-1)
        violations = violations + np.sum(report.residuals < -VIOLATION_TOL,
                                         axis=-1)
    table.update(abscissa=model.abscissa.tolist(),
                 g_m_eff=steady.g_m_eff.tolist(),
                 unphysical=at_stable(~is_physical(V), False),
                 several_below_half=at_stable(several_below, False))
    if request.triples:
        table["monogamy_violations"] = at_stable(violations, 0)
    if params.detuning_mode == DETUNING_PHYSICAL:
        table["branches"] = steady.meta["branches"].tolist()

    if request.filter_spec is not None:
        cm, diagnostics = filtered_pair_cm(model.A[ok], V, P.at(ok),
                                           request.filter_spec)
        values = (log_negativity(cm), teleportation_fidelity(cm),
                  *diagnostics.values())
        table.update((name, at_stable(value))
                     for name, value in zip(FILTERED_COLUMNS, values))
    return table


def nonreciprocity_contrast(params: SystemParams, det: Detunings,
                            partition) -> float:
    """(E_cw - E_ccw)/(E_cw + E_ccw) for one partition, in [-1, 1]: E is
    E_N for a pair of modes and the minimum residual contangle for a
    triple, at ``params``/``det`` driven through the cw port and through
    the ccw port (``params.drive_port`` is not read).

    1 for perfectly one-way entanglement (the exact chiral case), 0 for a
    direction-symmetric configuration or when both vanish; NaN when either
    drive is unstable.  Both ports are one block of two points, so they are
    evaluated alike by construction.
    """
    pair = len(partition) == 2
    request = MeasureRequest(pairs=(partition,) if pair else (),
                             triples=() if pair else (partition,))
    table = _evaluate(params, det, request, (), np.empty((2, 0)),
                      np.array([DRIVE_CW, DRIVE_CCW]))
    e1, e2 = table[_column("en" if pair else "rmin", partition)]
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
        for modes in (*self.request.pairs, *self.request.triples):
            repeated = _repeated(modes)
            if repeated:
                raise ValueError(f"partition {':'.join(modes)!r} names mode "
                                 f"{repeated[0]!r} twice")


@dataclass(frozen=True)
class SweepResult:
    columns: tuple       # the written columns, in order
    table: dict          # column name -> one entry per row (see evaluate_block)
    spec: SweepSpec
    # sweep-level reductions of the diagnostic columns (see run_sweep)
    meta: dict = field(default_factory=dict, compare=False)

    def rows(self):
        """An iterator over the rows: the written columns, one tuple per row.
        It builds no row list, so a writer holds the table only."""
        return zip(*(self.table[name] for name in self.columns))


def grid_rows(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis values (rows x axes) and drive port of every row, in row order."""
    ports = sorted(spec.drive_ports, key=lambda p: p != DRIVE_CW)  # cw first
    mesh = np.meshgrid(*(ax.values() for ax in spec.axes), indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return (np.repeat(points, len(ports), axis=0),
            np.tile(np.array(ports), len(points)))


def _rows_above(limit: float):
    """Reduction: the number of rows whose value exceeds ``limit`` (NaN,
    the value of an error row, does not)."""
    return lambda column: int(np.sum(np.asarray(column, dtype=float) > limit))


def _largest(column) -> float | None:
    """Reduction: the largest value other than NaN, None if there is none."""
    values = np.asarray(column, dtype=float)
    return None if np.all(np.isnan(values)) else float(np.nanmax(values))


#: sweep metadata: key -> (column, reduction of that column over all rows).
#: A key is present when its column is: ``multistable_rows`` in the
#: physical detuning mode, the ``*_max`` keys in a filtered sweep.
SWEEP_META = {
    "unphysical_rows": ("unphysical", _rows_above(0)),
    "several_below_half_rows": ("several_below_half", _rows_above(0)),
    "error_rows": ("error", lambda column: sum(map(bool, column))),
    "multistable_rows": ("branches", _rows_above(1)),
    "filtered_quad_error_max": ("filtered_quad_error", _largest),
    "filtered_tail_estimate_max": ("filtered_tail_estimate", _largest),
    "filtered_modal_cond_max": ("filtered_modal_cond", _largest),
}


def evaluate_block(params: SystemParams, det: Detunings, spec: SweepSpec,
                   values: np.ndarray, ports: np.ndarray) -> dict:
    """The table of the sweep points given by ``values`` and ``ports`` (as
    from :func:`grid_rows`): column name -> list with one entry per point.
    The columns are those of :func:`sweep_columns`, in its order; ``error``
    is "" where the point evaluated.  A point that fails alone has NaN in
    every value column."""
    names = list(itertools.chain(*sweep_columns(spec, params.detuning_mode)))
    try:
        table = _evaluate(params, det, spec.request, spec.axes, values, ports)
        error = [""] * len(ports)
    except NumericalCondition as exc:
        if len(ports) > 1:
            half = len(ports) // 2
            head = evaluate_block(params, det, spec, values[:half], ports[:half])
            tail = evaluate_block(params, det, spec, values[half:], ports[half:])
            return {name: head[name] + tail[name] for name in names}
        table = {name: [np.nan] for name in names}
        error = [f"{type(exc).__name__}: {exc}"]
    table.update(zip((ax.name for ax in spec.axes), values.T.tolist()),
                 drive_port=ports.tolist(), error=error)
    return {name: table[name] for name in names}


def run_sweep(params: SystemParams, det: Detunings, spec: SweepSpec,
              workers: int = 1) -> SweepResult:
    """Evaluate the grid; deterministic row order regardless of worker count.

    ``table`` joins the block tables of :func:`evaluate_block`, and each
    ``meta`` key is one reduction of one of its columns (SWEEP_META): the
    counts of rows whose covariance fails :func:`is_physical`, of rows where
    a 1|2 partial transpose had more than one symplectic eigenvalue below
    1/2, and of rows with an in-row error.  A sweep in the physical
    detuning mode adds the count of rows whose mean field has several
    branches.  A filtered sweep adds the largest quadrature error estimate,
    tail estimate and modal condition number of its filtered rows.

    ``workers > 1`` evaluates the blocks on that many threads of this
    process.  Most of a block's time is spent in numpy's stacked LAPACK
    calls, which release the GIL: the ``eigvals`` of
    :func:`linear_model.is_stable` and :func:`is_physical` and the batched
    solve of the Lyapunov system.  The rest of a block is Python that holds
    the GIL; that share caps the speed-up (1 -> 2 workers gives about 1.5x
    on the fig2a map on 2 cores) and limits scaling on hosts with many
    cores.  Blocks must not call ``odeint``: ODEPACK keeps its state in
    Fortran common blocks and is not re-entrant.  If a block raises an
    exception other than a NumericalCondition, or the caller is
    interrupted (Ctrl-C), the blocks that have not started are cancelled
    and the exception propagates once the running ones end.
    """
    values, ports = grid_rows(spec)
    starts = range(0, len(ports), BLOCK_POINTS)
    blocks = ([values[i:i + BLOCK_POINTS] for i in starts],
              [ports[i:i + BLOCK_POINTS] for i in starts])
    evaluate = functools.partial(evaluate_block, params, det, spec)
    workers = min(workers, len(starts))
    if workers <= 1:
        tables = list(map(evaluate, *blocks))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            tables = list(pool.map(evaluate, *blocks))
        finally:
            pool.shutdown(cancel_futures=True)
    table = {name: list(itertools.chain.from_iterable(t[name] for t in tables))
             for name in tables[0]}
    meta = {key: reduce(table[name])
            for key, (name, reduce) in SWEEP_META.items() if name in table}
    columns, _ = sweep_columns(spec, params.detuning_mode)
    return SweepResult(columns=columns, table=table, spec=spec, meta=meta)
