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
point.  It cuts that list into contiguous blocks of BLOCK_POINTS rows,
which threads of this process take in turn (:func:`run_sweep`); the result
is the same for any worker count.

Every result is one table: column name -> numpy array with one entry per
point.  A block's table holds the written columns of a sweep and the
diagnostic columns computed on the way (:func:`sweep_columns`).
``evaluate_point`` returns the one row of its table as a dict, column name
-> Python scalar, and each sweep metadata key is one reduction of one
column over the joined table (SWEEP_META).

A known numerical condition (``params.NumericalCondition``) names the
points of a block that meet it: their rows carry ``"<Type>: <message>"``
in ``error`` and NaN in every value column, and the other points are
evaluated again.  An int or bool column that meets such a NaN becomes an
array of Python objects, so that ``stable`` reads 1, 0 or NaN, never 1.0.
Any other exception is a bug and fails the sweep; input errors are refused
before a sweep starts.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
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

#: rows per block: a block pays about 1 ms of GIL-holding Python whatever
#: its size; each LU solve of its Lyapunov stage is bounded by SOLVE_CHUNK
BLOCK_POINTS = 512

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
    return {name: column.tolist()[0] for name, column in table.items()}


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
    ``monogamy_violations`` (with triples): focus modes, over all triples,
    whose residual contangle is below -VIOLATION_TOL; ``branches``: real
    roots of the cubic mean field."""
    request = spec.request
    written = [ax.name for ax in spec.axes] + ["drive_port", "stable",
                                               "abs_g_m_eff"]
    written += [_column("en", p) for p in request.pairs]
    written += [_column("rmin", t) for t in request.triples]
    diagnostic = ["abscissa", "g_m_eff", "unphysical"]
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
    driven through its entry of ``ports``: column name -> array with one
    entry per point.  A known numerical condition names its points by
    their index here."""
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

    def at_stable(x, fill=np.nan) -> np.ndarray:
        out = np.full(n, fill, dtype=np.asarray(x).dtype)
        out[ok] = x
        return out

    table = {"stable": ok.astype(int), "abs_g_m_eff": np.abs(steady.g_m_eff)}
    try:
        V = solve_lyapunov(model.A[ok], model.D[ok], gated=True)
        for pair in request.pairs:
            table[_column("en", pair)] = at_stable(
                log_negativity(extract_block(V, pair)))
        violations = 0
        for tri in request.triples:
            report = residual_contangle_min(extract_block(V, tri))
            table[_column("rmin", tri)] = at_stable(report.r_min)
            violations = violations + np.sum(
                report.residuals < -VIOLATION_TOL, axis=-1)
        table.update(abscissa=model.abscissa, g_m_eff=steady.g_m_eff,
                     unphysical=at_stable(~is_physical(V), False))
        if request.triples:
            table["monogamy_violations"] = at_stable(violations, 0)
        if params.detuning_mode == DETUNING_PHYSICAL:
            table["branches"] = steady.meta["branches"]
        if request.filter_spec is not None:
            cm, diagnostics = filtered_pair_cm(model.A[ok], V, P.at(ok),
                                               request.filter_spec)
            values = (log_negativity(cm), teleportation_fidelity(cm),
                      *diagnostics.values())
            table.update((name, at_stable(value))
                         for name, value in zip(FILTERED_COLUMNS, values))
    except NumericalCondition as exc:
        # the stages after the gate name points of its stable subset
        exc.points = np.flatnonzero(ok)[exc.points]
        raise
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
    e1, e2 = table[_column("en" if pair else "rmin", partition)].tolist()
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
    table: dict          # column name -> array, one entry per row
    # sweep-level reductions of the diagnostic columns (see run_sweep)
    meta: dict = field(default_factory=dict, compare=False)

    def rows(self):
        """An iterator over the rows: the written columns, one tuple of
        Python scalars per row.  It converts the columns one BLOCK_POINTS
        slice at a time, so a writer holds the table and one slice."""
        columns = [self.table[name] for name in self.columns]
        for i in range(0, len(columns[0]), BLOCK_POINTS):
            yield from zip(*(c[i:i + BLOCK_POINTS].tolist() for c in columns))


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
    "error_rows": ("error", lambda column: sum(map(bool, column))),
    "multistable_rows": ("branches", _rows_above(1)),
    "filtered_quad_error_max": ("filtered_quad_error", _largest),
    "filtered_tail_estimate_max": ("filtered_tail_estimate", _largest),
    "filtered_modal_cond_max": ("filtered_modal_cond", _largest),
}


def _join(parts) -> np.ndarray:
    """One column of several tables, in order, as a new array.  Parts of
    different dtypes (an int or bool column and an error row's NaN) are
    joined as Python objects, so that each entry keeps its type."""
    if len({part.dtype for part in parts}) > 1:
        return np.concatenate(parts, dtype=object)
    return np.concatenate(parts)


def evaluate_block(params: SystemParams, det: Detunings, spec: SweepSpec,
                   values: np.ndarray, ports: np.ndarray) -> dict:
    """The table of the sweep points given by ``values`` and ``ports`` (as
    from :func:`grid_rows`): column name -> array with one entry per point.
    The columns are those of :func:`sweep_columns`, in its order; ``error``
    (an array of str objects) is "" where the point evaluated.  The live
    points are evaluated until no known numerical condition is raised: the
    points a condition names leave, so a block costs one evaluation more
    than the distinct conditions it meets."""
    names = list(itertools.chain(*sweep_columns(spec, params.detuning_mode)))
    n = len(ports)
    live, table = np.arange(n), {}
    error = np.full(n, "", dtype=object)
    while len(live):
        try:
            table = _evaluate(params, det, spec.request, spec.axes,
                              values[live], ports[live])
            break
        except NumericalCondition as exc:
            error[live[exc.points]] = [f"{type(exc).__name__}: {message}"
                                       for message in exc.messages]
            live = np.delete(live, exc.points)
    if len(live) < n:           # NaN in the failed rows
        for name, column in table.items():
            kind = float if column.dtype == float else object
            table[name] = np.full(n, np.nan, dtype=kind)
            table[name][live] = column
    table.update(zip((ax.name for ax in spec.axes), values.T),
                 drive_port=ports, error=error)
    return {name: table.get(name, np.full(n, np.nan)) for name in names}


def run_sweep(params: SystemParams, det: Detunings, spec: SweepSpec,
              workers: int = 1) -> SweepResult:
    """Evaluate the grid; deterministic row order regardless of worker count.

    ``table`` joins the block tables of :func:`evaluate_block` into one
    array per column, and each ``meta`` key is one reduction of one of its
    columns (SWEEP_META): the counts of rows whose covariance fails
    :func:`is_physical` and of rows with an in-row error.  A sweep in the
    physical detuning mode adds the count of rows whose mean field has
    several branches.  A filtered sweep adds the largest quadrature error
    estimate, tail estimate and modal condition number of its filtered
    rows.

    The blocks wait in one queue.  The calling thread takes them in turn,
    beside ``workers - 1`` threads of this process that do the same (none
    for one worker or one block), and each block's table goes to its place
    in row order.  Most of a block's time is spent in numpy's stacked
    LAPACK calls, which release the GIL: the ``eigvals`` of
    :func:`linear_model.is_stable` and the batched solves of the Lyapunov
    system.  The rest of a block is Python that holds the GIL; that share
    caps the speed-up (1 -> 2 workers: medians of 1.55x and 1.8x over two
    rounds of 10 runs of the fig2a map on a shared 2-core host) and limits
    scaling on hosts with many cores.  Blocks must not call ``odeint``:
    ODEPACK keeps its state in Fortran common blocks and is not re-entrant.
    If a block raises an exception other than a NumericalCondition, or the
    caller is interrupted (Ctrl-C), the queue is emptied, so that no
    further block starts, and the exception propagates once the running
    blocks end.
    """
    values, ports = grid_rows(spec)
    starts = range(0, len(ports), BLOCK_POINTS)
    tables = [None] * len(starts)
    waiting = deque(range(len(starts)))
    lock = threading.Lock()

    failures = []

    def work():
        try:
            while True:
                with lock:
                    if not waiting:
                        return
                    k = waiting.popleft()
                rows = slice(starts[k], starts[k] + BLOCK_POINTS)
                tables[k] = evaluate_block(params, det, spec, values[rows],
                                           ports[rows])
        except BaseException as exc:
            with lock:
                waiting.clear()
            failures.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(workers, len(starts)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        with lock:          # also when Ctrl-C ends the wait for the helpers
            waiting.clear()
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[0]
    # pop each block's column as it is joined, so that the join holds one
    # copy of the table and one column more
    table = {name: _join([t.pop(name) for t in tables])
             for name in list(tables[0])}
    meta = {key: reduce(table[name])
            for key, (name, reduce) in SWEEP_META.items() if name in table}
    columns, _ = sweep_columns(spec, params.detuning_mode)
    return SweepResult(columns=columns, table=table, meta=meta)
