"""What the Krylov solvers share: one set-up, one finish, lane state.

CG, BiCG, BiCGSTAB and GMRES all start from a :class:`System` and
settle through :func:`finish`, so all of them reject a bad budget at
entry, report ``b = 0`` as solved after no iteration, and measure their
residuals alike.  :class:`Lanes` runs one system or several as lockstep
lanes (``docs/performance.md`` §10–§15); CG, BiCGSTAB and GMRES each
subclass it as their module's ``_State``, take one context or one per
system (:func:`lane_contexts`) and solve the systems group by group
(:func:`solve_groups`), every lane with its own trace
(:func:`lane_traces`).
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..arith.context import (FPContext, LaneContext, get_active_injector,
                             get_instrument)
from ..arith.shapes import require_system
from ..arith.sparse import CSRMatrix, CSRStack
from ..kernels.lut import release_workspace
from ..kernels.segment import LaneSegments
from ..kernels.zeroplan import DenseStack, freeze
from ..telemetry.trace import SolverTrace
from .norms import relative_backward_error

__all__ = ["System", "finish", "Lanes", "lane_contexts", "solve_groups",
           "lane_traces", "breakdown", "nonfinite", "root"]


class System:
    """One system after the shared set-up under its context ``ctx``:
    ``A`` quantized and frozen, ``b`` quantized, ``‖b‖`` and the start
    ``x = 0``, which a solver returns when ``norm_b`` is 0.  Raises
    ValueError naming the parameter for a negative *rtol* or
    *max_iterations* or a *restart* below 1, or naming the shapes of a
    system that is not square."""

    def __init__(self, ctx, A, b, rtol: float, max_iterations: int,
                 restart: int = 1):
        for name, value, least in (("rtol", rtol, 0),
                                   ("max_iterations", max_iterations, 0),
                                   ("restart", restart, 1)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value!r}")
        require_system(A, b)
        self.ctx = ctx
        self.A = freeze(ctx.asarray(A))
        self.b = ctx.asarray(np.asarray(b, dtype=np.float64))
        self.norm_b = float(np.linalg.norm(self.b))
        self.x = np.zeros(self.b.shape[0], dtype=np.float64)


def finish(result, system: System, x, iterations: int, residual,
           trace=None, *, converged: bool = False, diverged: bool = False,
           **fields):
    """*result* (a result dataclass) for iterate *x* of *system*.

    The computed residual norm *residual* is reported relative to
    ``‖b‖`` (inf when non-finite, absolute when ``b = 0``), and
    *trace*, when given, records the ``"finish"`` event.  Of the shared
    values, *result* gets those it has fields for; the true residual
    ``‖b − A·x‖/‖b‖`` (a float64 matvec) is computed only for a result
    with a ``true_relative_residual`` field.  *fields* are the
    result's own.
    """
    relative = (residual / (system.norm_b or 1.0)
                if math.isfinite(residual) else math.inf)
    if trace is not None:
        trace.event("finish", iter=iterations,
                    outcome=("converged" if converged else
                             "breakdown" if diverged else "budget"),
                    residual=relative)
    names = {f.name for f in dataclasses.fields(result)}
    shared = {"converged": converged, "diverged": diverged,
              "iterations": iterations, "relative_residual": relative,
              "x": x, "trace": trace}
    if "true_relative_residual" in names:
        shared["true_relative_residual"] = relative_backward_error(
            system.A, x, system.b)
    return result(**{k: v for k, v in shared.items() if k in names},
                  **fields)


def lane_contexts(ctx, systems, solver: str) -> list:
    """One context per entry of *systems*: *ctx* for each when it is
    one :class:`FPContext`, else *ctx* itself, one per system.  Raises
    ValueError for a count that does not match or for contexts of
    several summation orders."""
    contexts = ([ctx] * len(systems) if isinstance(ctx, FPContext)
                else list(ctx))
    if len(contexts) != len(systems):
        raise ValueError(f"{len(contexts)} contexts for {len(systems)} "
                         f"systems")
    if len({c.sum_order for c in contexts}) > 1:
        raise ValueError(f"{solver} lanes take contexts of one summation "
                         f"order")
    return contexts


def solve_groups(solver: str, contexts, prepare, solve,
                 always: bool = False) -> list:
    """The results of one system per entry of *contexts*, in order.

    ``prepare(k)`` sets system k up under ``contexts[k]``, and
    ``solve(prepared, traces)`` solves a group's prepared systems as
    lanes, each recording into its own entry of *traces*
    (:func:`lane_traces` of *solver*, *always*).  One group holds all
    systems whose formats round through two-level tables with one step
    (:attr:`~repro.formats.base.NumberFormat.table_step`), whatever
    their formats; every other format's systems form a group of their
    own, and so does every format under a fault injector, which draws
    its faults in one format.  Groups run in order of their first
    system, each prepared just before it runs.
    """
    groups: dict = {}
    for k, ctx in enumerate(contexts):
        injected = ctx.injector is not None or \
            get_active_injector() is not None
        key = ctx.fmt
        if ctx.fmt.table_step is not None and not injected:
            key = ("tables", ctx.fmt.table_step)
        groups.setdefault(key, []).append(k)
    results: list = [None] * len(contexts)
    with lane_traces(solver, [c.fmt.name for c in contexts],
                     always) as traces:
        for ks in groups.values():
            prepared = [prepare(k) for k in ks]
            # the set-up's shapes, one per system, never come back
            release_workspace()
            for k, result in zip(ks, solve(prepared,
                                           [traces[k] for k in ks])):
                results[k] = result
    return results


@contextmanager
def lane_traces(solver: str, fmts, always: bool = False) -> Iterator[list]:
    """The traces of lanes in formats *fmts* (their names): a
    :class:`SolverTrace` of its own format for each while a tracer is
    active (or *always*), else None each.

    They are bound to no tracer while the lanes run, so the lanes'
    events do not interleave; on exit, raise or not, each is published
    to the ambient tracer in lane order, so a trace file lists every
    system's events together and in system order, as runs one by one
    would.
    """
    traced = always or get_instrument("tracer") is not None
    traces = [SolverTrace(solver, fmt) if traced else None
              for fmt in fmts]
    try:
        yield traces
    finally:
        for trace in traces:
            if trace is not None:
                trace.publish()


class Lanes:
    """The live state of one run: one system on 1-D vectors with float
    scalars, or lanes with ``(B,)`` scalars, row k belonging to system
    ``ids[k]``.  Lanes of any orders lay their vectors end to end in
    one ``(N,)`` array (``segments``) against the lanes'
    block-diagonal operator: a :class:`~repro.arith.sparse.CSRStack`
    of CSR lanes or a :class:`~repro.kernels.zeroplan.DenseStack` of
    dense ones.

    A subclass names its per-lane fields, ``VECTORS`` and ``SCALARS``,
    each starting as the system's attribute of that name (else None),
    and ``ITEMS``, Python lists holding one object per lane (a lane's
    :class:`~repro.telemetry.SolverTrace` in ``traces``).  A CSR lane
    vector may carry leading axes, its lanes' entries on the last one
    (GMRES's basis).  The subclass builds a settled system's result in
    ``result(system, x, iterations, value, history, trace,
    **outcome)``.  :meth:`retire` drops settled lanes from every
    stacked field and keeps the stack of the lanes left (a dense one
    with their part of its fold tape); the last lane goes on as a
    single run on its own matrix.
    """

    VECTORS: tuple[str, ...] = ()
    SCALARS: tuple[str, ...] = ()
    ITEMS: tuple[str, ...] = ("traces",)

    __slots__ = ("A", "ctx", "systems", "ids", "stacked", "segments",
                 "history", "traces", "results")

    def __init__(self, systems: list, ids: list,
                 record_history: bool = False, traces=None):
        """The run of ``systems[k]`` for k in *ids*: lanes, or a single
        run when *ids* has one entry.  *traces* holds one trace (or
        None) per entry of *ids*; only a single run records a
        history."""
        self.systems, self.ids = systems, ids
        self.stacked = len(ids) > 1
        self.history = [] if record_history else None
        self.traces = list(traces) if traces is not None \
            else [None] * len(ids)
        self.segments, self.results = None, {}
        live = [systems[k] for k in ids]
        if not self.stacked:
            for name in ("A", "ctx") + self.VECTORS + self.SCALARS:
                setattr(self, name, getattr(live[0], name, None))
            return
        # each lane keeps its own matrix for its finish and for a run
        # alone as the last lane
        operator = CSRStack if isinstance(live[0].A, CSRMatrix) \
            else DenseStack
        self.A = operator.of([s.A for s in live])
        self.segments = self.A.segments
        for names, stack in ((self.VECTORS, np.concatenate),
                             (self.SCALARS, np.array)):
            for name in names:
                values = [getattr(s, name, None) for s in live]
                setattr(self, name,
                        None if values[0] is None else stack(values))
        self.ctx = self.lane_context(live, self.segments)

    @staticmethod
    def lane_context(live: list, segments):
        """The context the systems *live* round in as lanes laid out as
        *segments*: lanes of table formats round in one
        :class:`~repro.arith.context.LaneContext`, each lane in its own
        format (one format or several: one route); other lanes share
        the first one's context."""
        ctx = live[0].ctx
        if ctx.fmt.table_step is None:
            return ctx
        return LaneContext([s.ctx.fmt for s in live], segments,
                           ctx.sum_order, ctx.injector, ctx.collector)

    def subset(self, rows):
        """The context and segments of the lanes *rows* (a mask)
        alone, for a call that rounds only their entries: each lane
        keeps its own format."""
        segments = LaneSegments(self.segments.sizes[rows])
        live = [self.systems[self.ids[row]] for row in np.flatnonzero(rows)]
        return self.lane_context(live, segments), segments

    def per_lane(self, scalar):
        """*scalar* shaped to scale each lane's entries of a vector."""
        if not self.stacked:
            return scalar
        return self.segments.expand(scalar)

    def _lane(self, vector, row: int):
        """Lane *row*'s part of a stacked vector (a view)."""
        offsets = self.segments.offsets
        return vector[..., offsets[row]:offsets[row + 1]]

    def record(self, iterations: int, residual, vectors) -> None:
        """One iteration event in each trace: its lane's *residual* (a
        float, or one per lane) and its peak ``|entry|`` over its own
        entries of *vectors*.  Per lane, the vectors' maxima combine by
        Python's ``max`` in the order given, as
        :meth:`SolverTrace.iteration` combines a single run's, so a NaN
        peak comes out as it does alone."""
        if self.traces[0] is None:
            return
        if not self.stacked:
            self.traces[0].iteration(iterations, residual=residual,
                                     vectors=vectors)
            return
        starts = self.segments.offsets[:-1]
        with np.errstate(invalid="ignore"):
            maxima = [np.maximum.reduceat(np.abs(v), starts)
                      for v in vectors]
        for row, trace in enumerate(self.traces):
            trace.iteration(iterations, residual=residual[row],
                            peak=max(float(m[row]) for m in maxima))

    def retire(self, iterations, flags, field: str, **outcome) -> bool:
        """Settle the run or lanes *flags* marks as *outcome*, reporting
        *field* after *iterations* (one count, or one per lane); True
        when none is left."""
        if not self.stacked:
            if not flags:
                return False
            k = self.ids[0]
            self.results[k] = self.result(
                self.systems[k], self.x, int(iterations),
                getattr(self, field), self.history or [], self.traces[0],
                **outcome)
            return True
        if flags is True:
            flags = np.ones(len(self.ids), dtype=bool)
        elif not flags.any():
            return False
        value = getattr(self, field)
        counts = np.broadcast_to(iterations, flags.shape)
        for row in np.flatnonzero(flags):
            k = self.ids[row]
            self.results[k] = self.result(
                self.systems[k], self._lane(self.x, row).copy(),
                int(counts[row]), float(value[row]), [], self.traces[row],
                **outcome)
        rows = np.flatnonzero(~flags)
        # no later step rounds the old stack's array sizes again
        release_workspace()
        if rows.size == 0:
            return True
        self.ids = [self.ids[row] for row in rows]
        if rows.size == 1:
            # the last lane: its own matrix, 1-D vectors and float
            # scalars
            row = rows[0]
            self.A = self.systems[self.ids[0]].A
            self.ctx = self.systems[self.ids[0]].ctx
            self._select(rows, lambda v: self._lane(v, row).copy(),
                         lambda v: v[row].item())
            self.stacked = False
            self.segments = None
        else:
            keep = self.segments.expand(~flags)
            self.A = self.A.subset(rows)
            self.segments = self.A.segments
            # contiguous rows: the float64 context's BLAS dots sum a
            # strided vector in another order
            self._select(rows, lambda v: np.ascontiguousarray(v[..., keep]),
                         lambda v: v[rows])
            self.ctx = self.lane_context([self.systems[k]
                                          for k in self.ids],
                                         self.segments)
        return False

    def _select(self, rows, vector, scalar) -> None:
        """Keep lanes *rows*: every per-lane field becomes *vector* or
        *scalar* of it, every item list its entries *rows*."""
        for names, pick in ((self.VECTORS, vector), (self.SCALARS, scalar)):
            for name in names:
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, pick(value))
        for name in self.ITEMS:
            items = getattr(self, name)
            if items is not None:
                setattr(self, name, [items[row] for row in rows])


# Shape-generic pieces of an iteration body: a single run's scalars are
# Python floats (np.float64 in the float64 context), a lane run's are
# (B,) arrays.

def breakdown(pAp):
    """``pAp`` is non-finite or zero."""
    if isinstance(pAp, np.ndarray):
        return ~np.isfinite(pAp) | (pAp == 0.0)
    return not math.isfinite(pAp) or pAp == 0.0


def nonfinite(*values):
    """One of *values* is non-finite."""
    if isinstance(values[0], np.ndarray):
        finite = np.isfinite(values[0])
        for value in values[1:]:
            finite &= np.isfinite(value)
        return ~finite
    return not all(math.isfinite(v) for v in values)


def root(rr):
    """``√max(rr, 0)`` of a float, or of each lane's value."""
    if isinstance(rr, np.ndarray):
        return np.sqrt(np.maximum(rr, 0.0))
    return float(np.sqrt(max(rr, 0.0)))
