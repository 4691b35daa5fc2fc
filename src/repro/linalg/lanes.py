"""What the Krylov solvers share: one set-up, one finish, lane state.

CG, BiCG, BiCGSTAB and GMRES all start from a :class:`System` and
settle through :func:`finish`, so all of them reject a bad budget at
entry, report ``b = 0`` as solved after no iteration, and measure their
residuals alike.  :class:`Lanes` runs one system or several as lockstep
lanes (``docs/performance.md`` §10–§13); CG, BiCGSTAB and GMRES each
subclass it as their module's ``_State``, and give every lane its own
trace through :func:`lane_traces`.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..arith.context import get_instrument
from ..arith.shapes import require_system
from ..arith.sparse import CSRMatrix, CSRStack
from ..kernels.lut import release_workspace
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace
from .norms import relative_backward_error

__all__ = ["System", "finish", "Lanes", "lane_traces", "breakdown",
           "nonfinite", "root"]


class System:
    """One system after the shared set-up: ``A`` quantized and frozen,
    ``b`` quantized, ``‖b‖`` and the start ``x = 0``, which a solver
    returns when ``norm_b`` is 0.  Raises ValueError naming the
    parameter for a negative *rtol* or *max_iterations* or a *restart*
    below 1, or naming the shapes of a system that is not square."""

    def __init__(self, ctx, A, b, rtol: float, max_iterations: int,
                 restart: int = 1):
        for name, value, least in (("rtol", rtol, 0),
                                   ("max_iterations", max_iterations, 0),
                                   ("restart", restart, 1)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value!r}")
        require_system(A, b)
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


@contextmanager
def lane_traces(solver: str, fmt: str, count: int,
                always: bool = False) -> Iterator[list]:
    """*count* lanes' traces: a :class:`SolverTrace` each while a tracer
    is active (or *always*), else None each.

    They are bound to no tracer while the lanes run, so the lanes'
    events do not interleave; on exit, raise or not, each is published
    to the ambient tracer in lane order, so a trace file lists every
    system's events together and in system order, as runs one by one
    would.
    """
    traced = always or get_instrument("tracer") is not None
    traces = [SolverTrace(solver, fmt) if traced else None
              for _ in range(count)]
    try:
        yield traces
    finally:
        for trace in traces:
            if trace is not None:
                trace.publish()


class Lanes:
    """The live state of one run: one system on 1-D vectors with float
    scalars, or lanes with ``(B,)`` scalars, row k belonging to system
    ``ids[k]``.  Dense lanes stack their vectors as ``(B, n)`` rows;
    ragged CSR lanes lay them end to end in one ``(N,)`` array
    (``segments``) against the lanes' block-diagonal
    :class:`~repro.arith.sparse.CSRStack`.

    A subclass names its per-lane fields, ``VECTORS`` and ``SCALARS``,
    each starting as the system's attribute of that name (else None),
    and ``ITEMS``, Python lists holding one object per lane (a lane's
    :class:`~repro.telemetry.SolverTrace` in ``traces``).  A CSR lane
    vector may carry leading axes, its lanes' entries on the last one
    (GMRES's basis).  The subclass builds a settled system's result in
    ``result(system, x, iterations, value, history, trace,
    **outcome)``.  :meth:`retire` drops settled lanes from every
    stacked field, rebuilding a CSR stack from the lanes left; the last
    lane goes on as a single run on its own matrix.
    """

    VECTORS: tuple[str, ...] = ()
    SCALARS: tuple[str, ...] = ()
    ITEMS: tuple[str, ...] = ("traces",)

    __slots__ = ("A", "systems", "ids", "stacked", "segments", "history",
                 "traces", "results")

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
            for name in ("A",) + self.VECTORS + self.SCALARS:
                setattr(self, name, getattr(live[0], name, None))
            return
        # each lane keeps its own matrix for its finish and for a run
        # alone as the last lane
        if isinstance(live[0].A, CSRMatrix):
            self.A = CSRStack.of([s.A for s in live])
            self.segments = self.A.segments
            join = np.concatenate
        else:
            self.A = freeze(np.stack([s.A for s in live]))
            join = np.stack
        for names, stack in ((self.VECTORS, join), (self.SCALARS, np.array)):
            for name in names:
                values = [getattr(s, name, None) for s in live]
                setattr(self, name,
                        None if values[0] is None else stack(values))

    def per_lane(self, scalar):
        """*scalar* shaped to scale each lane's entries of a vector."""
        if not self.stacked:
            return scalar
        if self.segments is not None:
            return self.segments.expand(scalar)
        return scalar[:, np.newaxis]

    def _lane(self, vector, row: int):
        """Lane *row*'s part of a stacked vector (a view)."""
        if self.segments is None:
            return vector[row]
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
        with np.errstate(invalid="ignore"):
            if self.segments is None:
                maxima = [np.max(np.abs(v), axis=-1) for v in vectors]
            else:
                starts = self.segments.offsets[:-1]
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
        if self.segments is not None:
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
            self._select(rows, lambda v: self._lane(v, row).copy(),
                         lambda v: v[row].item())
            self.stacked = False
            self.segments = None
        elif self.segments is None:
            self.A = freeze(self.A[rows])
            self._select(rows, lambda v: v[rows], lambda v: v[rows])
        else:
            keep = self.segments.expand(~flags)
            self.A = CSRStack.of([self.A.lanes[row] for row in rows])
            self.segments = self.A.segments
            # contiguous rows: the float64 context's BLAS dots sum a
            # strided vector in another order
            self._select(rows, lambda v: np.ascontiguousarray(v[..., keep]),
                         lambda v: v[rows])
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
