"""Trace events: JSON-lines sinks, timing spans, solver recorders.

Three cooperating pieces:

:class:`Tracer`
    An append-only in-memory event buffer flushed to a JSON-lines file
    with one atomic write (``resilience.atomic``) — a killed run leaves
    either the previous complete trace or none, never a truncated one.
    One event per line, every event a flat JSON object with a ``type``
    key (``meta`` / ``span`` / ``solver`` / ``counters``).

:func:`span`
    A timing context manager.  ``with span("cell.compute", cell=...)``
    emits a ``span`` event with the block's wall-clock duration into
    the ambient tracer — or does nothing (one dict lookup) when no
    tracer is installed, so spans are safe to leave in hot paths.

:class:`SolverTrace`
    The per-iteration recorder every solver in :mod:`repro.linalg`
    emits into: residual norms, iterate peak magnitudes, breakdown and
    recovery flags.  It replaces the ad-hoc ``iterate_peaks`` list
    that bicg used to thread through by hand.  Solvers buffer into it
    unconditionally (appends are cheap next to a matvec) and
    :meth:`SolverTrace.publish` forwards to the ambient tracer only
    when one is active.

:func:`trace_session` bundles all of it for a whole experiment run:
install a fresh :class:`~repro.telemetry.collector.Collector` and
:class:`Tracer`, force the result cache off (a warm cache would skip
the arithmetic and zero every counter), and on exit append the
collector's per-site counters to the trace and flush it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from ..arith.context import get_instrument, set_instrument
from .collector import Collector

__all__ = ["SolverTrace", "TraceSession", "Tracer", "active_tracer",
           "maybe_trace", "span", "trace_session", "traces_dir",
           "tracing"]

TRACE_SCHEMA = 1


def traces_dir() -> str:
    """The output directory for trace files (created on demand).

    ``<results_dir>/traces`` — so ``REPRO_RESULTS_DIR`` relocates
    traces together with the CSVs they describe.
    """
    from ..analysis.reporting import results_dir

    path = os.path.join(results_dir(), "traces")
    os.makedirs(path, exist_ok=True)
    return path


class Tracer:
    """Buffered JSON-lines event sink with atomic flush.

    Events accumulate in memory (experiment traces are thousands of
    events, not millions) and :meth:`flush` publishes them in a single
    atomic rename, so a trace file that exists is complete.
    """

    def __init__(self, path: str | None = None,
                 label: str | None = None) -> None:
        self.path = path
        self.events: list[dict] = []
        self.emit("meta", schema=TRACE_SCHEMA, label=label)

    def emit(self, type: str, **fields) -> dict:  # noqa: A002
        """Append one event; returns the event dict (still mutable)."""
        event = {"type": type, **fields}
        self.events.append(event)
        return event

    def flush(self, path: str | None = None) -> str | None:
        """Atomically write all buffered events as JSON lines.

        Uses *path* if given, else the constructor path; returns the
        path written (None when the tracer has nowhere to write — a
        purely in-memory tracer, as the solver unit tests use).
        """
        target = path or self.path
        if target is None:
            return None
        # deferred: resilience.__init__ pulls in the solver stack,
        # which itself imports this module for SolverTrace
        from ..resilience.atomic import atomic_open
        with atomic_open(target, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True,
                                    allow_nan=True) + "\n")
        return target

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.events)} events -> {self.path}>"


def active_tracer() -> Tracer | None:
    """The ambient tracer, or None when tracing is off."""
    return get_instrument("tracer")


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer ambiently for the duration of the block."""
    t = tracer if tracer is not None else Tracer()
    previous = set_instrument("tracer", t)
    try:
        yield t
    finally:
        set_instrument("tracer", previous)


@contextmanager
def span(name: str, **fields) -> Iterator[None]:
    """Time a block and emit a ``span`` event to the ambient tracer.

    Free (one registry lookup) when no tracer is installed.  Extra
    keyword fields land verbatim on the event, e.g.::

        with span("cell.compute", cell=cell.cell_id):
            value = compute_cell(cell, scale)
    """
    tracer = get_instrument("tracer")
    if tracer is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        tracer.emit("span", name=name,
                    seconds=time.perf_counter() - start, **fields)


class SolverTrace:
    """Per-iteration event recorder for one solver run.

    Solvers append one :meth:`iteration` per step (residual norm,
    optional iterate-peak magnitude computed from the work vectors)
    and one :meth:`event` per exceptional episode (``breakdown``,
    ``recovery``, ``pivot``).  The buffered events double as the
    result-object telemetry (``residuals`` / ``peaks`` /
    :attr:`peak_dynamic_range`) and, via :meth:`publish`, as trace
    events.
    """

    def __init__(self, solver: str, fmt: str | None = None,
                 tracer: Tracer | None = None) -> None:
        self.solver = solver
        self.fmt = fmt
        self.tracer = tracer
        self.events: list[dict] = []
        self.residuals: list[float] = []
        self.peaks: list[float] = []
        self._published = 0

    def _record(self, event: dict) -> None:
        self.events.append(event)
        if self.tracer is not None:
            # eager forwarding: a crash mid-solve still leaves the
            # iterations recorded so far in the tracer's buffer
            self.tracer.events.append(dict(event))
            self._published = len(self.events)

    def iteration(self, index: int, residual: float | None = None,
                  vectors: Sequence[np.ndarray] = (),
                  peak: float | None = None, **fields) -> None:
        """Record one solver iteration.

        *vectors* are the live work vectors; their joint max ``|entry|``
        is the paper's §VI "dynamic range of the iterates" quantity.
        A solver that has that maximum already (lanes take each lane's
        at once) passes it as *peak* instead.
        """
        event = {"type": "solver", "solver": self.solver,
                 "format": self.fmt, "event": "iteration", "iter": index}
        if residual is not None:
            residual = float(residual)
            self.residuals.append(residual)
            event["residual"] = residual
        if vectors:
            with np.errstate(invalid="ignore"):
                peak = max(float(np.max(np.abs(v))) for v in vectors)
        if peak is not None:
            peak = float(peak)
            self.peaks.append(peak)
            event["peak"] = peak
        event.update(fields)
        self._record(event)

    def event(self, kind: str, **fields) -> None:
        """Record a non-iteration episode (breakdown/recovery/pivot)."""
        self._record({"type": "solver", "solver": self.solver,
                      "format": self.fmt, "event": kind, **fields})

    @property
    def iterations(self) -> int:
        return sum(1 for e in self.events if e["event"] == "iteration")

    @property
    def peak_dynamic_range(self) -> float:
        """log10(max peak / min peak) across the recorded iterations."""
        peaks = [p for p in self.peaks if p > 0 and np.isfinite(p)]
        if not peaks:
            return np.inf
        return float(np.log10(max(peaks) / min(peaks)))

    def publish(self, tracer: Tracer | None = None) -> None:
        """Forward buffered events to *tracer* (bound, else ambient).

        A no-op when no tracer is active; safe to call repeatedly —
        only events recorded since the last publish are forwarded.
        """
        target = tracer or self.tracer or get_instrument("tracer")
        if target is None:
            return
        for event in self.events[self._published:]:
            target.events.append(dict(event))
        self._published = len(self.events)

    def __repr__(self) -> str:
        return (f"<SolverTrace {self.solver}/{self.fmt} "
                f"{self.iterations} iterations>")


def maybe_trace(solver: str, fmt: str | None = None,
                trace: SolverTrace | None = None,
                always: bool = False) -> SolverTrace | None:
    """The solver's trace: the caller's, else a fresh ambient-bound one.

    Returns None when no explicit trace was passed and no ambient
    tracer is active — solvers guard their emissions on that, so an
    un-traced run buffers nothing.  With ``always=True`` a trace is
    returned regardless (bicg uses this: its result object exposes the
    iterate-peak telemetry unconditionally).
    """
    if trace is not None:
        return trace
    tracer = get_instrument("tracer")
    if tracer is None and not always:
        return None
    return SolverTrace(solver, fmt, tracer=tracer)


class TraceSession:
    """Live handles of one :func:`trace_session` block."""

    def __init__(self, collector: Collector, tracer: Tracer,
                 path: str | None, label: str | None) -> None:
        self.collector = collector
        self.tracer = tracer
        self.path = path
        self.label = label

    def __repr__(self) -> str:
        return f"<TraceSession {self.label!r} -> {self.path}>"


@contextmanager
def trace_session(path: str | None = None,
                  label: str | None = None) -> Iterator[TraceSession]:
    """Trace a whole run: collector + tracer + cache off + one file.

    * installs a fresh :class:`Collector` and :class:`Tracer` ambiently;
    * forces ``REPRO_CACHE=off`` for the duration (cache hits skip the
      arithmetic entirely, which would zero the counters and make them
      depend on cache temperature instead of on the computation — cold
      counts are what is reproducible run-to-run);
    * on exit appends the collector's per-(site, format) ``counters``
      events and flushes the trace file atomically.

    *path* defaults to ``<results>/traces/<label>.jsonl`` (label
    defaults to ``"trace"``), so repeated runs of the same experiment
    overwrite one deterministic file.
    """
    if path is None:
        path = os.path.join(traces_dir(), f"{label or 'trace'}.jsonl")
    tracer = Tracer(path, label=label)
    collector = Collector()
    prev_cache = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "off"
    prev_collector = set_instrument("collector", collector)
    prev_tracer = set_instrument("tracer", tracer)
    session = TraceSession(collector, tracer, path, label)
    try:
        yield session
    finally:
        set_instrument("tracer", prev_tracer)
        set_instrument("collector", prev_collector)
        if prev_cache is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = prev_cache
        for event in collector.events():
            tracer.events.append(event)
        tracer.flush()
