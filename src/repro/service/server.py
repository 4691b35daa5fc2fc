"""The asyncio experiment server: one cache, one fleet, many clients.

:class:`ExperimentServer` listens on a unix socket or localhost TCP
and speaks the JSON-lines protocol of :mod:`repro.service.protocol`.
Every client shares three process-wide resources:

* the **content-addressed result cache** — a cell any client ever
  computed is a warm hit for every later client;
* the **in-flight table** — identical cells requested concurrently
  (by one client or many) are *coalesced* onto a single computation
  (singleflight keyed on ``(scale, cell_id)``), so a thundering herd
  of overlapping sweeps costs one grid, not N;
* the **supervised worker fleet** — a ``keep_alive``
  :class:`~repro.supervise.pool.SupervisedPool` per scale, whose
  workers (and their warm matrix caches) persist across batches and
  whose watchdog/respawn/quarantine machinery keeps one poisoned cell
  from sinking anybody's sweep.

Scheduling is **batched**: submitted cells gather for ``batch_delay``
seconds (coalescing window), then run as one engine batch per scale.
Batches run on a dedicated thread through the very same
:func:`repro.experiments.engine.execute_request` call the runner CLI
uses — which is the determinism argument: a sweep through the service
produces byte-identical CSV artifacts to ``python -m repro.experiments
... --jobs N``, because both are that one engine and one assembler.

Backpressure is two bounded queues per client: at most
``max_pending_jobs`` jobs in flight (excess submits get a ``busy``
error; clients retry with the shared backoff schedule), and an event
queue of ``event_queue_size`` progress messages (a client that stops
reading loses *progress events*, counted in ``events_dropped`` — never
``accepted`` / ``result`` / ``error`` replies, which block the job
task instead).
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import time
from typing import Any

import numpy as np

from ..config import SCALES
from ..experiments.cache import cache_stats
from ..experiments.common import Cell
from ..experiments.engine import CellOutcome, execute_request
from ..experiments.registry import get_experiment
from ..request import RunRequest
from ..telemetry.trace import span
from .protocol import (PROTOCOL_VERSION, Accepted, Bye, CellEvent,
                       ErrorReply, Hello, JobResult, ProtocolError,
                       StatusReply, StatusRequest, SubmitCells,
                       SubmitExperiments, SubmitQuantize, Welcome,
                       check_version, decode, encode)

__all__ = ["ExperimentServer", "ServiceStats"]

#: refuse quantize batches beyond this (one JSON line, one event loop)
_MAX_QUANTIZE_VALUES = 100_000


class ServiceStats:
    """Process-wide service counters, exported through ``status``."""

    __slots__ = ("connections", "requests", "jobs_submitted",
                 "jobs_completed", "jobs_failed", "jobs_rejected",
                 "cells_requested", "cells_computed", "cells_cached",
                 "cells_failed", "coalesce_hits", "batches",
                 "events_dropped", "max_queue_depth")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Conn:
    """One client connection: its writer task and bounded queues."""

    def __init__(self, server: "ExperimentServer",
                 writer: asyncio.StreamWriter, name: str = "?"):
        self.server = server
        self.writer = writer
        self.name = name
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=server.event_queue_size)
        self.active_jobs = 0
        self.closed = False

    async def send(self, message: Any) -> None:
        """Deliver a must-arrive message (blocks when the queue is full:
        backpressure lands on the sending job, not on the executor)."""
        if not self.closed:
            await self.queue.put(message)

    def post_event(self, message: Any) -> None:
        """Best-effort progress event; dropped (and counted) when the
        client has stopped draining its bounded queue."""
        if self.closed:
            return
        try:
            self.queue.put_nowait(message)
        except asyncio.QueueFull:
            self.server.stats.events_dropped += 1
        depth = self.queue.qsize()
        if depth > self.server.stats.max_queue_depth:
            self.server.stats.max_queue_depth = depth

    async def drain_to_socket(self) -> None:
        """Writer task body: serialize the queue onto the socket."""
        try:
            while True:
                message = await self.queue.get()
                if message is None:         # close sentinel
                    break
                self.writer.write(encode(message).encode("utf-8"))
                await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed = True


class ExperimentServer:
    """Multi-tenant experiment service over the supervised cell engine.

    *request* carries the server-side execution knobs (jobs, timeout,
    retries, backoff, grace, max_worker_deaths) — one fleet, one
    contract; a submitted job's own :class:`~repro.request.RunRequest`
    chooses the *scale*.  A job that asks for a *trace* is refused
    with an :class:`ErrorReply` naming the knob: the server runs
    untraced and records nothing to a job's trace file.  Listen
    on ``socket_path`` (unix domain socket) or ``host:port`` TCP;
    ``port=0`` picks a free port, readable from :attr:`address` after
    :meth:`start`.
    """

    def __init__(self, *, socket_path: str | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 request: RunRequest | None = None,
                 max_pending_jobs: int = 8,
                 event_queue_size: int = 256,
                 batch_delay: float = 0.05,
                 name: str = "repro.service"):
        if max_pending_jobs < 1:
            raise ValueError(f"max_pending_jobs must be >= 1, "
                             f"got {max_pending_jobs}")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.request = request if request is not None else RunRequest.make()
        self.max_pending_jobs = int(max_pending_jobs)
        self.event_queue_size = int(event_queue_size)
        self.batch_delay = float(batch_delay)
        self.name = name
        self.stats = ServiceStats()
        self.started_at: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor_task: asyncio.Task | None = None
        self._closing = False
        #: (scale_name, cell_id) → future resolving to a CellOutcome;
        #: the singleflight table every job's cells register through
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        #: cells admitted but not yet dispatched in a batch
        self._queued: dict[tuple[str, str], Cell] = {}
        self._wakeup: asyncio.Event | None = None
        #: scale name → keep_alive SupervisedPool (jobs > 1 only)
        self._pools: dict[str, Any] = {}
        self._supervision_reports: list[dict] = []

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._executor_task = asyncio.create_task(self._executor_loop())

    @property
    def address(self) -> str:
        """The client-facing address string (``unix:path`` / ``host:port``)."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, finish nothing new, shut the fleet down."""
        self._closing = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._executor_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._executor_task
        # fail anything still unresolved so no client hangs forever
        for fut in self._inflight.values():
            if not fut.done():
                fut.cancel()
        self._inflight.clear()
        self._queued.clear()
        pools, self._pools = dict(self._pools), {}
        if pools:
            await asyncio.to_thread(
                lambda: [p.shutdown() for p in pools.values()])

    # -- connection handling ---------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        conn = _Conn(self, writer)
        writer_task = asyncio.create_task(conn.drain_to_socket())
        try:
            # handshake: Hello must be the first line
            try:
                hello = decode(await reader.readline())
                if not isinstance(hello, Hello):
                    raise ProtocolError(
                        f"expected hello, got {type(hello).__name__}",
                        hint="open every connection with a hello message")
                check_version(hello.version)
            except ProtocolError as exc:
                await conn.send(ErrorReply(None, str(exc), exc.hint))
                return
            conn.name = hello.client
            await conn.send(Welcome(server=self.name))

            while not self._closing:
                line = await reader.readline()
                if not line:
                    break
                self.stats.requests += 1
                try:
                    message = decode(line)
                except ProtocolError as exc:
                    await conn.send(ErrorReply(None, str(exc), exc.hint))
                    continue
                if isinstance(message, Bye):
                    break
                with span("service.request",
                          type=type(message).__name__):
                    await self._dispatch(conn, message)
        except (ConnectionError, OSError):
            pass
        finally:
            await conn.queue.put(None)
            with contextlib.suppress(Exception):
                await writer_task
            conn.closed = True
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, conn: _Conn, message: Any) -> None:
        if isinstance(message, (SubmitExperiments, SubmitCells)):
            if message.request.trace:
                self.stats.jobs_rejected += 1
                await conn.send(ErrorReply(
                    message.id, "the service does not serve the 'trace' "
                                "knob",
                    hint="submit with trace=False, or trace in-process: "
                         "python -m repro.experiments ... --trace"))
                return
            if conn.active_jobs >= self.max_pending_jobs:
                self.stats.jobs_rejected += 1
                await conn.send(ErrorReply(
                    message.id, "busy",
                    hint=f"per-client job bound ({self.max_pending_jobs}) "
                         f"reached; retry with backoff"))
                return
            conn.active_jobs += 1
            self.stats.jobs_submitted += 1
            asyncio.create_task(self._run_job(conn, message))
        elif isinstance(message, SubmitQuantize):
            await self._run_quantize(conn, message)
        elif isinstance(message, StatusRequest):
            await conn.send(StatusReply(message.id, self._status()))
        elif isinstance(message, (Hello, Welcome)):
            await conn.send(ErrorReply(
                None, "already connected",
                hint="hello is only valid as the first message"))
        else:
            await conn.send(ErrorReply(
                None, f"unexpected message {type(message).__name__}",
                hint="clients send submit-*/status/bye"))

    # -- jobs ------------------------------------------------------------
    async def _run_job(self, conn: _Conn,
                       message: SubmitExperiments | SubmitCells) -> None:
        try:
            await self._run_job_inner(conn, message)
        except Exception as exc:  # a job must never take the server down
            self.stats.jobs_failed += 1
            with contextlib.suppress(Exception):
                await conn.send(JobResult(
                    message.id, "failed",
                    error=f"{type(exc).__name__}: {exc}"))
        finally:
            conn.active_jobs -= 1

    async def _run_job_inner(self, conn: _Conn,
                             message: SubmitExperiments | SubmitCells
                             ) -> None:
        request = message.request
        scale = request.run_scale
        experiment_ids: tuple[str, ...] = ()
        if isinstance(message, SubmitExperiments):
            experiment_ids = tuple(dict.fromkeys(message.experiments))
            try:
                specs = [get_experiment(eid) for eid in experiment_ids]
            except KeyError as exc:
                self.stats.jobs_failed += 1
                await conn.send(ErrorReply(
                    message.id, str(exc),
                    hint="see `python -m repro.experiments list`"))
                return
            cells = [c for spec in specs
                     for c in spec.enumerate_cells(scale)]
        else:
            cells = [spec.to_cell() for spec in message.cells]
        cells = list(dict.fromkeys(cells))
        await conn.send(Accepted(message.id, cells=len(cells)))
        self.stats.cells_requested += len(cells)

        # register every cell with the singleflight table
        waits: list[tuple[Cell, asyncio.Future, bool]] = []
        for cell in cells:
            key = (scale.name, cell.cell_id)
            fut = self._inflight.get(key)
            coalesced = fut is not None
            if coalesced:
                self.stats.coalesce_hits += 1
            else:
                fut = self._loop.create_future()
                self._inflight[key] = fut
                self._queued[key] = cell
            waits.append((cell, fut, coalesced))
        if self._queued:
            self._wakeup.set()

        # stream outcomes in submission order
        tally = {"completed": 0, "cached": 0, "failed": 0, "timeout": 0,
                 "poisoned": 0, "coalesced": 0}
        failures: list[str] = []
        for seq, (cell, fut, coalesced) in enumerate(waits, start=1):
            try:
                outcome: CellOutcome = await fut
            except asyncio.CancelledError:
                raise RuntimeError("server shutting down") from None
            status = outcome.status
            tally[status] = tally.get(status, 0) + 1
            if coalesced:
                tally["coalesced"] += 1
            if not outcome.ok:
                failures.append(f"{cell.cell_id}: {status}"
                                + (f" ({outcome.error})"
                                   if outcome.error else ""))
            conn.post_event(CellEvent(
                message.id, seq, cell.cell_id, status,
                duration=round(outcome.duration, 4),
                coalesced=coalesced, error=outcome.error))

        # phase 2: assemble experiment artifacts from the warm cache
        results: dict[str, Any] = {}
        ok = not failures
        for eid in experiment_ids:
            if failures:
                results[eid] = {"status": "failed", "csv_path": None,
                                "error": f"{len(failures)} cell(s) "
                                         f"failed: {failures[0]}"}
                continue
            try:
                with span("service.assemble", experiment=eid):
                    result = await asyncio.to_thread(
                        self._assemble, eid, scale)
                results[eid] = {"status": "completed",
                                "csv_path": result.csv_path,
                                "error": None}
            except Exception as exc:
                ok = False
                results[eid] = {"status": "failed", "csv_path": None,
                                "error": f"{type(exc).__name__}: {exc}"}
        if ok:
            self.stats.jobs_completed += 1
        else:
            self.stats.jobs_failed += 1
        await conn.send(JobResult(
            message.id, "completed" if ok else "failed",
            experiments=results, cells=tally,
            error="; ".join(failures[:3]) or None))

    @staticmethod
    def _assemble(eid: str, scale) -> Any:
        from ..experiments.runner import run_experiment

        return run_experiment(eid, scale=scale, quiet=True)

    async def _run_quantize(self, conn: _Conn,
                            message: SubmitQuantize) -> None:
        total = len(message.values)
        if total > _MAX_QUANTIZE_VALUES:
            await conn.send(ErrorReply(
                message.id,
                f"quantize batch too large ({total} > "
                f"{_MAX_QUANTIZE_VALUES})",
                hint="split the batch across several requests"))
            return
        try:
            from ..arith.context import FPContext

            ctx = FPContext(message.fmt)
            rounded = np.asarray(ctx.round(
                np.asarray(message.values, dtype=np.float64)))
            values = tuple(float(v) for v in np.atleast_1d(rounded))
        except Exception as exc:
            await conn.send(ErrorReply(
                message.id, f"{type(exc).__name__}: {exc}",
                hint="see repro.formats.available_formats() for names"))
            return
        self.stats.jobs_submitted += 1
        self.stats.jobs_completed += 1
        await conn.send(JobResult(message.id, "completed", values=values))

    # -- the batch executor ----------------------------------------------
    async def _executor_loop(self) -> None:
        """Gather queued cells, run one engine batch per scale, settle."""
        assert self._wakeup is not None
        while not self._closing:
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                continue
            self._wakeup.clear()
            if self._closing:
                break
            # the coalescing window: let concurrent submits pile in
            await asyncio.sleep(self.batch_delay)
            while self._queued and not self._closing:
                scale_name = next(iter(self._queued))[0]
                keys = [k for k in self._queued if k[0] == scale_name]
                batch = [self._queued.pop(k) for k in keys]
                self.stats.batches += 1
                with span("service.batch", scale=scale_name,
                          cells=len(batch)):
                    await asyncio.to_thread(self._run_batch, scale_name,
                                            batch)

    def _pool_for(self, scale_name: str):
        """The keep-alive fleet for one scale (None when jobs == 1)."""
        if self.request.jobs <= 1:
            return None
        pool = self._pools.get(scale_name)
        if pool is None:
            from ..supervise.pool import SupervisedPool

            pool = SupervisedPool(
                self.request.jobs, SCALES[scale_name],
                timeout=self.request.timeout, grace=self.request.grace,
                retries=self.request.retries,
                backoff=self.request.backoff,
                max_worker_deaths=self.request.max_worker_deaths,
                keep_alive=True)
            self._pools[scale_name] = pool
        return pool

    def _run_batch(self, scale_name: str, batch: list[Cell]) -> None:
        """Thread body: one engine batch; outcomes marshalled back."""
        def on_outcome(outcome: CellOutcome) -> None:
            self._loop.call_soon_threadsafe(self._settle, scale_name,
                                            outcome)

        def on_report(report) -> None:
            payload = {"scale": scale_name, **report.as_dict()}
            self._loop.call_soon_threadsafe(
                self._supervision_reports.append, payload)

        try:
            execute_request(
                batch, self.request.replace(scale=scale_name),
                on_outcome=on_outcome, on_report=on_report,
                pool=self._pool_for(scale_name))
        except Exception as exc:  # engine is defensive; belt and braces
            print(f"!! service batch failed "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)
            for cell in batch:
                self._loop.call_soon_threadsafe(
                    self._settle, scale_name,
                    CellOutcome(cell, "failed", 0.0,
                                f"batch error: {exc}"))

    def _settle(self, scale_name: str, outcome: CellOutcome) -> None:
        """Event-loop side: resolve the cell's singleflight future."""
        if outcome.status == "completed":
            self.stats.cells_computed += 1
        elif outcome.status == "cached":
            self.stats.cells_cached += 1
        else:
            self.stats.cells_failed += 1
        fut = self._inflight.pop((scale_name, outcome.cell.cell_id),
                                 None)
        if fut is not None and not fut.done():
            fut.set_result(outcome)

    # -- status ----------------------------------------------------------
    def _status(self) -> dict[str, Any]:
        return {
            "server": self.name,
            "address": self.address,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": (round(time.time() - self.started_at, 1)
                         if self.started_at else 0.0),
            "jobs": self.request.jobs,
            "inflight_cells": len(self._inflight),
            "queued_cells": len(self._queued),
            "pools": {name: pool.report.as_dict()
                      for name, pool in self._pools.items()},
            "supervision_reports": len(self._supervision_reports),
            "cache": cache_stats().as_dict(),
            **self.stats.as_dict(),
        }
