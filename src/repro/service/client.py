"""Client library for the experiment service: async and sync variants.

:class:`AsyncClient` is the native surface — a thin multiplexer over
one socket that can hold several jobs in flight and streams per-cell
progress through ``on_event`` callbacks.  :class:`Client` wraps it for
synchronous code (and the ``python -m repro.service submit`` CLI) by
owning a private event loop on a background thread; it additionally
honors the service's backpressure contract out of the box, retrying
``busy`` rejections with the engine's jittered exponential backoff
schedule.

Addresses are strings: ``unix:/path/to.sock`` for a unix domain
socket, ``host:port`` for TCP.

>>> from repro.service.client import Client
>>> with Client("unix:/tmp/repro.sock") as c:        # doctest: +SKIP
...     result = c.submit_experiments(["fig6"], scale="smoke")
...     print(result.experiments["fig6"]["csv_path"])
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from ..experiments.common import Cell
from ..request import RunRequest
from ..resilience.isolation import backoff_delays, jittered
from .protocol import (Accepted, Bye, CellEvent, CellSpec, ErrorReply,
                       Hello, JobResult, ProtocolError, StatusReply,
                       StatusRequest, SubmitCells, SubmitExperiments,
                       SubmitQuantize, Welcome, decode, encode)

__all__ = ["AsyncClient", "Client", "ServiceError", "BusyError",
           "parse_address"]


class ServiceError(Exception):
    """The server rejected a request (carries its hint, if any)."""

    def __init__(self, message: str, hint: str | None = None):
        super().__init__(message + (f" (hint: {hint})" if hint else ""))
        self.error = message
        self.hint = hint


class BusyError(ServiceError):
    """Backpressure: the per-client job bound is reached; retry later."""


def parse_address(address: str) -> tuple[str, Any]:
    """``unix:/path`` → ``("unix", path)``; ``host:port`` → ``("tcp", (h, p))``."""
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad service address {address!r}; expected 'unix:/path' "
            f"or 'host:port'")
    return "tcp", (host or "127.0.0.1", int(port))


class AsyncClient:
    """One connection, many concurrent jobs, replies routed by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, name: str):
        self._reader = reader
        self._writer = writer
        self.name = name
        self._ids = itertools.count(1)
        self._routes: dict[str, asyncio.Queue] = {}
        self._reader_task: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    @classmethod
    async def connect(cls, address: str,
                      name: str = "client") -> "AsyncClient":
        kind, where = parse_address(address)
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(where)
        else:
            reader, writer = await asyncio.open_connection(*where)
        client = cls(reader, writer, name)
        await client._send(Hello(client=name))
        reply = decode(await reader.readline())
        if isinstance(reply, ErrorReply):
            writer.close()
            raise ServiceError(reply.error, reply.hint)
        if not isinstance(reply, Welcome):
            writer.close()
            raise ProtocolError(
                f"expected welcome, got {type(reply).__name__}")
        client._reader_task = asyncio.create_task(client._read_loop())
        return client

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            await self._send(Bye())
        except (ConnectionError, OSError):
            pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self._writer.close()
        except Exception:
            pass

    # -- plumbing --------------------------------------------------------
    async def _send(self, message: Any) -> None:
        self._writer.write(encode(message).encode("utf-8"))
        await self._writer.drain()

    async def _read_loop(self) -> None:
        terminal: Exception = ConnectionError("service connection closed")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = decode(line)
                job_id = getattr(message, "id", None)
                queue = self._routes.get(job_id)
                if queue is None and job_id is None:
                    # connection-level error: fan out to every waiter
                    for q in self._routes.values():
                        q.put_nowait(message)
                    continue
                if queue is not None:
                    queue.put_nowait(message)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        except ProtocolError as exc:    # undecodable reply: surface it
            terminal = exc
        finally:
            for q in self._routes.values():
                q.put_nowait(terminal)

    async def _roundtrip(self, message: Any,
                         on_event: Callable[[CellEvent], None] | None
                         = None) -> JobResult | StatusReply:
        """Send one identified request; pump replies to its terminal."""
        queue: asyncio.Queue = asyncio.Queue()
        self._routes[message.id] = queue
        try:
            await self._send(message)
            while True:
                reply = await queue.get()
                if isinstance(reply, Exception):
                    raise reply
                if isinstance(reply, ErrorReply):
                    if reply.error == "busy":
                        raise BusyError(reply.error, reply.hint)
                    raise ServiceError(reply.error, reply.hint)
                if isinstance(reply, Accepted):
                    continue
                if isinstance(reply, CellEvent):
                    if on_event is not None:
                        on_event(reply)
                    continue
                return reply
        finally:
            del self._routes[message.id]

    def _next_id(self) -> str:
        return f"{self.name}-{next(self._ids)}"

    @staticmethod
    def _request(request: RunRequest | None, scale, knobs) -> RunRequest:
        if request is None:
            return RunRequest.make(scale=scale, **knobs)
        if scale is not None or knobs:
            raise TypeError("pass either a RunRequest or loose knobs, "
                            "not both")
        return request

    # -- the API ---------------------------------------------------------
    async def submit_experiments(
            self, experiments: Sequence[str],
            request: RunRequest | None = None, *, scale=None,
            on_event: Callable[[CellEvent], None] | None = None,
            **knobs: Any) -> JobResult:
        """Run registered experiments; returns the terminal JobResult."""
        message = SubmitExperiments(
            self._next_id(), tuple(experiments),
            self._request(request, scale, knobs))
        return await self._roundtrip(message, on_event)

    async def submit_cells(
            self, cells: Iterable[Cell | CellSpec],
            request: RunRequest | None = None, *, scale=None,
            on_event: Callable[[CellEvent], None] | None = None,
            **knobs: Any) -> JobResult:
        """Run an explicit cell set (results land in the shared cache)."""
        specs = tuple(c if isinstance(c, CellSpec) else
                      CellSpec.from_cell(c) for c in cells)
        message = SubmitCells(self._next_id(), specs,
                              self._request(request, scale, knobs))
        return await self._roundtrip(message, on_event)

    async def quantize(self, fmt: str,
                       values: Iterable[float]) -> tuple[float, ...]:
        """Round *values* into *fmt* on the server."""
        message = SubmitQuantize(self._next_id(), fmt,
                                 tuple(float(v) for v in values))
        result = await self._roundtrip(message)
        assert isinstance(result, JobResult)
        return tuple(result.values or ())

    async def status(self) -> dict[str, Any]:
        """The server's live counters and queue depths."""
        reply = await self._roundtrip(StatusRequest(self._next_id()))
        assert isinstance(reply, StatusReply)
        return dict(reply.stats)


class Client:
    """Synchronous façade over :class:`AsyncClient`.

    Owns a private event loop on a daemon thread, so it works from any
    synchronous context (tests, notebooks, the submit CLI).  ``busy``
    rejections are retried automatically with the engine's jittered
    exponential backoff (*busy_retries* attempts, base
    *busy_backoff* seconds) — the client side of the service's
    backpressure contract.
    """

    def __init__(self, address: str, name: str = "client", *,
                 busy_retries: int = 5, busy_backoff: float = 0.2,
                 connect_timeout: float = 10.0):
        self.address = address
        self.busy_retries = int(busy_retries)
        self.busy_backoff = float(busy_backoff)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True,
            name=f"repro-service-{name}")
        self._thread.start()
        self._async: AsyncClient = self._call(
            AsyncClient.connect(address, name), timeout=connect_timeout)

    def _call(self, coro, timeout: float | None = None):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def _with_busy_retry(self, make_coro):
        delays = jittered(backoff_delays(self.busy_retries,
                                         base=self.busy_backoff))
        while True:
            try:
                return self._call(make_coro())
            except BusyError:
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)

    # -- the API ---------------------------------------------------------
    def submit_experiments(self, experiments: Sequence[str],
                           request: RunRequest | None = None, *,
                           scale=None,
                           on_event: Callable[[CellEvent], None] | None
                           = None, **knobs: Any) -> JobResult:
        return self._with_busy_retry(
            lambda: self._async.submit_experiments(
                experiments, request, scale=scale, on_event=on_event,
                **knobs))

    def submit_cells(self, cells: Iterable[Cell | CellSpec],
                     request: RunRequest | None = None, *, scale=None,
                     on_event: Callable[[CellEvent], None] | None = None,
                     **knobs: Any) -> JobResult:
        cells = list(cells)
        return self._with_busy_retry(
            lambda: self._async.submit_cells(
                cells, request, scale=scale, on_event=on_event, **knobs))

    def quantize(self, fmt: str,
                 values: Iterable[float]) -> tuple[float, ...]:
        values = list(values)
        return self._call(self._async.quantize(fmt, values))

    def status(self) -> dict[str, Any]:
        return self._call(self._async.status())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._async.close(), timeout=5.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
