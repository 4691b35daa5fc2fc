"""End-to-end experiment service: determinism, coalescing, backpressure.

The server runs in-process on a background-thread event loop; clients
are the real sync :class:`repro.service.client.Client` over real
sockets.  The headline test is the acceptance bar of the service PR:
a fig6 smoke sweep submitted through the service (two concurrent
clients, overlapping cell sets) must record coalesce hits **and**
produce a CSV byte-identical to a serial ``python -m repro.experiments``
sweep.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.config import SCALES
from repro.experiments import common, runner
from repro.experiments.cache import reset_cache_stats
from repro.experiments.common import cg_cells
from repro.request import RunRequest
from repro.service.client import BusyError, Client, ServiceError, \
    parse_address
from repro.service.protocol import (Accepted, ErrorReply, Hello,
                                    JobResult, SubmitCells, Welcome,
                                    decode, encode)
from repro.service.server import ExperimentServer


@pytest.fixture
def loop():
    """A private event loop on a daemon thread (server side)."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield loop
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    loop.close()


@pytest.fixture
def serve(loop, tmp_path, monkeypatch):
    """Factory: start an ExperimentServer, torn down with the test."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "service"))
    common.clear_cache()
    reset_cache_stats()
    servers = []

    def start(**kwargs) -> ExperimentServer:
        kwargs.setdefault("request", RunRequest.make(scale="smoke",
                                                     jobs=1))
        server = ExperimentServer(**kwargs)
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        servers.append(server)
        return server

    yield start
    for server in servers:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
    common.clear_cache()


class TestAddressing:
    def test_parse_address(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix",
                                                     "/tmp/x.sock")
        assert parse_address("127.0.0.1:7341") == ("tcp",
                                                   ("127.0.0.1", 7341))
        assert parse_address(":7341") == ("tcp", ("127.0.0.1", 7341))
        with pytest.raises(ValueError, match="bad service address"):
            parse_address("no-port-here")

    def test_unix_socket_serving(self, serve, tmp_path):
        server = serve(socket_path=str(tmp_path / "repro.sock"))
        assert server.address.startswith("unix:")
        with Client(server.address, name="t") as client:
            assert client.status()["server"] == "repro.service"


class TestQuantize:
    def test_matches_local_context(self, serve):
        from repro.arith.context import FPContext
        server = serve()
        values = [0.1, -2.5, 3.14159, 1e-8]
        with Client(server.address, name="t") as client:
            remote = client.quantize("posit16es1", values)
        local = FPContext("posit16es1").round(
            np.asarray(values, dtype=np.float64))
        assert list(remote) == list(np.atleast_1d(local))

    def test_unknown_format_is_an_error_with_hint(self, serve):
        server = serve()
        with Client(server.address, name="t") as client:
            with pytest.raises(ServiceError) as err:
                client.quantize("posit9000", [1.0])
        assert err.value.hint is not None


class TestHandshake:
    def _raw_exchange(self, server, *lines: str) -> list:
        """Speak raw bytes to the server; return decoded reply lines."""
        host, port = server.host, server.port
        with socket.create_connection((host, port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            for line in lines:
                fh.write(line.encode("utf-8"))
            fh.flush()
            sock.shutdown(socket.SHUT_WR)
            return [decode(raw) for raw in fh if raw.strip()]

    def test_version_mismatch_rejected_with_hint(self, serve):
        server = serve()
        replies = self._raw_exchange(
            server, '{"type": "hello", "version": 9999}\n')
        assert isinstance(replies[0], ErrorReply)
        assert "version mismatch" in replies[0].error
        assert "upgrade" in replies[0].hint

    def test_first_message_must_be_hello(self, serve):
        server = serve()
        replies = self._raw_exchange(server, encode(Hello()),
                                     encode(Hello()))
        assert isinstance(replies[0], Welcome)
        assert isinstance(replies[1], ErrorReply)   # second hello

    def test_garbage_line_gets_error_not_disconnect(self, serve):
        server = serve()
        replies = self._raw_exchange(
            server, encode(Hello()), "not json at all\n",
            '{"type": "status", "id": "s1"}\n')
        assert isinstance(replies[0], Welcome)
        assert isinstance(replies[1], ErrorReply)
        assert replies[2].id == "s1"                # conn still usable


class TestBackpressure:
    """The busy contract: bounded jobs per client, client-side retry."""

    @pytest.fixture
    def stub_address(self, loop):
        """A stub protocol server: first submit is busy, second works."""
        submits = []

        async def handle(reader, writer):
            decode(await reader.readline())          # hello
            writer.write(encode(Welcome()).encode())
            await writer.drain()
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                msg = decode(raw)
                if not isinstance(msg, SubmitCells):
                    continue
                submits.append(msg.id)
                if len(submits) == 1:
                    reply = ErrorReply(msg.id, "busy", hint="retry")
                else:
                    reply = JobResult(msg.id, "completed")
                writer.write(encode(reply).encode())
                await writer.drain()

        async def start():
            return await asyncio.start_server(handle, host="127.0.0.1",
                                              port=0)
        server = asyncio.run_coroutine_threadsafe(start(),
                                                  loop).result(10)
        port = server.sockets[0].getsockname()[1]
        yield f"127.0.0.1:{port}", submits
        loop.call_soon_threadsafe(server.close)

    def test_sync_client_retries_busy(self, stub_address):
        address, submits = stub_address
        with Client(address, name="t", busy_retries=3,
                    busy_backoff=0.01) as client:
            result = client.submit_cells([], scale="smoke")
        assert result.status == "completed"
        assert len(submits) == 2                    # busy once, retried

    def test_busy_raises_after_retry_budget(self, loop):
        async def always_busy(reader, writer):
            decode(await reader.readline())
            writer.write(encode(Welcome()).encode())
            await writer.drain()
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                msg = decode(raw)
                writer.write(encode(ErrorReply(msg.id, "busy")).encode())
                await writer.drain()

        async def start():
            return await asyncio.start_server(always_busy,
                                              host="127.0.0.1", port=0)
        server = asyncio.run_coroutine_threadsafe(start(),
                                                  loop).result(10)
        port = server.sockets[0].getsockname()[1]
        try:
            with Client(f"127.0.0.1:{port}", name="t", busy_retries=2,
                        busy_backoff=0.01) as client:
                with pytest.raises(BusyError):
                    client.submit_cells([], scale="smoke")
        finally:
            loop.call_soon_threadsafe(server.close)


class TestJobs:
    def test_unknown_experiment_is_rejected_with_hint(self, serve):
        server = serve()
        with Client(server.address, name="t") as client:
            with pytest.raises(ServiceError) as err:
                client.submit_experiments(["fig99"], scale="smoke")
        assert "unknown experiment" in err.value.error
        assert "repro.experiments list" in err.value.hint

    @pytest.mark.parametrize("kind", ["experiments", "cells"])
    def test_trace_knob_is_refused_by_name(self, serve, kind):
        """The server never traces a job, so a job asking for a trace
        gets an error naming the knob instead of an untraced run."""
        server = serve()
        with Client(server.address, name="t") as client:
            with pytest.raises(ServiceError, match="'trace'") as err:
                if kind == "experiments":
                    client.submit_experiments(["fig6"], scale="smoke",
                                              trace=True)
                else:
                    client.submit_cells(
                        cg_cells(SCALES["smoke"], names=("bcsstk02",),
                                 formats=("fp32",)),
                        scale="smoke", trace="run.jsonl")
            assert err.value.hint is not None
            stats = client.status()
        assert stats["jobs_rejected"] == 1
        assert stats["jobs_submitted"] == 0
        assert stats["cells_requested"] == 0

    def test_cell_job_then_warm_resubmit(self, serve):
        server = serve()
        cells = cg_cells(SCALES["smoke"], names=("bcsstk02",),
                         formats=("fp32",))
        with Client(server.address, name="t") as client:
            first = client.submit_cells(cells, scale="smoke")
            assert first.status == "completed"
            assert first.cells["completed"] == 1
            second = client.submit_cells(cells, scale="smoke")
            assert second.cells["cached"] == 1      # warm cache hit
            stats = client.status()
        assert stats["cells_computed"] == 1
        assert stats["cells_cached"] == 1
        assert stats["jobs_completed"] >= 2


@pytest.mark.slow
class TestEndToEnd:
    """The acceptance bar: byte-identical artifacts + real coalescing."""

    def test_service_sweep_is_byte_identical_and_coalesces(
            self, serve, tmp_path, monkeypatch):
        # serial reference sweep through the runner CLI path
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "serial"))
        assert runner.main(["fig6", "--scale", "smoke"]) == 0
        serial = (tmp_path / "serial" / "fig06_cg.csv").read_bytes()

        # the in-process memo ignores the results dir: start cold
        common.clear_cache()
        monkeypatch.setenv("REPRO_RESULTS_DIR",
                           str(tmp_path / "service"))
        server = serve(request=RunRequest.make(scale="smoke", jobs=2),
                       batch_delay=0.2)

        results, errors = {}, []

        def run_client(name):
            try:
                with Client(server.address, name=name) as client:
                    results[name] = client.submit_experiments(
                        ["fig6"], scale="smoke")
            except Exception as exc:  # surfaced in the main thread
                errors.append((name, exc))

        threads = [threading.Thread(target=run_client, args=(n,))
                   for n in ("alice", "bob")]
        threads[0].start()
        time.sleep(0.05)             # inside alice's coalescing window
        threads[1].start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors

        with Client(server.address, name="probe") as client:
            stats = client.status()

        for name in ("alice", "bob"):
            assert results[name].status == "completed"
            assert results[name].experiments["fig6"]["status"] == \
                "completed"
        # two clients, one grid: the second client's cells coalesced
        # onto the first's in-flight futures, so the engine saw each
        # unique cell exactly once
        from repro.experiments.registry import get_experiment
        grid = len(get_experiment("fig6").enumerate_cells(
            SCALES["smoke"]))
        assert stats["coalesce_hits"] >= 1
        assert stats["cells_requested"] == 2 * grid
        assert stats["cells_computed"] + stats["cells_cached"] == grid

        service = (tmp_path / "service" / "fig06_cg.csv").read_bytes()
        assert hashlib.sha256(service).hexdigest() == \
            hashlib.sha256(serial).hexdigest()

    def test_facade_submit_through_service(self, serve, tmp_path,
                                           monkeypatch):
        import repro
        server = serve()
        results = repro.submit(["fig6"], address=server.address,
                               scale="smoke")
        assert results["fig6"]["status"] == "completed"
        assert results["fig6"]["csv_path"]


def _children(pid: int) -> list[int]:
    """The child processes of *pid*, whichever of its threads forked
    them (Linux ``/proc``)."""
    out = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            out.extend(int(p) for p in fh.read().split())
    return out


def _alive(pid: int) -> bool:
    """*pid* runs (a zombie waiting for its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                    reason="needs Linux /proc to find the workers")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=["sigterm", "sigkill"])
def test_no_worker_outlives_the_server(tmp_path, sig):
    """A ``serve --jobs 2`` server with a warm fleet is stopped by
    *sig*: SIGTERM shuts the pools down, and after a SIGKILL the
    workers see their pipes close.  Either way, no worker is left
    running ~3 s later."""
    sock = tmp_path / "repro.sock"
    env = {**os.environ, "REPRO_RESULTS_DIR": str(tmp_path / "results"),
           "PYTHONPATH": os.pathsep.join(
               [os.path.dirname(os.path.dirname(repro.__file__))]
               + [p for p in os.environ.get("PYTHONPATH", "").split(
                   os.pathsep) if p])}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--socket",
         str(sock), "--jobs", "2"], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers: list[int] = []
    try:
        for _ in range(150):
            if sock.exists():
                break
            time.sleep(0.1)
        with Client(f"unix:{sock}", name="leak-check") as client:
            done = client.submit_experiments(["fig6"], scale="smoke")
        assert done.status == "completed"
        workers = _children(server.pid)
        assert len(workers) == 2
        server.send_signal(sig)
        server.wait(timeout=30)
        deadline = time.monotonic() + 3.0
        while any(_alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
