"""The supervised worker: a pipe-driven cell executor with a heartbeat.

One worker process runs :func:`worker_main` over a duplex
:class:`multiprocessing.Pipe` shared with the parent-side pool.  The
protocol is deliberately tiny — tuples whose first element is a tag:

parent → worker
    ``("task", cells, scale_name, timeout, attempt)`` — compute one
    dispatch unit: a tuple of one cell, or of the cells of a lane group
    that run as one lockstep solve (see
    :func:`repro.experiments.engine.run_group`); ``("stop",)`` — drain
    and exit cleanly.

worker → parent
    ``("hb", worker, label)`` — periodic liveness beacon from a daemon
    thread, naming the unit in flight (:func:`group_label`; also what
    lets the parent report *when* a crashed worker was last known
    good, and on what);
    ``("result", worker, results, cache_delta, error)`` — the unit is
    done: *results* holds one ``(cell, status, value, duration,
    error)`` tuple per cell brought to a terminal state, and is empty
    when a lane group raised or ran out of its budget (*error* says
    why); the parent then runs that group's cells one by one.

Workers are long-lived: their per-process matrix caches warm up across
cells, and each result carries the cache-counter delta of the whole
unit (one per group, so no counter is counted twice) for the parent to
aggregate sweep-wide effectiveness.  Completed cells are persisted to
the result cache *by the worker* before the result message is sent,
so a sweep whose parent is killed keeps every finished cell.

The timeout contract has two layers (see ``docs/robustness.md``): the
worker applies the soft SIGALRM budget itself (via the engine's
:func:`~repro.experiments.engine.run_group`: the timeout per cell,
times the cells of a lane group) and reports a clean final
``timeout`` status; the parent watchdog enforces the same budget
*externally* with SIGTERM-then-SIGKILL for the cases SIGALRM cannot
reach — hung native code, a blocked main thread, or a worker that
died mid-unit.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time

from ..config import SCALES
from ..experiments import common, engine
from ..experiments.cache import cache_stats
from ..kernels import tabcache
from ..kernels.matcache import matrix_cache
from .chaos import chaos_worker_entry

__all__ = ["worker_main", "cache_counters", "group_label"]


def cache_counters() -> dict:
    """This process's counters of the three caches, by delta key.

    A worker ships ``delta_since`` of each after every unit and the
    parent absorbs each into its own, so a pooled sweep reports the
    same cache traffic as a serial one.
    """
    return {"results": cache_stats(), "matrix": matrix_cache().counters,
            "tables": tabcache.table_stats()}


def group_label(cells) -> str:
    """How heartbeats, crash messages and the watchdog name a unit."""
    first = cells[0].cell_id
    return first if len(cells) == 1 else f"{first} +{len(cells) - 1} lanes"


def worker_main(conn, worker: str, heartbeat_interval: float = 1.0) -> None:
    """Run the worker loop until told to stop or the parent vanishes."""
    # warm start: mmap every rounding table the machine already built
    # for this code version, instead of re-bisecting posit32/takum32
    # boundaries once per worker (see docs/robustness.md)
    with contextlib.suppress(Exception):
        tabcache.preload_cached()
    current: dict[str, str | None] = {"unit": None}
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def send(message) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False    # parent gone; the loop will exit

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            label = current["unit"]
            if label is None:
                # idle workers stay silent: a long-lived parent (the
                # experiment service keeps its pool across batches)
                # does not drain the pipe between batches, and hours of
                # buffered beats would eventually block the pipe
                continue
            if not send(("hb", worker, label)):
                return

    beater = threading.Thread(target=beat, daemon=True,
                              name=f"{worker}-heartbeat")
    # The beater inherits this thread's signal mask, so block SIGTERM
    # around its start: the watchdog's SIGTERM must land on the *task*
    # thread (killing the worker mid-cell), never be absorbed by the
    # heartbeat thread — and task code that blocks SIGTERM to emulate
    # hung native code then really is immune until SIGKILL.
    with contextlib.suppress(AttributeError, ValueError, OSError):
        unblock = signal.pthread_sigmask(signal.SIG_BLOCK,
                                         {signal.SIGTERM})
    beater.start()
    with contextlib.suppress(AttributeError, ValueError, OSError,
                             NameError):
        signal.pthread_sigmask(signal.SIG_SETMASK, unblock)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break           # parent died or closed the pipe
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "stop":
                break
            if message[0] != "task":
                continue
            _, cells, scale_name, timeout, attempt = message
            current["unit"] = group_label(cells)
            # chaos kills/hangs land here — on a disposable process,
            # before any compute time is sunk; one decision per unit
            chaos_worker_entry(cells, int(attempt))
            scale = SCALES[scale_name]
            snaps = {name: counters.snapshot()
                     for name, counters in cache_counters().items()}
            # resolved through the module so tests can monkeypatch the
            # engine's compute functions and have forked workers see it
            results, error = engine.run_group(cells, scale, timeout)
            for cell, status, value, _duration, _error in results:
                if status == "completed":
                    # worker-side persistence: survives a dying parent
                    common.store_cell(cell, scale, value)
            current["unit"] = None
            delta = {name: counters.delta_since(snaps[name])
                     for name, counters in cache_counters().items()}
            send(("result", worker, results, delta, error))
    finally:
        stop_beating.set()
        with send_lock:
            try:
                conn.close()
            except OSError:
                pass
        # don't linger on interpreter teardown if the beater is mid-send
        beater.join(timeout=heartbeat_interval + 1.0)
        # a worker that lost its parent mid-task exits nonzero so any
        # process-level supervisor above us sees the failure
        if current["unit"] is not None:
            os._exit(1)
