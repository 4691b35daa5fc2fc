"""Parent-side supervision: spawn, watch, kill, respawn, quarantine.

:class:`SupervisedPool` replaces the bare ``ProcessPoolExecutor`` the
cell engine used through PR 5.  The executor's failure contract was
all-or-nothing: one worker OOM-killed or segfaulted raised
``BrokenProcessPool`` and abandoned every in-flight cell.  Here each
worker is an individually spawned :mod:`multiprocessing` process on
its own duplex pipe (:mod:`repro.supervise.worker`), and the parent
runs an event loop that:

* **dispatches** ready units to idle workers and collects results —
  a unit is one cell or a lane group the worker solves in lockstep
  (:func:`repro.experiments.engine.run_group`);
* **watches the clock** — a worker past ``timeout × len(unit) +
  grace`` on one unit gets SIGTERM, and SIGKILL another grace period
  later, so even hung native code (which the in-worker SIGALRM budget
  cannot interrupt) is bounded;
* **records crashes** — exit code, death signal, last heartbeat age,
  and the in-flight cells, as structured :class:`CrashRecord`\\ s that
  the runner persists into manifest v2's ``supervision`` section;
* **respawns** dead workers and requeues their in-flight cell with
  jittered exponential backoff (sharing
  :func:`repro.resilience.isolation.backoff_delays`);
* **breaks up failed lane groups** — a group that raises, runs out of
  its budget or loses its worker sends its unfinished cells back to
  the queue one by one, and each is then retried, timed out and
  quarantined as a cell alone; a group's death counts toward no
  single cell's quarantine;
* **quarantines poison cells** — a cell that has killed
  ``max_worker_deaths`` workers on its own is settled as ``poisoned``
  instead of being retried forever;
* **degrades to serial** — spawn failures, or a streak of worker
  deaths with no completed cell in between, abandon the pool and hand
  the unfinished cells back for in-process execution.

Timeouts keep their two-layer contract: a *soft* timeout reported by
the worker's own SIGALRM budget is deterministic (the budget would
just expire again) and therefore final; a *watchdog* kill is
environmental (hang, scheduling stall, chaos) and counts as a worker
death — retried, then quarantined.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..config import RunScale
from ..experiments import common
from ..experiments.engine import CellOutcome
from ..request import RunRequest
from ..resilience.isolation import backoff_delays, jittered
from ..telemetry.trace import span
from .worker import cache_counters, group_label, worker_main

__all__ = ["CrashRecord", "SupervisedPool", "SupervisionReport"]

#: how often the event loop wakes with nothing to do (seconds)
_TICK = 0.25
#: upper bound on the per-cell backoff schedule length (the quarantine
#: and retry counters decide when to stop; this only caps growth)
_MAX_DELAYS = 32


def _worker_entry(conn, name: str, heartbeat_interval: float,
                  inherited) -> None:
    """A worker process: close the parent's pipe ends it inherited,
    then run :func:`~repro.supervise.worker.worker_main`."""
    for parent_end in inherited:
        try:
            parent_end.close()
        except OSError:
            pass
    worker_main(conn, name, heartbeat_interval)


@dataclass(frozen=True)
class CrashRecord:
    """One worker death, as persisted to the manifest."""

    worker: str              # e.g. "w3"
    pid: int
    exitcode: int | None     # negative = killed by that signal
    signal: str | None       # symbolic name when killed by a signal
    cell: str | None         # first in-flight cell id (None: died idle)
    attempt: int             # dispatch attempt the unit was on
    kind: str                # "crash" | "watchdog"
    last_heartbeat_age_s: float | None
    cells: tuple[str, ...] = ()   # every in-flight cell (a lane group's)

    def as_dict(self) -> dict[str, Any]:
        return {"worker": self.worker, "pid": self.pid,
                "exitcode": self.exitcode, "signal": self.signal,
                "cell": self.cell, "cells": list(self.cells),
                "attempt": self.attempt, "kind": self.kind,
                "last_heartbeat_age_s": self.last_heartbeat_age_s}


@dataclass
class SupervisionReport:
    """What the pool did to keep the sweep alive (manifest section)."""

    jobs: int
    spawned: int = 0
    respawns: int = 0
    term_kills: int = 0      # watchdog SIGTERMs sent
    hard_kills: int = 0      # SIGKILL escalations after the grace period
    crashes: list[CrashRecord] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    degraded: bool = False

    @property
    def worker_deaths(self) -> int:
        return len(self.crashes)

    def as_dict(self) -> dict[str, Any]:
        return {"jobs": self.jobs, "spawned": self.spawned,
                "respawns": self.respawns,
                "worker_deaths": self.worker_deaths,
                "term_kills": self.term_kills,
                "hard_kills": self.hard_kills,
                "quarantined": sorted(self.quarantined),
                "degraded": self.degraded,
                "crashes": [c.as_dict() for c in self.crashes]}


class _Handle:
    """Parent-side view of one worker process."""

    __slots__ = ("name", "proc", "conn", "unit", "attempt",
                 "dispatched_at", "term_sent_at", "last_hb", "hb_label")

    def __init__(self, name: str, proc, conn):
        self.name = name
        self.proc = proc
        self.conn = conn
        self.unit: tuple = ()            # in-flight cells; () when idle
        self.attempt = 0
        self.dispatched_at = 0.0
        self.term_sent_at: float | None = None
        self.last_hb: float | None = None
        self.hb_label: str | None = None


class SupervisedPool:
    """Drive cells through individually supervised worker processes.

    Parameters mirror the engine's: *timeout* is the per-cell budget
    (both the worker's soft SIGALRM limit and the watchdog deadline;
    a lane group gets it once per cell),
    *grace* the SIGTERM→SIGKILL escalation period, *retries* the
    in-worker exception retry budget, *backoff* the base of the
    (jittered, exponential) requeue delay, and *max_worker_deaths* the
    poison-cell quarantine threshold.

    With ``keep_alive=True`` the pool outlives individual :meth:`run`
    batches: workers (and their warm per-process matrix caches) stay
    up between batches, which is how a long-lived parent — the
    experiment service — amortizes spawn cost across many client
    sweeps.  The owner must call :meth:`shutdown` (or use the pool as
    a context manager) when done.
    """

    def __init__(self, jobs: int, scale: RunScale, *,
                 timeout: float | None = RunRequest.timeout,
                 grace: float = RunRequest.grace, retries: int = 0,
                 backoff: float = RunRequest.backoff,
                 max_worker_deaths: int = RunRequest.max_worker_deaths,
                 heartbeat_interval: float = 1.0,
                 jitter_seed: int = 0, keep_alive: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_worker_deaths < 1:
            raise ValueError(f"max_worker_deaths must be >= 1, "
                             f"got {max_worker_deaths}")
        self.jobs = int(jobs)
        self.scale = scale
        self.timeout = timeout if timeout and timeout > 0 else None
        self.grace = max(0.1, float(grace))
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.max_worker_deaths = int(max_worker_deaths)
        self.heartbeat_interval = float(heartbeat_interval)
        self.keep_alive = bool(keep_alive)
        self.report = SupervisionReport(jobs=self.jobs)
        #: consecutive worker deaths with no completed cell in between
        #: beyond this → the pool itself is judged broken
        self.degrade_after = max(4, 2 * self.jobs)
        # fork where available: fast, and monkeypatched test doubles
        # are inherited, matching the executor the pool replaces
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        self._workers: dict[str, _Handle] = {}
        self._serial = 0
        self._consecutive_deaths = 0
        self._delays: dict[Any, Any] = {}
        import random
        self._jitter = random.Random(jitter_seed)

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, respawn: bool = False) -> _Handle:
        self._serial += 1
        name = f"w{self._serial}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # a forked child holds copies of every parent-side end; it
        # closes them, or its recv() never sees EOF once the parent dies
        inherited = ([parent_conn] + [h.conn for h in self._workers.values()]
                     if self._ctx.get_start_method() == "fork" else [])
        proc = self._ctx.Process(
            target=_worker_entry, args=(child_conn, name,
                                        self.heartbeat_interval, inherited),
            name=f"repro-supervised-{name}", daemon=True)
        with span("supervise.spawn", worker=name, respawn=respawn):
            proc.start()
        child_conn.close()
        handle = _Handle(name, proc, parent_conn)
        self._workers[name] = handle
        self.report.spawned += 1
        if respawn:
            self.report.respawns += 1
        return handle

    def shutdown(self) -> None:
        """Stop every worker (idempotent; required with *keep_alive*)."""
        self._shutdown()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self._shutdown()

    def _shutdown(self) -> None:
        for handle in self._workers.values():
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._workers.values():
            handle.proc.join(max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(0.5)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(0.5)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # -- the event loop --------------------------------------------------
    def run(self, groups: Sequence[Sequence],
            settle: Callable[[CellOutcome], None]) -> list:
        """Drive every cell of *groups* to a terminal state; returns the
        unfinished cells.

        Each group is one dispatch: a single cell, or the cells of a
        lane group (:func:`repro.experiments.engine.run_group`).  A
        group that fails as a whole (raises, hits its soft budget, or
        loses its worker) puts its cells back in the queue one by one;
        from then on each is retried, timed out and quarantined as a
        cell alone.

        The returned list is empty unless the pool degraded — then the
        caller (the engine) finishes those cells serially in-process.
        Quarantined/failed/timed-out cells are *settled*, not returned:
        their state is terminal.

        Callable repeatedly on a ``keep_alive`` pool: each call is one
        batch over the same (still warm) worker fleet.  A pool that
        degraded stays degraded — later batches return their cells
        immediately for serial execution.
        """
        from multiprocessing.connection import wait as conn_wait

        ready: deque = deque(tuple(group) for group in groups)
        cells = [cell for unit in ready for cell in unit]
        waiting: list[tuple[float, tuple]] = []   # (ready_at, unit)
        # a cell's dispatches alone: its retries and outcome attempts
        attempts: Counter = Counter()
        # every dispatch a cell rode in: chaos keys and crash records
        dispatches: Counter = Counter()
        deaths: Counter = Counter()
        unfinished = set(cells)

        def requeue(cell, reason: str) -> None:
            delay = self._next_delay(cell)
            waiting.append((time.monotonic() + delay, (cell,)))
            print(f"!! cell {cell.cell_id} {reason}; retrying in "
                  f"{delay:.2f}s", file=sys.stderr)

        def break_up(unit: tuple, reason: str) -> None:
            print(f"!! lane group {group_label(unit)} {reason}; running "
                  f"its cells one by one", file=sys.stderr)
            ready.extend((cell,) for cell in unit)

        def settle_terminal(outcome: CellOutcome) -> None:
            unfinished.discard(outcome.cell)
            settle(outcome)

        try:
            # top up rather than blindly spawn: a keep_alive pool
            # re-enters here with last batch's workers still running
            while len(self._workers) < min(self.jobs, len(ready)):
                self._spawn()
            while unfinished and not self.report.degraded:
                now = time.monotonic()

                # promote backoff-expired cells back into the queue
                if waiting:
                    due = [u for at, u in waiting if at <= now]
                    waiting = [(at, u) for at, u in waiting if at > now]
                    ready.extend(due)

                # replace dead workers (their deaths were processed
                # when detected; this only restores capacity)
                self._reap()
                busy = sum(1 for h in self._workers.values() if h.unit)
                needed = min(self.jobs,
                             busy + len(ready) + len(waiting))
                while len(self._workers) < needed:
                    try:
                        self._spawn(respawn=True)
                    except OSError as exc:
                        self._degrade(f"cannot spawn worker: {exc}")
                        break
                if self.report.degraded:
                    break

                # dispatch ready units to idle workers
                for handle in list(self._workers.values()):
                    if not ready:
                        break
                    if handle.unit or not handle.proc.is_alive():
                        continue
                    unit = ready.popleft()
                    dispatches.update(unit)
                    if len(unit) == 1:
                        attempts.update(unit)
                    handle.unit = unit
                    handle.attempt = dispatches[unit[0]]
                    handle.dispatched_at = time.monotonic()
                    handle.term_sent_at = None
                    try:
                        handle.conn.send(("task", unit, self.scale.name,
                                          self.timeout, handle.attempt))
                    except (BrokenPipeError, OSError):
                        # died between reap and dispatch; the death
                        # handler below requeues the unit
                        pass

                # wait for messages, bounded by the nearest deadline
                tick = self._tick(waiting)
                conns = [h.conn for h in self._workers.values()]
                for conn in (conn_wait(conns, timeout=tick)
                             if conns else []):
                    handle = next((h for h in self._workers.values()
                                   if h.conn is conn), None)
                    if handle is not None:
                        self._drain(handle, attempts, settle_terminal,
                                    requeue, break_up)

                # deaths (EOF on pipe / exited process) and deadlines
                for handle in list(self._workers.values()):
                    if not handle.proc.is_alive():
                        self._on_death(handle, deaths, attempts,
                                       settle_terminal, requeue, break_up)
                self._watchdog()
        finally:
            if not self.keep_alive:
                self._shutdown()

        return [c for c in cells if c in unfinished]

    # -- helpers ---------------------------------------------------------
    def _budget(self, handle: _Handle) -> float:
        """The watchdog's budget for a worker's unit: the per-cell
        timeout once per cell (call only with a timeout set)."""
        return self.timeout * len(handle.unit)

    def _tick(self, waiting: list[tuple[float, Any]]) -> float:
        now = time.monotonic()
        tick = _TICK
        for handle in self._workers.values():
            if not handle.unit:
                continue
            if handle.term_sent_at is not None:
                tick = min(tick, handle.term_sent_at + self.grace - now)
            elif self.timeout is not None:
                tick = min(tick, handle.dispatched_at + self._budget(handle)
                           + self.grace - now)
        for ready_at, _unit in waiting:
            tick = min(tick, ready_at - now)
        return max(0.02, min(tick, _TICK))

    def _next_delay(self, cell) -> float:
        if cell not in self._delays:
            self._delays[cell] = jittered(
                backoff_delays(_MAX_DELAYS, base=self.backoff),
                rng=self._jitter)
        return next(self._delays[cell], self.backoff)

    def _drain(self, handle: _Handle, attempts, settle, requeue, break_up
               ) -> None:
        """Process every queued message from one worker."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                return      # death; picked up by the liveness check
            tag = message[0]
            handle.last_hb = time.monotonic()
            if tag == "hb":
                handle.hb_label = message[2]
                continue
            if tag != "result":
                continue
            _, _worker, results, delta, error = message
            for name, counters in cache_counters().items():
                counters.absorb(delta.get(name))
            unit, handle.unit = handle.unit, ()
            handle.term_sent_at = None
            for cell, status, value, duration, cell_error in results:
                attempt = attempts.get(cell, 1)
                if status == "completed":
                    self._consecutive_deaths = 0
                    # memo only: the worker already persisted to disk
                    common.store_cell(cell, self.scale, value,
                                      persist=False)
                    settle(CellOutcome(cell, status, duration,
                                       attempts=attempt))
                elif status == "timeout":
                    # soft (SIGALRM) timeout: deterministic, hence final
                    settle(CellOutcome(cell, status, duration, cell_error,
                                       attempt))
                elif attempt <= self.retries:
                    requeue(cell, f"attempt {attempt} failed "
                                  f"({cell_error})")
                else:
                    settle(CellOutcome(cell, status, duration, cell_error,
                                       attempt))
            if unit and not results:
                break_up(unit, f"failed ({error})")

    def _on_death(self, handle: _Handle, deaths, attempts, settle,
                  requeue, break_up) -> None:
        """A worker process is gone: record, requeue or quarantine."""
        # drain any result it managed to send before dying
        self._drain(handle, attempts, settle, requeue, break_up)
        exitcode = handle.proc.exitcode
        signame = None
        if exitcode is not None and exitcode < 0:
            try:
                signame = signal.Signals(-exitcode).name
            except ValueError:
                signame = f"signal {-exitcode}"
        unit = handle.unit
        now = time.monotonic()
        kind = "watchdog" if handle.term_sent_at is not None else "crash"
        record = CrashRecord(
            worker=handle.name, pid=handle.proc.pid or -1,
            exitcode=exitcode, signal=signame,
            cell=unit[0].cell_id if unit else None,
            attempt=handle.attempt, kind=kind,
            last_heartbeat_age_s=(round(now - handle.last_hb, 3)
                                  if handle.last_hb is not None else None),
            cells=tuple(cell.cell_id for cell in unit))
        self.report.crashes.append(record)
        self._consecutive_deaths += 1
        del self._workers[handle.name]
        try:
            handle.conn.close()
        except OSError:
            pass
        died_how = (f"worker {handle.name} "
                    + (f"killed by {signame}" if signame
                       else f"exited {exitcode}")
                    + (" after watchdog escalation"
                       if kind == "watchdog" else ""))
        if len(unit) > 1:
            # no single cell of the group is to blame
            break_up(unit, f"lost its worker ({died_how})")
        elif unit:
            [cell] = unit
            deaths[cell] += 1
            if deaths[cell] >= self.max_worker_deaths:
                self.report.quarantined.append(cell.cell_id)
                settle(CellOutcome(
                    cell, "poisoned", now - handle.dispatched_at,
                    f"quarantined after {deaths[cell]} worker "
                    f"death(s); last: {died_how}",
                    attempts.get(cell, 1)))
                print(f"!! cell {cell.cell_id} quarantined as poisoned "
                      f"after {deaths[cell]} worker death(s)",
                      file=sys.stderr)
            else:
                requeue(cell, f"lost its worker ({died_how}, "
                              f"death {deaths[cell]}/"
                              f"{self.max_worker_deaths})")
        if self._consecutive_deaths >= self.degrade_after:
            self._degrade(f"{self._consecutive_deaths} consecutive "
                          f"worker deaths without a completed cell")

    def _watchdog(self) -> None:
        """Externally enforce the wall-clock budget on busy workers."""
        if self.timeout is None:
            return
        now = time.monotonic()
        for handle in self._workers.values():
            if not handle.unit or not handle.proc.is_alive():
                continue
            label = group_label(handle.unit)
            if handle.term_sent_at is None:
                budget = self._budget(handle)
                if now - handle.dispatched_at > budget + self.grace:
                    with span("supervise.kill", worker=handle.name,
                              cell=label, how="SIGTERM"):
                        handle.proc.terminate()
                    handle.term_sent_at = now
                    self.report.term_kills += 1
                    print(f"!! watchdog: worker {handle.name} exceeded "
                          f"{budget:g}s budget on {label}; SIGTERM sent "
                          f"(SIGKILL in {self.grace:g}s)",
                          file=sys.stderr)
            elif now - handle.term_sent_at > self.grace:
                with span("supervise.kill", worker=handle.name,
                          cell=label, how="SIGKILL"):
                    handle.proc.kill()
                handle.term_sent_at = now  # re-arm; kill is idempotent
                self.report.hard_kills += 1
                print(f"!! watchdog: worker {handle.name} survived "
                      f"SIGTERM; escalating to SIGKILL", file=sys.stderr)

    def _reap(self) -> None:
        """Join finished processes so they don't linger as zombies."""
        for handle in self._workers.values():
            if not handle.proc.is_alive():
                handle.proc.join(0.0)

    def _degrade(self, why: str) -> None:
        self.report.degraded = True
        print(f"!! supervised pool degrading to serial execution: {why}",
              file=sys.stderr)
