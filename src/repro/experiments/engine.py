"""The cell execution engine: serial or supervised-parallel, crash-safe.

:func:`execute_cells` drives a batch of experiment cells (see
:class:`~repro.experiments.common.Cell`) to completion with the same
guarantees the PR-1 runner gave whole experiments — wall-clock budget,
retries with backoff, crash isolation — but at cell granularity, plus
two new powers:

* ``jobs > 1`` fans cells and lane groups (below) out over the
  **supervised worker runtime**
  (:class:`repro.supervise.pool.SupervisedPool`): individually spawned
  heartbeat-monitored workers, an external watchdog that SIGTERMs (then
  SIGKILLs) workers hung past the budget, crash records for manifest
  v2, respawn with jittered backoff, and poison-cell quarantine after
  ``max_worker_deaths`` — so one segfaulted or OOM-killed worker costs
  one retry, not the sweep.  Each worker writes finished cells to the
  persistent cache itself, so even a sweep whose *parent* is killed
  keeps every cell that finished — ``--resume`` then re-executes only
  unfinished cells.
* cells already present (in-process memo or disk cache) are reported
  as ``cached`` and never recomputed.
* cells that share a :func:`~repro.experiments.common.lane_key` run
  as lanes of one lockstep solve, so every rounding call serves all of
  them: dense CG cells of one format, one set of solver options and
  one system order (key ``("cg", format, options, n)``), and, as
  ragged lanes of any orders, the CSR CG cells and the X13 grid cells
  of one solver and tolerance whose formats round through two-level
  tables of one storage width and step, each lane in its own format
  (``("cg-csr", width, step, rtol)``, ``("bicgstab-csr", ...)``,
  ``("gmres-csr", ...)``; fp64, fp16 and fp32 keep ``(solver-csr,
  format, rtol)``).  The groups are formed once, before any worker
  forks, and a group is the unit both the serial loop and the
  supervised pool dispatch.  The pool receives them largest first, so
  the long lane groups do not become the sweep's tail, and splits
  groups only when it has more workers than groups; the serial loop
  runs them in order of each group's first cell.  Each cell is still
  stored and reported on its own (see :func:`run_group`), and the
  outcomes come back in the order of *cells* either way.
  Groups form under an active collector or tracer too, which observe
  lanes as they would the cells run one by one; only an active
  injector makes every cell a group of its own.  A lone CG or grid
  cell runs as a one-lane group, so these cells have one route.

Cell payloads are deterministic functions of ``(cell, scale)``; the
serial and parallel paths therefore produce bit-identical results, and
the CSV artifacts assembled from them are byte-identical.

A pool that keeps breaking (spawn failures, a streak of worker deaths
with no progress) degrades to in-process serial execution of the
remaining cells rather than failing the sweep.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..arith.context import get_instrument
from ..config import RunScale
from ..request import RunRequest
from ..resilience.isolation import attempt, retrying, time_limit
from .common import (Cell, compute_cell, compute_lanes, has_cell, lane_key,
                     lane_seconds, store_cell)

__all__ = ["CellOutcome", "execute_cells", "execute_request", "run_group"]


@dataclass
class CellOutcome:
    """What happened to one cell during a sweep."""

    cell: Cell
    status: str            # completed | cached | timeout | failed | poisoned
    duration: float        # seconds spent computing (0 for cached)
    error: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "cached")


def execute_cells(cells: Sequence[Cell], scale: RunScale, *,
                  jobs: int = RunRequest.jobs,
                  timeout: float | None = RunRequest.timeout,
                  retries: int = 0, backoff: float = RunRequest.backoff,
                  grace: float = RunRequest.grace,
                  max_worker_deaths: int = RunRequest.max_worker_deaths,
                  on_outcome: Callable[[CellOutcome], None] | None = None,
                  on_report: Callable[[object], None] | None = None,
                  sleep: Callable[[float], None] = time.sleep,
                  pool: object | None = None) -> list[CellOutcome]:
    """Bring every cell to a terminal state; return one outcome each.

    ``on_outcome`` fires as each cell settles (manifest recording).
    A soft (SIGALRM) timeout is final — the budget would just expire
    again — while any other failure is retried up to *retries* times
    with jittered exponential backoff (serial and pooled paths share
    the :func:`~repro.resilience.isolation.backoff_delays` schedule).
    The knobs default as in :class:`~repro.request.RunRequest`, except
    *retries*: called directly, the engine retries nothing unless
    asked.

    With ``jobs > 1`` the supervised runtime adds two knobs: *grace*
    is the watchdog's SIGTERM→SIGKILL escalation period for workers
    hung past the budget, and *max_worker_deaths* quarantines a cell
    as ``poisoned`` once it has taken that many workers down with it.
    ``on_report`` receives the pool's
    :class:`~repro.supervise.pool.SupervisionReport` (crash records,
    respawn/kill counters) when a pooled phase ran.

    A caller that owns a long-lived
    :class:`~repro.supervise.pool.SupervisedPool` (the experiment
    service) passes it as *pool*: the batch runs on that fleet and the
    pool is **not** shut down here — its ``keep_alive`` lifecycle
    belongs to the owner, and *jobs*/*timeout*/... are superseded by
    the pool's own configuration.
    """
    outcomes: dict[Cell, CellOutcome] = {}

    def settle(outcome: CellOutcome) -> None:
        outcomes[outcome.cell] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    todo: list[Cell] = []
    for cell in dict.fromkeys(cells):           # dedup, order-preserving
        if has_cell(cell, scale):
            settle(CellOutcome(cell, "cached", 0.0, attempts=0))
        else:
            todo.append(cell)

    # grouped before the pool forks: workers inherit the suite systems
    # lane_key built
    groups = _lane_groups(todo, scale)
    if groups and (pool is not None or jobs > 1):
        try:
            if pool is None:
                # imported lazily: supervise.worker imports this module
                from ..supervise.pool import SupervisedPool

                pool = SupervisedPool(
                    jobs, scale, timeout=timeout, grace=grace,
                    retries=retries, backoff=backoff,
                    max_worker_deaths=max_worker_deaths)
            # largest first (a stable sort by lane count): a list
            # schedule that starts the longest units first leaves the
            # workers less idle at the end of the sweep
            largest = sorted(groups, key=len, reverse=True)
            leftover = pool.run(_split_groups(largest, pool.jobs), settle)
            if on_report is not None:
                on_report(pool.report)
            if leftover:
                print(f"!! supervised pool left {len(leftover)} cell(s) "
                      f"unfinished; finishing serially", file=sys.stderr)
        except Exception as exc:
            # defense in depth: even a broken supervisor must not sink
            # the sweep — finish the remaining cells serially
            print(f"!! cell pool failed ({type(exc).__name__}: {exc}); "
                  f"finishing remaining cells serially", file=sys.stderr)
        groups = [rest for rest in ([c for c in group if c not in outcomes]
                                    for group in groups) if rest]

    for group in groups:
        if len(group) > 1:
            _execute_lanes(group, scale, timeout, retries, backoff, sleep,
                           settle)
        else:
            settle(_execute_serial(group[0], scale, timeout, retries,
                                   backoff, sleep))

    return [outcomes[cell] for cell in dict.fromkeys(cells)]


def execute_request(cells: Sequence[Cell], request: RunRequest, *,
                    on_outcome: Callable[[CellOutcome], None] | None = None,
                    on_report: Callable[[object], None] | None = None,
                    pool: object | None = None) -> list[CellOutcome]:
    """:func:`execute_cells` driven by a :class:`repro.request.RunRequest`.

    The one place the request's execution knobs are unpacked into the
    engine — the runner CLI, :func:`repro.submit` and the experiment
    service all call through here, so the knob set cannot drift
    between surfaces.
    """
    return execute_cells(
        cells, request.run_scale, jobs=request.jobs,
        timeout=request.timeout, retries=request.retries,
        backoff=request.backoff, grace=request.grace,
        max_worker_deaths=request.max_worker_deaths,
        on_outcome=on_outcome, on_report=on_report, pool=pool)


def _lane_groups(todo: list[Cell], scale: RunScale) -> list[list[Cell]]:
    """*todo* split into lane groups, in the order of each group's
    first cell.  Every cell is a group of its own while an injector is
    active: it draws its faults per rounding call, so lanes would
    change which values it hits.  Collectors and tracers see lanes as
    they see the cells one by one."""
    if len(todo) < 2 or get_instrument("injector") is not None:
        return [[cell] for cell in todo]
    groups: dict[object, list[Cell]] = {}
    for cell in todo:
        key = lane_key(cell, scale)
        groups.setdefault(cell if key is None else key, []).append(cell)
    return list(groups.values())


def _split_groups(groups: list[list[Cell]], jobs: int
                  ) -> list[list[Cell]]:
    """*groups* with the largest halved until there are *jobs* of them
    or none has two cells; unchanged when there are already *jobs* or
    more.  A lane's bits never depend on its partners, so a split only
    keeps workers that would idle busy."""
    groups = list(groups)
    while len(groups) < jobs:
        i = max(range(len(groups)), key=lambda k: len(groups[k]))
        group = groups[i]
        if len(group) < 2:
            break
        half = (len(group) + 1) // 2
        groups[i:i + 1] = [group[:half], group[half:]]
    return groups


def run_group(cells: Sequence[Cell], scale: RunScale,
              timeout: float | None
              ) -> tuple[list[tuple[Cell, str, object, float, str | None]],
                         str | None]:
    """One attempt at a dispatch unit; returns ``(results, error)``.

    A lone cell gets its
    :func:`~repro.resilience.isolation.attempt` result.  A lane
    group runs as one :func:`~repro.experiments.common.compute_lanes`
    solve under the sum of its cells' budgets (``timeout ×
    len(cells)``); every cell is then ``completed``, its duration its
    share of the group's wall time by
    :func:`~repro.experiments.common.lane_seconds`, as its
    ``cell.compute`` span has it.  A group that raises or runs out of
    time returns no results and the error: its cells then run alone.
    Exceptions never escape.

    Results are ``(cell, status, value, duration, error)`` tuples.
    The serial engine and the supervised worker both run groups here;
    neither has stored anything yet.
    """
    if len(cells) == 1:
        cell = cells[0]
        return [(cell, *attempt(lambda: compute_cell(cell, scale), timeout,
                                cell.cell_id))], None
    budget = None if timeout is None else timeout * len(cells)
    t0 = time.perf_counter()
    try:
        with time_limit(budget, label=f"{len(cells)} lanes"):
            values = compute_lanes(list(cells), scale)
    except Exception as exc:
        return [], f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return [(cell, "completed", value, seconds, None)
            for cell, value, seconds in zip(cells, values,
                                            lane_seconds(wall, values))
            ], None


def _execute_lanes(cells: list[Cell], scale: RunScale,
                   timeout: float | None, retries: int, backoff: float,
                   sleep: Callable[[float], None],
                   settle: Callable[[CellOutcome], None]) -> None:
    """Run one lane group through :func:`run_group`, then store and
    settle each cell on its own.  A group that fails reruns its cells
    one by one through :func:`_execute_serial`, which gives each cell
    the status, retries and backoff of a run alone."""
    results, error = run_group(cells, scale, timeout)
    if error is not None:
        print(f"!! lane group of {len(cells)} cell(s) failed ({error}); "
              f"running them one by one", file=sys.stderr)
        for cell in cells:
            settle(_execute_serial(cell, scale, timeout, retries, backoff,
                                   sleep))
        return
    for cell, status, value, duration, _error in results:
        store_cell(cell, scale, value)
        settle(CellOutcome(cell, status, duration))


def _execute_serial(cell: Cell, scale: RunScale, timeout: float | None,
                    retries: int, backoff: float,
                    sleep: Callable[[float], None]) -> CellOutcome:
    status, value, duration, error, attempts = retrying(
        lambda: compute_cell(cell, scale), timeout, retries, backoff,
        cell.cell_id, what=f"cell {cell.cell_id}", sleep=sleep)
    if status == "completed":
        store_cell(cell, scale, value)
    return CellOutcome(cell, status, duration, error, attempts)
