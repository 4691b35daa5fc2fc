"""Command-line entry point: ``python -m repro.experiments <exp> [...]``.

Regenerates any (or every) paper artifact, crash-safely and — since
PR 2 — cell-parallel and persistently cached::

    python -m repro.experiments table1 fig6 --scale small
    python -m repro.experiments all --scale medium --jobs 4
    python -m repro.experiments all --resume
    repro-experiments list

A sweep runs in two phases.  **Phase 1** gathers every *cell* — one
``(solver, matrix, format)`` run — needed by the requested experiments
(shared cells, e.g. Table III and Fig. 10 consuming the same IR runs,
are executed once), and drives them through the cell engine: across
``--jobs N`` *supervised* worker processes (heartbeats, external
watchdog kills with ``--grace`` escalation, respawn, poison-cell
quarantine after ``--max-worker-deaths``; see ``repro.supervise``),
each cell under the ``--timeout`` budget with ``--retries``, each
outcome recorded in the JSON manifest — including a ``supervision``
section with per-crash diagnostics — and each payload persisted in
the content-addressed result cache under ``results/.cache/``.
**Phase 2** assembles each experiment's table/figure from the (now
warm) cache and writes its CSV atomically.

Because cells persist as they finish, a sweep killed at any instant
loses at most the cells in flight; ``--resume`` (or simply re-running)
re-executes only unfinished cells, and a fully warm re-run of the
whole suite is near-instant.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..analysis.reporting import results_dir
from ..config import RunScale
from ..request import RunRequest
from ..resilience.isolation import retrying
from ..resilience.manifest import MANIFEST_NAME, RunManifest
from .cache import cache_enabled, reset_cache_stats
from .common import Cell, ExperimentResult
from .engine import CellOutcome, execute_request
from .registry import PAPER_ARTIFACTS, REGISTRY, get_experiment

__all__ = ["EXPERIMENTS", "PAPER_ARTIFACTS", "main", "run_experiment"]

#: experiment id → :class:`ExperimentSpec` (self-populating registry)
EXPERIMENTS = REGISTRY


def run_experiment(exp_id: str, scale: RunScale | None = None,
                   quiet: bool = False,
                   trace: bool | str = False) -> ExperimentResult:
    """Run one experiment by id (programmatic entry point).

    With ``trace`` truthy the run executes inside a
    :func:`repro.telemetry.trace_session`: op-level rounding counters
    and span/solver events are recorded to a JSON-lines file (a string
    *trace* names the file; ``True`` defaults to
    ``results/traces/<exp_id>.jsonl``), the result cache is off for
    the duration (counters measure the computation, not the cache
    temperature), and the result's ``trace_path`` points at the file.
    """
    spec = get_experiment(exp_id)
    if not trace:
        return spec.run(scale=scale, quiet=quiet)
    from ..telemetry.trace import trace_session, traces_dir

    path = (trace if isinstance(trace, str)
            else os.path.join(traces_dir(), f"{exp_id}.jsonl"))
    with trace_session(path, label=exp_id) as session:
        result = spec.run(scale=scale, quiet=quiet)
    result.trace_path = session.path
    return result


def _gather_cells(ids: list[str], scale: RunScale
                  ) -> dict[Cell, list[str]]:
    """Cell → owning experiment ids, shared cells merged (run once)."""
    owners: dict[Cell, list[str]] = {}
    for eid in ids:
        for cell in get_experiment(eid).enumerate_cells(scale):
            owners.setdefault(cell, []).append(eid)
    return owners


def _run_cell_phase(owners: dict[Cell, list[str]], request: RunRequest,
                    manifest: RunManifest
                    ) -> tuple[dict[str, list[str]], dict[str, float],
                               list[CellOutcome]]:
    """Execute the gathered cells; returns (failures by experiment,
    compute-seconds by experiment, all outcomes).

    When the supervised pool ran (``jobs > 1``) its report — worker
    crash records, respawn/kill counters, quarantined cells — is
    persisted as the manifest's ``supervision`` section and a one-line
    summary is printed, so an unattended sweep's survival story is
    readable afterwards (``python -m repro.telemetry summarize
    results/run_manifest.json``).
    """
    scale = request.run_scale
    failures: dict[str, list[str]] = {}
    compute_s: dict[str, float] = {}

    def record(outcome: CellOutcome) -> None:
        cell = outcome.cell
        manifest.record_cell(
            cell.cell_id, status=outcome.status, scale=scale.name,
            duration=outcome.duration,
            experiments=tuple(owners[cell]), error=outcome.error,
            attempts=outcome.attempts)
        for eid in owners[cell]:
            compute_s[eid] = compute_s.get(eid, 0.0) + outcome.duration
            if not outcome.ok:
                failures.setdefault(eid, []).append(
                    f"{cell.cell_id}: {outcome.status}"
                    + (f" ({outcome.error})" if outcome.error else ""))

    def record_supervision(report) -> None:
        payload = {"scale": scale.name, **report.as_dict()}
        manifest.record_section("supervision", payload)
        if report.worker_deaths or report.quarantined or report.degraded:
            print(f"===== supervision: {report.worker_deaths} worker "
                  f"death(s) ({report.term_kills} watchdog SIGTERMs, "
                  f"{report.hard_kills} SIGKILL escalations), "
                  f"{report.respawns} respawn(s), "
                  f"{len(report.quarantined)} quarantined cell(s)"
                  + (", degraded to serial" if report.degraded else ""))

    outcomes = execute_request(
        list(owners), request, on_outcome=record,
        on_report=record_supervision)
    return failures, compute_s, outcomes


def _record_trace(manifest: RunManifest, session) -> None:
    """Persist the traced sweep's summary into the run manifest.

    The per-cell wall-clock aggregation (``cell_seconds``) comes from
    the ``cell.compute`` span events, giving manifest v2 a per-cell
    time breakdown alongside its per-cell outcome records.
    """
    cells: dict[str, float] = {}
    for ev in session.tracer.events:
        if (ev.get("type") == "span" and ev.get("name") == "cell.compute"
                and "cell" in ev):
            cells[ev["cell"]] = (cells.get(ev["cell"], 0.0)
                                 + float(ev.get("seconds", 0.0)))
    manifest.record_section("trace", {
        "path": session.path,
        "label": session.label,
        "events": len(session.tracer.events),
        "roundings": session.collector.total(),
        "cell_seconds": {cid: round(s, 4)
                         for cid, s in sorted(cells.items())},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids, 'all' (paper artifacts), "
                             "'everything' (incl. extensions), or 'list'")
    RunRequest.add_flags(parser)
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments the run manifest records "
                             "as completed at this scale (cells are "
                             "always reused from the result cache)")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print result-cache hit/miss/invalidation "
                             "counts after the sweep (always recorded "
                             "in the run manifest)")
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for eid, spec in EXPERIMENTS.items():
            print(f"{eid:12s} {spec.title}")
        return 0

    ids: list[str] = []
    for e in args.experiments:
        if e == "all":
            ids.extend(PAPER_ARTIFACTS)
        elif e == "everything":
            ids.extend(EXPERIMENTS)
        elif e in EXPERIMENTS:
            ids.append(e)
        else:
            print(f"error: unknown experiment {e!r} "
                  f"(choose from: {', '.join(EXPERIMENTS)}, all, "
                  f"everything, list)", file=sys.stderr)
            return 2
    ids = list(dict.fromkeys(ids))      # dedup, keep request order

    # the CLI flags normalize into the same RunRequest the service and
    # repro.submit() build — one knob set across every entry point
    try:
        request = RunRequest.from_flags(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scale = request.run_scale
    jobs = request.jobs

    manifest = RunManifest(os.path.join(results_dir(),
                                        MANIFEST_NAME)).load()

    skipped = set()
    if args.resume:
        for eid in ids:
            if manifest.is_complete(eid, scale.name):
                skipped.add(eid)

    # ---- Telemetry: cache counters + optional trace session ----------
    stats = reset_cache_stats()
    from ..kernels.matcache import matrix_cache
    from ..kernels.lut import lut_enabled
    from ..kernels.tabcache import table_stats
    matrix_cache().counters.reset()
    table_stats().reset()
    if request.trace and jobs != 1:
        print(f"note: --trace forces --jobs 1 (was {jobs}); worker "
              f"processes cannot feed the in-process collector",
              file=sys.stderr)
        request = request.replace(jobs=1)
        jobs = 1
    session_cm = session = None
    if request.trace:
        from ..telemetry.trace import trace_session, traces_dir
        label = ids[0] if len(ids) == 1 else "sweep"
        session_cm = trace_session(
            os.path.join(traces_dir(), f"{label}.jsonl"), label=label)
        session = session_cm.__enter__()

    failures: list[tuple[str, str]] = []
    try:
        # ---- Phase 1: the cell grid (shared, parallel, cached) --------
        owners = _gather_cells([e for e in ids if e not in skipped],
                               scale)
        cell_failures: dict[str, list[str]] = {}
        compute_s: dict[str, float] = {}
        if owners:
            print(f"===== cell grid: {len(owners)} cells for "
                  f"{len(ids) - len(skipped)} experiment(s) at scale "
                  f"{scale.name!r}, jobs={jobs}")
            cell_failures, compute_s, outcomes = _run_cell_phase(
                owners, request, manifest)
            cached = sum(1 for o in outcomes if o.status == "cached")
            computed = sum(1 for o in outcomes
                           if o.status == "completed")
            bad = len(outcomes) - cached - computed
            print(f"===== cell grid done: {computed} computed, "
                  f"{cached} cached" + (f", {bad} FAILED" if bad else ""))

        # ---- Phase 2: assemble each artifact from the warm cache ------
        for eid in ids:
            spec = get_experiment(eid)
            n_cells = len(spec.enumerate_cells(scale))
            if eid in skipped:
                print(f"===== {eid} already completed at scale "
                      f"{scale.name!r}; skipping (--resume)")
                continue
            t0 = time.time()
            print(f"\n===== {eid} ({spec.title}) =====")
            if eid in cell_failures:
                why = "; ".join(cell_failures[eid][:3])
                more = len(cell_failures[eid]) - 3
                if more > 0:
                    why += f"; +{more} more"
                error = (f"{len(cell_failures[eid])} cell(s) failed: "
                         f"{why}")
                manifest.record(
                    eid, status="failed", scale=scale.name,
                    duration=time.time() - t0, error=error,
                    extra={"cells": n_cells,
                           "cell_compute_s":
                               round(compute_s.get(eid, 0.0), 3)})
                failures.append((eid, f"failed: {error}"))
                print(f"----- {eid} failed: {error}", file=sys.stderr)
                continue
            # crash isolation: a failed assembly is retried with
            # backoff, a timeout is final
            status, result, _, error, attempts = retrying(
                lambda: run_experiment(eid, scale=scale), request.timeout,
                request.retries, request.backoff, eid)
            dt = time.time() - t0
            csv_path = result.csv_path if result is not None else None
            cell_s = compute_s.get(eid, 0.0)
            manifest.record(
                eid, status=status, scale=scale.name, duration=dt,
                csv_path=csv_path, error=error, attempts=attempts,
                extra={"cells": n_cells, "cell_compute_s": round(cell_s, 3)})
            if status == "completed":
                where = f" [csv: {csv_path}]" if csv_path else ""
                # dt times the assembly only; the cells were computed in
                # the grid phase above
                print(f"----- {eid} done: cells {cell_s:.1f}s, "
                      f"assembly {dt:.1f}s{where}")
            else:
                failures.append((eid, f"{status}: {error}"))
                print(f"----- {eid} {status} after {dt:.1f}s "
                      f"({attempts} attempt"
                      f"{'s' if attempts != 1 else ''}): "
                      f"{error}", file=sys.stderr)
    finally:
        # the trace session flushes its file even when a phase raised —
        # a killed sweep keeps the events recorded so far
        if session_cm is not None:
            session_cm.__exit__(*sys.exc_info())

    if session is not None:
        _record_trace(manifest, session)
        print(f"\ntrace written: {session.path} "
              f"({len(session.tracer.events)} events, "
              f"{session.collector.total()} roundings) — summarize "
              f"with: python -m repro.telemetry summarize "
              f"{session.path}")
    manifest.record_section("cache", {
        "scale": scale.name, **stats.as_dict()})
    mstats = matrix_cache().stats()
    manifest.record_section("matrix_cache", {
        "scale": scale.name, **mstats})
    tstats = table_stats().as_dict()
    manifest.record_section("table_cache", {
        "scale": scale.name, "enabled": lut_enabled(),
        **tstats})
    if args.cache_stats:
        s = stats.as_dict()
        print(f"\ncache: {s['hits']} hits / {s['lookups']} lookups, "
              f"{s['misses']} misses, {s['stores']} stores, "
              f"{s['invalidations']} invalidations"
              + (" [REPRO_CACHE=off]" if not cache_enabled() else ""))
        print(f"matrix cache: {mstats['hits']} hits, "
              f"{mstats['misses']} misses, "
              f"{mstats['evictions']} evictions")
        print(f"table cache: {tstats['hits']} hits, "
              f"{tstats['misses']} misses, {tstats['builds']} builds, "
              f"{tstats['invalidations']} invalidations"
              + ("" if lut_enabled() else " [REPRO_LUT=off]"))

    if failures:
        print(f"\n{len(failures)}/{len(ids)} experiments did not "
              f"complete:", file=sys.stderr)
        for eid, why in failures:
            print(f"  {eid}: {why}", file=sys.stderr)
        print("re-run with --resume to retry only these.",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
