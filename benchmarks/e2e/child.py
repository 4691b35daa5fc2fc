"""One benchmark pass in a fresh process.

    python -m benchmarks.e2e.child '<job JSON>'

The harness starts one of these per pass, so every pass pays its own
interpreter start, imports and table loads, as a user's sweep does.
Job kinds:

* ``cold``    -- set-up, then the sweep with empty result caches; on
  the engine workload also the warm sweeps that read every cell back
  from the result cache the cold sweep wrote
* ``trace``   -- set-up, a cold sweep with all layers wrapped; on the
  engine workload also a warm sweep (cache reads)

The job's environment (results dir, ``REPRO_CACHE``, thread pinning)
is set by the harness.  The last line of stdout is one JSON object.
Only the standard library, NumPy (for the host-speed probe) and this
package's own modules are imported before the set-up timer starts.

A cold pass runs a :class:`~.hostspeed.HostClock` from before set-up
to after its last sweep and reports every time in reference seconds:
set-up, each sweep's wall and each cell's duration.  On a serial
workload the clock also leaves out the time the process spent off a
CPU.  Raw wall times are reported beside them.  The traced pass runs
without the clock, so its samples are not charged to whatever layer
they interrupt.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from .hostspeed import HostClock
from .layers import LayerTrace
from .workloads import (Workload, dispatch_order, enumerate_cells,
                        experiment_order)

__all__ = ["main", "canonical", "payload_digest", "column_digests",
           "run_cells", "summarize_outcomes"]

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "experiments" / "golden" / "smoke_digests.json"
#: warm sweeps per engine-workload cold process: one warm sweep takes
#: tens of milliseconds, so a process repeats it
WARM_REPEATS = 10


# -- output checks ---------------------------------------------------------

def canonical(value) -> str:
    """Deterministic text for a cell payload: flags and counts as text,
    every float as ``float.hex`` (so -0.0, inf and NaN all survive)."""
    import numpy as np

    if value is None or isinstance(value, (bool, np.bool_, str)):
        return repr(value if not isinstance(value, np.bool_)
                    else bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return "[" + ",".join(canonical(v) for v in value.ravel()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canonical(value[k])}"
                              for k in sorted(value)) + "}"
    if type(value).__name__ == "SolverTrace":
        # BiCGSTAB results always carry their per-iteration record
        return "SolverTrace" + canonical(value.events)
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + "(" + ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def payload_digest(cells, values: dict) -> str:
    """sha256 over every cell's canonical payload, sorted by cell id;
    a cell without a value (it failed) hashes as ``FAILED``."""
    digest = hashlib.sha256()
    for cell in sorted(cells, key=lambda c: c.cell_id):
        text = canonical(values[cell]) if cell in values else "FAILED"
        digest.update(f"{cell.cell_id}\t{text}\n".encode())
    return digest.hexdigest()


def _canon_csv(text: str) -> str:
    # the golden-file rule: floats to 10 significant digits
    try:
        f = float(text)
    except ValueError:
        return text
    return "nan" if math.isnan(f) else "%.10g" % f


def column_digests(csv_path: str) -> dict[str, str]:
    """Short sha256 per CSV column, as the committed golden file pins."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    headers, body = rows[0], rows[1:]
    return {name: hashlib.sha256("\n".join(
                _canon_csv(r[i]) for r in body).encode()).hexdigest()[:16]
            for i, name in enumerate(headers)}


def _golden_mismatches(csv_paths: list[str]) -> list[str]:
    """Columns of the produced CSVs that differ from the golden file."""
    want = json.loads(GOLDEN.read_text())
    produced = {os.path.basename(p): p for p in csv_paths if p}
    bad = [f"{name}: not produced" for name in want if name not in produced]
    for name in set(want) & set(produced):
        got = column_digests(produced[name])
        bad += [f"{name}:{col}" for col in sorted(set(want[name]) | set(got))
                if want[name].get(col) != got.get(col)]
    return bad


# -- sweeps ----------------------------------------------------------------

def summarize_outcomes(outcomes) -> dict:
    """Counts the harness needs from a list of ``CellOutcome``."""
    return {"attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if not o.ok),
            "not_cached": sum(1 for o in outcomes if o.status != "cached"),
            "durations": {o.cell.cell_id: o.duration for o in outcomes}}


def run_cells(cells, workload: Workload,
              tracer: LayerTrace | None = None) -> dict:
    """One serial sweep through the engine, payloads read back inside
    the timed region (memo hits on a cold sweep, the disk reads that
    are the work of a warm one)."""
    from repro.config import SCALES
    from repro.experiments import common, engine

    scale = SCALES[workload.scale]
    settled: dict = {}
    root = tracer.span("engine") if tracer else contextlib.nullcontext()
    with root:
        t0 = time.perf_counter()
        outcomes = engine.execute_cells(cells, scale, jobs=workload.jobs,
                                        on_outcome=_settle_times(settled))
        values = {o.cell: common.cell_value(o.cell, scale)
                  for o in outcomes if o.ok}
        end = time.perf_counter()
    return {"start": t0, "end": end, "wall_s": end - t0,
            "outcomes": outcomes, "values": values, "settled": settled,
            "assemble_s": 0.0, "reports": [], "golden": []}


def _settle_times(settled: dict, then=None):
    """An ``on_outcome`` callback noting when each cell settled, so
    its duration can be placed in time: it ran in
    ``[settled - duration, settled]``."""
    def on_outcome(outcome):
        settled[outcome.cell.cell_id] = time.perf_counter()
        if then is not None:
            then(outcome)
    return on_outcome


def _submit(cells, workload: Workload, ids: list,
            tracer: LayerTrace | None = None) -> dict:
    """One sweep through :func:`repro.submit`, capturing the engine's
    outcomes and supervision reports on their way back to it."""
    import repro
    from repro.config import SCALES
    from repro.experiments import common, engine

    captured: dict = {"outcomes": [], "reports": [], "done": None,
                      "settled": {}}
    execute_request = engine.execute_request

    def capture(batch, request, **kwargs):
        kwargs.setdefault("on_report", captured["reports"].append)
        kwargs["on_outcome"] = _settle_times(captured["settled"],
                                             kwargs.get("on_outcome"))
        outcomes = execute_request(batch, request, **kwargs)
        captured["outcomes"].extend(outcomes)
        captured["done"] = time.perf_counter()
        return outcomes

    root = tracer.span("engine") if tracer else contextlib.nullcontext()
    engine.execute_request = capture
    try:
        with root:
            t0 = time.perf_counter()
            try:
                results = repro.submit(ids, scale=workload.scale,
                                       jobs=workload.jobs, quiet=True)
            except RuntimeError as exc:   # a cell failed; outcomes say which
                print(f"!! {exc}", file=sys.stderr)
                results = {}
            end = time.perf_counter()
    finally:
        engine.execute_request = execute_request
    scale = SCALES[workload.scale]
    values = {o.cell: common.cell_value(o.cell, scale)
              for o in captured["outcomes"] if o.ok}
    golden = _golden_mismatches([r.csv_path for r in results.values()]) \
        if results else ["no CSVs assembled"]
    return {"start": t0, "end": end, "wall_s": end - t0,
            "outcomes": captured["outcomes"], "values": values,
            "settled": captured["settled"], "reports": captured["reports"],
            "assemble_s": end - (captured["done"] or end),
            "golden": golden}


def _cold(cells, workload, seed, pass_index, tracer=None) -> dict:
    if workload.experiments:
        ids = experiment_order(workload.experiments, seed, pass_index)
        return _submit(cells, workload, ids, tracer)
    return run_cells(dispatch_order(cells, seed, pass_index), workload,
                     tracer)


def _warm(cells, workload, tracer=None) -> dict:
    """The engine workload's sweep again, every cell in the result cache
    its cold sweep wrote."""
    return _submit(cells, workload, list(workload.experiments), tracer)


def _report(sweep: dict, cells, clock: HostClock | None = None) -> dict:
    """Counts, checks and times of one sweep; with a (stopped) clock,
    the wall and every cell duration in reference seconds."""
    out = summarize_outcomes(sweep["outcomes"])
    out.update(wall_s=sweep["wall_s"], raw_wall_s=sweep["wall_s"],
               golden=sweep["golden"],
               digest=payload_digest(cells, sweep["values"]))
    if clock is not None:
        settled = sweep["settled"]
        out["wall_s"] = clock.ref_seconds(sweep["start"], sweep["end"])
        out["durations"] = {
            cid: clock.ref_seconds(settled[cid] - seconds, settled[cid])
            for cid, seconds in out["durations"].items()}
    return out


def _warm_repeats(cells, workload: Workload) -> list[dict]:
    """``WARM_REPEATS`` warm sweeps, each timed alone, the in-process
    memo cleared before each so every payload is re-read from disk."""
    from repro.experiments import common

    sweeps = []
    for _ in range(WARM_REPEATS):
        common.clear_cache()
        sweeps.append(_warm(cells, workload))
    return sweeps


def _cache_size(results_dir: str) -> tuple[int, int]:
    """(entries, bytes) of the result cache, table store excluded."""
    from repro.experiments.cache import CACHE_DIR_NAME

    entries = size = 0
    for dirpath, dirnames, filenames in os.walk(
            os.path.join(results_dir, CACHE_DIR_NAME)):
        dirnames[:] = [d for d in dirnames if d != "tables"]
        for name in filenames:
            if name.endswith(".pkl"):
                entries += 1
                size += os.path.getsize(os.path.join(dirpath, name))
    return entries, size


def _cost_model(tracer: LayerTrace) -> dict:
    """Fitted per-format rounding cost vs the kernel microbench at
    n = 32 and n = 65536 (run after the wrappers are removed)."""
    from repro.kernels.bench import microbench

    names = tuple(sorted(f for f, fit in tracer.fits.items() if fit.n > 1))
    bench = microbench(formats=names, sizes=(32, 65536), ctx_formats=(),
                       repeats=3, only=("quantize/",))
    out = {}
    for name in names:
        fit = tracer.fits[name]
        row = {"calls": fit.n, "c0_us": fit.c0 * 1e6,
               "c1_ns": fit.c1 * 1e9, "r2": fit.r2}
        for n in (32, 65536):
            row[f"n{n}"] = {"fit_us": fit.predict(n) * 1e6,
                            "bench_us": bench[f"quantize/{name}/n{n}"]
                            ["seconds"] * 1e6}
        out[name] = row
    return out


def _trace(cells, formats, workload, job, tracer, import_s) -> dict:
    serial = workload.jobs == 1
    if serial:
        tracer.install_compute(formats)
    layers = ("engine", "cell", "cache", "setup", "solver", "op", "fold",
              "rounding")
    before = {k: tracer.self_seconds(k) for k in layers}
    cold = _cold(cells, workload, job["seed"], job["pass"], tracer)
    breakdown = {k: tracer.self_seconds(k) - before[k] for k in layers}
    warm = None
    if not serial:
        # the cold sweep filled the result cache; read it back
        from repro.experiments import common
        common.clear_cache()
        warm = _warm(cells, workload, tracer)
    tracer.uninstall()

    metrics = tracer.metrics()
    busy = sum(o.duration for o in cold["outcomes"])
    wall = cold["wall_s"]
    entries, size = _cache_size(os.environ["REPRO_RESULTS_DIR"])
    metrics.update({
        "engine.cells": len(cold["outcomes"]),
        "engine.busy_frac": busy / (workload.jobs * wall),
        "engine.overhead_s": wall - busy / workload.jobs,
        "engine.worker_spawns": sum(r.spawned for r in cold["reports"]),
        "engine.worker_deaths": sum(r.worker_deaths
                                    for r in cold["reports"]),
        "engine.assemble_s": cold["assemble_s"],
        "cache.entries": entries, "cache.bytes": size,
        "setup.import_s": import_s})
    tracer.write_spans(job["spans_path"])
    out = _report(cold, cells)
    out.update(warm=warm and _report(warm, cells), layers=metrics,
               breakdown=breakdown, spans=len(tracer.spans),
               costmodel=_cost_model(tracer) if serial else {})
    return out


def _load_tables(formats) -> None:
    """Load (or, on a machine's first run, build) every rounding table
    the workload's formats use: small arrays take the dense table of a
    16-bit format, large ones the two-level table."""
    import numpy as np
    from repro.formats import get_format

    for name in formats:
        fmt = get_format(name)
        for n in (1, 1024):
            fmt.round(np.linspace(-2.0, 2.0, n))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _setup(workload: Workload, tracer: LayerTrace | None = None) -> dict:
    """Set-up as a user's fresh process pays it: import, enumerate the
    cells, load the rounding tables."""
    t0 = time.perf_counter()
    import repro  # noqa: F401  -- timed as part of set-up
    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install_parent()
    cells = enumerate_cells(workload)
    formats = sorted({c.fmt for c in cells} - {"fp64"})
    _load_tables(formats)
    return {"cells": cells, "formats": formats, "import_s": import_s,
            "start": t0, "end": time.perf_counter()}


def _cold_pass(job: dict, workload: Workload) -> dict:
    """Set-up, the cold sweep and (engine workload) the warm sweeps,
    all under the host-speed clock, reported in reference seconds."""
    clock = HostClock(workload.slowdown_exponent,
                      cpu_share=workload.jobs == 1)
    clock.start()
    try:
        setup = _setup(workload)
        cells = setup["cells"]
        sweep = _cold(cells, workload, job["seed"], job["pass"])
        warm = (_warm_repeats(cells, workload) if workload.experiments
                else [])
    finally:
        clock.stop()
    out = _report(sweep, cells, clock)
    out.update(setup_s=clock.ref_seconds(setup["start"], setup["end"]),
               raw_setup_s=setup["end"] - setup["start"],
               clock_samples=clock.samples(), warm=None)
    if warm:
        out["warm"] = _report(warm[-1], cells, clock)
        out["warm"]["walls"] = [clock.ref_seconds(w["start"], w["end"])
                                for w in warm]
    return out


def main(argv: list[str] | None = None) -> int:
    job = json.loads((sys.argv[1:] if argv is None else argv)[0])
    kind = job["kind"]
    workload = Workload(**job["workload"])
    if kind == "cold":
        out = _cold_pass(job, workload)
    elif kind == "trace":
        tracer = LayerTrace()
        setup = _setup(workload, tracer)
        out = {"setup_s": setup["end"] - setup["start"]}
        out.update(_trace(setup["cells"], setup["formats"], workload, job,
                          tracer, setup["import_s"]))
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    out["rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
