"""Trace analysis: summaries and trace diffs.

Pure functions over event lists (as read by :func:`read_events`) so the
CLI in ``__main__`` and the tests share one implementation.  Renderers
return strings; nothing here prints.
"""

from __future__ import annotations

import json
from typing import Iterable

from ..analysis.reporting import format_table

__all__ = ["diff_traces", "load_manifest_payload",
           "read_events", "render_diff",
           "render_manifest_summary", "render_summary",
           "summarize_manifest", "summarize_trace"]

#: the SiteCounters fields, in table-column order
COUNTER_FIELDS = ("total", "exact", "inexact", "nar", "saturated",
                  "overflow", "underflow_zero", "minpos_clamp")
#: counters flagging range exhaustion (the paper's §IV accounting)
EXCEPTION_FIELDS = ("nar", "saturated", "overflow", "underflow_zero",
                    "minpos_clamp")


def read_events(path: str) -> list[dict]:
    """Parse a JSON-lines trace file into a list of event dicts."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _ensure_events(trace: str | Iterable[dict]) -> list[dict]:
    if isinstance(trace, str):
        return read_events(trace)
    return list(trace)


def summarize_trace(trace: str | Iterable[dict]) -> dict:
    """Aggregate a trace (path or event list) into one summary dict.

    Keys: ``meta``; ``counters`` ``{(site, format): {field: n}}``;
    ``spans`` ``{name: {count, seconds}}``; ``cells`` ``{cell_id:
    seconds}`` (the per-cell time breakdown); ``solvers``
    ``{(solver, format): {iterations, final_residual, episodes}}``.
    """
    events = _ensure_events(trace)
    meta: dict = {}
    counters: dict[tuple[str, str], dict[str, int]] = {}
    spans: dict[str, dict[str, float]] = {}
    cells: dict[str, float] = {}
    solvers: dict[tuple[str, str], dict] = {}

    for ev in events:
        etype = ev.get("type")
        if etype == "meta":
            meta = {k: v for k, v in ev.items() if k != "type"}
        elif etype == "counters":
            key = (ev.get("site", "?"), ev.get("format", "?"))
            agg = counters.setdefault(
                key, {f: 0 for f in COUNTER_FIELDS})
            for f in COUNTER_FIELDS:
                agg[f] += int(ev.get(f, 0))
        elif etype == "span":
            name = ev.get("name", "?")
            agg = spans.setdefault(name, {"count": 0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += float(ev.get("seconds", 0.0))
            if name == "cell.compute" and "cell" in ev:
                cells[ev["cell"]] = (cells.get(ev["cell"], 0.0)
                                     + float(ev.get("seconds", 0.0)))
        elif etype == "solver":
            key = (ev.get("solver", "?"), ev.get("format") or "?")
            agg = solvers.setdefault(
                key, {"iterations": 0, "final_residual": None,
                      "episodes": {}})
            if ev.get("event") == "iteration":
                agg["iterations"] += 1
                if "residual" in ev:
                    agg["final_residual"] = ev["residual"]
            else:
                kind = ev.get("event", "?")
                agg["episodes"][kind] = agg["episodes"].get(kind, 0) + 1

    return {"meta": meta, "counters": counters, "spans": spans,
            "cells": cells, "solvers": solvers}


def render_summary(summary: dict, top: int = 12) -> str:
    """Human-readable report for one trace summary."""
    parts: list[str] = []
    label = summary["meta"].get("label")
    parts.append(f"trace: {label or '(unlabelled)'}")

    counters = summary["counters"]
    if counters:
        total = sum(c["total"] for c in counters.values())
        inexact = sum(c["inexact"] for c in counters.values())
        parts.append(f"\nroundings: {total} total, {inexact} inexact "
                     f"({100.0 * inexact / total:.1f}%)"
                     if total else "\nroundings: none recorded")
        by_total = sorted(counters.items(),
                          key=lambda kv: (-kv[1]["total"], kv[0]))
        rows = [(f"{site} [{fmt}]",) + tuple(c[f] for f in
                                             COUNTER_FIELDS)
                for (site, fmt), c in by_total[:top]]
        parts.append("\n" + format_table(
            ("site",) + COUNTER_FIELDS, rows,
            title=f"top {min(top, len(by_total))} sites by roundings",
            first_col_width=24, col_width=11))
        exceptional = [((site, fmt), c) for (site, fmt), c in by_total
                       if any(c[f] for f in EXCEPTION_FIELDS)]
        if exceptional:
            rows = [(f"{site} [{fmt}]",) + tuple(c[f] for f in
                                                 EXCEPTION_FIELDS)
                    for (site, fmt), c in exceptional]
            parts.append("\n" + format_table(
                ("site",) + EXCEPTION_FIELDS, rows,
                title="saturation / exception events",
                first_col_width=24, col_width=15))

    solvers = summary["solvers"]
    if solvers:
        rows = []
        for (solver, fmt), agg in sorted(solvers.items()):
            episodes = ", ".join(f"{k}x{v}" for k, v in
                                 sorted(agg["episodes"].items())) or "-"
            rows.append((f"{solver} [{fmt}]", agg["iterations"],
                         agg["final_residual"], episodes))
        parts.append("\n" + format_table(
            ("solver", "iters", "final_res", "episodes"), rows,
            title="solver traces", first_col_width=24, col_width=13))

    spans = summary["spans"]
    if spans:
        rows = [(name, agg["count"], agg["seconds"])
                for name, agg in sorted(
                    spans.items(), key=lambda kv: -kv[1]["seconds"])]
        parts.append("\n" + format_table(
            ("span", "count", "seconds"), rows,
            title="time breakdown by span", first_col_width=24))
    cells = summary["cells"]
    if cells:
        rows = sorted(cells.items(), key=lambda kv: -kv[1])[:top]
        parts.append("\n" + format_table(
            ("cell", "seconds"), rows,
            title=f"top {len(rows)} cells by compute time",
            first_col_width=44))
    return "\n".join(parts)


def load_manifest_payload(path: str) -> dict | None:
    """The run-manifest dict at *path*, or ``None`` if it is not one.

    Distinguishes a manifest (one pretty-printed JSON document with a
    ``runs`` map) from a trace (JSON-*lines* events) so ``summarize``
    can accept either file without a flag.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError:
        return None
    if isinstance(data, dict) and isinstance(data.get("runs"), dict):
        return data
    return None


def summarize_manifest(manifest: str | dict) -> dict:
    """Aggregate a run manifest (path or dict) into one summary dict.

    Keys: ``runs`` and ``cells`` — ``{status: count}`` maps;
    ``poisoned`` — quarantined cell ids; ``supervision`` — the
    supervised pool's report sections (one per pooled phase, each with
    crash/respawn/kill counters and per-crash records), or ``[]`` for
    serial sweeps.
    """
    if isinstance(manifest, str):
        data = load_manifest_payload(manifest)
        if data is None:
            raise ValueError(f"{manifest}: not a run manifest")
    else:
        data = manifest
    runs: dict[str, int] = {}
    for entry in data.get("runs", {}).values():
        status = entry.get("status", "?")
        runs[status] = runs.get(status, 0) + 1
    cells: dict[str, int] = {}
    poisoned: list[str] = []
    for cell_id, entry in data.get("cells", {}).items():
        status = entry.get("status", "?")
        cells[status] = cells.get(status, 0) + 1
        if status == "poisoned":
            poisoned.append(cell_id)
    supervision = data.get("supervision")
    if supervision is None:
        sections: list[dict] = []
    elif isinstance(supervision, list):
        sections = [s for s in supervision if isinstance(s, dict)]
    else:
        sections = [supervision] if isinstance(supervision, dict) else []
    return {"runs": runs, "cells": cells, "poisoned": sorted(poisoned),
            "supervision": sections}


def render_manifest_summary(summary: dict) -> str:
    """Human-readable report for a manifest summary (supervision view)."""
    parts: list[str] = []

    def _statuses(counts: dict[str, int]) -> str:
        return ", ".join(f"{n} {status}" for status, n in
                         sorted(counts.items())) or "none recorded"

    parts.append(f"experiments: {_statuses(summary['runs'])}")
    parts.append(f"cells: {_statuses(summary['cells'])}")
    if summary["poisoned"]:
        parts.append("poisoned cells:")
        parts.extend(f"  - {cell_id}" for cell_id in summary["poisoned"])

    if not summary["supervision"]:
        parts.append("\nsupervision: no pooled phase recorded "
                     "(serial sweep, or pre-supervision manifest)")
        return "\n".join(parts)

    rows = []
    crashes: list[dict] = []
    for section in summary["supervision"]:
        rows.append((section.get("scale", "?"), section.get("jobs"),
                     section.get("spawned"), section.get("respawns"),
                     section.get("worker_deaths"),
                     section.get("term_kills"),
                     section.get("hard_kills"),
                     len(section.get("quarantined") or ()),
                     "yes" if section.get("degraded") else "no"))
        crashes.extend(c for c in section.get("crashes", ())
                       if isinstance(c, dict))
    parts.append("\n" + format_table(
        ("scale", "jobs", "spawned", "respawns", "deaths", "term",
         "kill", "quar", "degraded"), rows,
        title="supervision (worker crashes / respawns / quarantine)",
        first_col_width=12, col_width=9))
    if crashes:
        crash_rows = [(_crashed_on(c), c.get("worker"),
                       c.get("kind"), c.get("signal") or c.get("exitcode"),
                       c.get("attempt"),
                       "-" if c.get("last_heartbeat_age_s") is None
                       else f"{c['last_heartbeat_age_s']:.1f}s")
                      for c in crashes]
        parts.append("\n" + format_table(
            ("cell", "worker", "kind", "cause", "attempt", "hb_age"),
            crash_rows, title="worker crash records",
            first_col_width=44, col_width=9))
    return "\n".join(parts)


def _crashed_on(crash: dict) -> str:
    """The cell (or lane group) a crash record names."""
    lanes = len(crash.get("cells") or ())
    return ((crash.get("cell") or "(idle)")
            + (f" +{lanes - 1} lanes" if lanes > 1 else ""))


def diff_traces(old: str | Iterable[dict],
                new: str | Iterable[dict]) -> dict:
    """Per-(site, format) counter deltas and per-span time deltas.

    Returns ``{"counters": {(site, fmt): {field: (old, new)}},
    "spans": {name: (old_s, new_s)}}`` — only entries that changed.
    """
    a = summarize_trace(old)
    b = summarize_trace(new)
    counter_delta: dict[tuple[str, str], dict[str, tuple[int, int]]] = {}
    zeros = {f: 0 for f in COUNTER_FIELDS}
    for key in sorted(set(a["counters"]) | set(b["counters"])):
        ca = a["counters"].get(key, zeros)
        cb = b["counters"].get(key, zeros)
        changed = {f: (ca[f], cb[f]) for f in COUNTER_FIELDS
                   if ca[f] != cb[f]}
        if changed:
            counter_delta[key] = changed
    span_delta: dict[str, tuple[float, float]] = {}
    for name in sorted(set(a["spans"]) | set(b["spans"])):
        sa = a["spans"].get(name, {}).get("seconds", 0.0)
        sb = b["spans"].get(name, {}).get("seconds", 0.0)
        span_delta[name] = (sa, sb)
    return {"counters": counter_delta, "spans": span_delta}


def render_diff(diff: dict) -> str:
    """Human-readable report for a trace diff."""
    parts: list[str] = []
    if not diff["counters"]:
        parts.append("counters: identical")
    else:
        rows = []
        for (site, fmt), changed in diff["counters"].items():
            for fieldname, (old, new) in changed.items():
                rows.append((f"{site} [{fmt}]", fieldname, old, new,
                             new - old))
        parts.append(format_table(
            ("site", "counter", "old", "new", "delta"), rows,
            title="counter changes", first_col_width=24))
    if diff["spans"]:
        rows = [(name, old, new) for name, (old, new) in
                diff["spans"].items() if old or new]
        if rows:
            parts.append("\n" + format_table(
                ("span", "old_s", "new_s"), rows,
                title="span time (informational — timing is noisy)",
                first_col_width=24))
    return "\n".join(parts)
