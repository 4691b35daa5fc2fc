"""repro.telemetry — tracing, op-level metrics and profiling.

The paper's central evidence is *per-iteration* and *per-operation*
behaviour: residual histories (Figs. 6–9), rounding/precision
distributions (Figs. 3/5), underflow/overflow accounting (§IV).  This
package makes those quantities first-class observables of the live
stack instead of ad-hoc post-hoc measurements:

``collector``
    :class:`Collector` — cheap vectorized per-site counters hooked into
    every :class:`~repro.arith.context.FPContext` rounding site:
    roundings, exact vs. inexact results, NaR/NaN productions,
    maxpos saturations, minpos clamps, underflow-to-zero and IEEE
    overflow events.  Near-zero overhead when inactive.

``trace``
    :class:`Tracer` — a JSON-lines event sink; :func:`span` timing
    contexts around engine cells, cache lookups and matrix loads;
    :class:`SolverTrace` — the per-iteration event recorder every
    solver in :mod:`repro.linalg` emits into; and
    :func:`trace_session`, which bundles collector + tracer + trace
    file for a whole experiment run.

``analyze``
    Trace summarization (top sites by rounding count, saturation
    tables, per-cell time breakdown) and trace diffing for
    regression hunting — also available from the shell::

        python -m repro.telemetry summarize results/traces/run.jsonl
        python -m repro.telemetry diff old.jsonl new.jsonl

Activation is ambient (the same registry as the fault injector — see
``repro.arith.context.set_instrument``), so arbitrary solver code is
observable without modification::

    from repro.telemetry import Collector, collecting

    with collecting() as col:
        repro.run_experiment("fig6")
    col.snapshot()          # {site: {format: SiteCounters}}
"""

from .collector import Collector, SiteCounters, collecting
from .trace import (SolverTrace, TraceSession, Tracer, active_tracer,
                    maybe_trace, span, trace_session, traces_dir, tracing)
from .analyze import (diff_traces, read_events, render_diff,
                      render_summary, summarize_trace)

__all__ = [
    "Collector", "SiteCounters", "collecting",
    "SolverTrace", "TraceSession", "Tracer", "active_tracer",
    "maybe_trace", "span", "trace_session", "traces_dir", "tracing",
    "diff_traces", "read_events", "render_diff", "render_summary",
    "summarize_trace",
]
