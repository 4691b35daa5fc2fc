"""Terminal rendering and CSV output for experiment results.

Every experiment produces (a) a human-readable ASCII table or bar chart
printed to stdout — the reproduction of the paper's table/figure — and
(b) a CSV file under ``results/`` for downstream plotting.  Keeping the
renderer here means experiment modules contain nothing but workload
logic.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_table", "format_bar_chart", "write_csv",
           "write_json", "results_dir", "fmt_value"]


def results_dir() -> str:
    """The output directory for CSV artifacts (created on demand).

    Override with ``REPRO_RESULTS_DIR``; defaults to ``./results``.
    """
    path = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(path, exist_ok=True)
    return path


def fmt_value(v, width: int = 9) -> str:
    """Render one cell: ints plain, floats in compact scientific form."""
    if v is None:
        return "-".rjust(width)
    if isinstance(v, str):
        return v.rjust(width)
    if isinstance(v, (int, np.integer)):
        return str(int(v)).rjust(width)
    if isinstance(v, (float, np.floating)):
        if math.isnan(v):
            return "nan".rjust(width)
        if math.isinf(v):
            return ("inf" if v > 0 else "-inf").rjust(width)
        if v == 0:
            return "0".rjust(width)
        if 0.01 <= abs(v) < 10000:
            return f"{v:.3g}".rjust(width)
        return f"{v:.2e}".rjust(width)
    return str(v).rjust(width)


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "", col_width: int = 11,
                 first_col_width: int = 10) -> str:
    """Render an ASCII table (first column left-aligned, rest right)."""
    lines = []
    if title:
        lines.append(title)
    head = headers[0].ljust(first_col_width) + "".join(
        h.rjust(col_width) for h in headers[1:])
    lines.append(head)
    lines.append("-" * len(head))
    for row in rows:
        first, *rest = row
        lines.append(str(first).ljust(first_col_width) + "".join(
            fmt_value(v, col_width) for v in rest))
    return "\n".join(lines)


def format_bar_chart(labels: Sequence[str], values: Sequence[float],
                     title: str = "", width: int = 46,
                     value_format: str = "{:.2f}") -> str:
    """Render a horizontal ASCII bar chart (the "figure" renderer).

    Negative values draw to the left of a center axis so the
    percent-improvement figures (6b, 7b, 10a) read like the paper's.
    """
    values = [float(v) for v in values]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        finite = [0.0]
    vmax = max(max(finite), 0.0)
    vmin = min(min(finite), 0.0)
    span = (vmax - vmin) or 1.0
    neg_w = int(round(width * (-vmin) / span))
    pos_w = width - neg_w
    label_w = max((len(str(l)) for l in labels), default=4) + 1

    lines = []
    if title:
        lines.append(title)
    for label, v in zip(labels, values):
        if not math.isfinite(v):
            bar = " " * neg_w + "|" + " (n/a)"
            lines.append(f"{str(label):<{label_w}}{bar}")
            continue
        if v >= 0:
            k = int(round(pos_w * v / span)) if span else 0
            bar = " " * neg_w + "|" + "#" * k
        else:
            k = int(round(neg_w * (-v) / span)) if span else 0
            bar = " " * (neg_w - k) + "#" * k + "|"
        lines.append(f"{str(label):<{label_w}}{bar} "
                     + value_format.format(v))
    return "\n".join(lines)


def write_json(filename: str, payload) -> str:
    """Atomically write *payload* as JSON under ``results/``.

    Used for machine-readable reports, such as the oracle conformance
    report (``python -m repro.oracle.conformance``).
    """
    import json

    from ..resilience.atomic import atomic_write_text

    path = os.path.join(results_dir(), filename)
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(filename: str, headers: Sequence[str],
              rows: Iterable[Sequence]) -> str:
    """Write rows to ``results/<filename>``; returns the full path.

    The write is atomic (temporary sibling + ``os.replace``) so an
    interrupted or killed sweep can never leave a truncated artifact
    behind — a CSV that exists is complete.
    """
    from ..resilience.atomic import atomic_open

    path = os.path.join(results_dir(), filename)
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
    return path
