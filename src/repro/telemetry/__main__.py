"""``python -m repro.telemetry`` — trace summaries and diffs.

Subcommands::

    summarize FILE               render one trace (sites, solvers, time)
                                 — or, given a run manifest JSON, its
                                 run/cell statuses and the supervised
                                 pool's crash/respawn/quarantine report
    diff OLD NEW                 counter/span deltas between two traces
"""

from __future__ import annotations

import argparse
import sys

from .analyze import (diff_traces, load_manifest_payload, render_diff,
                      render_manifest_summary, render_summary,
                      summarize_manifest, summarize_trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize and diff telemetry traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize",
                       help="render a trace file or a run manifest")
    p.add_argument("trace", help="JSON-lines trace file, or a "
                                 "run_manifest.json (auto-detected)")
    p.add_argument("--top", type=int, default=12,
                   help="rows in the top-sites/cells tables")

    p = sub.add_parser("diff", help="compare two trace files")
    p.add_argument("old", help="baseline trace")
    p.add_argument("new", help="current trace")

    args = parser.parse_args(argv)
    if args.command == "summarize":
        manifest = load_manifest_payload(args.trace)
        if manifest is not None:
            print(render_manifest_summary(summarize_manifest(manifest)))
        else:
            print(render_summary(summarize_trace(args.trace),
                                 top=args.top))
        return 0
    print(render_diff(diff_traces(args.old, args.new)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        sys.stderr.close()
        sys.exit(0)
