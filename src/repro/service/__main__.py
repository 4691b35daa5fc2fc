"""``python -m repro.service`` — serve, submit, status, quantize.

``serve`` runs the server in the foreground until interrupted::

    python -m repro.service serve --socket /tmp/repro.sock --jobs 4
    python -m repro.service serve --port 7341 --jobs 4 --timeout 120

``submit`` runs experiments through a server and streams progress::

    python -m repro.service submit --address unix:/tmp/repro.sock \\
        --scale smoke fig6 table3

``status`` prints the server's live counters as JSON; ``quantize``
rounds values in a format server-side (a protocol smoke test)::

    python -m repro.service status --address 127.0.0.1:7341
    python -m repro.service quantize --address 127.0.0.1:7341 \\
        --fmt posit16es1 0.1 0.2 0.3
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys

from ..request import RunRequest
from .client import Client, parse_address
from .protocol import PROTOCOL_VERSION, CellEvent
from .server import ExperimentServer


def _add_address(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--address", default=os.environ.get("REPRO_SERVICE_ADDRESS"),
        help="server address: 'unix:/path' or 'host:port' "
             "(default: $REPRO_SERVICE_ADDRESS)")


def _require_address(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> str:
    if not args.address:
        parser.error("--address is required "
                     "(or set REPRO_SERVICE_ADDRESS)")
    try:
        parse_address(args.address)
    except ValueError as exc:
        parser.error(str(exc))
    return args.address


def _connect(address: str, name: str) -> Client:
    """A client of the server at *address*; a server that cannot be
    reached ends the command with one line naming the address."""
    try:
        return Client(address, name=name)
    except OSError as exc:
        print(f"error: cannot reach the service at {address}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _request(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> RunRequest:
    """The request the command's knob flags ask for; a bad value (or
    a bad ``$REPRO_SCALE`` / ``$REPRO_JOBS``) is a usage error."""
    try:
        return RunRequest.from_flags(args)
    except ValueError as exc:
        parser.error(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="the repro experiment service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the server (foreground)")
    where = serve.add_mutually_exclusive_group()
    where.add_argument("--socket", metavar="PATH",
                       help="listen on a unix domain socket")
    where.add_argument("--port", type=int, default=None,
                       help="listen on 127.0.0.1:PORT (0 = pick free)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default: 127.0.0.1)")
    # the execution knobs the server applies to every job; the scale
    # comes with each job and a trace is refused (see ExperimentServer)
    RunRequest.add_flags(serve, ("jobs", "timeout", "retries", "backoff",
                                 "grace", "max_worker_deaths"))
    serve.add_argument("--max-pending-jobs", type=int, default=8,
                       help="per-client in-flight job bound "
                            "(default: 8)")
    serve.add_argument("--batch-delay", type=float, default=0.05,
                       help="coalescing window seconds (default: 0.05)")

    submit = sub.add_parser("submit",
                            help="run experiments through a server")
    _add_address(submit)
    submit.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                        help="experiment ids (see `python -m "
                             "repro.experiments list`)")
    RunRequest.add_flags(submit, ("scale",))
    submit.add_argument("--quiet", action="store_true",
                        help="suppress the per-cell progress stream")

    status = sub.add_parser("status",
                            help="print server counters as JSON")
    _add_address(status)

    quantize = sub.add_parser("quantize",
                              help="round values in a format "
                                   "server-side")
    _add_address(quantize)
    quantize.add_argument("--fmt", required=True,
                          help="format name (e.g. posit16es1, fp32)")
    quantize.add_argument("values", nargs="+", type=float,
                          metavar="VALUE")

    return parser


def _cmd_serve(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    request = _request(args, parser)
    server = ExperimentServer(
        socket_path=args.socket, host=args.host,
        port=args.port if args.port is not None else 0,
        request=request, max_pending_jobs=args.max_pending_jobs,
        batch_delay=args.batch_delay)

    async def main() -> None:
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        terminated = []

        def terminate() -> None:
            terminated.append(True)
            serving.cancel()
        # SIGTERM stops the server as Ctrl-C does: close() shuts the
        # worker pools down, so no worker outlives the server
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                      terminate)
        print(f":: repro.service listening on {server.address} "
              f"(jobs={request.jobs}, protocol v{PROTOCOL_VERSION})",
              flush=True)
        try:
            await serving
        except asyncio.CancelledError:
            if not terminated:
                raise
            print(":: repro.service stopped", file=sys.stderr)
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print(":: repro.service stopped", file=sys.stderr)
    finally:
        if args.socket:
            with contextlib.suppress(OSError):
                os.unlink(args.socket)
    return 0


def _cmd_submit(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    address = _require_address(args, parser)
    request = _request(args, parser)

    def on_event(event: CellEvent) -> None:
        if args.quiet:
            return
        mark = "~" if event.coalesced else ("=" if event.status ==
                                            "cached" else ">")
        line = (f"  {mark} [{event.seq}] {event.cell}: {event.status}"
                f" ({event.duration:g}s)")
        if event.error:
            line += f" — {event.error}"
        print(line, flush=True)

    with _connect(address, "submit-cli") as client:
        result = client.submit_experiments(
            list(args.experiments), request, on_event=on_event)
    print(json.dumps({
        "status": result.status,
        "cells": result.cells,
        "experiments": result.experiments,
        **({"error": result.error} if result.error else {}),
    }, indent=2, sort_keys=True))
    return 0 if result.status == "completed" else 1


def _cmd_status(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    address = _require_address(args, parser)
    with _connect(address, "status-cli") as client:
        stats = client.status()
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_quantize(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
    address = _require_address(args, parser)
    with _connect(address, "quantize-cli") as client:
        rounded = client.quantize(args.fmt, args.values)
    for original, value in zip(args.values, rounded):
        print(f"{original!r} -> {value!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "submit":
        return _cmd_submit(args, parser)
    if args.command == "status":
        return _cmd_status(args, parser)
    if args.command == "quantize":
        return _cmd_quantize(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
