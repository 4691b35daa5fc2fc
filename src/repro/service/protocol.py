"""The versioned wire protocol of the experiment service.

One JSON object per line (UTF-8, ``\\n``-terminated), each carrying a
``type`` tag — the dataclasses below are the complete message
vocabulary, and :data:`PROTOCOL_VERSION` names the revision a peer
speaks.  The first exchange on every connection is
:class:`Hello` → :class:`Welcome`; a version mismatch is rejected with
an explicit hint (:func:`check_version`) instead of letting two
revisions mis-parse each other mid-job.

Design rules:

* every message is a frozen dataclass with ``to_json()`` and
  ``from_json()`` — no free-form dicts cross the API boundary;
* :func:`encode` / :func:`decode` are the only (de)serializers, so a
  field added to a dataclass is automatically carried, and an unknown
  ``type`` or malformed payload raises :class:`ProtocolError` with a
  hint rather than an ``AttributeError`` three frames later;
* execution knobs ride as a :class:`repro.request.RunRequest` (its
  ``as_dict`` wire form), the same object the runner CLI builds — the
  service cannot grow a divergent knob set.

Bump :data:`PROTOCOL_VERSION` whenever a message's meaning changes
(fields added with defaults are backward-compatible and do not need a
bump; removed/renamed fields and semantic changes do).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

from ..experiments.common import Cell
from ..request import RunRequest

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError", "check_version",
    "CellSpec", "Hello", "Welcome", "SubmitExperiments", "SubmitCells",
    "SubmitQuantize", "StatusRequest", "Bye", "Accepted", "CellEvent",
    "JobResult", "StatusReply", "ErrorReply",
    "encode", "decode",
]

#: revision of this message vocabulary; negotiated by Hello/Welcome
PROTOCOL_VERSION = 2


class ProtocolError(Exception):
    """A malformed, unknown, or version-mismatched message.

    Carries an optional *hint* telling the peer how to fix the
    exchange; the server forwards both as an :class:`ErrorReply`.
    """

    def __init__(self, message: str, hint: str | None = None):
        super().__init__(message)
        self.hint = hint


def check_version(version: Any) -> None:
    """Reject a peer whose protocol revision is not ours, with a hint."""
    if version != PROTOCOL_VERSION:
        side = ("upgrade the client"
                if isinstance(version, int) and version < PROTOCOL_VERSION
                else "upgrade the server")
        raise ProtocolError(
            f"protocol version mismatch: peer speaks "
            f"{version!r}, this side speaks {PROTOCOL_VERSION}",
            hint=f"{side}, or pin both ends to the same repro release; "
                 f"see repro.service.protocol.PROTOCOL_VERSION")


# ---------------------------------------------------------------------------
# Payload fragments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """Wire form of one :class:`~repro.experiments.common.Cell`.

    ``options`` is the cell's canonical sorted pair tuple; values are
    restricted to JSON scalars (bool/int/float/str), which is what the
    in-repo cell grids use.
    """

    kind: str
    matrix: str
    fmt: str
    options: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_cell(cls, cell: Cell) -> "CellSpec":
        return cls(cell.kind, cell.matrix, cell.fmt, tuple(cell.options))

    def to_cell(self) -> Cell:
        return Cell(self.kind, self.matrix, self.fmt,
                    tuple(sorted((str(k), v) for k, v in self.options)))

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "matrix": self.matrix,
                "fmt": self.fmt,
                "options": [[k, v] for k, v in self.options]}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CellSpec":
        try:
            options = tuple((str(k), v) for k, v in data.get("options", []))
            return cls(str(data["kind"]), str(data["matrix"]),
                       str(data["fmt"]), options)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed cell spec {data!r}: {exc}",
                                hint="expected {kind, matrix, fmt, "
                                     "options: [[name, value], ...]}"
                                ) from None


def _request_to_json(request: RunRequest) -> dict[str, Any]:
    return request.as_dict()


def _request_from_json(data: Any) -> RunRequest:
    if not isinstance(data, dict):
        raise ProtocolError(f"malformed run request {data!r}",
                            hint="expected RunRequest.as_dict() output")
    try:
        return RunRequest.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid run request: {exc}",
                            hint="see repro.RunRequest for the knob "
                                 "names, types and bounds") from None


# ---------------------------------------------------------------------------
# Messages — client → server
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    """Connection opener; the server replies Welcome or ErrorReply."""

    TYPE: ClassVar[str] = "hello"
    version: int = PROTOCOL_VERSION
    client: str = "?"


@dataclass(frozen=True)
class SubmitExperiments:
    """Run registered experiments end-to-end (cells + CSV assembly)."""

    TYPE: ClassVar[str] = "submit-experiments"
    id: str
    experiments: tuple[str, ...]
    request: RunRequest = field(default_factory=RunRequest)


@dataclass(frozen=True)
class SubmitCells:
    """Run an explicit cell set; results stay in the shared cache."""

    TYPE: ClassVar[str] = "submit-cells"
    id: str
    cells: tuple[CellSpec, ...]
    request: RunRequest = field(default_factory=RunRequest)


@dataclass(frozen=True)
class SubmitQuantize:
    """Round a value batch in one format (cheap, served inline).

    ``values`` is a flat tuple of floats; the reply's ``values`` holds
    the rounded batch in the same order.
    """

    TYPE: ClassVar[str] = "submit-quantize"
    id: str
    fmt: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class StatusRequest:
    """Ask for the server's live counters and queue depths."""

    TYPE: ClassVar[str] = "status"
    id: str


@dataclass(frozen=True)
class Bye:
    """Polite disconnect (closing the socket works too)."""

    TYPE: ClassVar[str] = "bye"


# ---------------------------------------------------------------------------
# Messages — server → client
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Welcome:
    """Successful handshake."""

    TYPE: ClassVar[str] = "welcome"
    version: int = PROTOCOL_VERSION
    server: str = "repro.service"


@dataclass(frozen=True)
class Accepted:
    """A submit was admitted to the queue; *cells* is the grid size."""

    TYPE: ClassVar[str] = "accepted"
    id: str
    cells: int = 0


@dataclass(frozen=True)
class CellEvent:
    """One cell of a job settled (progress stream).

    ``status`` is a manifest v2 cell status (``completed`` / ``cached``
    / ``failed`` / ``timeout`` / ``poisoned``); ``coalesced`` marks a
    cell this job did not compute because another client's identical
    in-flight cell was joined instead.
    """

    TYPE: ClassVar[str] = "event"
    id: str
    seq: int
    cell: str
    status: str
    duration: float = 0.0
    coalesced: bool = False
    error: str | None = None


@dataclass(frozen=True)
class JobResult:
    """Terminal reply for one job.

    ``experiments`` maps experiment id → ``{status, csv_path, error}``
    for experiment jobs; ``cells`` is the outcome tally; ``values``
    carries quantize results (a flat float tuple).
    """

    TYPE: ClassVar[str] = "result"
    id: str
    status: str                      # completed | failed
    experiments: dict[str, Any] = field(default_factory=dict)
    cells: dict[str, int] = field(default_factory=dict)
    values: tuple[float, ...] | None = None
    error: str | None = None


@dataclass(frozen=True)
class StatusReply:
    """Live server counters (see ``ServiceStats.as_dict``)."""

    TYPE: ClassVar[str] = "status-reply"
    id: str
    stats: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorReply:
    """A request was rejected; *hint* says how to fix it.

    ``id`` is the offending request's id when known.  ``error`` of
    ``"busy"`` is the backpressure signal: the per-client job bound is
    reached, and the client should retry with backoff (the sync client
    does so automatically, sharing the engine's schedule).
    """

    TYPE: ClassVar[str] = "error"
    id: str | None
    error: str
    hint: str | None = None


# ---------------------------------------------------------------------------
# (De)serialization
# ---------------------------------------------------------------------------

_MESSAGES = {cls.TYPE: cls for cls in (
    Hello, SubmitExperiments, SubmitCells, SubmitQuantize, StatusRequest,
    Bye, Welcome, Accepted, CellEvent, JobResult, StatusReply, ErrorReply)}


def _cells_from_json(value: Any) -> tuple[CellSpec, ...]:
    if not isinstance(value, list):
        raise ProtocolError(f"malformed cells field {value!r}",
                            hint="expected a list of cell specs")
    return tuple(CellSpec.from_json(c) for c in value)


def _values_from_json(value: Any) -> tuple | None:
    """Quantize values: a flat float tuple (nested lists are rejected)."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ProtocolError(f"malformed values field {value!r}",
                            hint="expected a flat list of numbers")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed values field: {exc}",
                            hint="values must be a flat list of numbers"
                            ) from None


#: per-message structured decoders — keyed by *class*, not field name
#: (``cells`` is a CellSpec tuple on SubmitCells but an int on
#: Accepted and a tally dict on JobResult)
_STRUCTURED: dict[type, dict[str, Any]] = {
    SubmitExperiments: {"request": _request_from_json},
    SubmitCells: {"request": _request_from_json,
                  "cells": _cells_from_json},
    SubmitQuantize: {"values": _values_from_json},
    JobResult: {"values": _values_from_json},
}


def encode(message: Any) -> str:
    """One JSON line (``\\n``-terminated) for any protocol message."""
    if _MESSAGES.get(getattr(message, "TYPE", None)) is not type(message):
        raise ProtocolError(f"not a protocol message: {message!r}")
    payload: dict[str, Any] = {"type": message.TYPE}
    for f in fields(message):
        value = getattr(message, f.name)
        if isinstance(value, RunRequest):
            value = _request_to_json(value)
        elif isinstance(value, tuple):
            value = [c.to_json() if isinstance(c, CellSpec) else c
                     for c in value]
        payload[f.name] = value
    return json.dumps(payload, sort_keys=True) + "\n"


def decode(line: str | bytes) -> Any:
    """Parse one wire line back into its message dataclass."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"not valid JSON: {exc}",
                            hint="one JSON object per line") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError(f"not a protocol message: {payload!r}",
                            hint='every message carries a "type" key')
    tag = payload.pop("type")
    cls = _MESSAGES.get(tag)
    if cls is None:
        raise ProtocolError(
            f"unknown message type {tag!r}",
            hint=f"known types: {', '.join(sorted(_MESSAGES))}; a newer "
                 f"peer must bump PROTOCOL_VERSION, not invent types")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {unknown} on {tag!r}",
            hint="field additions require a PROTOCOL_VERSION bump")
    converters = _STRUCTURED.get(cls, {})
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in payload:
            continue
        value = payload[f.name]
        convert = converters.get(f.name)
        if convert is not None:
            value = convert(value)
        elif isinstance(value, list):
            # every tuple-typed field rides as a JSON array; no field
            # is typed ``list``, so array → tuple is always right
            value = tuple(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {tag!r} message: {exc}") from None
