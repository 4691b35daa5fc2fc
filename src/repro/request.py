"""`RunRequest` — the one normalized bundle of execution knobs.

Before this module, the same six knobs (scale, jobs, timeout, retries,
backoff, grace, ...) were spelled three different ways: as argparse
flags on the runner CLI, as kwargs threaded through
``repro.run_experiment`` / the engine, and (with PR 7) as JSON fields
on the service wire.  Each surface could — and did — drift.  Now every
entry point constructs a :class:`RunRequest` and hands it down:

* the runner CLI (``python -m repro.experiments``) and the service's
  ``serve`` command declare their knob flags from
  :attr:`RunRequest.FLAGS` (:meth:`RunRequest.add_flags`) and build
  their request from the parsed flags (:meth:`RunRequest.from_flags`);
* the library façade (:func:`repro.submit`,
  :func:`repro.run_experiment`, :func:`repro.context`) accepts one (or
  builds one from the same keyword names);
* the experiment service (:mod:`repro.service`) carries one on the
  wire (:meth:`RunRequest.as_dict` / :meth:`RunRequest.from_dict`) and
  replays it through the very same engine call.

A knob added here is automatically available — with the same name,
default and validation — on all three surfaces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

from .config import SCALES, RunScale, jobs_from_env, scale_from_env

__all__ = ["RunRequest"]


def _scale_name(name: str) -> str:
    """A scale name as :func:`~repro.config.scale_from_env` reads one:
    stripped and lowercased."""
    return str(name).strip().lower()


@dataclass(frozen=True)
class RunRequest:
    """Normalized execution knobs shared by CLI, library and service.

    Attributes
    ----------
    scale:
        Run-scale *name* (``smoke`` / ``small`` / ``medium`` /
        ``full``, any case, surrounding spaces ignored); resolve the
        :class:`~repro.config.RunScale` object through
        :attr:`run_scale`.  Stored by name so the request is
        JSON-serializable as-is.
    jobs:
        Worker processes for the cell grid (1 = the bit-for-bit serial
        reference path).
    timeout:
        Per-cell wall-clock budget in seconds (``None`` = unlimited).
    retries:
        Retry budget per crashed cell (soft timeouts are final).
    backoff:
        Initial retry backoff in seconds, doubled per retry and
        jittered when pooled.
    grace:
        Watchdog SIGTERM→SIGKILL escalation period for workers hung
        past the budget.
    max_worker_deaths:
        Poison-cell quarantine threshold.
    trace:
        Telemetry trace: ``False`` (off), ``True`` (default trace
        file), or an explicit path.
    """

    #: every knob name (set from the fields below the class)
    KNOBS: ClassVar[frozenset[str]]

    #: each knob's command-line flag ``--name`` (``-`` for ``_``) as
    #: argparse keywords; ``{default}`` in the help is the field's
    #: default, and ``type: bool`` makes a ``--name/--no-name`` pair
    FLAGS: ClassVar[dict[str, dict[str, Any]]] = {
        "scale": {"type": _scale_name, "choices": sorted(SCALES),
                  "help": "workload scale (default: $REPRO_SCALE or "
                          "{default!r})"},
        "jobs": {"type": int, "metavar": "N",
                 "help": "worker processes for the cell grid (default: "
                         "$REPRO_JOBS or {default}; serial is the "
                         "bit-for-bit reference path)"},
        "timeout": {"type": float, "metavar": "SECONDS",
                    "help": "wall-clock budget per cell, and on the "
                            "runner per experiment assembly (default: "
                            "unlimited)"},
        "retries": {"type": int, "metavar": "N",
                    "help": "retries per crashed cell/experiment "
                            "(default: {default})"},
        "backoff": {"type": float, "metavar": "SECONDS",
                    "help": "initial retry backoff, doubled per retry "
                            "and jittered when pooled (default: "
                            "{default})"},
        "grace": {"type": float, "metavar": "SECONDS",
                  "help": "supervised-pool escalation period: a worker "
                          "hung past --timeout gets SIGTERM, then "
                          "SIGKILL this many seconds later (default: "
                          "{default})"},
        "max_worker_deaths": {"type": int, "metavar": "K",
                              "help": "quarantine a cell as poisoned "
                                      "once it has killed K workers "
                                      "(default: {default})"},
        "trace": {"type": bool,
                  "help": "record op-level counters and span/solver "
                          "events to results/traces/<label>.jsonl "
                          "(forces --jobs 1 and a cold cache so the "
                          "counts are reproducible); summarize with "
                          "'python -m repro.telemetry summarize'"},
    }

    scale: str = "small"
    jobs: int = 1
    timeout: float | None = None
    retries: int = 1
    backoff: float = 1.0
    grace: float = 5.0
    max_worker_deaths: int = 3
    trace: bool | str = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _scale_name(self.scale))
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r} "
                             f"(choose from {sorted(SCALES)})")
        if int(self.jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and not float(self.timeout) > 0:
            raise ValueError(f"timeout must be positive or None, "
                             f"got {self.timeout}")
        if int(self.retries) < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if float(self.backoff) < 0:
            raise ValueError(f"backoff must be >= 0, "
                             f"got {self.backoff}")
        if not float(self.grace) > 0:
            raise ValueError(f"grace must be positive, got {self.grace}")
        if int(self.max_worker_deaths) < 1:
            raise ValueError(f"max_worker_deaths must be >= 1, "
                             f"got {self.max_worker_deaths}")

    # -- construction ----------------------------------------------------
    @classmethod
    def make(cls, scale: RunScale | str | None = None,
             jobs: int | None = None, **knobs: Any) -> "RunRequest":
        """Build a request, resolving environment defaults.

        *scale* accepts a :class:`RunScale`, a scale name, or ``None``
        (``$REPRO_SCALE``, else the field default); *jobs* ``None``
        falls back to ``$REPRO_JOBS``, else the field default.
        Remaining keyword names are the dataclass fields; an unknown one
        raises ``TypeError`` naming it.
        """
        if scale is None:
            scale = scale_from_env(cls.scale)
        if isinstance(scale, RunScale):
            scale = scale.name
        if jobs is None:
            jobs = jobs_from_env(cls.jobs)
        return cls(scale=scale, jobs=int(jobs), **knobs)

    def replace(self, **changes: Any) -> "RunRequest":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- command line ----------------------------------------------------
    @classmethod
    def add_flags(cls, parser, knobs=None) -> None:
        """Add the :attr:`FLAGS` of *knobs* (default: every knob) to an
        argparse *parser*.  Every flag defaults to ``None``, which
        :meth:`from_flags` leaves to :meth:`make`."""
        import argparse

        for name in knobs or cls.FLAGS:
            spec = dict(cls.FLAGS[name], default=None)
            spec["help"] = spec["help"].format(default=getattr(cls, name))
            if spec["type"] is bool:
                del spec["type"]
                spec["action"] = argparse.BooleanOptionalAction
            parser.add_argument("--" + name.replace("_", "-"), **spec)

    @classmethod
    def from_flags(cls, args) -> "RunRequest":
        """The request the parsed flags of :meth:`add_flags` ask for.

        Each flag given is checked on its own, so a bad value raises
        ``ValueError`` naming the flag; flags left unset resolve as in
        :meth:`make`.
        """
        given = {name: getattr(args, name) for name in cls.FLAGS
                 if getattr(args, name, None) is not None}
        for name, value in given.items():
            try:
                cls(**{name: value})
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: "
                                 f"{exc}") from None
        return cls.make(**given)

    # -- resolution ------------------------------------------------------
    @property
    def run_scale(self) -> RunScale:
        """The resolved :class:`~repro.config.RunScale` object."""
        return SCALES[self.scale]

    # -- wire form -------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of every knob (the service wire form)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRequest":
        """Rebuild from :meth:`as_dict` output; unknown keys rejected.

        Raises ``ValueError`` on unknown keys or invalid values, so a
        mistyped knob on the wire fails loudly instead of silently
        running with a default.
        """
        unknown = sorted(set(data) - cls.KNOBS)
        if unknown:
            raise ValueError(f"unknown RunRequest field(s) {unknown}; "
                             f"known: {sorted(cls.KNOBS)}")
        coerced = dict(data)
        for name, value in data.items():
            cast = cls.FLAGS[name]["type"]
            if cast in (int, float) and value is not None:
                coerced[name] = cast(value)
        return cls(**coerced)


RunRequest.KNOBS = frozenset(f.name for f in dataclasses.fields(RunRequest))
