"""The JSON run manifest behind ``repro-experiments --resume``.

After every experiment the runner records its outcome here with an
atomic write, so a sweep killed at any instant leaves a manifest that
is both syntactically valid and consistent with the artifacts on disk
(artifact CSVs are themselves written atomically *before* the manifest
entry that points at them).  ``--resume`` then skips any experiment
whose entry says ``completed`` at the same scale and whose artifact
still exists.

Since the cell engine (PR 2) the manifest also records one entry per
experiment **cell** — a single ``(solver, matrix, format)`` run —
under ``cells``, with its wall-clock, owning experiments and outcome.
That is what makes ``--timeout`` / ``--retries`` / ``--resume``
operate at cell granularity: a sweep killed mid-experiment keeps every
finished cell (they are persisted by the result cache as they
complete) and a resumed run re-executes only the unfinished ones.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from .atomic import atomic_write_text

__all__ = ["RunManifest", "MANIFEST_NAME"]

#: default manifest filename inside the results directory
MANIFEST_NAME = "run_manifest.json"

_VERSION = 2


class RunManifest:
    """Per-experiment and per-cell completion records, atomic on disk."""

    def __init__(self, path: str):
        self.path = path
        self.data: dict[str, Any] = {"version": _VERSION, "runs": {},
                                     "cells": {}}

    # -- persistence -----------------------------------------------------
    def load(self) -> "RunManifest":
        """Read the manifest from disk; tolerates absence and corruption.

        A manifest that cannot be parsed is treated as empty rather
        than fatal — resuming conservatively (re-running experiments)
        is always safe, failing the whole sweep is not.
        """
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return self
        if isinstance(data, dict) and isinstance(data.get("runs"), dict):
            cells = data.get("cells")
            # keep unknown top-level sections (telemetry/cache payloads
            # from newer writers) instead of silently dropping them
            self.data = {**data, "version": _VERSION,
                         "runs": dict(data["runs"]),
                         "cells": (dict(cells) if isinstance(cells, dict)
                                   else {})}
        return self

    def save(self) -> str:
        return atomic_write_text(
            self.path, json.dumps(self.data, indent=2, sort_keys=True) + "\n")

    # -- records ---------------------------------------------------------
    def get(self, experiment_id: str) -> dict | None:
        entry = self.data["runs"].get(experiment_id)
        return dict(entry) if isinstance(entry, dict) else None

    def record(self, experiment_id: str, *, status: str, scale: str,
               duration: float, csv_path: str | None = None,
               error: str | None = None, attempts: int = 1,
               extra: dict | None = None) -> None:
        """Record one experiment outcome and persist immediately."""
        entry = {
            "status": status,            # completed | failed | timeout
            "scale": scale,
            "duration_s": round(float(duration), 3),
            "csv_path": csv_path,
            "error": error,
            "attempts": int(attempts),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        if extra:
            entry.update(extra)
        self.data["runs"][experiment_id] = entry
        self.save()

    # -- cells -----------------------------------------------------------
    def get_cell(self, cell_id: str) -> dict | None:
        entry = self.data["cells"].get(cell_id)
        return dict(entry) if isinstance(entry, dict) else None

    def record_cell(self, cell_id: str, *, status: str, scale: str,
                    duration: float, experiments: tuple[str, ...] = (),
                    error: str | None = None, attempts: int = 1,
                    save: bool = True) -> None:
        """Record one cell outcome; persists immediately by default."""
        self.data["cells"][cell_id] = {
            # completed | cached | failed | timeout | poisoned
            # (poisoned: quarantined by the supervised pool after
            # repeatedly killing its worker — see repro.supervise)
            "status": status,
            "scale": scale,
            "duration_s": round(float(duration), 3),
            "experiments": sorted(experiments),
            "error": error,
            "attempts": int(attempts),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        if save:
            self.save()

    # -- telemetry sidecars ----------------------------------------------
    def record_section(self, name: str, payload: Any,
                       save: bool = True) -> None:
        """Attach a free-form top-level section (``trace``, ``cache``).

        Used by the runner to persist the traced-run summary (trace
        file path, per-cell time aggregation) and the sweep's cache
        hit/miss/invalidation counts alongside the run records.
        """
        if name in ("version", "runs", "cells"):
            raise ValueError(f"section name {name!r} is reserved")
        self.data[name] = payload
        if save:
            self.save()

    def get_section(self, name: str) -> Any:
        """A previously recorded free-form section, or None."""
        return self.data.get(name)

    def is_complete(self, experiment_id: str, scale: str) -> bool:
        """True when the experiment finished at *scale* and its artifact
        (if it produced one) still exists on disk."""
        entry = self.get(experiment_id)
        if not entry or entry.get("status") != "completed":
            return False
        if entry.get("scale") != scale:
            return False
        csv_path = entry.get("csv_path")
        if csv_path and not os.path.exists(csv_path):
            return False
        return True

    def __repr__(self) -> str:
        runs = self.data["runs"]
        done = sum(1 for e in runs.values()
                   if e.get("status") == "completed")
        return (f"<RunManifest {self.path!r}: {done}/{len(runs)} "
                f"completed>")
