"""Persistent, content-addressed cache for experiment cells.

One cell — a single ``(experiment kind, format, matrix)`` solver run —
is the unit of work in the experiment engine.  Cells are pure functions
of their key, the run scale, and the code that computes them, so their
results are cached on disk under ``results/.cache/`` keyed by

    sha256(cell id, scale name, code fingerprint)

where the *code fingerprint* hashes every ``*.py`` file in the
installed ``repro`` package.  Editing any source file therefore
invalidates the whole cache — conservative, but it can never serve a
stale result after a code change.  Entries are pickled payloads sealed
with a sha256 **checksum footer** (magic ``RPRCv1``) by
:func:`repro.resilience.atomic.write_sealed`, written atomically, so a
sweep killed mid-write never leaves a corrupt entry that shadows a real
one — and a truncated or bit-rotted entry is *detected* by
:func:`~repro.resilience.atomic.unseal` (not merely "happens to unpickle
badly"), discarded and recomputed, never fatal.

Writes are ENOSPC-safe: a cache store that fails with a full disk
disables the cache with a single warning instead of failing the cell —
results keep flowing through the in-process memo, only persistence
stops.  The disablement is a **cooldown, not a latch**: after
``_REARM_S`` seconds (60) the next :func:`cache_enabled` check re-arms
persistence, and the next store either succeeds (the disk drained) or
re-disables in a single syscall.  A one-sweep CLI run never notices; a
long-lived parent — the experiment service of :mod:`repro.service`,
where one client's full-disk episode must not disable persistence for
every later client — heals automatically.  :func:`reset_cache_stats`
still re-arms immediately at sweep boundaries.  The process-level chaos
harness (:mod:`repro.supervise.chaos`, ``REPRO_CHAOS=enospc:p``)
injects exactly this failure to keep the path tested.

Disable with ``REPRO_CACHE=off`` (benchmarking cold paths, debugging).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import sys
import time
from typing import Any

from ..analysis.reporting import results_dir
from ..config import env_switch
from ..resilience.atomic import unseal, write_sealed
from ..supervise.chaos import maybe_chaos_enospc
from ..telemetry.counters import Counters

__all__ = ["CacheStats", "ResultCache", "result_cache", "cache_enabled",
           "cache_stats", "cache_disabled_reason", "code_fingerprint",
           "iter_source_files", "clear_result_cache",
           "reset_cache_stats", "CACHE_DIR_NAME"]

#: subdirectory of the results dir that holds cache entries
CACHE_DIR_NAME = ".cache"

#: sealed-record magic of an entry: pickled payload + magic + sha256
_FOOTER_MAGIC = b"RPRCv1"

_fingerprint: str | None = None

#: why on-disk caching was disabled mid-run (full disk), or None
_disabled_reason: str | None = None

#: when the cache disabled itself (``time.monotonic()``), for re-arming
_disabled_at: float | None = None

#: seconds a full-disk disablement lasts before the next check re-arms
_REARM_S = 60.0


class CacheStats(Counters):
    """Process-wide cache traffic counters (``--cache-stats``).

    Counted at the :class:`ResultCache` layer, so every consumer —
    cell lookups, the engine's workers, tests — contributes.  A lookup
    that finds a damaged entry counts as both a miss and an
    invalidation (the entry is deleted and recomputed); a store that
    fails on a full disk counts as a ``write_error`` (and disables the
    cache until the re-arm cooldown expires); each automatic
    re-enablement counts as a ``rearm``.
    """

    __slots__ = ("hits", "misses", "stores", "invalidations",
                 "write_errors", "rearms")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {"lookups": self.lookups, **super().as_dict()}


_STATS = CacheStats()


def cache_stats() -> CacheStats:
    """The live process-wide cache counters."""
    return _STATS


def reset_cache_stats() -> CacheStats:
    """Zero the counters (start of a sweep); returns the live object.

    Also re-arms a cache that a *previous* sweep in this process
    disabled after a full-disk write error — the next store will
    re-disable it in one syscall if the disk is still full.
    """
    global _disabled_reason, _disabled_at
    _disabled_reason = None
    _disabled_at = None
    _STATS.reset()
    return _STATS


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` opts out — or a write error opted us out.

    The second case is runtime degradation: a store that hit a full
    disk disabled on-disk caching (see :func:`cache_disabled_reason`),
    because every subsequent write would fail the same way and each
    cell's result is still available through the in-process memo.  The
    disablement expires after the ``_REARM_S`` cooldown (60s): this
    check then re-arms persistence and the next store re-probes the
    disk — one failed syscall if it is still full, a working cache if
    it drained.  Per-process lifetimes (the experiment service)
    therefore recover without a sweep boundary.  A ``REPRO_CACHE``
    value that is no on/off spelling raises ``ValueError`` (see
    :func:`repro.config.env_switch`).
    """
    global _disabled_reason, _disabled_at
    if _disabled_reason is not None:
        if (_disabled_at is None
                or time.monotonic() - _disabled_at < _REARM_S):
            return False
        _disabled_reason = None
        _disabled_at = None
        _STATS.rearms += 1
        print("!! result cache re-armed after cooldown; next store "
              "re-probes the disk", file=sys.stderr)
    return env_switch("REPRO_CACHE")


def cache_disabled_reason() -> str | None:
    """Why the cache disabled itself mid-run (full disk), or ``None``."""
    return _disabled_reason


def _disable_cache(reason: str) -> None:
    """Stop persisting until the cooldown expires; warn once per episode."""
    global _disabled_reason, _disabled_at
    if _disabled_reason is None:
        _disabled_reason = reason
        _disabled_at = time.monotonic()
        print(f"!! result cache disabled: {reason} (cells keep "
              f"completing; only persistence stops; re-probing in "
              f"{_REARM_S:g}s)", file=sys.stderr)


def iter_source_files(pkg_root: str):
    """Every ``*.py`` under *pkg_root*, in a deterministic order.

    This is the fingerprint's notion of "the code": all subpackages
    (arith, formats, oracle, experiments, ...) are walked, so adding a
    module anywhere — including the oracle package, whose reference
    semantics cached cells implicitly depend on — changes the digest.
    """
    for dirpath, dirnames, filenames in sorted(os.walk(pkg_root)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def _fingerprint_of(pkg_root: str) -> str:
    digest = hashlib.sha256()
    for full in iter_source_files(pkg_root):
        digest.update(os.path.relpath(full, pkg_root).encode())
        with open(full, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def code_fingerprint(root: str | None = None) -> str:
    """Hash of every ``*.py`` source under *root*.

    With no argument, hashes the installed ``repro`` package and
    memoizes the digest (the interpreter cannot change its own loaded
    code mid-run, so caching it is sound).  An explicit *root* is
    always recomputed — tests use that to prove source edits invalidate
    cache entries.
    """
    global _fingerprint
    if root is not None:
        return _fingerprint_of(root)
    if _fingerprint is None:
        import repro

        _fingerprint = _fingerprint_of(
            os.path.dirname(os.path.abspath(repro.__file__)))
    return _fingerprint


class ResultCache:
    """Content-addressed pickle store, one file per cell result."""

    def __init__(self, root: str, fingerprint: str | None = None):
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()

    def entry_path(self, cell_id: str, scale_name: str) -> str:
        key = hashlib.sha256(
            f"{cell_id}\n{scale_name}\n{self.fingerprint}".encode()
        ).hexdigest()
        return os.path.join(self.root, key[:2], key + ".pkl")

    def contains(self, cell_id: str, scale_name: str) -> bool:
        return os.path.exists(self.entry_path(cell_id, scale_name))

    def get(self, cell_id: str, scale_name: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; a damaged entry is dropped as a miss.

        Entries are only trusted when their checksum footer verifies:
        a truncated file (partial write, filesystem rollback) is
        *detected*, not just hoped to be unpicklable.
        """
        path = self.entry_path(cell_id, scale_name)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            entry = pickle.loads(unseal(blob, _FOOTER_MAGIC))
            if entry.get("cell") != cell_id:  # hash collision / tamper
                raise ValueError("cache entry does not match its key")
            _STATS.hits += 1
            return True, entry["value"]
        except FileNotFoundError:
            _STATS.misses += 1
            return False, None
        except Exception:
            # corrupt pickle, truncated file, renamed class, ... —
            # recomputing is always safe, failing the sweep is not
            with contextlib.suppress(OSError):
                os.unlink(path)
            _STATS.misses += 1
            _STATS.invalidations += 1
            return False, None

    def put(self, cell_id: str, scale_name: str, value: Any) -> str | None:
        """Persist one entry; returns its path, or ``None`` if the disk
        is full (the cache disables itself rather than fail the cell)."""
        path = self.entry_path(cell_id, scale_name)
        payload = pickle.dumps({"cell": cell_id, "scale": scale_name,
                                "value": value},
                               protocol=pickle.HIGHEST_PROTOCOL)

        def chunks():
            # the chaos point fires inside the write, like a real ENOSPC
            maybe_chaos_enospc(cell_id)
            yield payload
        if not write_sealed(path, chunks(), _FOOTER_MAGIC):
            _STATS.write_errors += 1
            _disable_cache(f"No space left on device (or quota exceeded) "
                           f"while writing {path}")
            return None
        _STATS.stores += 1
        return path


def result_cache() -> ResultCache:
    """The cache rooted in the *current* results directory.

    Resolved per call because tests and the CLI redirect
    ``REPRO_RESULTS_DIR`` at runtime.
    """
    return ResultCache(os.path.join(results_dir(), CACHE_DIR_NAME))


def clear_result_cache() -> int:
    """Delete every on-disk cache entry; returns the number removed."""
    root = os.path.join(results_dir(), CACHE_DIR_NAME)
    removed = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for fname in filenames:
            if fname.endswith(".pkl"):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(dirpath, fname))
                    removed += 1
    return removed
