"""Persistent on-disk cache for the rounding tables of :mod:`.lut`.

Building a format's two-level table means bisection-probing its tail's
decision boundaries against the reference rounder — milliseconds per
format, paid once per process: a supervised pool of N workers paid it
N times, and the long-lived experiment service again on every restart.
This module makes the build once-per-machine: each table's arrays are
serialized under ``results/.cache/tables/`` keyed by

    sha256(format identity key, code fingerprint)

and loaded back by ``mmap`` — the arrays are zero-copy views into the
page cache, so concurrent workers share one physical copy.

File format (all little-endian, numpy-native):

* one UTF-8 JSON header line (``format`` registry name, ``key`` repr,
  per-array dtype/shape/offset metadata),
* the raw C-contiguous array bytes at 64-byte-aligned offsets,
* the sealed-record footer of :mod:`repro.resilience.atomic` shared
  with the result cache — magic ``RPRTv1`` + sha256 over everything
  before it — so a truncated or bit-rotted file is *detected*,
  dropped, and rebuilt, never trusted.

Only the arrays are persisted.  The callables a table carries (the
trusted reference rounder, the affine step/post hooks) are re-bound
from the live format object at load time, so a cache file can never
smuggle stale behaviour past the code fingerprint.

Writes are atomic (:func:`repro.resilience.atomic.write_sealed`) and
ENOSPC-tolerant: a full disk counts a ``write_error`` and the build
proceeds uncached.  ``REPRO_LUT=off`` builds no tables, so the store
stays untouched; counters surface in the sweep manifest and
``--cache-stats``.  A process maps a stored table on its first use of
the format (:func:`.lut.two_level_table` tries :func:`load_arrays`
before any build), so a pool worker maps only the tables it rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
from typing import Hashable

import numpy as np

from ..resilience import atomic
from ..telemetry.counters import Counters

__all__ = ["TableCacheStats", "table_stats",
           "load_arrays", "store_arrays",
           "table_cache_dir", "entry_path", "clear_table_cache",
           "TABLE_DIR_NAME", "SUFFIX"]

#: subdirectory of ``results/.cache`` holding table files
TABLE_DIR_NAME = "tables"

SUFFIX = ".rpt"

#: sealed-record magic, distinct from the result cache's (RPRCv1) so a
#: table file can never be mistaken for a pickle entry
_FOOTER_MAGIC = b"RPRTv1"

_ALIGN = 64


class TableCacheStats(Counters):
    """Process-wide table-cache counters (``--cache-stats``).

    ``hits`` are mmap loads, ``misses`` are lookups that found no
    usable file, ``builds`` count the bisection builds that follow a
    miss, ``invalidations`` count corrupt files dropped on read, and
    ``write_errors`` count stores the disk refused.
    """

    __slots__ = ("hits", "misses", "builds", "invalidations",
                 "write_errors")


_STATS = TableCacheStats()


def table_stats() -> TableCacheStats:
    """The live process-wide table-cache counters."""
    return _STATS


def table_cache_dir() -> str:
    """``results/.cache/tables`` under the *current* results dir."""
    from ..analysis.reporting import results_dir
    from ..experiments.cache import CACHE_DIR_NAME
    return os.path.join(results_dir(), CACHE_DIR_NAME, TABLE_DIR_NAME)


def entry_path(key: Hashable) -> str:
    """The file a format key's table serializes to.

    The code fingerprint joins the hash, so any source edit makes every
    old file unreachable — conservative, like the result cache, and it
    can never serve a table built by different table-construction code.
    """
    from ..experiments.cache import code_fingerprint
    digest = hashlib.sha256(
        f"{key!r}\n{code_fingerprint()}".encode()).hexdigest()
    return os.path.join(table_cache_dir(), digest + SUFFIX)


def store_arrays(key: Hashable, fmt_name: str,
                 arrays: dict[str, np.ndarray]) -> str | None:
    """Persist named arrays for *key*; returns the path or None.

    A full disk is tolerated (a ``write_error``) — the table keeps
    working from memory, only persistence is skipped.
    """
    metas = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        metas.append({"name": name, "dtype": arr.dtype.str,
                      "shape": list(arr.shape), "offset": None,
                      "nbytes": arr.nbytes})
        blobs.append(arr.tobytes())

    def header_line() -> bytes:
        return json.dumps({"version": 1, "format": fmt_name,
                           "key": repr(key), "arrays": metas},
                          sort_keys=True).encode()
    # reserve generous room for the offsets we fill in below, then pad
    # the header line itself to an aligned length
    head_len = len(header_line()) + 16 * len(metas) + _ALIGN
    head_len += (-head_len - 1) % _ALIGN + 1  # +1 for the newline
    offset = head_len
    for meta, blob in zip(metas, blobs):
        meta["offset"] = offset
        offset += len(blob) + (-len(blob)) % _ALIGN
    header = header_line()
    header = header + b" " * (head_len - 1 - len(header)) + b"\n"
    chunks = [header]
    for blob in blobs:
        chunks += [blob, b"\0" * ((-len(blob)) % _ALIGN)]
    path = entry_path(key)
    if not atomic.write_sealed(path, chunks, _FOOTER_MAGIC):
        _STATS.write_errors += 1
        return None
    return path


def load_arrays(key: Hashable) -> dict[str, np.ndarray] | None:
    """mmap-load the arrays for *key*, or None on miss.

    The whole file is checksum-verified against the footer before any
    byte is trusted; a corrupt file is deleted (counted as an
    invalidation) so the caller rebuilds and re-stores it.
    """
    path = entry_path(key)
    try:
        with open(path, "rb") as fh:
            # mmap refuses empty files; unseal rejects b"" instead
            mm = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                  if os.fstat(fh.fileno()).st_size else b"")
    except OSError:
        _STATS.misses += 1
        return None
    try:
        body = atomic.unseal(mm, _FOOTER_MAGIC)
        head = json.loads(bytes(body[:mm.find(b"\n")]))
        if head.get("key") != repr(key):
            raise ValueError("table cache file does not match its key")
        out = {}
        for meta in head["arrays"]:
            arr = np.frombuffer(body, dtype=np.dtype(meta["dtype"]),
                                count=int(np.prod(meta["shape"],
                                                  dtype=np.int64)),
                                offset=meta["offset"])
            out[meta["name"]] = arr.reshape(meta["shape"])
    except Exception:
        out = body = None  # release any buffer views before closing
        if isinstance(mm, mmap.mmap):
            with contextlib.suppress(BufferError):
                mm.close()
        with contextlib.suppress(OSError):
            os.unlink(path)
        _STATS.misses += 1
        _STATS.invalidations += 1
        return None
    # the arrays keep `mm` alive through their .base chain; the pages
    # are shared read-only across every process mapping this file
    _STATS.hits += 1
    return out


def clear_table_cache() -> int:
    """Delete every cached table file; returns the number removed."""
    removed = 0
    try:
        names = os.listdir(table_cache_dir())
    except OSError:
        return 0
    for fname in names:
        if fname.endswith(SUFFIX):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(table_cache_dir(), fname))
                removed += 1
    return removed
