"""Per-worker LRU memoization of derived matrices.

A sweep's cells re-derive the same inputs over and over: every CG cell
for a given matrix re-applies the power-of-two rescaling and re-packs
the CSR layout, every Higham-rescaled IR cell re-runs Algorithm 4 —
once per *format*, although the derivation depends only on the matrix
(and, for Higham, the format's dynamic range).  The derivations are
pure functions of ``(matrix name, scale, parameters)``, so each process
— the sweep parent or a ``ProcessPoolExecutor`` worker — keeps one
bounded LRU of them.

The cache changes nothing numerically: a hit returns the exact object a
rebuild would produce (derivations are deterministic), and solvers
treat their inputs as read-only, as they already must for the memoized
``suite_systems`` arrays.

``REPRO_MATRIX_CACHE=off`` disables caching (every lookup builds); each
process keeps at most 64 entries.  Misses are traced as
``matrix.derive`` spans through the ambient tracer; hit/miss/eviction
counts surface in the sweep manifest and ``--cache-stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from ..config import env_switch
from ..telemetry.counters import Counters
from ..telemetry.trace import span

__all__ = ["MatrixCache", "MatrixCacheStats", "matrix_cache",
           "matrix_cache_enabled", "reset_matrix_cache"]

_DEFAULT_CAPACITY = 64


def matrix_cache_enabled() -> bool:
    """True unless disabled via ``REPRO_MATRIX_CACHE=off``."""
    return env_switch("REPRO_MATRIX_CACHE")


class MatrixCacheStats(Counters):
    """Lookup counters of one :class:`MatrixCache`."""

    __slots__ = ("hits", "misses", "evictions")


class MatrixCache:
    """A bounded LRU of derived-matrix objects with hit/miss counters."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY,
                 enabled: bool | None = None):
        self.capacity = max(1, int(capacity))
        self.enabled = matrix_cache_enabled() if enabled is None \
            else bool(enabled)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.counters = MatrixCacheStats()

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """The cached value for *key*, building (and tracing) on a miss.

        *key* must capture every input of the derivation; builders that
        raise cache nothing.  Disabled caches always build (uncounted).
        """
        if not self.enabled:
            return builder()
        if key in self._entries:
            self.counters.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        with span("matrix.derive", key="/".join(map(str, key))
                  if isinstance(key, tuple) else str(key)):
            value = builder()
        self.counters.misses += 1
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.counters.evictions += 1
        return value

    def stats(self) -> dict[str, int]:
        """Counters plus current size, manifest-ready."""
        return {**self.counters.as_dict(), "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop entries and counters (tests)."""
        self._entries.clear()
        self.counters.reset()


_CACHE: MatrixCache | None = None


def matrix_cache() -> MatrixCache:
    """The process-wide cache (one per pool worker, one in the parent)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = MatrixCache()
    return _CACHE


def reset_matrix_cache() -> None:
    """Drop the singleton so the next use re-reads ``REPRO_MATRIX_CACHE``."""
    global _CACHE
    _CACHE = None
