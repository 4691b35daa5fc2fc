"""Reusable ndarray scratch buffers for the quantize pipeline.

The emulated-arithmetic hot path ("compute in float64, round after every
op") spends a surprising share of its time in ``np.empty``/refcount
churn: a single CG iteration on a 24-vector allocates dozens of
temporaries that live for microseconds.  A :class:`ScratchPool` hands
those call sites preallocated buffers keyed by ``(shape, dtype)``.

Contract
--------
* Pools are **module-private**: each consumer (``posit.rounding``,
  ``arith.context``, ``arith.summation``) owns its own pool so buffers
  can never alias across layers.
* ``take`` / ``give`` are LIFO per key and safe under reentrancy — a
  taken buffer is removed from the pool, so a nested call simply
  allocates a fresh one.
* Buffers are per-thread (``threading.local``), so two threads never
  share scratch.
* Rounders and context methods **always return freshly-allocated
  arrays**; scratch buffers only ever hold intermediate values and are
  given back before the call returns.
* A thread's pool retains at most :data:`SCRATCH_BUDGET` bytes, however
  many distinct shapes pass through it (lockstep CG lanes make new
  ``(N,)`` shapes each time a lane finishes); the least recently
  returned shapes are dropped first.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["SCRATCH_BUDGET", "ScratchPool"]

#: retained buffers per (shape, dtype) key — covers the deepest
#: legitimate nesting (context op → fold → rounder)
_MAX_PER_KEY = 8

#: bytes one thread's pool keeps between calls, over all its keys:
#: room for the largest buffer a small-scale sweep reuses every step
#: (a six-lane n = 96 matvec product stack, 442 KB).  A larger buffer
#: is allocated per call, which costs little next to filling it
SCRATCH_BUDGET = 1 << 19


class _Buffers:
    """One thread's retained buffers: key → nonempty LIFO stack, keys
    oldest first, and the bytes they hold."""

    __slots__ = ("stacks", "nbytes")

    def __init__(self):
        self.stacks: dict[tuple, list] = {}
        self.nbytes = 0


class ScratchPool:
    """Thread-local pools of reusable ndarray buffers.

    Usage::

        buf = pool.take(x.shape, np.float64)
        try:
            np.multiply(x, y, out=buf)
            result = rounder(buf)          # rounder returns a fresh array
        finally:
            pool.give(buf)
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _state(self) -> _Buffers:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Buffers()
        return state

    def _buffers(self) -> dict:
        return self._state().stacks

    @property
    def nbytes(self) -> int:
        """Bytes this thread's pool currently retains."""
        return self._state().nbytes

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A writable buffer of the given shape/dtype, contents arbitrary."""
        local = getattr(self._local, "state", None) or self._state()
        key = (shape, "d" if dtype is np.float64 else np.dtype(dtype).char)
        stack = local.stacks.get(key)
        if stack is None:
            return np.empty(shape, dtype=dtype)
        buf = stack.pop()
        if not stack:
            del local.stacks[key]
        local.nbytes -= buf.nbytes
        return buf

    def give(self, arr: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`take` to the pool."""
        size = arr.nbytes
        if size > SCRATCH_BUDGET:
            return
        local = getattr(self._local, "state", None) or self._state()
        key = (arr.shape, arr.dtype.char)
        stacks = local.stacks
        stack = stacks.get(key)
        if stack is None:
            # take() drops a key it empties, so a key in steady use
            # re-enters here at the recently-used end
            stacks[key] = [arr]
        elif len(stack) < _MAX_PER_KEY:
            stack.append(arr)
        else:
            return
        local.nbytes += size
        while local.nbytes > SCRATCH_BUDGET:
            oldest = next(iter(stacks))
            old = stacks[oldest]
            local.nbytes -= old.pop(0).nbytes
            if not old:
                del stacks[oldest]

    def clear(self) -> None:
        """Drop every retained buffer (tests / memory pressure)."""
        local = self._state()
        local.stacks.clear()
        local.nbytes = 0
