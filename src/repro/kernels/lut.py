"""Table-driven rounding: one-level tables for narrow formats and
two-level (exponent-bucketed) tables toward posit32/fp32 emulation.

The reference rounders (the posit bitwise kernel, the IEEE softfloat
emulation) spend ~20 C-level calls per invocation.  For a format whose
representable set fits in a table — posit(≤16, ·), fp16-class emulated
IEEE, bfloat16, the FP8 minifloats — rounding is a single
``np.searchsorted`` over precomputed **decision boundaries** plus one
``take`` (:class:`RoundingTable`).  Wider formats (posit32es2/es3,
emulated binary32) cannot enumerate 2³² patterns, but their value sets
are *piecewise uniform*: within one power-of-two bucket the spacing is
constant except in the tapered/clamp/overflow extremes.
:class:`TwoLevelTable` exploits that — a first level indexed by the
frexp exponent yields the bucket's granule (uniform regions round with
one divide/rint/multiply) and the few non-uniform buckets fall through
to a second-level dense :class:`RoundingTable` covering only those
regions' values.

Correctness by construction
---------------------------
Decision boundaries are *not* arithmetic midpoints: posit rounding in
the tapered regimes rounds the extended bit pattern, so the value-space
boundary between two adjacent posits is a pattern-space midpoint
(geometric-ish), and IEEE ties-to-even picks sides by pattern parity.
Rather than re-deriving each format's tie rules, the table is built by
**bisection against the trusted reference rounder**: for every adjacent
value pair the build binary-searches, in the monotone integer ordering
of float64, for the smallest double the reference rounds *up*.  The
resulting table reproduces the reference bit-for-bit for every float64
input — no tie logic exists to get wrong — and the test suite verifies
every pattern and every boundary neighbourhood exhaustively.

Size crossover
--------------
Every NumPy call costs microseconds before it touches an element, so a
Python float or a 1-D array of at most :data:`TINY_N` elements rounds
through each table's pure-Python ``round_scalar`` (``bisect`` over the
same boundaries, ``math.frexp`` for the bucket).  Binary search over a
64 K-entry table is cache-unfriendly, so narrow formats take the dense
table only up to :func:`max_eligible_n` elements and the two-level
table above it.  Every tier reads the same arrays, so switching is
free; :class:`repro.formats.base.TableRoundedFormat` is the one
dispatch.  ``REPRO_LUT=off`` disables the tables entirely.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Hashable

import numpy as np

from ..config import env_switch

__all__ = ["RoundingTable", "TwoLevelTable", "lut_enabled",
           "max_eligible_n", "rounding_table", "two_level_table",
           "MAX_TABLE_BITS", "FREXP_E_LO", "FREXP_E_TABLE", "TINY_N"]

#: widest format a one-level dense table is built for (2**16 patterns)
MAX_TABLE_BITS = 16

#: frexp exponents of finite nonzero doubles span [-1073, 1024]; every
#: two-level first-level table is indexed by ``frexp(x)[1] - FREXP_E_LO``
FREXP_E_LO = -1073
FREXP_E_TABLE = 2098

#: 1-D arrays up to this size round element by element through
#: ``round_scalar``: the largest size at which that loop beats the
#: array tables for every format (crossovers measured per format in
#: docs/performance.md, "Rounding tiers")
TINY_N = 8

#: the pure-Python twin of each NumPy step ufunc of the two-level
#: affine path (all return ints, so ``0`` flags a signed-zero result)
_SCALAR_STEPS = {np.rint: round, np.trunc: math.trunc,
                 np.floor: math.floor, np.ceil: math.ceil}

_INT64_MIN = np.int64(np.iinfo(np.int64).min)

#: process-wide table caches, keyed by the format's identity key
_TABLES: dict[Hashable, "RoundingTable"] = {}
_TABLES2: dict[Hashable, "TwoLevelTable"] = {}

_ENABLED = env_switch("REPRO_LUT")


def lut_enabled() -> bool:
    """True unless disabled via ``REPRO_LUT=off`` (read at import)."""
    return _ENABLED


def max_eligible_n(nbits: int) -> int:
    """Largest array size the table path should handle for *nbits*.

    Above this, binary search over the table loses to the bitwise
    kernel (measured crossover; small tables stay cache-resident much
    longer than the 64 K ones).
    """
    return 1024 if nbits <= 8 else 256


def _keys_from_floats(v: np.ndarray) -> np.ndarray:
    """Map float64 → int64 so integer order equals value order.

    Non-negative doubles keep their bit pattern; negative ones map to
    ``INT64_MIN - bits`` (involutive, overflow-free for every float64).
    ±0.0 collide on key 0, which is fine — they are the same value.
    """
    b = np.ascontiguousarray(v, dtype=np.float64).view(np.int64)
    return np.where(b >= 0, b, _INT64_MIN - b)


def _floats_from_keys(k: np.ndarray) -> np.ndarray:
    b = np.where(k >= 0, k, _INT64_MIN - k)
    return b.view(np.float64)


class RoundingTable:
    """Sorted representable values + bisection-probed decision boundaries.

    ``boundaries[i]`` is the smallest float64 that the reference rounder
    maps to ``values[i+1]``, so
    ``values[searchsorted(boundaries, x, side="right")]`` equals
    ``reference(x)`` for every finite ``x``.  Non-finite inputs are
    delegated to the reference (posit NaR vs IEEE ±inf semantics differ).
    """

    def __init__(self, values: np.ndarray, boundaries: np.ndarray,
                 reference: Callable[[np.ndarray], np.ndarray]):
        self.values = values
        self.boundaries = boundaries
        self._reference = reference
        # zero-copy sequence views for the scalar tier: indexing yields
        # Python floats, so ``bisect`` runs without NumPy dispatch
        self._value_seq = memoryview(np.ascontiguousarray(values))
        self._boundary_seq = memoryview(np.ascontiguousarray(boundaries))

    @classmethod
    def build(cls, candidates: np.ndarray,
              reference: Callable[[np.ndarray], np.ndarray]
              ) -> "RoundingTable":
        """Build from the format's value set and trusted rounder.

        *candidates* is every decoded pattern value (duplicates, NaNs
        and ±0 sign variants welcome); *reference* must be monotone and
        idempotent — exactly the :class:`NumberFormat` round contract.
        """
        values = np.unique(np.asarray(candidates, dtype=np.float64))
        values = values[~np.isnan(values)]
        if values.size < 2:
            raise ValueError("rounding table needs at least two values")

        keys = _keys_from_floats(values)
        lo = keys[:-1].copy()   # rounds to values[i] (idempotence)
        hi = keys[1:].copy()    # rounds to values[i+1]
        target = np.arange(1, values.size)
        while True:
            gap = hi - lo
            active = gap > 1
            if not active.any():
                break
            mid = lo + (gap >> 1)
            rounded = reference(_floats_from_keys(mid))
            up = np.searchsorted(values, rounded) >= target
            took_up = active & up
            hi = np.where(took_up, mid, hi)
            lo = np.where(active & ~up, mid, lo)
        return cls(values, _floats_from_keys(hi), reference)

    def round_array(self, arr: np.ndarray) -> np.ndarray:
        """Round a float64 array; always returns a fresh array."""
        idx = np.searchsorted(self.boundaries, arr, side="right")
        out = self.values.take(idx)
        zero = out == 0.0
        if zero.any():
            # the table stores one zero; restore the input's zero sign
            # (x * 0.0 is ±0.0 with x's sign for every finite x)
            out[zero] = arr[zero] * 0.0
        bad = ~np.isfinite(arr)
        if bad.any():
            # NaN/±inf semantics differ per family (posit NaR vs IEEE
            # ±inf passthrough); the reference is authoritative
            out[bad] = self._reference(arr[bad])
        return out

    def round_scalar(self, x: float) -> float:
        """:meth:`round_array` for one Python float, in pure Python."""
        if not math.isfinite(x):
            return float(self._reference(np.array([x]))[0])
        v = self._value_seq[bisect.bisect_right(self._boundary_seq, x)]
        # the table's one zero takes the input's sign, as above
        return v if v else x * 0.0


class TwoLevelTable:
    """Exponent-bucketed rounding for formats too wide for one table.

    Level 1 is a pair of :data:`FREXP_E_TABLE`-entry arrays indexed by
    the biased frexp exponent of the input: ``granules[e]`` is the
    uniform spacing of representable values in that bucket and
    ``affine[e]`` marks buckets where value rounding is exactly
    ``step(x / g) * g`` (``step`` defaults to :func:`np.rint`,
    round-half-even).  Level 2 is one dense :class:`RoundingTable`
    restricted to the values of the *non*-affine buckets — the posit
    tapered extremes, the sub-minpos/above-maxpos clamp zones, IEEE
    overflow binades — which hold only a handful of values, so the
    dense table stays tiny no matter how wide the format is.

    Non-finite inputs always take the dense route (which delegates
    them to the reference rounder), and an optional *post* hook lets
    IEEE-style formats apply their overflow/saturation rule to the
    affine result; *post_span* is the closed magnitude range the hook
    leaves unchanged, which lets :meth:`round_scalar` skip it there.
    Bit-identity with the reference is enforced by the conformance
    suite (exhaustive for narrow formats, boundary-biased stratified
    for posit32/binary32).

    Every granule is a finite, non-zero power of two no smaller than
    ``2**(e - 1024)`` in bucket ``e``, so ``x / g`` is exact or finite
    garbage and cannot raise a floating-point flag.  Only
    ``step(x / g) * g`` in the top bucket (``e = 1024``) can overflow,
    by rounding up to ``2**1024``; :meth:`round_array` enters an
    ``np.errstate`` only when that bucket is affine (emulated IEEE
    formats; posit and takum clamp there through the dense table).
    """

    def __init__(self, granules: np.ndarray, affine: np.ndarray,
                 dense: RoundingTable,
                 reference: Callable[[np.ndarray], np.ndarray],
                 step: Callable = np.rint,
                 post: Callable[[np.ndarray], np.ndarray] | None = None,
                 post_span: tuple[float, float] = (0.0, math.inf)):
        if granules.shape != (FREXP_E_TABLE,) \
                or affine.shape != (FREXP_E_TABLE,):
            raise ValueError(
                f"level-1 tables must have shape ({FREXP_E_TABLE},)")
        self.granules = np.ascontiguousarray(granules, dtype=np.float64)
        self.affine = np.ascontiguousarray(affine, dtype=np.bool_)
        self.dense = dense
        self._reference = reference
        self._step = step
        self._post = post
        # scalar tier: zero-copy views of level 1, as for the dense
        # table; a step without a pure-Python twin sends scalars to
        # round_array
        self._granule_seq = memoryview(self.granules)
        self._affine_seq = memoryview(self.affine)
        self._scalar_step = _SCALAR_STEPS.get(step)
        self._post_lo, self._post_hi = ((0.0, math.inf) if post is None
                                        else post_span)
        self._top_affine = bool(self.affine[-1])
        # per-thread workspace bundles keyed by shape: one dict access
        # hands out all five intermediates (vs. five pool take/gives)
        self._ws = threading.local()

    @classmethod
    def build(cls, granules: np.ndarray, affine: np.ndarray,
              dense_candidates: np.ndarray,
              reference: Callable[[np.ndarray], np.ndarray],
              step: Callable = np.rint,
              post: Callable[[np.ndarray], np.ndarray] | None = None,
              post_span: tuple[float, float] = (0.0, math.inf)
              ) -> "TwoLevelTable":
        """Assemble from a format's bucket spec and trusted rounder.

        *dense_candidates* must contain every value an input from a
        non-affine bucket can round to (bracketing neighbours from the
        adjacent affine buckets included); the dense boundaries are then
        bisection-probed against *reference* exactly like the one-level
        tables, so no clamp/overflow tie logic exists to get wrong.
        """
        dense = RoundingTable.build(dense_candidates, reference)
        return cls(granules, affine, dense, reference, step, post,
                   post_span)

    def _workspace(self, shape: tuple) -> tuple[list, tuple]:
        stacks = getattr(self._ws, "stacks", None)
        if stacks is None:
            stacks = {}
            self._ws.stacks = stacks
        stack = stacks.setdefault(shape, [])
        if stack:
            return stack, stack.pop()
        return stack, (np.empty(shape), np.empty(shape),
                       np.empty(shape, np.int32),
                       np.empty(shape, np.bool_),
                       np.empty(shape, np.bool_))

    def round_array(self, arr: np.ndarray) -> np.ndarray:
        """Round a float64 array; always returns a fresh array."""
        stack, ws = self._workspace(arr.shape)
        m, g, e, aff, fin = ws
        try:
            np.frexp(arr, m, e)
            np.subtract(e, np.int32(FREXP_E_LO), out=e)
            self.granules.take(e, out=g)
            self.affine.take(e, out=aff)
            # uniform-bucket rounding; non-affine lanes compute garbage
            # here and are overwritten below
            np.divide(arr, g, out=m)
            self._step(m, out=m)
            if self._top_affine:
                with np.errstate(over="ignore"):
                    out = np.multiply(m, g)
            else:
                out = np.multiply(m, g)
            np.isfinite(arr, out=fin)
            np.logical_and(aff, fin, out=aff)
            if self._post is not None:
                out = self._post(out)
            if not aff.all():
                np.logical_not(aff, out=aff)
                out[aff] = self.dense.round_array(arr[aff])
            return out
        finally:
            if len(stack) < 4:
                stack.append(ws)

    def round_scalar(self, x: float) -> float:
        """:meth:`round_array` for one Python float, in pure Python.

        Affine buckets compute ``step(x / g) * g`` with the step's
        integer-valued twin (an integer 0 becomes the input's signed
        zero, as ``rint(-0.3) * g`` is ``-0.0``); the dense remainder
        and non-finite inputs take the dense table's scalar path.  A
        result the *post* hook would change goes through
        :meth:`round_array` instead.
        """
        if math.isfinite(x):
            i = math.frexp(x)[1] - FREXP_E_LO
            if self._affine_seq[i]:
                step = self._scalar_step
                if step is not None:
                    g = self._granule_seq[i]
                    q = step(x / g)
                    r = q * g if q else x * 0.0
                    if self._post_lo <= abs(r) <= self._post_hi:
                        return r
                return float(self.round_array(np.array([x]))[0])
        return self.dense.round_scalar(x)


def two_level_table(key: Hashable,
                    spec_fn: Callable[[], tuple],
                    reference: Callable[[np.ndarray], np.ndarray],
                    step: Callable = np.rint,
                    post: Callable[[np.ndarray], np.ndarray] | None = None,
                    post_span: tuple[float, float] = (0.0, math.inf),
                    fmt_name: str = "") -> TwoLevelTable:
    """The cached two-level table for *key*, building it on first use.

    *spec_fn* returns ``(granules, affine, dense_candidates)``; *key*
    follows the same contract as :func:`rounding_table`; *step*, *post*
    and *post_span* are as for :class:`TwoLevelTable`.  First use
    consults the persistent store of :mod:`.tabcache` before paying the
    bisection build; *fmt_name* (the registry name) is written into
    stored files so :func:`.tabcache.preload_cached` can warm them.
    """
    table = _TABLES2.get(key)
    if table is None:
        from . import tabcache
        arrs = tabcache.load_arrays("two_level", key)
        if arrs is not None:
            dense = RoundingTable(arrs["values"], arrs["boundaries"],
                                  reference)
            table = TwoLevelTable(arrs["granules"], arrs["affine"],
                                  dense, reference, step=step, post=post,
                                  post_span=post_span)
        else:
            granules, affine, candidates = spec_fn()
            table = TwoLevelTable.build(granules, affine, candidates,
                                        reference, step=step, post=post,
                                        post_span=post_span)
            tabcache.table_stats().builds += 1
            tabcache.store_arrays(
                "two_level", key, fmt_name,
                {"granules": table.granules, "affine": table.affine,
                 "values": table.dense.values,
                 "boundaries": table.dense.boundaries})
        _TABLES2[key] = table
    return table


def rounding_table(key: Hashable,
                   values_fn: Callable[[], np.ndarray],
                   reference: Callable[[np.ndarray], np.ndarray],
                   fmt_name: str = "") -> RoundingTable:
    """The cached table for *key*, building it on first use.

    *key* must capture everything that determines the rounding function
    (format class, parameters, rounding mode) — formats pass their
    ``_key()`` identity tuple.  Like :func:`two_level_table`, first use
    tries the persistent :mod:`.tabcache` store before building.
    """
    table = _TABLES.get(key)
    if table is None:
        from . import tabcache
        arrs = tabcache.load_arrays("dense", key)
        if arrs is not None:
            table = RoundingTable(arrs["values"], arrs["boundaries"],
                                  reference)
        else:
            table = RoundingTable.build(values_fn(), reference)
            tabcache.table_stats().builds += 1
            tabcache.store_arrays(
                "dense", key, fmt_name,
                {"values": table.values, "boundaries": table.boundaries})
        _TABLES[key] = table
    return table


def clear_tables() -> None:
    """Drop every cached table (tests)."""
    _TABLES.clear()
    _TABLES2.clear()
