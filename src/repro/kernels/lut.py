"""Table-driven rounding: one exponent-bucketed table per format.

The reference rounders (the posit bitwise kernel, the IEEE softfloat
emulation) spend ~20 C-level calls per invocation.  Every table-rounded
format — posit8 to posit32, emulated IEEE from the FP8 minifloats to
binary32, linear takum16/32 — has a *piecewise uniform* value set:
within one power-of-two bucket the spacing is constant except in the
tapered/clamp/overflow extremes.  :class:`TwoLevelTable` exploits that:
a first level indexed by the frexp exponent yields the bucket's granule
(uniform regions round with one divide/step/multiply), and the few
non-uniform buckets fall through to a second-level
:class:`RoundingTable`, the *tail*, covering only those regions' values.

Correctness by construction
---------------------------
Decision boundaries are *not* arithmetic midpoints: posit rounding in
the tapered regimes rounds the extended bit pattern, so the value-space
boundary between two adjacent posits is a pattern-space midpoint
(geometric-ish), and IEEE ties-to-even picks sides by pattern parity.
Rather than re-deriving each format's tie rules, the tail table is
built by **bisection against the trusted reference rounder**: for every
adjacent value pair the build binary-searches, in the monotone integer
ordering of float64, for the smallest double the reference rounds *up*.
The resulting table reproduces the reference bit-for-bit for every
float64 input — no tie logic exists to get wrong — and the test suite
verifies every pattern and every boundary neighbourhood exhaustively
for every format of at most 16 bits.

Tiers
-----
Every NumPy call costs microseconds before it touches an element, so a
Python float or an array of at most :data:`TINY_N` elements rounds
through the table's pure-Python ``round_scalar`` (``math.frexp`` for
the bucket, ``bisect`` over the tail's boundaries); larger arrays take
``round_array``.  Both read the same arrays, so switching is free;
:class:`repro.formats.base.TableRoundedFormat` is the one dispatch.
``REPRO_LUT=off`` disables the tables entirely.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Hashable

import numpy as np

from ..config import env_switch

__all__ = ["RoundingTable", "TwoLevelTable", "LaneTables", "lut_enabled",
           "two_level_table", "MAX_TABLE_BITS", "FREXP_E_LO",
           "FREXP_E_TABLE", "TINY_N", "WORKSPACE_BUDGET",
           "release_workspace"]

#: widest format whose whole value set an exact enumeration table holds
#: (2**16 patterns; the takum-log formats round through one)
MAX_TABLE_BITS = 16

#: frexp exponents of finite nonzero doubles span [-1073, 1024]; every
#: two-level first-level table is indexed by ``frexp(x)[1] - FREXP_E_LO``
FREXP_E_LO = -1073
FREXP_E_TABLE = 2098

#: arrays up to this size round element by element through
#: ``round_scalar``: the largest size at which that loop beats the
#: array path for every format (crossovers measured per format in
#: docs/performance.md, "Rounding tiers")
TINY_N = 8

#: bytes of ``round_array`` workspace one thread keeps between calls,
#: however many distinct shapes it rounds (least recently used shapes
#: are dropped first)
WORKSPACE_BUDGET = 16 << 20

#: the pure-Python twin of each NumPy step ufunc of the two-level
#: affine path (all return ints, so ``0`` flags a signed-zero result)
_SCALAR_STEPS = {np.rint: round, np.trunc: math.trunc,
                 np.floor: math.floor, np.ceil: math.ceil}

_INT64_MIN = np.int64(np.iinfo(np.int64).min)

#: process-wide table cache, keyed by the format's identity key
_CACHE: dict[Hashable, "TwoLevelTable"] = {}

_ENABLED = env_switch("REPRO_LUT")


def lut_enabled() -> bool:
    """True unless disabled via ``REPRO_LUT=off`` (read at import)."""
    return _ENABLED


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
        # Python-float copies for the scalar tier, so ``bisect`` runs
        # without NumPy dispatch (a tail holds at most a few dozen values)
        self._value_seq = values.tolist()
        self._boundary_seq = boundaries.tolist()

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
        if np.count_nonzero(out) != out.size:
            # the table stores one zero; restore the input's zero sign
            # (x * 0.0 is ±0.0 with x's sign for every finite x)
            zero = out == 0.0
            out[zero] = arr[zero] * 0.0
        fin = np.isfinite(arr)
        if np.count_nonzero(fin) != fin.size:
            # NaN/±inf semantics differ per family (posit NaR vs IEEE
            # ±inf passthrough); the reference is authoritative
            bad = ~fin
            out[bad] = self._reference(arr[bad])
        return out

    def round_scalar(self, x: float) -> float:
        """:meth:`round_array` for one Python float, in pure Python."""
        if not math.isfinite(x):
            return float(self._reference(np.array([x]))[0])
        v = self._value_seq[bisect.bisect_right(self._boundary_seq, x)]
        # the table's one zero takes the input's sign, as above
        return v if v else x * 0.0


class _Workspace(threading.local):
    """Per-thread ``round_array`` intermediates, one bundle per shape.

    ``free`` maps shape → bundle in least-recently-used order (a taken
    bundle is popped and re-inserted on return), and ``nbytes`` counts
    the bytes it holds, never more than :data:`WORKSPACE_BUDGET`.  One
    pool serves every table, since the intermediates depend on the
    input's shape alone, so one budget bounds the thread's total.
    """

    #: bytes per element of one bundle: mantissa/quotient and granule
    #: (float64), biased exponent (int32), finite mask (bool)
    ITEM_BYTES = 8 + 8 + 4 + 1

    def __init__(self):
        self.free: dict[tuple, tuple] = {}
        self.nbytes = 0

    def take(self, shape: tuple) -> tuple:
        ws = self.free.pop(shape, None)
        if ws is None:
            return (np.empty(shape), np.empty(shape),
                    np.empty(shape, np.int32), np.empty(shape, np.bool_))
        self.nbytes -= ws[0].size * self.ITEM_BYTES
        return ws

    def give(self, shape: tuple, ws: tuple) -> None:
        size = ws[0].size * self.ITEM_BYTES
        if size > WORKSPACE_BUDGET or shape in self.free:
            return  # too big to keep, or a reentrant call's spare
        self.free[shape] = ws
        self.nbytes += size
        while self.nbytes > WORKSPACE_BUDGET:
            old = self.free.pop(next(iter(self.free)))
            self.nbytes -= old[0].size * self.ITEM_BYTES


_WORKSPACE = _Workspace()


def release_workspace() -> None:
    """Drop every ``round_array`` workspace bundle this thread keeps,
    the :class:`LaneTables` arena's included.

    For a caller that knows the shapes it has been rounding will not
    come back: a ragged CG lane stack meets a new set of array sizes
    each time a lane leaves, and the byte budget alone would keep the
    old sets, several MB of them, alive until the process ends.  A
    smaller budget or an age limit here would instead evict the
    shapes a factorization comes back to (docs/performance.md, §11).
    """
    _WORKSPACE.free.clear()
    _WORKSPACE.nbytes = 0
    _ARENA.ws = None


class TwoLevelTable:
    """Exponent-bucketed rounding, the one table of every table format.

    Level 1 is a pair of :data:`FREXP_E_TABLE`-entry arrays indexed by
    the biased frexp exponent of the input: ``granules[e]`` is the
    uniform spacing of representable values in that bucket and
    ``affine[e]`` marks buckets where value rounding is exactly
    ``post(step(x / g) * g)`` (``step`` is one of :func:`np.rint`
    (round-half-even, the default), :func:`np.trunc`, :func:`np.floor`
    and :func:`np.ceil`).  Level 2 is one :class:`RoundingTable`, the
    *tail*, restricted to the values of the *non*-affine buckets — the
    posit tapered extremes, the sub-minpos/above-maxpos clamp zones —
    which hold only a handful of values, so the tail stays small no
    matter how wide the format is.

    The optional *post* hook is an IEEE-style overflow or saturation
    rule; *post_span* is the closed magnitude range it leaves
    unchanged.  Construction splits off the affine **post buckets**,
    those whose result ``step(x / g) * g`` can leave *post_span* (an
    emulated IEEE format's top binade and above, takum's two end
    binades).  Everything else is the *fast* path, ``step(x / g) * g``
    with no hook: in the rotated level-1 array the fast path reads,
    post and tail buckets hold a NaN granule, so one finiteness check
    on the result finds every lane that needs more — a post bucket
    (``step``, then *post*), a tail bucket or a non-finite input (the
    tail table, which delegates non-finite inputs to the reference).
    Without a hook, up to :data:`TINY_N` such lanes take the tail's
    ``round_scalar``, which costs less than its fixed NumPy calls
    (a posit8 array of normal deviates has ~2.5 % tail lanes).
    Bit-identity with the reference is enforced by the conformance
    suite (exhaustive for ≤ 16-bit formats, boundary-biased stratified
    for posit32/binary32).

    Every fast granule is a finite, non-zero power of two no smaller
    than ``2**(e - 1024)`` in bucket ``e``, and no fast result leaves
    the float64 range, so the fast path raises no floating-point flag
    and enters no ``np.errstate``; only a post-bucket lane of the top
    bucket (``e = 1024``) can overflow, by rounding up to ``2**1024``,
    and the post path silences that.
    """

    def __init__(self, granules: np.ndarray, affine: np.ndarray,
                 tail: RoundingTable, step: Callable = np.rint,
                 post: Callable[[np.ndarray], np.ndarray] | None = None,
                 post_span: tuple[float, float] = (0.0, math.inf)):
        if granules.shape != (FREXP_E_TABLE,) \
                or affine.shape != (FREXP_E_TABLE,):
            raise ValueError(
                f"level-1 tables must have shape ({FREXP_E_TABLE},)")
        self.granules = np.ascontiguousarray(granules, dtype=np.float64)
        self.affine = np.ascontiguousarray(affine, dtype=np.bool_)
        self.tail = tail
        self._step = step
        self._scalar_step = _SCALAR_STEPS[step]
        self._post = post
        # |x| in [2**s, 2**(s+1)) rounds to a magnitude in [lo, hi]:
        # [2**s, 2**(s+1)] when g <= 2**s, else [0, g]
        s = np.arange(FREXP_E_LO, FREXP_E_LO + FREXP_E_TABLE) - 1
        with np.errstate(over="ignore"):
            edge = np.ldexp(1.0, s)
            hi = np.maximum(2.0 * edge, self.granules)
        lo = np.where(self.granules <= edge, edge, 0.0)
        post_lo, post_hi = post_span if post is not None else (0.0, math.inf)
        post_bucket = self.affine & ((lo < post_lo) | (hi > post_hi))
        fast = self.affine & ~post_bucket
        # the fast and the post path's granules, NaN in every other
        # bucket, rotated so that ``take(frexp exponent, mode="wrap")``
        # and a negative Python index both address the right bucket
        self._fast_granules, self._post_granules = (
            np.roll(np.where(mask, self.granules, np.nan), FREXP_E_LO)
            for mask in (fast, post_bucket))
        # scalar tier: zero-copy views, indexed by the frexp exponent
        self._fast_seq = memoryview(self._fast_granules)
        self._post_seq = memoryview(self._post_granules)

    @classmethod
    def build(cls, granules: np.ndarray, affine: np.ndarray,
              tail_candidates: np.ndarray,
              reference: Callable[[np.ndarray], np.ndarray],
              step: Callable = np.rint,
              post: Callable[[np.ndarray], np.ndarray] | None = None,
              post_span: tuple[float, float] = (0.0, math.inf)
              ) -> "TwoLevelTable":
        """Assemble from a format's bucket spec and trusted rounder.

        *tail_candidates* must contain every value an input from a
        non-affine bucket can round to (bracketing neighbours from the
        adjacent affine buckets included); the tail boundaries are then
        bisection-probed against *reference*, so no clamp/overflow tie
        logic exists to get wrong.
        """
        tail = RoundingTable.build(tail_candidates, reference)
        return cls(granules, affine, tail, step, post, post_span)

    def round_array(self, arr: np.ndarray) -> np.ndarray:
        """Round a float64 array; always returns a fresh array."""
        shape = arr.shape
        ws = _WORKSPACE.take(shape)
        m, g, e, fin = ws
        try:
            np.frexp(arr, m, e)
            self._fast_granules.take(e, out=g, mode="wrap")
            # fast-bucket rounding; every other lane computes NaN here
            # (or ±inf for an infinite input) and is overwritten below
            np.divide(arr, g, out=m)
            self._step(m, out=m)
            out = np.multiply(m, g)
            np.isfinite(out, out=fin)
            rest = fin.size - np.count_nonzero(fin)
            if rest:
                np.logical_not(fin, out=fin)
                x = arr[fin]
                if self._post is None and rest <= TINY_N:
                    # a few tail lanes cost less through the scalar tier
                    out[fin] = np.array([self.tail.round_scalar(v)
                                         for v in x.tolist()])
                else:
                    out[fin] = self._round_rest(x)
            return out
        finally:
            _WORKSPACE.give(shape, ws)

    def _round_rest(self, x: np.ndarray) -> np.ndarray:
        """Round the 1-D lanes the fast path left: post buckets as
        ``post(step(x / g) * g)``, the rest through the tail table."""
        out = self.tail.round_array(x)
        if self._post is not None:
            g = self._post_granules.take(np.frexp(x)[1], mode="wrap")
            hook = ~np.isnan(g) & np.isfinite(x)
            if hook.any():
                g = g[hook]
                with np.errstate(over="ignore"):
                    r = self._step(x[hook] / g) * g
                out[hook] = self._post(r)
        return out

    def round_scalar(self, x: float) -> float:
        """:meth:`round_array` for one Python float, in pure Python.

        Fast and post buckets compute ``step(x / g) * g`` with the
        step's integer-valued twin (an integer 0 becomes the input's
        signed zero, as ``rint(-0.3) * g`` is ``-0.0``; a result past
        the float64 range is ``inf``, as in NumPy), and a post bucket
        then applies *post*.  Tail buckets and non-finite inputs take
        the tail table's scalar path.
        """
        if not math.isfinite(x):
            return self.tail.round_scalar(x)
        e = math.frexp(x)[1]
        g = self._fast_seq[e]
        if not math.isnan(g):
            q = self._scalar_step(x / g)
            return q * g if q else x * 0.0
        g = self._post_seq[e]
        if math.isnan(g):
            return self.tail.round_scalar(x)
        q = self._scalar_step(x / g)
        r = q * g if q else x * 0.0
        return float(self._post(np.array([r]))[0])


class _Arena(threading.local):
    """One thread's :class:`LaneTables` intermediates: a single bundle
    (the fields of a :class:`_Workspace` bundle), as long as the
    longest array rounded since the last :func:`release_workspace`,
    whose prefixes serve every shorter array.  A lane step rounds
    arrays of a dozen lengths (products, every fold level, vectors,
    scalars); one bundle of the longest holds a third of what a bundle
    per length would."""

    def __init__(self):
        self.ws: tuple | None = None

    def take(self, n: int) -> tuple:
        ws, self.ws = self.ws, None
        if ws is None or ws[0].size < n:
            ws = (np.empty(n), np.empty(n), np.empty(n, np.int32),
                  np.empty(n, np.bool_))
        return ws

    def give(self, ws: tuple) -> None:
        if ws[0].size * _Workspace.ITEM_BYTES <= WORKSPACE_BUDGET:
            self.ws = ws


_ARENA = _Arena()


class LaneTables:
    """The tables of B lanes, for one rounding pass over lane-ordered
    arrays that serves every lane in its own format.

    :meth:`round_array` takes a 1-D array laid out as *runs*: a
    sequence of run lengths whose ``i``-th run belongs to lane
    ``i % B``, so ``(B,)`` scalars are runs of ones, lanes' vectors laid
    end to end are runs of their sizes, and a CSR stack's products
    (each lane's stored entries, then one pad slot per lane) are ``2B``
    runs.  Every entry gets the bits of its own lane's
    :meth:`TwoLevelTable.round_array`.

    The fast path is the table's own ufunc sequence, run once over the
    whole array: each entry reads its granule from the lanes' distinct
    level-1 fast arrays laid end to end, at its lane's offset (with one
    distinct table, straight from that table's).  Entries the fast path
    leaves non-finite (a post or tail bucket, or a non-finite input)
    are rounded by their own table, one call per table.  Every table
    must have one step (``TwoLevelTable``'s *step*), since one step
    ufunc serves the pass.  Arrays of at most :data:`TINY_N` entries
    round entry by entry through each lane's ``round_scalar``.
    """

    __slots__ = ("tables", "distinct", "lane_table", "_granules", "_base",
                 "_scalar", "_step")

    def __init__(self, tables):
        self.tables = tuple(tables)
        if not self.tables:
            raise ValueError("lane tables need at least one lane")
        self.distinct = list(dict.fromkeys(self.tables))
        #: each lane's index into :attr:`distinct`
        self.lane_table = np.array([self.distinct.index(t)
                                    for t in self.tables], dtype=np.int64)
        self._step = self.tables[0]._step
        if any(t._step is not self._step for t in self.distinct):
            raise ValueError("lane tables must share one step")
        self._scalar = [t.round_scalar for t in self.tables]
        if len(self.distinct) == 1:
            self._granules, self._base = self.tables[0]._fast_granules, None
            return
        self._granules = np.concatenate([
            np.roll(t._fast_granules, -FREXP_E_LO) for t in self.distinct])
        # a frexp exponent plus its lane's base indexes ``_granules``
        self._base = self.lane_table * FREXP_E_TABLE - FREXP_E_LO

    def __len__(self) -> int:
        return len(self.tables)

    def round_array(self, arr: np.ndarray, runs) -> np.ndarray:
        """Round the 1-D lane-ordered *arr* laid out as *runs*; always
        returns a fresh array."""
        runs = np.asarray(runs, dtype=np.int64)
        if runs.size % len(self.tables):
            raise ValueError(f"{runs.size} runs do not cycle through "
                             f"{len(self.tables)} lanes")
        if arr.size <= TINY_N:
            return self._round_tiny(arr, runs)
        n = arr.size
        ws = _ARENA.take(n)
        m, g, e, fin = (a[:n] for a in ws)
        try:
            np.frexp(arr, m, e)
            if self._base is None:
                self._granules.take(e, out=g, mode="wrap")
            else:
                base = self._base
                if runs.size != base.size:
                    base = np.tile(base, runs.size // base.size)
                ix = np.repeat(base, runs)
                ix += e
                self._granules.take(ix, out=g)
            # fast-bucket rounding; every other entry computes NaN
            # here (or ±inf for an infinite input)
            np.divide(arr, g, out=m)
            self._step(m, out=m)
            out = np.multiply(m, g)
            np.isfinite(out, out=fin)
            if fin.size != np.count_nonzero(fin):
                np.logical_not(fin, out=fin)
                self._round_rest(arr, out, np.flatnonzero(fin), runs)
            return out
        finally:
            _ARENA.give(ws)

    def _round_rest(self, arr, out, pos, runs) -> None:
        """Round the entries *pos* of *arr* into *out*, each through its
        own lane's table, one call per table."""
        if self._base is None:
            out[pos] = _round_few(self.distinct[0], arr[pos])
            return
        lanes = np.searchsorted(np.cumsum(runs), pos, side="right")
        which = self.lane_table[lanes % len(self.tables)]
        for t in np.unique(which).tolist():
            at = pos[which == t]
            out[at] = _round_few(self.distinct[t], arr[at])

    def _round_tiny(self, arr, runs) -> np.ndarray:
        """An array of at most :data:`TINY_N` entries, entry by entry
        through each lane's ``round_scalar``."""
        values = arr.tolist()
        out, start, lanes = [], 0, len(self.tables)
        for i, n in enumerate(runs.tolist()):
            rs = self._scalar[i % lanes]
            out += [rs(v) for v in values[start:start + n]]
            start += n
        if start != len(values):
            raise ValueError(f"runs cover {start} of {len(values)} "
                             f"entries")
        return np.array(out, dtype=np.float64)


def _round_few(table: TwoLevelTable, x: np.ndarray) -> np.ndarray:
    """*table*'s rounding of the 1-D *x*: entry by entry through its
    scalar tier for at most :data:`TINY_N` entries."""
    if x.size <= TINY_N:
        return np.array([table.round_scalar(v) for v in x.tolist()],
                        dtype=np.float64)
    return table.round_array(x)


def two_level_table(key: Hashable,
                    spec_fn: Callable[[], tuple],
                    reference: Callable[[np.ndarray], np.ndarray],
                    step: Callable = np.rint,
                    post: Callable[[np.ndarray], np.ndarray] | None = None,
                    post_span: tuple[float, float] = (0.0, math.inf),
                    fmt_name: str = "") -> TwoLevelTable:
    """The cached table for *key*, building it on first use.

    *key* must capture everything that determines the rounding function
    (format class, parameters, rounding mode) — formats pass their
    ``_key()`` identity tuple.  *spec_fn* returns ``(granules, affine,
    tail_candidates)``; *step*, *post* and *post_span* are as for
    :class:`TwoLevelTable`.  First use consults the persistent store of
    :mod:`.tabcache` before paying the bisection build; *fmt_name* (the
    registry name) is written into stored files' headers to name them.
    """
    table = _CACHE.get(key)
    if table is None:
        from . import tabcache
        arrs = tabcache.load_arrays(key)
        if arrs is not None:
            tail = RoundingTable(arrs["values"], arrs["boundaries"],
                                 reference)
            table = TwoLevelTable(arrs["granules"], arrs["affine"],
                                  tail, step=step, post=post,
                                  post_span=post_span)
        else:
            granules, affine, candidates = spec_fn()
            table = TwoLevelTable.build(granules, affine, candidates,
                                        reference, step=step, post=post,
                                        post_span=post_span)
            tabcache.table_stats().builds += 1
            tabcache.store_arrays(
                key, fmt_name,
                {"granules": table.granules, "affine": table.affine,
                 "values": table.tail.values,
                 "boundaries": table.tail.boundaries})
        _CACHE[key] = table
    return table


# benchmarks/e2e/layers.py wraps ``lut.rounding_table`` by name; this
# alias is its only reason to exist (delete both together)
rounding_table = two_level_table


def clear_tables() -> None:
    """Drop every cached table (tests)."""
    _CACHE.clear()
