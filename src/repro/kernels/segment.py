"""Segmented CSR reduction: the compact O(nnz) rounded pairwise fold.

The padded CSR matvec (:meth:`repro.arith.sparse.CSRMatrix.slot_map`)
scatters the ``nnz + 1`` quantized products into the full ``(n, k)``
padded shape before folding, so one long row inflates every row to its
width: an arrow matrix with a single dense row pays O(n²) per
application.  This module folds the compact product array directly,
reproducing the padded tree **bit for bit** without ever materializing the
padded view.

Why skipping the padding preserves every bit
--------------------------------------------
The padded fold (:func:`repro.arith.summation._fold_pairwise`) pairs slot
``j`` with slot ``j + m`` (``m = k // 2``) at every level and copies an
odd leftover slot un-rounded.  Stored entries occupy a prefix of each
padded row; padding slots all hold the one shared padding product
``p = rnd(0.0 * x[0])``, which is ``+0.0``, ``-0.0`` or NaN.  Three
facts make the compact fold exact:

1. **Prefixes stay prefixes.**  If a row holds ``c`` live values among
   ``k`` slots, the fold writes live results to slots
   ``0 .. min(c, m) - 1`` and the (odd-``k``) leftover slot ``m`` is
   live only when ``c == k`` — again a contiguous prefix.  So per-row
   live counts fully describe every level.
2. **Padding is a fixed point.**  For ``p`` in ``{+0.0, -0.0, NaN}``,
   ``p + p`` is bit-identical to ``p`` in IEEE float64 and every
   supported rounder maps a value it returned to itself — so every
   padding-padding pair of every level equals ``p`` again.  The fold
   never computes one: each level copies the pad slot un-rounded into
   the next.
3. **Mixed pairs are computed, not skipped.**  ``rnd(v + p)`` can
   differ from ``v`` (``-0.0 + 0.0 = +0.0``; any ``v + NaN`` is NaN),
   so pairs joining a live value to a padding slot gather the pad slot
   explicitly through a sentinel index — exactly the value the padded
   fold would see.

Elementwise rounding commutes with gather/scatter, so quantizing the
compact pair sums yields the same bits as quantizing the padded level
(:mod:`tests.kernels.test_segment` holds the two paths byte-identical
across the format zoo, including NaR and signed-zero products).

The ``sequential`` summation order offers no such skip — every trailing
padding slot re-rounds the accumulator (``rnd(acc + p)`` rewrites
``-0.0`` to ``+0.0``) — so sequential contexts keep the padded view.

Route selection (:func:`use_segmented`) depends on the input alone: a
pairwise context takes the segmented fold once the padded view would
hold more than :data:`PAD_RATIO` slots per stored entry.

Ragged lanes
------------
Nothing above needs every row to share one width or one pad.  The
plan builder takes a width per row and a pad slot per row, so the
block-diagonal stack of several CSR matrices
(:class:`repro.arith.sparse.CSRStack`) folds each row through the tree
of its own matrix's width, padded with its own matrix's
``rnd(0.0 * x[0])``: one plan, one call per level, and every lane's
bits.  With full rows and no pad slot the same builder gives the
per-lane pairwise sums of vectors laid end to end
(:class:`LaneSegments`, the ragged lane dot).  Every level writes its
pair sums in row order, so each lane's pairs are one run of the level;
given the lanes' row offsets, the plan counts them, which lets one
rounding call round each lane in its own format
(:class:`repro.arith.context.LaneContext`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["LaneSegments", "SegmentPlan", "segmented_fold", "use_segmented",
           "PAD_RATIO"]

#: a CSR matvec switches to the segmented fold when the padded (n, k)
#: view holds more than this many slots per stored entry — near-uniform
#: rows stay on the rectangular padded gather, skewed ones go compact
PAD_RATIO = 1.5


def use_segmented(n: int, row_width: int, nnz: int,
                  sum_order: str = "pairwise") -> bool:
    """Whether a CSR matvec should take the segmented fold.

    Sequential contexts always decline (see the module docstring);
    pairwise ones take it when the padded view holds more than
    :data:`PAD_RATIO` slots per stored entry.
    """
    if sum_order != "pairwise":
        return False
    return n * row_width > PAD_RATIO * max(nnz, 1)


class _Level(NamedTuple):
    """One fold level: gather indices over compact live slots.

    The level's input holds ``size_in`` live slots, then the pad
    slots.  ``left``/``right`` gather its pairs in row order, and
    ``lo_src`` its odd-width leftovers and then the pad slots, which
    are copied un-rounded.  The output is the rounded pair sums as one
    block, then those copies: ``size_out`` live slots, then the pads
    again.  ``runs`` counts each lane's pairs, for a plan built with
    lane boundaries (None otherwise): the pairs are in row order, so
    each lane's pairs are one run of the block.
    """

    left: np.ndarray
    right: np.ndarray
    lo_src: np.ndarray
    size_in: int
    size_out: int
    runs: np.ndarray | None


class SegmentPlan:
    """Precomputed index plan for the segmented rounded pairwise fold.

    Depends only on the sparsity pattern (``indptr``, the padded row
    widths and which pad slot each row reads), so a matrix and its
    quantized copies share one plan.  Total index storage is O(nnz):
    level ``ℓ`` holds 2 int64 per pair it folds and every pair
    consumes at least one live slot.
    """

    __slots__ = ("n", "row_width", "pads", "levels", "final_src")

    def __init__(self, n: int, row_width: int, pads: int,
                 levels: list[_Level], final_src: np.ndarray):
        self.n = n
        self.row_width = row_width
        self.pads = pads
        self.levels = levels
        self.final_src = final_src

    @classmethod
    def from_csr(cls, indptr: np.ndarray, row_width, row_pad=None,
                 pads: int = 1, lane_rows=None) -> "SegmentPlan":
        """Build the plan for a CSR pattern.

        *row_width* is the padded width k of every row, or an ``(n,)``
        array giving each row its own width (at least its count), so
        that each row folds through the tree of its own k.  The
        products array holds the ``nnz`` stored products followed by
        *pads* pad slots; row ``i`` pads with slot ``row_pad[i]``
        (default 0).  ``pads=0`` takes full rows only (count = width),
        which never read a pad: the plan of a plain pairwise sum per
        row.  *lane_rows*, the ``(B + 1,)`` row offsets of B lanes,
        gives every level its lanes' pair counts (``_Level.runs``).
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        n = indptr.size - 1
        counts = np.diff(indptr)
        widths = np.maximum(1, np.broadcast_to(
            np.asarray(row_width, dtype=np.int64), (n,))).copy()
        row_pad = (np.zeros(n, dtype=np.int64) if row_pad is None
                   else np.asarray(row_pad, dtype=np.int64))
        if np.any(counts > widths) or \
                (pads == 0 and np.any(counts < widths)):
            raise ValueError("every row needs count <= width, and "
                             "count == width without pad slots")
        pad_slots = np.arange(pads, dtype=np.int64)
        # row i's live slot j sits at base[i] + j for j < run[i]; a
        # leftover copied at an earlier level, always the row's last
        # live slot, sits at tail[i] among the copies
        base, run = indptr[:-1], counts
        tail = np.zeros(n, dtype=np.int64)
        size_in = int(indptr[-1])

        def slot(rows, j):
            return np.where(j < run[rows], base[rows] + j, tail[rows])

        levels: list[_Level] = []
        while widths.max(initial=1) > 1:
            m = widths // 2
            odd = widths & 1
            folds = np.minimum(counts, m)
            leftover = (odd == 1) & (counts == widths)
            fold_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(folds, out=fold_off[1:])
            rows = np.repeat(np.arange(n, dtype=np.int64), folds)
            j = np.arange(int(fold_off[-1]), dtype=np.int64) - fold_off[rows]
            jm = j + m[rows]
            left = slot(rows, j)
            right = np.where(jm < counts[rows], slot(rows, jm),
                             size_in + row_pad[rows])
            # a full odd row folds exactly m pairs and copies its last
            # slot; leftovers and the pad slots (fixed points, fact 2)
            # are copied un-rounded after the pair sums
            lo_rows = np.flatnonzero(leftover)
            lo_src = np.concatenate([slot(lo_rows, widths[lo_rows] - 1),
                                     size_in + pad_slots])
            size_out = int(fold_off[-1]) + lo_rows.size
            runs = (None if lane_rows is None
                    else np.diff(fold_off[lane_rows]))
            levels.append(_Level(left, right, lo_src, size_in, size_out,
                                 runs))
            base, run = fold_off[:-1], folds
            tail = np.zeros(n, dtype=np.int64)
            tail[lo_rows] = int(fold_off[-1]) + np.arange(lo_rows.size)
            counts = folds + leftover
            size_in = size_out
            widths = m + odd
        final_src = np.where(counts > 0, slot(np.arange(n), 0),
                             size_in + row_pad)
        width = int(np.max(row_width, initial=1))
        return cls(n, width, pads, levels, final_src)

    @property
    def nbytes(self) -> int:
        """Total index storage, for memory accounting and tests."""
        total = self.final_src.nbytes
        for lvl in self.levels:
            total += lvl.left.nbytes + lvl.right.nbytes + lvl.lo_src.nbytes
            if lvl.runs is not None:
                total += lvl.runs.nbytes
        return total


class LaneSegments:
    """The layout of B lanes' vectors laid end to end in one flat array.

    Lane ``ℓ`` owns ``flat[offsets[ℓ]:offsets[ℓ + 1]]``, of its own
    length ``sizes[ℓ]`` (at least 1).  :meth:`plan` is the per-lane
    sum plan (one row per lane, count = width = its size, no pad), so
    a segmented fold of a flat products array gives each lane the
    pairwise tree of its own 1-D sum.
    """

    __slots__ = ("sizes", "offsets", "_plan")

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if self.sizes.ndim != 1 or np.any(self.sizes < 1):
            raise ValueError("lane sizes must be a 1-D list of positive "
                             "lengths")
        self.offsets = np.zeros(self.sizes.size + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self._plan = None

    def __len__(self) -> int:
        return self.sizes.size

    @property
    def total(self) -> int:
        """N, the length of the flat array."""
        return int(self.offsets[-1])

    def plan(self) -> SegmentPlan:
        """The cached per-lane sum plan, with each level's per-lane
        pair counts."""
        if self._plan is None:
            self._plan = SegmentPlan.from_csr(
                self.offsets, self.sizes, pads=0,
                lane_rows=np.arange(self.sizes.size + 1))
        return self._plan

    def lane(self, flat: np.ndarray, k: int) -> np.ndarray:
        """Lane *k*'s part of *flat* (a view)."""
        return flat[self.offsets[k]:self.offsets[k + 1]]

    def expand(self, values: np.ndarray) -> np.ndarray:
        """One value per lane, repeated over that lane's entries."""
        return np.repeat(values, self.sizes)


def segmented_fold(products: np.ndarray, plan: SegmentPlan,
                   rnd, lanes: bool = False) -> np.ndarray:
    """Fold the extended product array through the plan's tree.

    *products* is the quantized length ``nnz + plan.pads`` array (pad
    products in the trailing slots, as :meth:`FPContext.matvec` builds
    it); *rnd* is the reduction rounder, called as ``rnd(pairs)``, or
    with *lanes* as ``rnd(pairs, runs)`` with the level's per-lane pair
    counts (a plan built with lane boundaries).  Returns a fresh
    ``(n,)`` float64 array bit-identical to the padded pairwise fold of
    each row at its own width.
    """
    cur = np.asarray(products, dtype=np.float64)
    for lvl in plan.levels:
        pairs = cur.take(lvl.left)
        pairs += cur.take(lvl.right)
        folded = rnd(pairs, lvl.runs) if lanes else rnd(pairs)
        # odd leftovers and pad slots are copied un-rounded, as the
        # padded fold does
        cur = np.concatenate((folded, cur.take(lvl.lo_src)))
    return cur.take(plan.final_src)
