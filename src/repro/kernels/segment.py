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
   supported rounder maps a representable value to itself — so the
   padding-padding pairs of a level all equal the level's padding
   scalar, computed once per level instead of once per slot.  (The one
   level-to-level change is defensively computed anyway: the fold
   carries a real pad slot through the tree, one extra lane per level.)
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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scratch import ScratchPool

__all__ = ["SegmentPlan", "segmented_fold", "use_segmented", "PAD_RATIO"]

#: a CSR matvec switches to the segmented fold when the padded (n, k)
#: view holds more than this many slots per stored entry — near-uniform
#: rows stay on the rectangular padded gather, skewed ones go compact
PAD_RATIO = 1.5

_SCRATCH = ScratchPool()

_EMPTY = np.empty(0, dtype=np.int64)


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
    """One fold level: gather/scatter indices over compact live slots.

    ``left``/``right`` index the level's input array (length
    ``size_in + 1``, pad scalar at ``size_in``); ``dst`` indexes the
    output array (length ``size_out + 1``).  The final lane of each is
    the pad-pad pair feeding the next level's pad slot.  ``lo_src`` /
    ``lo_dst`` copy the odd-width leftovers un-rounded.
    """

    left: np.ndarray
    right: np.ndarray
    dst: np.ndarray
    lo_src: np.ndarray
    lo_dst: np.ndarray
    size_in: int
    size_out: int


class SegmentPlan:
    """Precomputed index plan for the segmented rounded pairwise fold.

    Depends only on the sparsity pattern (``indptr`` + row width), so a
    matrix and its quantized copies share one plan.  Total index
    storage is O(nnz): level ``ℓ`` holds ~3 int64 per pair it folds and
    every pair consumes at least one live slot.
    """

    __slots__ = ("n", "row_width", "levels", "final_src")

    def __init__(self, n: int, row_width: int, levels: list[_Level],
                 final_src: np.ndarray):
        self.n = n
        self.row_width = row_width
        self.levels = levels
        self.final_src = final_src

    @classmethod
    def from_csr(cls, indptr: np.ndarray, row_width: int) -> "SegmentPlan":
        """Build the plan for a CSR pattern with the given padded width."""
        indptr = np.asarray(indptr, dtype=np.int64)
        n = indptr.size - 1
        counts = np.diff(indptr)
        in_off = indptr
        k = max(1, int(row_width))
        levels: list[_Level] = []
        while k > 1:
            m = k // 2
            odd = k & 1
            folds = np.minimum(counts, m)
            if odd:
                leftover = counts == k
                counts_next = folds + leftover
            else:
                leftover = None
                counts_next = folds
            out_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts_next, out=out_off[1:])
            t_in = int(in_off[-1])
            t_out = int(out_off[-1])
            nfold = int(folds.sum())
            fold_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(folds, out=fold_off[1:])
            rows = np.repeat(np.arange(n, dtype=np.int64), folds)
            j = np.arange(nfold, dtype=np.int64) - fold_off[rows]
            left = np.empty(nfold + 1, dtype=np.int64)
            right = np.empty(nfold + 1, dtype=np.int64)
            dst = np.empty(nfold + 1, dtype=np.int64)
            base = in_off[rows]
            np.add(base, j, out=left[:-1])
            jm = j + m
            np.copyto(right[:-1], np.where(jm < counts[rows],
                                           base + jm, t_in))
            np.add(out_off[rows], j, out=dst[:-1])
            left[-1] = right[-1] = t_in
            dst[-1] = t_out
            if odd and leftover is not None and leftover.any():
                lo_rows = np.nonzero(leftover)[0]
                # a full odd row folds exactly m pairs, so its leftover
                # lands right after them: a prefix again
                lo_src = in_off[lo_rows] + (k - 1)
                lo_dst = out_off[lo_rows] + m
            else:
                lo_src = lo_dst = _EMPTY
            levels.append(_Level(left, right, dst, lo_src, lo_dst,
                                 t_in, t_out))
            counts = counts_next
            in_off = out_off
            k = m + odd
        final_src = np.where(counts > 0, in_off[:-1], int(in_off[-1]))
        return cls(n, max(1, int(row_width)), levels, final_src)

    @property
    def nbytes(self) -> int:
        """Total index storage, for memory accounting and tests."""
        total = self.final_src.nbytes
        for lvl in self.levels:
            total += (lvl.left.nbytes + lvl.right.nbytes + lvl.dst.nbytes
                      + lvl.lo_src.nbytes + lvl.lo_dst.nbytes)
        return total


def segmented_fold(products: np.ndarray, plan: SegmentPlan,
                   rnd) -> np.ndarray:
    """Fold the extended product array through the plan's tree.

    *products* is the quantized length ``nnz + 1`` array (pad scalar at
    the sentinel slot, as :meth:`FPContext.matvec` builds it); *rnd* is
    the reduction rounder.  Returns a fresh ``(n,)`` float64 array
    bit-identical to the padded pairwise fold.
    """
    cur = np.asarray(products, dtype=np.float64)
    for lvl in plan.levels:
        width = lvl.left.size
        a = _SCRATCH.take((width,))
        b = _SCRATCH.take((width,))
        try:
            np.take(cur, lvl.left, out=a)
            np.take(cur, lvl.right, out=b)
            np.add(a, b, out=a)
            folded = rnd(a)
            if folded is a:  # pass-through rounder: detach from scratch
                folded = a.copy()
        finally:
            _SCRATCH.give(b)
            _SCRATCH.give(a)
        nxt = _SCRATCH.take((lvl.size_out + 1,))
        nxt[lvl.dst] = folded
        if lvl.lo_src.size:
            # odd leftovers are copied un-rounded, as the padded fold does
            nxt[lvl.lo_dst] = cur[lvl.lo_src]
        if cur is not products:
            _SCRATCH.give(cur)
        cur = nxt
    out = np.take(cur, plan.final_src)
    if cur is not products:
        _SCRATCH.give(cur)
    return out
