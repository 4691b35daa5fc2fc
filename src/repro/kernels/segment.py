"""Segmented CSR reduction: the compact O(nnz) rounded pairwise fold.

The CSR matvec's semantics (:mod:`repro.arith.sparse`) fold every row
through the padded tree of the longest row's width ``k``.  Scattering
the ``nnz + 1`` quantized products into that ``(n, k)`` shape would
inflate every row to the widest one: an arrow matrix with a single
dense row would pay O(n²) per application.  This module folds the
compact product array directly, reproducing the padded tree **bit for
bit** without ever materializing the padded view; every pairwise CSR
matvec runs here, whatever its fill.

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
   never computes one: a row reads its pad slot where the products
   left it.
3. **Mixed pairs are added but never rounded, and never repeated.**
   A live value ``v`` is a rounder's output, and ``v + p`` is ``v`` or
   ``p``, so ``rnd(v + p) == v + p``: the fold adds the pair and skips
   the rounding.  It must add it: ``-0.0 + 0.0 = +0.0``, and any
   ``v + NaN`` is NaN.  But once ``v`` has met its pad it stays
   unchanged by the pad until a live-live pair rounds it again:
   ``(v + p) + p`` is bit-identical to ``v + p``.  So a live-pad pair
   whose live value already met the pad (a *stale* pair) is not added
   again; the row keeps the earlier sum's slot.

So the rounder sees only live-live pairs, and elementwise rounding
commutes with gather/scatter: the rounded compact pair sums carry the
bits of the padded level's (:mod:`tests.kernels.test_segment` holds the
two paths byte-identical across the format zoo, including NaR and
signed-zero products, and walks the padded tree of every row shape up
to width 69).  A collector bound to the context still counts every
pair of the padded tree that holds a live value: each level reports
its live-pad pairs, fresh and stale, as exact roundings (the rounder's
``record_exact``).

The fold tape
-------------
A fold works on one float64 array, its *tape*: the ``nnz`` products
and the pad slots, then each level's output slice.  A level gathers its
pairs' addends from the tape in one call and adds them into its slice:
first its live-live pairs in row order (rounded in place), then its
fresh live-pad pairs.  Every other value of the level — an odd
leftover, a stale pair's earlier sum, a pad — keeps the slot it already
has: nothing is copied forward.  A row's live slots then lie in at
most two runs of the tape: its live-live sums of the level before (run
A), then its fresh live-pad sums or the slots it kept (run B).  A row
never has fresh and stale live-pad pairs at one level, and run B has
met the pad unless it is a full row's leftover, which pairs with no
pad; so a few counts per row and level describe the plan, and the
builder writes every level's pair indices with one running sum.  The
plan stores two int64 per pair it adds and nothing for a stale pair.

The ``sequential`` summation order offers no such skip — every trailing
padding slot re-rounds the accumulator (``rnd(acc + p)`` rewrites
``-0.0`` to ``+0.0``) — so sequential contexts keep the padded view
(:meth:`repro.arith.sparse.CSRMatrix.slot_map`).

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
live-live sums in row order, so each lane's are one run of the rounded
slice; given the lanes' row offsets, the plan counts them (and each
lane's live-pad pairs, for a collector), which lets one rounding call
round each lane in its own format
(:class:`repro.arith.context.LaneContext`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["LaneSegments", "SegmentPlan", "segmented_fold"]


class _Level(NamedTuple):
    """One fold level: the pairs it adds into its slice of the tape.

    ``pairs[0]``/``pairs[1]`` are the tape slots of each pair's left and
    right addend; the sums go to ``tape[out]``.  The first ``live``
    pairs join two live values and are rounded in place; the rest join
    a live value that has not met its pad yet to that pad slot and stay
    as added (fact 3).  ``runs`` counts each lane's live-live pairs,
    for a plan built with lane boundaries (None otherwise): the pairs
    are in row order, so each lane's pairs are one run of the rounded
    prefix.  ``padded`` counts each lane's pairs (one total without
    lane boundaries) that a collector sees as exact roundings the fold
    skips: a CSR row's live-pad pairs of the padded tree, fresh and
    stale; for a dense plan, every pair of the whole-array fold that is
    not live-live.
    """

    pairs: np.ndarray
    out: slice
    live: int
    runs: np.ndarray | None
    padded: np.ndarray


class SegmentPlan:
    """Precomputed index plan for the segmented rounded pairwise fold.

    Depends only on the sparsity pattern (``indptr``, the padded row
    widths and which pad slot each row reads), so a matrix and its
    quantized copies share one plan.  The fold runs on one float64
    tape of ``size`` slots: the ``nnz`` products and the pad slots,
    then each level's pair sums.  Total index storage is O(nnz): 2
    int64 per pair a level adds, and a row adds fewer live-live pairs
    than it has products, and a live-pad pair only for a value rounded
    or quantized since it last met the pad.
    """

    __slots__ = ("n", "row_width", "pads", "levels", "final_src", "size")

    def __init__(self, n: int, row_width: int, pads: int,
                 levels: list[_Level], final_src: np.ndarray, size: int):
        self.n = n
        self.row_width = row_width
        self.pads = pads
        self.levels = levels
        self.final_src = final_src
        self.size = size

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
        gives every level its lanes' pair counts (``_Level.runs`` and
        ``_Level.padded``).
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        n = indptr.size - 1
        counts = np.diff(indptr)
        widths = np.maximum(1, np.broadcast_to(
            np.asarray(row_width, dtype=np.int64), (n,)))
        row_pad = (np.zeros(n, dtype=np.int64) if row_pad is None
                   else np.asarray(row_pad, dtype=np.int64))
        if np.any(counts > widths) or \
                (pads == 0 and np.any(counts < widths)):
            raise ValueError("every row needs count <= width, and "
                             "count == width without pad slots")
        nnz = int(indptr[-1])
        pad_src = nnz + row_pad
        depth, k = 0, int(widths.max(initial=1))
        while k > 1:
            depth, k = depth + 1, k - k // 2
        # every level adds at most one pair per product: int32 holds
        # the tape's slots and every count of a plan that fits in 2**31
        small = np.int32 if (nnz + pads) * (depth + 1) < 2 ** 31 \
            else np.int64
        # row l + 1 of `sums`: the tape slot level l starts at, then
        # each row's live-live and fresh live-pad pair counts; of `at`,
        # their running sums, where the level writes each row's sums
        sums = np.empty((depth + 1, 2 * n + 1), dtype=small)
        at = np.empty((depth + 1, 2 * n + 1), dtype=small)
        # row i holds c[i] live slots in two runs of the tape: its
        # first a[i] slots from head[i] on (run A), the rest from
        # tail[i] on (run B; tail = head + a while run B is empty).
        # Run A is the row's live-live sums of the level before (row 0:
        # its products), so a and head are a row up in `sums` and `at`
        sums[0, 1:n + 1], at[0, :n] = counts, indptr[:-1]
        tail = np.empty((depth + 1, n), dtype=small)
        tail[0] = indptr[1:]
        halves = np.empty((depth, n), dtype=small)
        # each row's live-pad pairs of the padded tree, fresh and
        # stale, after a zero column (a running sum too, in the end)
        padded = np.zeros((depth, n + 1), dtype=small)
        c, w = counts.astype(small), widths.astype(small)
        size = nnz + pads
        bounds = []
        for level in range(depth):
            a = sums[level, 1:n + 1]
            ll, fr = sums[level + 1, 1:n + 1], sums[level + 1, n + 1:]
            # pair j < m joins slots j and j + m: live-live for j < ll,
            # live-pad up to `paired` (fresh while j < a), pad-pad
            # after; a full odd row keeps its last slot
            m = np.right_shift(w, 1, out=halves[level])
            paired = np.minimum(c, m)
            rest = c - paired
            np.minimum(rest, paired, out=ll)
            leftover = rest - ll
            np.subtract(np.minimum(a, paired), ll, out=fr)
            np.maximum(fr, 0, out=fr)
            np.subtract(paired, ll, out=padded[level, 1:])
            sums[level + 1, 0] = size
            written = np.cumsum(sums[level + 1], out=at[level + 1])
            live = int(written[n]) - size
            total = int(written[-1]) - size
            # a row with fresh live-pad pairs has no stale ones, so its
            # new run B is its fresh sums, or else the slots it keeps
            # (its stale slots or a full odd row's leftover, both in
            # run B)
            kept = tail[level] + ((ll << leftover) - a)
            tail[level + 1] = np.where(fr > 0, written[n:-1], np.where(
                padded[level, 1:] + leftover > 0, kept, written[1:n + 1]))
            c = paired + leftover
            w = w - m
            bounds.append((size, live, total))
            size += total
        # slot 0 of a live row is head if run A holds it, else tail
        final_src = np.where(c > 0, tail[-1] - sums[-1, 1:n + 1], pad_src)
        # the runs of tape slots each level's pairs read, in order:
        # the left addends (each row's live-live pairs in run A, then
        # in run B; then each row's fresh live-pad pairs, all in run
        # A, as run B is fresh only as a leftover), then the right
        # addends of the live-live pairs (slots m .. m + ll - 1), each
        # row's in run A then in run B, and last each row's pad runs
        a, head, m = sums[:-1, 1:n + 1], at[:-1, :n], halves
        ll, fr = sums[1:, 1:n + 1], sums[1:, n + 1:]
        run_at = np.empty((depth, 6 * n), dtype=small)
        run_at[:, 5 * n:] = pad_src
        run_len = np.empty((depth, 6 * n), dtype=small)
        starts = run_at[:, :2 * n].reshape(depth, n, 2)
        lengths = run_len[:, :2 * n].reshape(depth, n, 2)
        starts[..., 0], starts[..., 1] = head, tail[:-1]
        np.minimum(a, ll, out=lengths[..., 0])
        np.subtract(ll, lengths[..., 0], out=lengths[..., 1])
        gap = a - m
        starts = run_at[:, 3 * n:5 * n].reshape(depth, n, 2)
        lengths = run_len[:, 3 * n:5 * n].reshape(depth, n, 2)
        np.add(head, m, out=starts[..., 0])
        np.subtract(tail[:-1], np.minimum(gap, 0), out=starts[..., 1])
        np.minimum(np.maximum(gap, 0), ll, out=lengths[..., 0])
        np.subtract(ll, lengths[..., 0], out=lengths[..., 1])
        np.add(head, ll, out=run_at[:, 2 * n:3 * n])
        run_len[:, 2 * n:3 * n] = run_len[:, 5 * n:] = fr
        np.cumsum(padded, axis=1, out=padded)
        if lane_rows is None:
            runs = [None] * depth
            padded = padded[:, -1:].copy()
        else:
            ends = at[1:, lane_rows].astype(np.int64)
            runs = ends[:, 1:] - ends[:, :-1]
            ends = padded[:, lane_rows]
            padded = ends[:, 1:] - ends[:, :-1]
        # slot j of run (s, l) is s + j: each index is the one before
        # it plus one, but for a run's first and the rest of a pad run
        # (which repeats its slot), so one running sum writes them all
        index = np.ones(2 * (size - nnz - pads), dtype=np.int64)
        levels: list[_Level] = []
        for level, (start, live, total) in enumerate(bounds):
            done = 2 * (start - nnz - pads)
            pairs = index[done:done + 2 * total].reshape(2, total)
            pairs[1, live:] = 0
            levels.append(_Level(pairs, slice(start, start + total), live,
                                 runs[level], padded[level]))
        nonempty = np.flatnonzero(run_len)
        lengths = run_len.take(nonempty)
        starts = run_at.take(nonempty)
        last = starts + (lengths - 1) * (nonempty % (6 * n) < 5 * n)
        if index.size:
            index[0] = starts[0]
            index[np.cumsum(lengths[:-1])] = starts[1:] - last[:-1]
        np.cumsum(index, out=index)
        width = int(np.max(row_width, initial=1))
        return cls(n, width, pads, levels, final_src, size)

    @property
    def nbytes(self) -> int:
        """Total index storage, for memory accounting and tests."""
        total = self.final_src.nbytes
        for lvl in self.levels:
            total += lvl.pairs.nbytes + lvl.padded.nbytes
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
                   rnd, lanes: bool = False,
                   tape: np.ndarray | None = None) -> np.ndarray:
    """Fold the extended product array through the plan's tree.

    *products* is the quantized length ``nnz + plan.pads`` array (pad
    products in the trailing slots, as :meth:`FPContext.matvec` builds
    it); with *tape*, a ``plan.size`` array whose first slots already
    hold them (*products* is then their view), the fold fills *tape*
    in place instead of a copy.  *rnd* is the reduction rounder,
    called as ``rnd(pairs)``, or with *lanes* as ``rnd(pairs, runs)``
    with the level's per-lane pair counts (a plan built with lane
    boundaries).  A rounder that reports
    to a collector carries ``record_exact(padded)``, which the fold
    calls with each level's skipped pair counts (``_Level.padded``):
    the padded tree rounds those pairs, exactly.  A level without a
    live-live pair makes no rounding call.  Returns a fresh ``(n,)``
    float64 array bit-identical to the padded pairwise fold of each row
    at its own width.  The dense matvec's plans
    (:class:`repro.kernels.zeroplan.DensePlan`) run here too, with the
    level-0 pads ``0.0·x`` in the pad slots.
    """
    if tape is None:
        tape = np.empty(plan.size)
        tape[:products.size] = products
    record_exact = getattr(rnd, "record_exact", None) if plan.pads else None
    for pairs, out, live, runs, padded in plan.levels:
        both = tape.take(pairs)
        seg = tape[out]
        np.add(both[0], both[1], out=seg)
        if live:
            seg[:live] = rnd(seg[:live], runs) if lanes \
                else rnd(seg[:live])
        if record_exact is not None:
            record_exact(padded)
    return tape.take(plan.final_src)
