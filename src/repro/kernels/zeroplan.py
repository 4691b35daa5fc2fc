"""Fold plans for the dense rounded matvec: the dense fold tape.

``FPContext.matvec`` on a dense ``(m, n)`` operand rounds the ``m·n``
products ``A[i, j]·x[j]`` and then every partial sum of the pairwise
fold along each row (``summation._fold_pairwise``: slot ``j`` pairs with
``j + k // 2``, an odd leftover slot is carried).  On a mostly-zero
matrix almost all of that work returns ±0 or its input.  A
:class:`DensePlan` compiles a frozen operand's zero pattern into a plan
for :func:`repro.kernels.segment.segmented_fold`, the fold kernel the
CSR matvec runs too, so the matvec multiplies, adds and rounds only its
operand's live slots.

Why the tape keeps every bit
----------------------------
The plan is used only when every ``x[j]`` is finite (the matvec checks
that per call) and no stored zero of the operand is ``-0`` (the builder
checks that once).  Call a slot of a row's tree *live* when one of the
products it sums has ``A[i, j] != 0`` (NaN and ±inf entries count), a
*pad* otherwise.

1. **Products.**  A pad product is ``(+0)·x[j]``: ``-0`` where ``x[j]``
   has its sign bit set, ``+0`` elsewhere, and every format's ``round``
   returns ±0 unchanged, sign kept.  Level 0 of the tape holds only the
   ``A != 0`` products, rounded in one call in row-major order.
2. **Pads are row-independent.**  A pad slot sums pad products over a
   column set fixed by its level and position alone, and sums of ±0 are
   exact (``-0`` only when every addend is).  So each call writes the
   level-0 pads ``0.0·x`` once, each level adds the pad-pad sum of
   every position once, unrounded, and a row never computes a pad-pad
   pair of its own: it reads its position's pad slot.
3. **Live-pad pairs are added, never rounded.**  A live value ``v`` is
   a rounder's output or such a sum, and ``v + (±0)`` is ``v`` or, for
   ``v = ±0``, a zero: a fixed point of ``round``.  The pair must still
   be added, since ``-0 + +0 = +0``; and because pads differ from
   position to position, a live value that met one pad may meet one of
   the other sign later, so every live-pad pair is added (the CSR tape
   skips a repeated meeting, as its rows share one pad).
4. **Live-live pairs are added and rounded**, in row-major order, and a
   level without one makes no rounding call.  The rounder thus sees the
   whole-array route's inexact values in its order, so
   ``StochasticRounding`` makes the same draws.

A collector counts what the whole-array route rounds.  The tape skips
two kinds of rounding that route makes, and reports both as exact ones
(the rounder's ``record_exact``): per call and lane the ``m·n − live``
pad products at ``matvec.mul`` (fact 1), and per level and lane the
``m·(k // 2) − live-live`` pair sums that are live-pad or pad-pad
(facts 2 and 3) at ``matvec.sum``.  Each is ±0 or a live value plus
±0, a fixed point of ``round``, which the whole-array route counts as
exact with no other event; so the per-(site, format) counts of both
routes are equal.

An ``x`` with ±inf or NaN takes the whole-array route because ``0·inf``
is NaN, which posit and takum ``round`` canonicalize: a NaN pad would
not be a fixed point.  A stored ``-0`` does because ``(-0)·x[j]`` has
the other sign, so its row's pads would differ from the other rows'.

Ragged dense lanes
------------------
A :class:`DenseStack` holds several operands of any shapes as one
block-diagonal operator, their ``x`` vectors laid end to end
(:class:`~repro.kernels.segment.LaneSegments`).  Its plan is built in
one pass over every lane's live slots: each row folds through the tree
of its own lane's width, padded from its own lane's part of ``x``.
The tape holds every lane's live products, then every lane's level-0
pads, and at each level every lane's live-live pairs, then every lane's
live-pad pairs, then every lane's pad-pad sums; so one lane's plan is
the same arrays as before lanes were stacked, each slot shifted by the
lanes before it.  The plan counts each lane's live products and each
level's live-live pairs (``runs``), so a
:class:`~repro.arith.context.LaneContext` rounds every lane in its own
format, and a collector counts each lane's skipped roundings in its
lane's format.  When lanes leave (``Lanes.retire``), the stack of the
lanes left takes their part of the plan (:meth:`DensePlan.subset`),
array for array the plan a fresh build of those lanes gives; no plan is
built again.

Which operands get a plan
-------------------------
A plan is valid only while its operand's values cannot change (it
holds their nonzeros), so :func:`plan_for` serves one only to a
read-only array that owns its data (:func:`freeze` marks a solver's
private quantized copy so).  Writeable arrays and views get None and
take the whole-array route.  Plans are cached by ``id`` and evicted
through a weakref when the array dies; a lookup checks that the cached
entry still refers to the same array, so an array reusing a dead
operand's ``id`` never sees its plan.  An array made writeable again
loses its plan at its next lookup.  Freezing does not reach views taken
before it, so an operand is frozen as soon as it is made, before any
view of it exists.
"""

from __future__ import annotations

import weakref

import numpy as np

from .segment import LaneSegments, SegmentPlan, _Level

__all__ = ["DensePlan", "DenseStack", "freeze", "plan_for"]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of *sizes* starts when they are laid end to end."""
    return np.cumsum(sizes) - sizes


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + sizes[i] − 1`` of every
    range in turn."""
    return np.repeat(starts - _starts(sizes), sizes) + \
        np.arange(int(sizes.sum()))


class DensePlan:
    """The fold tape of dense lanes: their live products and their
    trees.

    *lanes* are 2-D operands, laid end to end: rows and ``x`` in lane
    order (one operand is one lane).  ``data`` holds their nonzero
    entries in row-major order, lane by lane, and ``cols`` the index of
    each one's ``x`` entry; ``runs`` counts each lane's live products
    and ``zeros`` its pad products, ``m·n − live``, which a collector
    sees as exact roundings.  On the tape the products take slots
    ``0 .. nnz − 1`` and the level-0 pads ``0.0·x`` the next ``x.size``;
    ``fold`` is the :class:`~repro.kernels.segment.SegmentPlan` of the
    rows' trees over that tape, each row at its own lane's width.  Each
    of its levels adds every lane's live-live pairs (rounded), then
    every lane's live-pad pairs, then every lane's pad-pad sum of each
    position: the next level's pads.  The level counts each lane's
    live-live pairs (``runs``) and the pairs of the whole-array fold it
    skips (``padded``).

    Per lane, ``rows`` counts its rows and ``lens`` the slots each of
    its tape regions takes: its products, its pads, then per level its
    live-live, live-pad and pad-pad sums; ``at`` holds where each
    region starts on the tape.  :meth:`subset` reads them.
    """

    __slots__ = ("shape", "data", "cols", "runs", "zeros", "fold", "rows",
                 "lens", "at")

    def __init__(self, lanes):
        B = len(lanes)
        self.rows = ms = np.array([A.shape[0] for A in lanes])
        ns = np.array([A.shape[1] for A in lanes])
        self.shape = (int(ms.sum()), int(ns.sum()))
        # NaN and ±inf count as live
        flats = [np.flatnonzero(A != 0) for A in lanes]
        live_of = np.array([f.size for f in flats])
        nnz = int(live_of.sum())
        self.data = np.concatenate(
            [A.reshape(-1)[f] for A, f in zip(lanes, flats)])
        # the live slots of this level, in row-major order, lane by lane;
        # 32-bit entries cut this construction's peak memory when
        # every tape slot fits (a level adds at most one slot per live
        # slot and pad)
        small = np.int32 if (nnz + self.shape[1]) * (
            int(ns.max()).bit_length() + 1) < 2 ** 31 else np.int64
        lane = np.repeat(np.arange(B, dtype=small), live_of)
        row, pos = np.divmod(np.concatenate(flats), ns[lane])
        del flats
        self.cols = pos + _starts(ns)[lane]
        row, pos = row.astype(small), pos.astype(small)
        row += _starts(ms).astype(small)[lane]
        self.runs = live_of
        self.zeros = ms * ns - live_of
        slot = np.arange(nnz, dtype=small)
        # pad[pad_at[l] + p]: the tape slot of lane l's pad at position
        # p; k[l]: lane l's width at this level
        pad, pad_at, k = nnz + np.arange(self.shape[1]), _starts(ns), ns
        size = nnz + self.shape[1]
        levels, lens = [], [live_of, ns]
        while k.max() > 1:
            half, odd = k // 2, k & 1
            # slot j + half joins slot j, an odd leftover becomes slot
            # half; a stable sort keeps each pair's left addend first
            # (a lane at width 1 has half 0: its slots stay as they are)
            h = half.astype(small)[lane]
            right = pos >= h
            pos -= h * right
            del h
            order = np.argsort(row.astype(np.int64) * int((half + odd).max())
                               + pos, kind="stable")
            # one array at a time, each old one freed before the next
            row = row[order]
            pos = pos[order]
            slot = slot[order]
            right = right[order]
            lane = lane[order]
            del order
            twin = np.zeros(row.size, dtype=bool)
            twin[:-1] = (row[1:] == row[:-1]) & (pos[1:] == pos[:-1])
            head = np.ones(row.size, dtype=bool)
            head[1:] = ~twin[:-1]
            both = np.flatnonzero(twin)
            one = np.flatnonzero(head & ~twin & (pos < half[lane]))
            n_both, n_one = both.size, one.size
            pads = int(half.sum())
            pairs = np.empty((2, n_both + n_one + pads), dtype=np.intp)
            pairs[0, :n_both] = slot[both]
            pairs[1, :n_both] = slot[both + 1]
            # a live value meets its lane's pad on the other side of
            # its pair
            side, at = right[one], lane[one]
            met = pad[pad_at[at] + pos[one] + half[at] * ~side]
            mine = slot[one]
            pairs[0, n_both:n_both + n_one] = np.where(side, met, mine)
            pairs[1, n_both:n_both + n_one] = np.where(side, mine, met)
            # each lane's pad at p < half joins its pad at p + half
            at = np.repeat(np.arange(B), half)
            left = pad_at[at] + np.arange(pads) - _starts(half)[at]
            pairs[0, n_both + n_one:] = pad[left]
            pairs[1, n_both + n_one:] = pad[left + half[at]]
            # the next level's live slots: a sum, or a leftover's slot
            slot[both] = size + np.arange(n_both)
            slot[one] = size + n_both + np.arange(n_one)
            both_of = np.bincount(lane[both], minlength=B)
            lens += [both_of, np.bincount(lane[one], minlength=B), half]
            keep = np.flatnonzero(head)
            row, pos, slot, lane = row[keep], pos[keep], slot[keep], \
                lane[keep]
            levels.append(_Level(pairs, slice(size, size + pairs.shape[1]),
                                 n_both, both_of, ms * half - both_of))
            # the next level's pads: the pad-pad sums, then an odd
            # lane's last pad
            nxt = _starts(half + odd)
            out = np.empty(int((half + odd).sum()), dtype=np.int64)
            out[nxt[at] + left - pad_at[at]] = \
                size + n_both + n_one + np.arange(pads)
            last = np.flatnonzero(odd)
            out[nxt[last] + half[last]] = pad[pad_at[last] + k[last] - 1]
            pad, pad_at, k = out, nxt, half + odd
            size += pairs.shape[1]
        final = pad[pad_at[np.repeat(np.arange(B), ms)]]
        final[row] = slot
        self.fold = SegmentPlan(self.shape[0], int(ns.max()), self.shape[1],
                                levels, final, size)
        self.lens = np.column_stack(lens).astype(np.int64)
        self.at = _starts(self.lens.T.ravel()).reshape(-1, B).T

    def subset(self, lanes) -> "DensePlan":
        """The plan of this plan's *lanes* (indices, in order) alone,
        array for array the plan of their operands: every region of a
        kept lane moves to its place on the smaller tape."""
        lanes = np.asarray(lanes, dtype=np.intp)
        lens = self.lens[lanes]
        # the kept lanes' levels; every level of a lane has a pad-pad sum
        width = 2 + 3 * int(np.count_nonzero(lens[:, 4::3], axis=1).max())
        lens = lens[:, :width]
        by_region = lens.T.ravel()
        at = _starts(by_region).reshape(width, -1).T
        # each old slot's new slot, for the regions of the kept lanes:
        # a running sum that steps by one and jumps at each region
        shift = np.zeros(self.lens.shape, dtype=np.int64)
        shift[lanes, :width] = at - self.at[lanes, :width]
        regions = self.lens.T.ravel() > 0
        shift = shift.T.ravel()[regions]
        remap = np.ones(self.fold.size, dtype=np.int64)
        remap[self.at.T.ravel()[regions]] += np.diff(shift, prepend=0)
        np.cumsum(remap, out=remap)
        remap -= 1
        rows = self.rows[lanes]
        levels, start = [], int(lens[:, :2].sum())
        for level, old in zip(range(2, width, 3), self.fold.levels):
            # each kept lane's pairs of each kind, where the old level
            # holds them
            region = lens[:, level:level + 3]
            first = self.at[lanes, level:level + 3] - self.at[0, level]
            pairs = remap.take(old.pairs.take(
                _ranges(first.T.ravel(), region.T.ravel()), axis=1))
            live = region[:, 0]
            levels.append(_Level(pairs, slice(start, start + pairs.shape[1]),
                                 int(live.sum()), live,
                                 rows * region[:, 2] - live))
            start += pairs.shape[1]
        plan = DensePlan.__new__(DensePlan)
        widths = lens[:, 1]
        plan.shape = (int(rows.sum()), int(widths.sum()))
        live = _ranges(self.at[lanes, 0], lens[:, 0])
        plan.data = self.data[live]
        plan.cols = self.cols[live] + np.repeat(
            _starts(widths) - _starts(self.lens[:, 1])[lanes], lens[:, 0])
        plan.runs = lens[:, 0]
        plan.zeros = self.zeros[lanes]
        final = remap.take(self.fold.final_src[
            _ranges(_starts(self.rows)[lanes], rows)])
        plan.fold = SegmentPlan(plan.shape[0], int(widths.max()),
                                plan.shape[1], levels, final,
                                int(by_region.sum()))
        plan.rows, plan.lens, plan.at = rows, lens, at
        return plan


class DenseStack:
    """Several dense matrices as one block-diagonal operator: ragged
    dense lanes, the dense counterpart of
    :class:`~repro.arith.sparse.CSRStack`.

    Lane ``ℓ`` is ``lanes[ℓ]``, an ``(m_ℓ, n_ℓ)`` array; a matvec takes
    the lanes' ``x`` vectors laid end to end (:attr:`segments`) and
    returns their results laid end to end (:attr:`rows`), each lane's
    block with the bits of its own ``(m_ℓ, n_ℓ)`` matvec.  Its fold tape
    (:meth:`plan`) is its lanes' own tapes laid end to end, so only
    frozen lanes give it one; :meth:`whole_plan` folds every product
    for the whole-array route.  Build one with :meth:`of`, a smaller
    one with :meth:`subset`.
    """

    __slots__ = ("lanes", "segments", "rows", "shape", "product_runs",
                 "_plan", "_whole")

    def __init__(self, lanes: tuple):
        self.lanes = lanes
        self.segments = LaneSegments([A.shape[1] for A in lanes])
        self.rows = LaneSegments([A.shape[0] for A in lanes])
        self.shape = (self.rows.total, self.segments.total)
        #: the runs of the whole-array route's products, each lane's m·n
        self.product_runs = self.rows.sizes * self.segments.sizes
        #: the lanes' fold tape, built on first use; False when a lane
        #: has none
        self._plan = self._whole = None

    @classmethod
    def of(cls, lanes) -> "DenseStack":
        """The block-diagonal stack of *lanes*, 2-D float64 arrays of
        any shapes (at least one row and column each), kept as given:
        freeze each (:func:`freeze`) for the stack to get a tape."""
        lanes = tuple(lanes)
        if any(np.ndim(A) != 2 for A in lanes):
            raise ValueError("dense lanes must be 2-D arrays")
        return cls(lanes)

    def subset(self, lanes) -> "DenseStack":
        """The stack of this stack's *lanes* (indices, in order); a
        tape already stitched hands them their part of it."""
        stack = DenseStack([self.lanes[k] for k in lanes])
        if self._plan:
            stack._plan = self._plan.subset(lanes)
        return stack

    def plan(self) -> DensePlan | None:
        """The lanes' fold tapes laid end to end, built on first use
        (each lane's plan is built for the stack alone and not kept
        beside it); None while a lane could change (writeable, or a
        view) or has no tape (a stored ``-0``)."""
        if any(A.flags.writeable for A in self.lanes):
            self._plan = None
            return None
        if self._plan is None:
            self._plan = all(A.flags.owndata and _tapeable(A)
                             for A in self.lanes) and DensePlan(self.lanes)
        return self._plan or None

    def whole_plan(self) -> SegmentPlan:
        """The cached plan of the whole-array route: every row a full
        row of its lane's width (no pad), each level's pairs counted
        per lane."""
        if self._whole is None:
            widths = np.repeat(self.segments.sizes, self.rows.sizes)
            indptr = np.zeros(widths.size + 1, dtype=np.int64)
            np.cumsum(widths, out=indptr[1:])
            self._whole = SegmentPlan.from_csr(
                indptr, widths, pads=0, lane_rows=self.rows.offsets)
        return self._whole


def _tapeable(A: np.ndarray) -> bool:
    """Whether the tape can serve *A*: not empty, and no stored
    ``-0``."""
    return A.size > 0 and not np.signbit(A[A == 0]).any()


#: id(array) -> (weakref to the array, its plan or None)
_PLANS: dict[int, tuple[weakref.ref, DensePlan | None]] = {}


def _evict(key: int):
    def drop(ref):
        entry = _PLANS.get(key)
        if entry is not None and entry[0] is ref:
            _PLANS.pop(key, None)
    return drop


def plan_for(A: np.ndarray) -> DensePlan | None:
    """The cached plan of a frozen operand, built on first use; None
    for an array that could change (writeable, or a view) and for one
    the tape cannot serve (empty, or holding a stored ``-0``)."""
    key = id(A)
    entry = _PLANS.get(key)
    if A.flags.writeable or not A.flags.owndata:
        if entry is not None and entry[0]() is A:
            _PLANS.pop(key, None)
        return None
    if entry is not None and entry[0]() is A:
        return entry[1]
    plan = DensePlan([A]) if _tapeable(A) else None
    _PLANS[key] = (weakref.ref(A, _evict(key)), plan)
    return plan


def freeze(A):
    """Mark a dense operand read-only (CSR matrices pass through), so
    ``FPContext.matvec`` may cache its plan.  Returns *A*.

    Call it on a freshly made array: a writeable view taken earlier
    could still change the values under the plan.
    """
    if isinstance(A, np.ndarray):
        A.setflags(write=False)
    return A
