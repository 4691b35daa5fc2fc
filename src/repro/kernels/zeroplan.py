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

A frozen ``(B, m, n)`` lane stack gets one plan: its rows are the
lanes' rows in order, each lane's pads come from its own ``x`` row,
and the plan counts each lane's live products and each level's
live-live pairs (``runs``), so a :class:`~repro.arith.context.LaneContext`
can round every lane in its own format and a collector can count each
lane's skipped roundings in its lane's format.  ``Lanes.retire`` freezes
the smaller stack it keeps, which gets a plan of its own.

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

from .segment import SegmentPlan, _Level

__all__ = ["DensePlan", "freeze", "plan_for"]


class DensePlan:
    """A dense operand's fold tape: its live products and their trees.

    ``data`` holds the operand's nonzero entries in row-major order and
    ``cols`` the index of each one's ``x`` entry in ``x`` laid out flat
    (``(B·n,)`` for a lane stack); ``runs`` counts each lane's live
    products (None for an ``(m, n)`` operand) and ``zeros`` each lane's
    pad products, ``m·n − live``, which a collector sees as exact
    roundings.  On the tape the products take slots ``0 .. nnz − 1``
    and the level-0 pads ``0.0·x`` the next ``B·n``; ``fold`` is the
    :class:`~repro.kernels.segment.SegmentPlan` of the ``B·m`` rows'
    trees over that tape.  Each of its levels adds the live-live pairs
    (rounded), then the live-pad pairs, then the pad-pad sum of every
    position of every lane: the next level's pads.
    """

    __slots__ = ("shape", "data", "cols", "runs", "zeros", "fold")

    def __init__(self, A: np.ndarray):
        self.shape = A.shape
        lanes = A.shape[0] if A.ndim == 3 else 1
        m, n = A.shape[-2:]
        live = (A != 0).reshape(-1, n)  # NaN and ±inf count as live
        flat = np.flatnonzero(live)
        nnz = flat.size
        self.data = A.reshape(-1)[flat]
        # the live slots of this level, in row-major order
        row, pos = np.divmod(flat, n)
        lane_of = np.arange(lanes * m) // m
        self.cols = lane_of[row] * n + pos
        live_of = np.bincount(lane_of[row], minlength=lanes)
        self.runs = live_of if A.ndim == 3 else None
        self.zeros = m * n - live_of
        slot = np.arange(nnz)
        # pad[b, p]: the tape slot of lane b's pad at position p
        pad = nnz + np.arange(lanes * n).reshape(lanes, n)
        size, k = nnz + lanes * n, n
        levels = []
        while k > 1:
            half, odd = k // 2, k & 1
            # slot j + half joins slot j, an odd leftover becomes slot
            # half; a stable sort keeps each pair's left addend first
            right = pos >= half
            pos = pos - half * right
            order = np.argsort(row * (half + odd) + pos, kind="stable")
            row, pos, slot, right = (row[order], pos[order], slot[order],
                                     right[order])
            twin = np.zeros(row.size, dtype=bool)
            twin[:-1] = (row[1:] == row[:-1]) & (pos[1:] == pos[:-1])
            head = np.ones(row.size, dtype=bool)
            head[1:] = ~twin[:-1]
            both = np.flatnonzero(twin)
            one = np.flatnonzero(head & ~twin & (pos < half))
            n_both, n_one = both.size, one.size
            pairs = np.empty((2, n_both + n_one + lanes * half),
                             dtype=np.intp)
            pairs[0, :n_both] = slot[both]
            pairs[1, :n_both] = slot[both + 1]
            # a live value meets the pad on the other side of its pair
            side = right[one]
            met = pad[lane_of[row[one]], pos[one] + half * ~side]
            mine = slot[one]
            pairs[0, n_both:n_both + n_one] = np.where(side, met, mine)
            pairs[1, n_both:n_both + n_one] = np.where(side, mine, met)
            pairs[0, n_both + n_one:] = pad[:, :half].ravel()
            pairs[1, n_both + n_one:] = pad[:, half:2 * half].ravel()
            # the next level's live slots: a sum, or a leftover's slot
            slot[both] = size + np.arange(n_both)
            slot[one] = size + n_both + np.arange(n_one)
            both_of = np.bincount(lane_of[row[both]], minlength=lanes)
            keep = np.flatnonzero(head)
            row, pos, slot = row[keep], pos[keep], slot[keep]
            levels.append(_Level(pairs, slice(size, size + pairs.shape[1]),
                                 n_both, both_of if A.ndim == 3 else None,
                                 m * half - both_of))
            nxt = size + n_both + n_one + np.arange(lanes * half).reshape(
                lanes, half)
            pad = np.concatenate([nxt, pad[:, -1:]], axis=1) if odd else nxt
            size, k = size + pairs.shape[1], half + odd
        final = pad[lane_of, 0]
        final[row] = slot
        self.fold = SegmentPlan(lanes * m, n, lanes * n, levels, final,
                                size)


def _tape_plan(A: np.ndarray) -> DensePlan | None:
    """*A*'s plan, or None for an operand the tape cannot serve: an
    empty one, or one with a stored ``-0``."""
    if A.size == 0 or np.signbit(A[A == 0]).any():
        return None
    return DensePlan(A)


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
    plan = _tape_plan(A)
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
