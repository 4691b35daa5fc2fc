"""Zero-structure plans for the dense rounded matvec.

``FPContext.matvec`` on a dense ``(m, n)`` operand rounds the ``m·n``
products ``A[i, j]·x[j]`` and then every partial sum of the pairwise
(or sequential) fold along each row.  On a mostly-zero matrix almost
all of that rounding returns its input unchanged.  A :class:`ZeroPlan`
records, from the operand's zero pattern alone, which entries can
change, so the matvec rounds only those.

Why skipping is exact
---------------------
The plan is used only when every ``x[j]`` is finite (the matvec checks
that per call).  Then:

1. **Products.**  Where ``A[i, j] == 0`` the float64 product is exactly
   ±0, and every format's ``round`` returns ±0 unchanged, sign kept.
   Only the ``A[i, j] != 0`` entries (NaN and ±inf included) are
   rounded.
2. **Fold slots.**  Call a slot *structurally zero* when every product
   it sums has a zero matrix entry; its value is then ±0.  A slot whose
   addends are not both structurally nonzero is ``v + (±0)``, which in
   float64 is ``v`` itself, or ``+0`` for ``v = -0``.  ``v`` is a rounded
   product or partial sum, or ±0, so the sum is a fixed point of
   ``round`` and the level rounds only the slots whose two addends are
   both structurally nonzero.

Every float64 multiply and add still runs over the whole array, so the
fold tree, the signs of zeros and NaN payloads come out as the
whole-array rounding gives them; only the calls to ``round`` shrink.
StochasticRounding draws random numbers only for inexact values, in
row-major order, and the gathered entries keep that order, so it makes
the same draws.  An ``x`` with ±inf or NaN is excluded because ``0·inf``
is NaN, and posit and takum ``round`` canonicalize NaN's sign bit: a
NaN product would not be a bitwise fixed point.

Each index array follows the half-share rule of
``repro.arith.context._nonzero_block``: when more than half of an array
needs rounding, the entry is None and the whole array is rounded,
because gather and scatter cost more per element than rounding in
place.  A plan whose entries are all None is the whole-array route.

A frozen ``(B, m, n)`` lane stack
(:func:`repro.linalg.cg.conjugate_gradient_lanes`) gets one plan that
applies the rule per lane: each lane's indices are the ones its own
``(m, n)`` plan would hold (every index of the lane where that plan
rounds the whole array), offset to the lane's slice of the stack.  The
stack then rounds exactly the entries its lanes would round one by one;
a rule applied to the whole stack would round a different set.

Which operands get a plan
-------------------------
A plan is valid only while its operand's zero pattern cannot change,
so :func:`plan_for` serves one only to a read-only array that owns its
data (:func:`freeze` marks a solver's private quantized copy so).
Writeable arrays and views get None and take the whole-array route.
Plans are cached by ``id`` and evicted through a weakref when the array
dies; a lookup checks that the cached entry still refers to the same
array, so an array reusing a dead operand's ``id`` never sees its plan.
An array made writeable again loses its plan at its next lookup.
Freezing does not reach views taken before it, so an operand is frozen
as soon as it is made, before any view of it exists.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["ZeroPlan", "freeze", "plan_for"]


def _subset(mask: np.ndarray):
    """Flat indices of *mask*'s True entries, or None past half."""
    ix = np.flatnonzero(mask)
    return None if 2 * ix.size > mask.size else ix


def _lane_subset(mask: np.ndarray):
    """:func:`_subset` decided per lane (axis 0) of a stacked mask,
    as flat indices into the whole stack; None when every lane is
    past half."""
    lanes = [_subset(lane) for lane in mask]
    if all(ix is None for ix in lanes):
        return None
    size = mask[0].size
    return np.concatenate([(np.arange(size) if ix is None else ix)
                           + k * size for k, ix in enumerate(lanes)])


class ZeroPlan:
    """Where a dense matvec's products and partial sums can change.

    ``products`` indexes the flat ``(m, n)`` product array;
    :meth:`fold_levels` gives one entry per fold step, indexing that
    step's partial sums (pairwise: the ``(m, k // 2)`` level; sequential:
    the ``(m,)`` accumulator).  None means "round the whole array".
    A ``(B, m, n)`` lane stack's arrays index the stacked shapes and
    decide the half-share rule per lane.
    """

    __slots__ = ("products", "_live", "_levels", "_subset")

    def __init__(self, A: np.ndarray):
        live = A != 0  # NaN and ±inf entries count as nonzero
        self._subset = _lane_subset if A.ndim == 3 else _subset
        self.products = self._subset(live)
        self._live = live
        self._levels: dict[str, tuple] = {}

    def fold_levels(self, order: str) -> tuple:
        """Per-step index arrays of the rounded fold in *order*."""
        levels = self._levels.get(order)
        if levels is None:
            build = (_pairwise_levels if order == "pairwise"
                     else _sequential_levels)
            levels = self._levels[order] = build(self._live, self._subset)
        return levels


def _pairwise_levels(live: np.ndarray, subset) -> tuple:
    """Mirror of ``summation._fold_pairwise``: slot ``j`` pairs with
    ``j + k // 2``; an odd leftover slot is carried unrounded."""
    levels = []
    while live.shape[-1] > 1:
        k = live.shape[-1]
        m = k // 2
        a, b = live[..., :m], live[..., m:2 * m]
        levels.append(subset(a & b))
        nxt = a | b
        if k & 1:
            nxt = np.concatenate([nxt, live[..., -1:]], axis=-1)
        live = nxt
    return tuple(levels)


def _sequential_levels(live: np.ndarray, subset) -> tuple:
    """Mirror of ``summation._fold_sequential``: column ``j`` is added
    into the running accumulator."""
    levels = []
    acc = live[..., 0]
    for j in range(1, live.shape[-1]):
        levels.append(subset(acc & live[..., j]))
        acc = acc | live[..., j]
    return tuple(levels)


#: id(array) -> (weakref to the array, its plan)
_PLANS: dict[int, tuple[weakref.ref, ZeroPlan]] = {}


def _evict(key: int):
    def drop(ref):
        entry = _PLANS.get(key)
        if entry is not None and entry[0] is ref:
            _PLANS.pop(key, None)
    return drop


def plan_for(A: np.ndarray) -> ZeroPlan | None:
    """The cached plan of a frozen operand, built on first use; None
    for an array that could change (writeable, or a view)."""
    key = id(A)
    entry = _PLANS.get(key)
    if A.flags.writeable or not A.flags.owndata:
        if entry is not None and entry[0]() is A:
            _PLANS.pop(key, None)
        return None
    if entry is not None and entry[0]() is A:
        return entry[1]
    plan = ZeroPlan(A)
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
