"""Rounded summation kernels.

The paper's ground rule (§II-C) is **no deferred rounding**: every
addition in a reduction rounds to the working format.  Two summation
orders satisfy that rule:

``sequential``
    The literal left-to-right loop of a scalar implementation — the
    order the authors' C++ library used.  Error grows like ``(k-1)u``.
``pairwise``
    A balanced binary tree.  Every partial sum is still rounded (this is
    *not* a quire), but the tree shape vectorizes: ``log2(k)`` NumPy
    calls instead of ``k``.  Error grows like ``log2(k)·u``.

Both are faithful finite-precision reductions; experiments record which
order they used, and the test suite checks the two orders produce the
same qualitative solver behaviour.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..kernels.scratch import ScratchPool

__all__ = ["rounded_sum_last_axis", "rounded_sum", "SUM_ORDERS"]

Rounder = Callable[[np.ndarray], np.ndarray]

SUM_ORDERS = ("pairwise", "sequential")

_SCRATCH = ScratchPool()


def _fold_pairwise(terms: np.ndarray, rnd: Rounder) -> np.ndarray:
    """Tree-sum along the last axis, rounding every partial sum.

    One scratch buffer holds every level's pairwise sums; the rounded
    values the rounder returns (always fresh arrays, or copied when a
    pass-through rounder hands the input back) become the next level.
    The sequence of arrays passed to ``rnd`` is value-identical to the
    naive ``rnd(a + b)`` formulation, so collector op counts and CSV
    digests are unchanged.
    """
    cur = terms
    k = cur.shape[-1]
    buf = _SCRATCH.take(cur.shape[:-1] + ((k + 1) // 2,))
    try:
        while k > 1:
            m = k // 2
            sums = buf[..., :m]
            # out= overlaps cur[..., :m] only index-for-index when cur
            # is buf itself, which ufuncs handle; cur[..., m:2m] is
            # disjoint from the written range.
            np.add(cur[..., :m], cur[..., m:2 * m], out=sums)
            folded = rnd(sums)
            if folded is sums:  # pass-through rounder: detach from buf
                folded = sums.copy()
            if k & 1:
                head = buf[..., :m + 1]
                head[..., :m] = folded
                head[..., m] = cur[..., -1]
                cur = head
            else:
                cur = folded
            k = cur.shape[-1]
        # an odd level is always followed by another fold, so the final
        # `cur` is a fresh array (the rounder's) — never a view into `buf`
        return cur[..., 0]
    finally:
        _SCRATCH.give(buf)


def _fold_sequential(terms: np.ndarray, rnd: Rounder) -> np.ndarray:
    """Left-to-right sum along the last axis, rounding every partial sum."""
    acc = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        if isinstance(acc, np.ndarray) and acc.ndim:
            np.add(acc, terms[..., j], out=acc)
            acc = rnd(acc)
        else:
            # 0-d reductions: format rounders return Python floats
            acc = rnd(acc + terms[..., j])
    return acc


def round_at(x: np.ndarray, ix: np.ndarray, rnd: Rounder) -> None:
    """Round the entries of *x* at flat indices *ix*, in place."""
    if ix.size:
        np.put(x, ix, rnd(np.take(x, ix)))


def rounded_sum_last_axis(terms: np.ndarray, rnd: Rounder,
                          order: str = "pairwise") -> np.ndarray:
    """Sum along the last axis with per-addition rounding.

    *terms* must already hold representable values (callers round the
    products before summing).  Empty reductions return 0.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1], dtype=np.float64)
    if terms.shape[-1] == 1:
        return terms[..., 0].copy()
    if order == "pairwise":
        return _fold_pairwise(terms, rnd)
    if order == "sequential":
        return _fold_sequential(terms, rnd)
    raise ValueError(f"unknown summation order {order!r}; "
                     f"choose from {SUM_ORDERS}")


def rounded_sum(x: np.ndarray, rnd: Rounder,
                order: str = "pairwise") -> float:
    """Rounded sum of a 1-D array; returns a Python float."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return float(rounded_sum_last_axis(x, rnd, order))
