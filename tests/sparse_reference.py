"""An explicit padded-row reference for the sparse emulated matvec.

Written straight from the spec in :mod:`repro.arith.sparse` and built
from the dense matrix, with none of the CSR machinery (no slot map, no
segment plan): row ``i`` holds the products of its nonzeros in column
order, then ``0.0 * x[0]`` padding up to the longest row.  The products
are rounded and folded with
:func:`~repro.arith.summation.rounded_sum_last_axis`; the exact (fp64)
context evaluates the same padded rows with one float64 einsum.

``tests/arith/test_sparse.py`` checks this reference against the
rational oracle (:func:`repro.oracle.ref_sum`); the CSR tests and the
CI solver-grid job then hold every CSR route to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.arith.summation import rounded_sum_last_axis

__all__ = ["padded_rows", "padded_row_matvec"]


def padded_rows(A, x) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, k)`` padded entries of dense *A* and their operands.

    ``k`` is the longest row's nonzero count (at least 1).  Padding
    slots hold the entry ``0.0`` against the operand ``x[0]``.
    """
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = A.shape[0]
    k = max(1, int(np.count_nonzero(A, axis=1).max(initial=0)))
    entries = np.zeros((n, k))
    operands = np.full((n, k), x[0] if x.size else 0.0)
    for i in range(n):
        cols = np.flatnonzero(A[i])
        entries[i, :cols.size] = A[i, cols]
        operands[i, :cols.size] = x[cols]
    return entries, operands


def padded_row_matvec(ctx, A, x) -> np.ndarray:
    """``ctx.matvec`` of dense *A* under the padded-row semantics.

    The entries are quantized into the context's format first, as
    ``ctx.asarray`` does for a sparse matrix; the sparsity pattern is
    that of *A* itself.
    """
    entries, operands = padded_rows(A, x)
    if ctx.is_exact:
        return np.einsum("ij,ij->i", entries, operands)
    rnd = ctx.fmt.round
    with np.errstate(invalid="ignore", over="ignore"):
        products = np.asarray(rnd(np.asarray(rnd(entries)) * operands))
        return rounded_sum_last_axis(products, rnd, ctx.sum_order)
