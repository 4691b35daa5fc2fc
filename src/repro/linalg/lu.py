"""LU factorization under emulated arithmetic.

The paper uses Cholesky instead of LU for its direct-solve experiments
because Cholesky needs no row pivoting on SPD matrices (§III), but it
discusses LU throughout (Gustafson's original Gaussian-elimination
experiment, the Haidar/Higham mixed-precision line of work, and the
§VI observation that LU factors stay scaled like the original matrix).
This module provides the rounded LU baseline so those comparisons can
be made inside the same harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_square
from ..arith.triangular import solve_lower, solve_upper
from ..errors import FactorizationError

__all__ = ["lu_factor", "lu_solve", "LUFactors"]


@dataclass
class LUFactors:
    """Unit-lower L, upper U and the row permutation with ``PA ≈ LU``."""

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray  # row permutation indices: A[perm] ≈ L @ U

    def apply_permutation(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=np.float64)[self.perm]


def lu_factor(ctx: FPContext, A: np.ndarray,
              pivot: bool = True) -> LUFactors:
    """Rounded LU with (default) partial pivoting.

    Pivot selection compares magnitudes only — no arithmetic, hence no
    rounding.  A zero/non-finite pivot raises
    :class:`FactorizationError`.
    """
    n = require_square(A)
    W = np.array(ctx.asarray(A), dtype=np.float64)
    perm = np.arange(n)
    L = np.eye(n, dtype=np.float64)

    for k in range(n):
        if pivot:
            rel = int(np.argmax(np.abs(W[k:, k])))
            if rel != 0:
                piv = k + rel
                W[[k, piv], :] = W[[piv, k], :]
                L[[k, piv], :k] = L[[piv, k], :k]
                perm[[k, piv]] = perm[[piv, k]]
        d = W[k, k]
        if not np.isfinite(d) or d == 0.0:
            raise FactorizationError(
                f"zero or non-finite pivot {d!r} at column {k}",
                pivot_index=k)
        if k + 1 < n:
            mult = ctx.div(W[k + 1:, k], d)
            L[k + 1:, k] = mult
            W[k + 1:, k + 1:] = ctx.sub_outer(W[k + 1:, k + 1:], mult,
                                              W[k, k + 1:])
            W[k + 1:, k] = 0.0
    return LUFactors(L=L, U=np.triu(W), perm=perm)


def lu_solve(ctx: FPContext, factors: LUFactors,
             b: np.ndarray) -> np.ndarray:
    """Solve ``Ax = b`` given rounded LU factors."""
    pb = ctx.asarray(factors.apply_permutation(b))
    y = solve_lower(ctx, factors.L, pb)
    return solve_upper(ctx, factors.U, y)
