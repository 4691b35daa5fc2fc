"""Cholesky factorization and direct solve — the paper's Algorithm 2.

``cholesky_factor`` computes the upper-triangular R with ``A = RᵀR``
using the right-looking (outer-product) variant.  Column updates are
vectorized but every arithmetic operation is individually rounded to
the context's format, matching the paper's no-deferred-rounding rule.

Breakdown semantics match the paper's Table II: a non-positive or
non-finite pivot raises :class:`FactorizationError` ("arithmetic error
encountered during factorization").  With IEEE formats, overflow during
the trailing update produces ±inf/NaN which surfaces as a broken pivot;
with posit formats, saturation at ±maxpos silently poisons the factor
instead — both behaviours are the genuine format semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_square, require_system
from ..arith.triangular import solve_lower, solve_upper
from ..errors import FactorizationError
from ..telemetry.trace import SolverTrace, maybe_trace
from .norms import relative_backward_error

__all__ = ["cholesky_factor", "cholesky_solve", "CholeskyResult"]


def cholesky_factor(ctx: FPContext, A: np.ndarray,
                    trace: SolverTrace | None = None) -> np.ndarray:
    """Rounded Cholesky: returns upper-triangular R with ``A ≈ RᵀR``.

    *A* is quantized into the context's format on entry (the storage
    rounding the paper applies when casting the matrix down).  With an
    active tracer (or an explicit *trace*), a summary ``factorize``
    event — or a ``breakdown`` event naming the broken pivot column —
    is recorded; per-pivot events are deliberately not emitted (they
    would dominate the trace at full matrix sizes).
    """
    trace = maybe_trace("cholesky", ctx.fmt.name, trace)
    n = require_square(A)
    W = np.array(ctx.asarray(A), dtype=np.float64)  # working copy
    R = np.zeros_like(W)

    for k in range(n):
        d = W[k, k]
        if not np.isfinite(d) or d <= 0.0:
            if trace is not None:
                trace.event("breakdown", stage="pivot", column=k,
                            pivot=float(d))
            raise FactorizationError(
                f"non-positive or non-finite pivot {d!r} at column {k}",
                pivot_index=k)
        rkk = float(ctx.inject("pivot", float(ctx.sqrt(d))))
        if not np.isfinite(rkk) or rkk == 0.0:
            if trace is not None:
                trace.event("breakdown", stage="pivot-sqrt", column=k,
                            pivot=rkk)
            raise FactorizationError(
                f"pivot square root degenerated to {rkk!r} at column {k}",
                pivot_index=k)
        R[k, k] = rkk
        if k + 1 < n:
            row = ctx.div(W[k, k + 1:], rkk)
            R[k, k + 1:] = row
            W[k + 1:, k + 1:] = ctx.sub_outer(W[k + 1:, k + 1:], row, row)
    if trace is not None and n:
        diag = np.diag(R)
        trace.event("factorize", n=n, min_pivot=float(np.min(diag)),
                    max_pivot=float(np.max(diag)))
    return R


@dataclass
class CholeskyResult:
    """Outcome of a direct Cholesky solve."""

    x: np.ndarray
    R: np.ndarray
    relative_backward_error: float


def cholesky_solve(ctx: FPContext, A: np.ndarray, b: np.ndarray,
                   R: np.ndarray | None = None) -> CholeskyResult:
    """One pass of the paper's Algorithm 2 (single iteration, i = 1).

    Factorizes (unless *R* is supplied), solves ``Rᵀy = b`` then
    ``Rx = y`` with rounded substitution, and reports the paper's
    metric ``‖b − Ax‖₂/‖b‖₂`` measured in float64.
    """
    A64 = np.asarray(A, dtype=np.float64)
    require_system(A64, b)
    b_fmt = ctx.asarray(np.asarray(b, dtype=np.float64))
    if R is None:
        R = cholesky_factor(ctx, A64)
    y = solve_lower(ctx, None, b_fmt, transposed_upper=R)
    x = solve_upper(ctx, R, y)
    err = relative_backward_error(A64, x, np.asarray(b, dtype=np.float64))
    return CholeskyResult(x=x, R=R, relative_backward_error=err)
