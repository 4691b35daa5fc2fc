"""Blocked rounded GEMM for the emulated contexts.

:meth:`repro.FPContext.gemm` rounds every term of the rank-1 cube
``terms[i, k, j] = A[i, k] * B[k, j]`` and folds it along k.  Building
that cube whole costs O(m·k·n) memory, so the kernel here tiles it into
**(i, j) panels**: one operand slice is multiplied into a bounded
scratch cube, quantized once per panel (amortizing the rounding-table
dispatch over the whole panel), and folded with the context's
summation schedule.

Bit-identity argument: quantization is elementwise, and both summation
orders (:mod:`repro.arith.summation`) fold each output lane ``(i, j)``
independently along k.  Splitting the *i*/*j* axes therefore permutes
neither the products nor any fold, so every partial sum — and hence
every rounded value — equals the whole-cube result.  Splitting k would
change the fold shape, so the panel iterator never tiles k.
``tests/kernels/test_batched_differential.py`` holds every panel
budget to a test-local whole-cube reference.

Telemetry gains one ``gemm.block`` span per call when a tracer is
active.
"""

from __future__ import annotations

import numpy as np

from ..arith.summation import rounded_sum_last_axis
from .scratch import ScratchPool

__all__ = ["BLOCK_ELEMS", "blocked_gemm", "panel_ranges"]

#: element budget for one panel's product cube — big enough that the
#: per-panel Python overhead is noise, small enough to stay cache-warm
#: (measured crossover on the fig06/table02 problem sizes)
BLOCK_ELEMS = 1 << 15

_SCRATCH = ScratchPool()

def panel_ranges(m: int, n: int, k: int, budget: int = BLOCK_ELEMS):
    """Yield ``(i0, i1, j0, j1)`` output panels for an m×k · k×n GEMM.

    Each panel's product cube holds at most *budget* elements when
    possible (a single k-lane can exceed any budget; k is never split —
    see the module docstring).  Full-width row panels are preferred so
    the operand slices stay contiguous.
    """
    if k * n <= budget:
        rows, cols = max(1, min(m, budget // max(k * n, 1))), n
    else:
        rows, cols = 1, max(1, min(n, budget // max(k, 1)))
    for i0 in range(0, m, rows):
        for j0 in range(0, n, cols):
            yield i0, min(i0 + rows, m), j0, min(j0 + cols, n)


def blocked_gemm(A: np.ndarray, B: np.ndarray, quantize_mul, rnd,
                 sum_order: str, budget: int = BLOCK_ELEMS) -> np.ndarray:
    """Panel-tiled rounded GEMM, bit-identical to the whole-cube product.

    *quantize_mul* rounds one panel's product cube (the context's
    ``gemm.mul`` site); *rnd* / *sum_order* drive the per-lane fold.
    """
    m, k = A.shape
    n = B.shape[1]
    panels = list(panel_ranges(m, n, k, budget))
    out = None if len(panels) == 1 else np.empty((m, n), dtype=np.float64)
    for i0, i1, j0, j1 in panels:
        buf = _SCRATCH.take((i1 - i0, k, j1 - j0))
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                np.multiply(A[i0:i1, :, np.newaxis],
                            B[np.newaxis, :, j0:j1], out=buf)
            terms = quantize_mul(buf)
        finally:
            _SCRATCH.give(buf)
        # move k to the last axis: terms[i, k, j] -> [i, j, k]
        folded = rounded_sum_last_axis(np.moveaxis(terms, 1, -1),
                                       rnd, sum_order)
        if out is None:
            return folded
        out[i0:i1, j0:j1] = folded
    return out

