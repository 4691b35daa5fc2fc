"""``repro.kernels`` — the performance layer under the numerics.

Coordinated attacks on intra-cell cost, all bit-identical to the
reference kernels they accelerate (the golden-digest and oracle
conformance suites hold them to that):

:mod:`repro.kernels.lut`
    Table-driven rounding: for narrow formats (≤ 2¹⁶ patterns) a sorted
    representable-value table plus bisection-probed decision boundaries,
    rounding via ``np.searchsorted`` instead of the ~20-op bitwise
    chain; for posit32/fp32-class widths a two-level exponent-bucketed
    table (:class:`lut.TwoLevelTable`).  Python floats and 1-D arrays
    of at most :data:`lut.TINY_N` elements skip NumPy dispatch through
    each table's pure-Python ``round_scalar``.  See
    :func:`lut.rounding_table` and :func:`lut.two_level_table`.
:mod:`repro.kernels.tabcache`
    Persistent on-disk table store under ``results/.cache/tables/``:
    the dense and two-level LUT arrays are written as sealed records
    (:func:`repro.resilience.atomic.write_sealed`, the checksum footer
    the result cache uses too) and mmap-loaded back, keyed by (format
    key, code fingerprint), so pool workers and the long-lived service
    build posit32/takum32 tables once per machine instead of once per
    process.
:mod:`repro.kernels.gemm`
    Blocked rounded GEMM: the rank-1 term cube is tiled into (i, j)
    panels quantized once each, preserving the summation schedule
    bit-for-bit.
:mod:`repro.kernels.segment`
    The compact CSR matvec reduction: a segmented rounded pairwise
    fold over the O(nnz) product array reproducing the padded-row tree
    bit-for-bit, so skewed matrices stop paying the (n, k) scatter.
    The route follows the matrix's fill (``segment.use_segmented``).
:mod:`repro.kernels.scratch`
    Shape-keyed, thread-local pools of reusable ndarray buffers, so the
    quantize pipeline (``posit_round``, ``FPContext``, the summation
    folds) stops churning temporaries on every small-vector CG step.
:mod:`repro.kernels.matcache`
    A per-worker LRU over derived matrices (rescaled systems, CSR
    packs, Higham scalings) so sweep cells sharing a matrix stop
    re-deriving it; hit/miss counts surface through the telemetry
    manifest.  ``REPRO_MATRIX_CACHE=off`` disables it.
:mod:`repro.kernels.bench`
    The kernel microbenchmark CLI behind ``benchmarks/BENCH_kernels.json``
    (``python -m repro.kernels.bench``).

The package ``__init__`` is deliberately lazy: :mod:`repro.arith.context`
imports :mod:`repro.kernels.scratch` while :mod:`repro.kernels.matcache`
imports :mod:`repro.telemetry.trace` (which imports the context back), so
eager submodule imports here would create a cycle.
"""

from __future__ import annotations

__all__ = ["bench", "gemm", "lut", "matcache", "scratch", "segment",
           "tabcache"]


def __getattr__(name: str):
    if name in __all__:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
