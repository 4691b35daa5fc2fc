"""``repro.kernels`` — the performance layer under the numerics.

Coordinated attacks on intra-cell cost, all bit-identical to the
reference kernels they accelerate (the golden-digest and oracle
conformance suites hold them to that):

:mod:`repro.kernels.lut`
    Table-driven rounding: one two-level exponent-bucketed table per
    format (:class:`lut.TwoLevelTable`) — a per-binade granule step on
    uniform buckets and a small sorted tail table with
    bisection-probed decision boundaries elsewhere — instead of the
    ~20-op bitwise chain.  Python floats and arrays of at most
    :data:`lut.TINY_N` elements skip NumPy dispatch through the
    table's pure-Python ``round_scalar``.  See
    :func:`lut.two_level_table`.
:mod:`repro.kernels.tabcache`
    Persistent on-disk table store under ``results/.cache/tables/``:
    each format's table arrays are written as a sealed record
    (:func:`repro.resilience.atomic.write_sealed`, the checksum footer
    the result cache uses too) and mmap-loaded back, keyed by (format
    key, code fingerprint), so pool workers and the long-lived service
    build each table once per machine instead of once per process.
:mod:`repro.kernels.gemm`
    Blocked rounded GEMM: the rank-1 term cube is tiled into (i, j)
    panels quantized once each, preserving the summation schedule
    bit-for-bit.
:mod:`repro.kernels.segment`
    The compact CSR matvec reduction: a segmented rounded pairwise
    fold over the O(nnz) product array reproducing the padded-row tree
    bit-for-bit, so no matrix pays the (n, k) scatter; every pairwise
    CSR matvec folds here.
:mod:`repro.kernels.zeroplan`
    The dense fold tape: a frozen operand's zero pattern compiled
    into a :mod:`~repro.kernels.segment` fold plan, so the dense
    rounded matvec multiplies, adds and rounds only its live slots.
    Plans are cached per operand and evicted with it.  Ragged dense
    lanes (:class:`zeroplan.DenseStack`) share one plan, each row
    folding at its own lane's width.
:mod:`repro.kernels.scratch`
    Shape-keyed, thread-local pools of reusable ndarray buffers, so the
    quantize pipeline (``posit_round``, ``FPContext``, the summation
    folds) stops churning temporaries on every small-vector CG step.
:mod:`repro.kernels.matcache`
    A per-worker LRU over derived matrices (rescaled systems, CSR
    packs, Higham scalings) so sweep cells sharing a matrix stop
    re-deriving it; hit/miss counts surface through the telemetry
    manifest.
:mod:`repro.kernels.bench`
    Kernel microbenchmarks, each fast path timed against its reference
    in one process (``python -m repro.kernels.bench``); CI gates the
    quantize and sparse speedups.

The package ``__init__`` is deliberately lazy: :mod:`repro.arith.context`
imports :mod:`repro.kernels.scratch` while :mod:`repro.kernels.matcache`
imports :mod:`repro.telemetry.trace` (which imports the context back), so
eager submodule imports here would create a cycle.
"""

from __future__ import annotations

__all__ = ["bench", "gemm", "lut", "matcache", "scratch", "segment",
           "tabcache", "zeroplan"]


def __getattr__(name: str):
    if name in __all__:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
