"""``FPContext`` — emulated arithmetic in a chosen number format.

Every solver in :mod:`repro.linalg` is written once against this
context.  Swapping the format swaps the arithmetic, exactly as the
paper's C++ operator overloading let "one algorithm specification test
each different arithmetic format" (§IV-A).

Semantics: each method computes its operation in float64 (which holds
every supported format's values exactly) and rounds the result to the
context's format — one rounding per arithmetic operation, never
deferred.  Reductions round every partial sum too; see
:mod:`repro.arith.summation` for the two supported orders.

A Float64 context skips quantization entirely (float64 *is* the carrier),
making reference runs cheap.
"""

from __future__ import annotations

import time

import numpy as np

from ..formats.base import NumberFormat
from ..formats.native import FLOAT64
from ..formats.registry import get_format
from ..kernels import gemm as _gemm_kernels
from ..kernels.scratch import ScratchPool
from ..kernels.segment import segmented_fold, use_segmented
from .shapes import require_conformant, require_product
from .sparse import CSRMatrix
from .summation import SUM_ORDERS, rounded_sum_last_axis

__all__ = ["FPContext", "INSTRUMENT_KINDS", "get_active_injector",
           "get_instrument", "set_active_injector", "set_instrument"]

#: scratch for pre-rounding products/sums; formats return fresh arrays,
#: so a buffer never escapes the context method that took it
_SCRATCH = ScratchPool()


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _nonzero_block(x: np.ndarray, y: np.ndarray):
    """Flat indices of the entries of ``outer(x, y)`` with two nonzero
    factors, in row-major order (entry ``i·y.size + j`` is
    ``x.flat[i]·y.flat[j]``, whatever the operands' shapes).

    Returns None (round everything) when that block holds more than
    half of the product: gathering and scattering a block costs more
    per element than rounding in place, and near half the two break
    even (``docs/performance.md``, "Exact-result skipping").
    """
    rows = np.flatnonzero(x)
    cols = np.flatnonzero(y)
    if 2 * rows.size * cols.size > x.size * y.size:
        return None
    return (rows[:, np.newaxis] * y.size + cols).ravel()


# Ambient instrumentation registry.  The context layer knows nothing
# about the internals of what is installed — an ``injector`` is anything
# with ``apply(site, value, fmt)`` (repro.resilience.faults), a
# ``collector`` anything with ``record(site, exact, rounded, fmt)``
# (repro.telemetry.collector), a ``tracer`` anything with
# ``emit(type, **fields)`` (repro.telemetry.trace) — which keeps this
# module import-free of both packages.  Every slot defaults to None and
# a single ``is None`` check per site is the entire disabled overhead.
INSTRUMENT_KINDS = ("injector", "collector", "tracer")

_INSTRUMENTS: dict[str, object] = {kind: None for kind in INSTRUMENT_KINDS}


def set_instrument(kind: str, obj):
    """Install *obj* process-wide as the ambient *kind* instrument.

    Every :class:`FPContext` (including ones solvers construct
    internally) routes through the active instruments, so arbitrary
    solver code is observable — and testable under silent data
    corruption — without modification.  Returns the previously
    installed instrument; pass ``None`` to deactivate.
    """
    if kind not in _INSTRUMENTS:
        raise KeyError(f"unknown instrument kind {kind!r}; "
                       f"choose from {INSTRUMENT_KINDS}")
    previous = _INSTRUMENTS[kind]
    _INSTRUMENTS[kind] = obj
    return previous


def get_instrument(kind: str):
    """The ambient instrument of the given kind, or None when inactive."""
    if kind not in _INSTRUMENTS:
        raise KeyError(f"unknown instrument kind {kind!r}; "
                       f"choose from {INSTRUMENT_KINDS}")
    return _INSTRUMENTS[kind]


def set_active_injector(injector):
    """Install *injector* process-wide; returns the previous one.

    Shorthand for ``set_instrument("injector", injector)``, kept as the
    resilience layer's historical entry point.
    """
    return set_instrument("injector", injector)


def get_active_injector():
    """The ambient fault injector, or None when injection is off."""
    return _INSTRUMENTS["injector"]


class FPContext:
    """Per-operation-rounded arithmetic in a given format.

    Parameters
    ----------
    fmt:
        Format name or :class:`NumberFormat`.
    sum_order:
        ``"pairwise"`` (default, vectorizable) or ``"sequential"``
        (the literal scalar-loop order); both round every addition.
    injector:
        Optional fault injector bound to this context only (anything
        with ``apply(site, value, fmt)``); when None, the ambient
        injector installed via :func:`set_active_injector` applies.
    collector:
        Optional op-metrics collector bound to this context only
        (anything with ``record(site, exact, rounded, fmt)``, normally
        a :class:`repro.telemetry.Collector`); when None, the ambient
        collector installed via ``set_instrument("collector", ...)``
        applies.  Collectors only observe — results are bit-identical
        with and without one.
    """

    def __init__(self, fmt: NumberFormat | str,
                 sum_order: str = "pairwise", injector=None,
                 collector=None):
        self.fmt = get_format(fmt)
        if sum_order not in SUM_ORDERS:
            raise ValueError(f"sum_order must be one of {SUM_ORDERS}")
        self.sum_order = sum_order
        self.injector = injector
        self.collector = collector
        self._exact = self.fmt == FLOAT64
        self._rnd = _identity if self._exact else self.fmt.round

    # -- basics ---------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True for the Float64 context (no quantization applied)."""
        return self._exact

    def inject(self, site: str, value):
        """Pass *value* through the fault injector for a named site.

        The identity when no injector is active — the ``is None`` check
        is the entire overhead on clean runs.  Sites instrumented here:
        ``storage`` (:meth:`asarray`), ``matvec``, ``dot``, ``axpy``;
        solvers add their own (e.g. the Cholesky ``pivot`` site).
        """
        injector = self.injector if self.injector is not None \
            else _INSTRUMENTS["injector"]
        if injector is None:
            return value
        return injector.apply(site, value, self.fmt)

    def _quantize(self, site: str, exact):
        """Round *exact* into the format, reporting the rounding event.

        Every named rounding site funnels through here (or through the
        per-reduction rounder of :meth:`_rnd_for`).  When no collector
        is bound or ambient, the overhead over a bare ``self._rnd``
        call is one attribute read and one ``is None`` check.
        """
        out = self._rnd(exact)
        if self._exact:
            # float64 is the carrier: no rounding happened, so there
            # is no event to report
            return out
        col = self.collector
        if col is None:
            col = _INSTRUMENTS["collector"]
            if col is None:
                return out
        col.record(site, exact, out, self.fmt)
        return out

    def _rnd_for(self, site: str):
        """The rounding callable for a reduction at the named site.

        Returns the bare rounder when no collector is active (zero
        added cost on the disabled path); otherwise a wrapper that
        reports every partial result to the collector.
        """
        if self._exact:
            return self._rnd
        col = self.collector
        if col is None:
            col = _INSTRUMENTS["collector"]
            if col is None:
                return self._rnd
        rnd, fmt, record = self._rnd, self.fmt, col.record

        def observed(x):
            out = rnd(x)
            record(site, x, out, fmt)
            return out
        return observed

    def round(self, x):
        """Quantize values into the context's format."""
        return x if self._exact else self._quantize("round", x)

    def asarray(self, x):
        """Convert to a float64 array holding format-representable values.

        :class:`~repro.arith.sparse.CSRMatrix` inputs come back as
        quantized CSR matrices sharing the input's pattern caches.
        """
        if isinstance(x, CSRMatrix):
            # sparse storage is not fault-instrumented (padding zeros
            # would absorb a rate-proportional share of the hits)
            return x if self._exact else x.quantized(
                self._rnd_for("storage"))
        arr = np.array(x, dtype=np.float64)
        if not self._exact:
            arr = np.asarray(self._quantize("storage", arr))
        return self.inject("storage", arr)

    def _ewise(self, site: str, ufunc, a, b):
        """Quantized binary ufunc, computed into scratch when possible.

        The scratch path needs same-shape float64 ndarrays and a
        rounding format (the exact context may return its input, which
        must never be a scratch buffer).
        """
        if (self._exact or not isinstance(a, np.ndarray)
                or not isinstance(b, np.ndarray) or a.shape != b.shape
                or a.dtype != np.float64 or b.dtype != np.float64):
            return self._quantize(site, ufunc(a, b))
        buf = _SCRATCH.take(a.shape)
        try:
            ufunc(a, b, out=buf)
            return self._quantize(site, buf)
        finally:
            _SCRATCH.give(buf)

    # -- elementwise ops (one rounding each) ------------------------------
    # NaN operands are legitimate mid-computation (posit NaR carriers,
    # IEEE overflow products), so invalid-op warnings are silenced; the
    # NaNs propagate and surface as solver failures.  Two Python floats
    # (the solvers' scalar recurrences) compute in Python instead: the
    # same IEEE double operation, without NumPy dispatch or errstate,
    # rounded through the format's scalar tier.  Python raises on
    # division by zero, so a zero divisor keeps the NumPy path.
    def add(self, a, b):
        if type(a) is float and type(b) is float and not self._exact:
            return self._quantize("add", a + b)
        with np.errstate(invalid="ignore", over="ignore"):
            return self._ewise("add", np.add, a, b)

    def sub(self, a, b):
        if type(a) is float and type(b) is float and not self._exact:
            return self._quantize("sub", a - b)
        with np.errstate(invalid="ignore", over="ignore"):
            return self._ewise("sub", np.subtract, a, b)

    def mul(self, a, b):
        if type(a) is float and type(b) is float and not self._exact:
            return self._quantize("mul", a * b)
        with np.errstate(invalid="ignore", over="ignore"):
            return self._ewise("mul", np.multiply, a, b)

    def div(self, a, b):
        if type(a) is float and type(b) is float and b != 0.0 \
                and not self._exact:
            return self._quantize("div", a / b)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._ewise("div", np.divide, a, b)

    def sqrt(self, a):
        with np.errstate(invalid="ignore"):
            return self._quantize("sqrt", np.sqrt(a))

    # -- reductions ------------------------------------------------------
    def sum(self, x) -> float:
        """Rounded sum of all elements of a 1-D array."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size == 0:
            return 0.0
        if self._exact:
            # float64 reference still sums in a well-defined order
            return float(np.sum(x))
        return float(rounded_sum_last_axis(x, self._rnd_for("sum"),
                                           self.sum_order))

    def dot(self, x, y) -> float:
        """Rounded inner product: round every product, round every add."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self._exact:
            return float(self.inject("dot", float(x @ y)))
        with np.errstate(invalid="ignore", over="ignore"):
            products = self._ewise("dot.mul", np.multiply, x, y)
        out = float(rounded_sum_last_axis(products,
                                          self._rnd_for("dot.sum"),
                                          self.sum_order))
        return float(self.inject("dot", out))

    def matvec(self, A, x) -> np.ndarray:
        """Rounded matrix-vector product (row-wise rounded dots).

        Accepts a dense array or a :class:`CSRMatrix`.  The CSR path
        rounds one product per stored entry and reduces over the padded
        row width instead of the full dimension (the padded-row
        semantics of :mod:`repro.arith.sparse`).  It quantizes the
        products in compact form and either scatters them into the
        padded shape or folds them segmented in O(nnz), chosen from the
        matrix's fill (:func:`repro.kernels.segment.use_segmented`);
        both routes give the same bits.  Collector sites carry the
        layout (``matvec.mul`` dense, ``matvec.csr.*`` sparse); the
        ``matvec`` injector site is layout-independent.
        """
        x = np.asarray(x, dtype=np.float64)
        require_conformant(A, x)
        if isinstance(A, CSRMatrix):
            if self._exact:
                return self.inject("matvec", A.matvec64(x))
            ext = _SCRATCH.take((A.nnz + 1,))
            try:
                np.take(x, A.indices, out=ext[:-1])
                with np.errstate(invalid="ignore", over="ignore"):
                    np.multiply(A.data, ext[:-1], out=ext[:-1])
                    # the shared padding product: 0.0 * x[0]
                    ext[-1] = 0.0 * x[0] if x.size else 0.0
                products = self._quantize("matvec.csr.mul", ext)
            finally:
                _SCRATCH.give(ext)
            products = np.asarray(products)
            rnd = self._rnd_for("matvec.csr.sum")
            if use_segmented(A.n, A.row_width, A.nnz, self.sum_order):
                return self.inject("matvec",
                                   segmented_fold(products,
                                                  A.segment_plan(), rnd))
            return self.inject("matvec",
                               rounded_sum_last_axis(
                                   products[A.slot_map()], rnd,
                                   self.sum_order))
        A = np.asarray(A, dtype=np.float64)
        if self._exact:
            return self.inject("matvec", A @ x)
        buf = _SCRATCH.take(A.shape)
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                np.multiply(A, x[np.newaxis, :], out=buf)
            products = self._quantize("matvec.mul", buf)
        finally:
            _SCRATCH.give(buf)
        return self.inject("matvec",
                           rounded_sum_last_axis(
                               products, self._rnd_for("matvec.sum"),
                               self.sum_order))

    def _quantize_at(self, site: str, exact: np.ndarray, ix):
        """Round *exact* at the entries *ix* only (all of it for None).

        The caller guarantees that every entry outside *ix* is already
        a fixed point of the format's ``round`` (±0, NaN or a format
        value), so the result is the bits of ``_quantize(site,
        exact)``.  *exact* is rounded in place unless a collector is
        active, which then sees the full ``(exact, rounded)`` pair.
        """
        if ix is None:
            return self._quantize(site, exact)
        col = self.collector
        if col is None:
            col = _INSTRUMENTS["collector"]
        out = exact if col is None else exact.copy()
        if ix.size:
            np.put(out, ix, self._rnd(np.take(exact, ix)))
        if col is not None:
            col.record(site, exact, out, self.fmt)
        return out

    def outer(self, x, y) -> np.ndarray:
        """Rounded outer product.

        Only the block of entries whose two factors are both nonzero
        is rounded: every other entry is ±0 or NaN (``0·inf``), which
        every format's ``round`` maps to itself.  When that block is
        most of the product, the whole array is rounded instead (see
        :func:`_nonzero_block`).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            exact = np.multiply.outer(x, y)
            if self._exact:
                return exact
            return self._quantize_at("outer", exact, _nonzero_block(x, y))

    def sub_outer(self, W, u, v) -> np.ndarray:
        """``W − u·vᵀ`` with the product and the difference each rounded.

        The bits of ``sub(W, outer(u, v))``, the rank-1 update of the
        right-looking factorizations.  Precondition: *W* holds format
        values (each factorization keeps its working matrix rounded).
        The float64 subtraction runs over the whole matrix, so NaN
        from a non-finite factor and ``−0 − (−0) = +0`` come out as
        the full rounding would give them; only rounding is restricted
        to the nonzero block of ``u·vᵀ``, since outside it the
        difference is ``W − (±0)`` or NaN, a fixed point of ``round``.
        Collector sites ``outer`` and ``sub`` see the full arrays.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            product = np.multiply.outer(u, v)
            if self._exact:
                return np.subtract(W, product)
            ix = _nonzero_block(u, v)
            product = self._quantize_at("outer", product, ix)
            return self._quantize_at("sub", np.subtract(W, product), ix)

    def gemm(self, A, B) -> np.ndarray:
        """Rounded matrix-matrix product, accumulated over k per sum_order.

        The rank-1 term cube is tiled into (i, j) panels by
        :func:`repro.kernels.gemm.blocked_gemm` — bit-identical to the
        whole cube (the fold along k is per-lane), but with bounded
        scratch and per-panel amortized rounding dispatch.
        """
        require_product(A, B)
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if self._exact:
            return A @ B
        quantize_mul = lambda cube: self._quantize("gemm.mul", cube)
        rnd = self._rnd_for("gemm.sum")
        tracer = _INSTRUMENTS["tracer"]
        if tracer is None:
            return _gemm_kernels.blocked_gemm(A, B, quantize_mul, rnd,
                                              self.sum_order)
        t0 = time.perf_counter()
        out = _gemm_kernels.blocked_gemm(A, B, quantize_mul, rnd,
                                         self.sum_order)
        tracer.emit("span", name="gemm.block",
                    seconds=time.perf_counter() - t0,
                    m=A.shape[0], k=A.shape[1], n=B.shape[1],
                    fmt=self.fmt.name)
        return out

    # -- compound helpers (each primitive rounded) -------------------------
    def axpy(self, alpha: float, x, y) -> np.ndarray:
        """``y + alpha*x`` with the product and the sum each rounded."""
        return self.inject("axpy", self.add(y, self.mul(alpha, x)))

    def norm2(self, x) -> float:
        """Rounded 2-norm: rounded dot then rounded sqrt."""
        return float(self.sqrt(self.dot(x, x)))

    # -- misc ------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<FPContext {self.fmt.name} sum={self.sum_order}>"
