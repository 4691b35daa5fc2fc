"""The CSR sparse layout and its padded-row matvec semantics.

The suite matrices are sparse (4–30 nonzeros per row at full scale);
the dense emulated matvec quantizes n² products per application, almost
all of them exact zeros.  :class:`CSRMatrix` stores only the nonzeros
(``indptr`` / ``indices`` / ``data``) — the natural interchange layout
for real Matrix Market inputs — and its emulated matvec rounds one
product per stored entry.

Semantics (the spec every route reproduces bit for bit).  Let
``k = row_width`` be the longest row.  Row ``i`` of ``ctx.matvec(A, x)``
is the rounded fold (:func:`~repro.arith.summation.rounded_sum_last_axis`,
in the context's order) of ``k`` terms: the rounded products
``A[i, j] * x[j]`` of the row's stored entries in storage (= column)
order, then ``k - len(row)`` padding terms ``rnd(0.0 * x[0])``.  This is
the classic padded-row (ELLPACK) evaluation: padding terms are ``±0.0``
or NaN, so the matvec performs the same *rounded* operations as the
dense one on the nonzero entries — only the reduction tree differs,
which is just another valid per-op-rounded association order (see
:mod:`repro.arith.summation`).  The exact (fp64) context evaluates the
same padded rows with one float64 einsum (:meth:`CSRMatrix.matvec64`).

Two routes realize the spec, picked from the matrix's fill
(:func:`repro.kernels.segment.use_segmented`):

* the *padded* route quantizes the per-entry products in compact form
  (plus one shared padding product) and scatters them through a cached
  slot map into the ``(n, k)`` padded shape, reduced by the rounded
  pairwise fold — quantization is elementwise, so compact-then-scatter
  and scatter-then-quantize commute bit for bit;
* the *segmented* route never materializes the padded view at all: it
  folds the compact product array through a cached
  :class:`~repro.kernels.segment.SegmentPlan` reproducing the padded
  tree shape per row in O(nnz) work (padding slots are exact zeros that
  round and add exactly, so only the pairs touching live values are
  computed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRMatrix"]


@dataclass
class _PatternCache:
    """Lazily built caches that depend on the sparsity pattern alone.

    One instance is shared by a matrix and every quantized copy of it,
    so whichever copy builds a cache first builds it for all of them.
    """

    #: ``(n, k)`` gather map into the length ``nnz + 1`` extended
    #: product array; slot ``nnz`` is the shared padding product
    slots: np.ndarray | None = None
    #: segmented-fold plan (O(nnz) index storage)
    plan: object | None = None


@dataclass
class CSRMatrix:
    """A square sparse matrix in compressed-sparse-row layout.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` int64 row pointers: row ``i`` owns the entry range
        ``indptr[i]:indptr[i + 1]``.
    indices:
        ``(nnz,)`` int64 column indices.
    data:
        ``(nnz,)`` float64 stored entries.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _pattern: _PatternCache = field(default_factory=_PatternCache,
                                    repr=False, compare=False)

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1 \
                or self.data.ndim != 1:
            raise ValueError("indptr, indices and data must be 1-D")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must share a (nnz,) shape")
        if self.indptr.size == 0 or self.indptr[0] != 0 \
                or self.indptr[-1] != self.data.size \
                or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0, end at nnz and be "
                             "non-decreasing")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dense(cls, A: np.ndarray) -> "CSRMatrix":
        """Convert a square dense matrix (zeros are dropped)."""
        A = np.asarray(A, dtype=np.float64)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {A.shape}")
        rows, cols = np.nonzero(A)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr=indptr, indices=cols, data=A[rows, cols])

    @classmethod
    def from_scipy(cls, M) -> "CSRMatrix":
        """Convert any scipy.sparse matrix.

        Duplicate entries are summed and each row's entries sorted by
        column, so storage order is column order as the spec requires.
        """
        import scipy.sparse
        csr = scipy.sparse.csr_matrix(M, copy=True)
        csr.sum_duplicates()
        n = csr.shape[0]
        if csr.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {csr.shape}")
        return cls(indptr=csr.indptr, indices=csr.indices, data=csr.data)

    # -- properties --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return (n, n)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def row_width(self) -> int:
        """The padded row length k: the longest row (at least 1)."""
        if self.n == 0:
            return 1
        return max(1, int(np.diff(self.indptr).max()))

    @property
    def nnz(self) -> int:
        return self.data.size

    def slot_map(self) -> np.ndarray:
        """The cached ``(n, k)`` gather map realizing the padded rows.

        Entry ``(i, j)`` indexes the j-th stored entry of row ``i`` in
        the compact arrays; slots past the row's length point at the
        sentinel position ``nnz`` (the shared padding product).  Only
        the padded route and :meth:`matvec64` build it; a pairwise
        context on a skewed pattern takes the segmented fold and never
        does.
        """
        cache = self._pattern
        if cache.slots is None:
            n, k = self.n, self.row_width
            counts = np.diff(self.indptr)
            j = np.arange(k, dtype=np.int64)
            slots = np.full((n, k), self.nnz, dtype=np.int64)
            mask = j[None, :] < counts[:, None]
            slots[mask] = (self.indptr[:-1, None] + j[None, :])[mask]
            cache.slots = slots
        return cache.slots

    def segment_plan(self):
        """The cached :class:`~repro.kernels.segment.SegmentPlan`."""
        cache = self._pattern
        if cache.plan is None:
            from ..kernels.segment import SegmentPlan
            cache.plan = SegmentPlan.from_csr(self.indptr, self.row_width)
        return cache.plan

    def to_dense(self) -> np.ndarray:
        """Materialize the dense float64 matrix."""
        n = self.n
        out = np.zeros((n, n), dtype=np.float64)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zeros where absent or stored as zero)."""
        n = self.n
        out = np.zeros(n, dtype=np.float64)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        hit = (self.indices == rows) & (self.data != 0.0)
        out[rows[hit]] = self.data[hit]
        return out

    # -- float64 reference operations --------------------------------------
    def matvec64(self, x: np.ndarray) -> np.ndarray:
        """Exact float64 matvec (for measurements, not emulation).

        Evaluated as one einsum over the padded rows, so the float64
        reduction order — and hence every bit — is fixed by the pattern
        alone (see the module docstring).
        """
        x = np.asarray(x, dtype=np.float64)
        slots = self.slot_map()
        data2d = np.append(self.data, 0.0)[slots]
        x2d = np.append(x[self.indices],
                        x[:1] if x.size else [0.0])[slots]
        return np.einsum("ij,ij->i", data2d, x2d)

    def quantized(self, rnd) -> "CSRMatrix":
        """A copy with the entries rounded by *rnd*; the sparsity
        pattern and its caches (slot map, segment plan) are shared."""
        return CSRMatrix(indptr=self.indptr, indices=self.indices,
                         data=np.asarray(rnd(self.data)),
                         _pattern=self._pattern)


class ELLMatrix(CSRMatrix):
    """A CSR matrix under the name the e2e benchmark still imports.

    ``benchmarks/e2e/layers.py`` is the only reason this class exists:
    it patches ``vars(ELLMatrix)["from_dense"]`` and tests
    ``isinstance(A, ELLMatrix)``.  No package code uses it.  The class
    dict holds its own ``from_dense`` so that patching it leaves
    :meth:`CSRMatrix.from_dense` alone (an alias would count every CSR
    pack twice).
    """

    from_dense = classmethod(CSRMatrix.from_dense.__func__)
