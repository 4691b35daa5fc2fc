"""ELL (padded-row) and CSR sparse matrices for emulated matvecs.

The suite matrices are sparse (4–30 nonzeros per row at full scale);
the dense emulated matvec quantizes n² products per application, almost
all of them exact zeros.  The classic HPC answer is the ELLPACK layout:
every row padded to the maximum row length, giving rectangular
``data``/``cols`` arrays that vectorize perfectly — the per-op-rounded
matvec becomes one rounded gather-multiply over ``n × k`` entries plus
a ``log₂ k``-level rounded pairwise reduction, a ~40× saving at the
paper's native sizes.

Semantics: padding slots multiply exact zeros, which round to exact
zeros and add exactly — so the ELL matvec performs the same *rounded*
operations as the dense one on the nonzero entries (the reduction tree
shape differs, which is just another valid per-op-rounded association
order; see :mod:`repro.arith.summation`).

:class:`CSRMatrix` stores the same operator compactly (``indptr`` /
``indices`` / ``data``, no padding) — the natural interchange layout
for real Matrix Market inputs, and ~k/avg-degree lighter than ELL when
row lengths are skewed.  Its emulated matvec is **bit-identical** to
the ELL path by construction, along either of two routes picked from
the matrix's fill (:func:`repro.kernels.segment.use_segmented`):

* the *padded* route quantizes the per-entry products in compact form
  (plus one shared padding product) and scatters them through a
  precomputed slot map into the very same ``(n, k)`` padded shape,
  reduced by the same rounded pairwise fold — quantization is
  elementwise, so compact-then-scatter and scatter-then-quantize
  commute bit for bit;
* the *segmented* route never materializes the padded view at all: it
  folds the compact product array through a precomputed
  :class:`~repro.kernels.segment.SegmentPlan` reproducing the ELL tree
  shape per row in O(nnz) work (padding slots are exact zeros that
  round and add exactly, so only the pairs touching live values are
  computed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ELLMatrix", "CSRMatrix"]


@dataclass
class ELLMatrix:
    """A square sparse matrix in ELLPACK layout.

    Attributes
    ----------
    data:
        ``(n, k)`` float64 entries; padding slots hold 0.0.
    cols:
        ``(n, k)`` int64 column indices; padding slots point at column
        0 (harmless: they multiply a 0 entry).
    """

    data: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        if self.data.shape != self.cols.shape or self.data.ndim != 2:
            raise ValueError("data and cols must share an (n, k) shape")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dense(cls, A: np.ndarray) -> "ELLMatrix":
        """Convert a square dense matrix (zeros are dropped)."""
        A = np.asarray(A, dtype=np.float64)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {A.shape}")
        counts = np.count_nonzero(A, axis=1)
        k = max(1, int(counts.max()) if n else 1)
        data = np.zeros((n, k), dtype=np.float64)
        cols = np.zeros((n, k), dtype=np.int64)
        for i in range(n):
            nz = np.nonzero(A[i])[0]
            data[i, :nz.size] = A[i, nz]
            cols[i, :nz.size] = nz
        return cls(data=data, cols=cols)

    @classmethod
    def from_scipy(cls, M) -> "ELLMatrix":
        """Convert any scipy.sparse matrix."""
        import scipy.sparse
        csr = scipy.sparse.csr_matrix(M)
        n = csr.shape[0]
        if csr.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {csr.shape}")
        counts = np.diff(csr.indptr)
        k = max(1, int(counts.max()) if n else 1)
        data = np.zeros((n, k), dtype=np.float64)
        cols = np.zeros((n, k), dtype=np.int64)
        for i in range(n):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            data[i, :hi - lo] = csr.data[lo:hi]
            cols[i, :hi - lo] = csr.indices[lo:hi]
        return cls(data=data, cols=cols)

    # -- properties --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        n = self.data.shape[0]
        return (n, n)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def row_width(self) -> int:
        """The padded row length k."""
        return self.data.shape[1]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def to_dense(self) -> np.ndarray:
        """Materialize the dense float64 matrix."""
        n, k = self.data.shape
        out = np.zeros((n, n), dtype=np.float64)
        rows = np.repeat(np.arange(n), k)
        np.add.at(out, (rows, self.cols.ravel()), self.data.ravel())
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zeros where absent or stored as zero).

        Padding slots reference column 0 but hold zero data, so they
        are excluded — otherwise row 0's padding would shadow its
        genuine diagonal entry.
        """
        n = self.n
        out = np.zeros(n, dtype=np.float64)
        hit = (self.cols == np.arange(n)[:, None]) & (self.data != 0.0)
        rows, slots = np.nonzero(hit)
        out[rows] = self.data[rows, slots]
        return out

    # -- float64 reference operations --------------------------------------
    def matvec64(self, x: np.ndarray) -> np.ndarray:
        """Exact float64 matvec (for measurements, not emulation)."""
        x = np.asarray(x, dtype=np.float64)
        return np.einsum("ij,ij->i", self.data, x[self.cols])

    def quantized(self, rnd) -> "ELLMatrix":
        """A copy with the entries rounded by *rnd* (padding stays 0)."""
        return ELLMatrix(data=np.asarray(rnd(self.data)),
                         cols=self.cols.copy())


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
    #: lazily built ``(n, k)`` gather map into the length ``nnz + 1``
    #: extended product array; slot ``nnz`` is the shared padding
    #: product.  Cached only for near-uniform patterns — see
    #: :meth:`slot_map`.
    _slots: np.ndarray | None = field(default=None, repr=False,
                                      compare=False)
    #: lazily built segmented-fold plan (O(nnz) index storage); like the
    #: slot map it depends only on the sparsity pattern
    _plan: object | None = field(default=None, repr=False, compare=False)

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
        """Convert any scipy.sparse matrix."""
        import scipy.sparse
        csr = scipy.sparse.csr_matrix(M)
        n = csr.shape[0]
        if csr.shape != (n, n):
            raise ValueError(f"expected a square matrix, got {csr.shape}")
        return cls(indptr=csr.indptr, indices=csr.indices, data=csr.data)

    @classmethod
    def from_ell(cls, ell: ELLMatrix) -> "CSRMatrix":
        """Repack an ELL matrix (its padding slots are dropped)."""
        keep = ell.data != 0.0
        rows = np.broadcast_to(np.arange(ell.n)[:, None],
                               ell.data.shape)[keep]
        indptr = np.zeros(ell.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=ell.n), out=indptr[1:])
        return cls(indptr=indptr, indices=ell.cols[keep],
                   data=ell.data[keep])

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
        """The padded row length k of the equivalent ELL layout."""
        if self.n == 0:
            return 1
        return max(1, int(np.diff(self.indptr).max()))

    @property
    def nnz(self) -> int:
        return self.data.size

    def slot_map(self) -> np.ndarray:
        """The ``(n, k)`` gather map realizing the padded ELL shape.

        Entry ``(i, j)`` indexes the j-th stored entry of row ``i`` in
        the compact arrays; slots past the row's length point at the
        sentinel position ``nnz`` (the shared padding product).  The
        map depends only on the sparsity pattern and is cached **only**
        when the padded view is near-compact (within
        :data:`~repro.kernels.segment.PAD_RATIO` of ``nnz``) — skewed
        patterns take the segmented fold on the hot path, so caching
        their O(n·k) map would pin memory the matvec never uses.
        """
        if self._slots is not None:
            return self._slots
        n, k = self.n, self.row_width
        counts = np.diff(self.indptr)
        j = np.arange(k, dtype=np.int64)
        slots = np.full((n, k), self.nnz, dtype=np.int64)
        mask = j[None, :] < counts[:, None]
        slots[mask] = (self.indptr[:-1, None] + j[None, :])[mask]
        from ..kernels.segment import PAD_RATIO
        if n * k <= PAD_RATIO * max(self.nnz, 1):
            self._slots = slots
        return slots

    def drop_slot_map(self) -> None:
        """Free a cached slot map (the plan cache stays; it is O(nnz))."""
        self._slots = None

    def segment_plan(self):
        """The cached :class:`~repro.kernels.segment.SegmentPlan`.

        Built once per sparsity pattern and shared with quantized
        copies, like the slot map — but its index storage is O(nnz), so
        it is always safe to retain.
        """
        if self._plan is None:
            from ..kernels.segment import SegmentPlan
            self._plan = SegmentPlan.from_csr(self.indptr, self.row_width)
        return self._plan

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

        Evaluated through the padded view with the same einsum as
        :meth:`ELLMatrix.matvec64`, so the float64 reduction order —
        and hence every last bit — matches the ELL path.
        """
        x = np.asarray(x, dtype=np.float64)
        slots = self.slot_map()
        data2d = np.append(self.data, 0.0)[slots]
        x2d = np.append(x[self.indices],
                        x[:1] if x.size else [0.0])[slots]
        return np.einsum("ij,ij->i", data2d, x2d)

    def quantized(self, rnd) -> "CSRMatrix":
        """A copy with the entries rounded by *rnd*; the sparsity
        pattern (and so the cached slot map and segment plan) is
        shared."""
        out = CSRMatrix(indptr=self.indptr, indices=self.indices,
                        data=np.asarray(rnd(self.data)))
        out._slots = self._slots
        out._plan = self._plan
        return out
