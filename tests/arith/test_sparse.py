"""The padded-row sparse matvec semantics, exercised on ``CSRMatrix``.

:mod:`repro.arith.sparse` specifies the emulated sparse matvec as a
padded-row evaluation and :mod:`tests.sparse_reference` writes that
spec out explicitly.  This module checks the reference against the
rational oracle, then holds ``CSRMatrix``'s construction edge cases,
matvec and CG to it.  ``tests/arith/test_csr.py`` covers the CSR
pattern caches and holds every route to the same reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.oracle import ref_sum, same_value
from tests.sparse_reference import padded_row_matvec


def _sparse_spd(rng, n=40, per_row=5):
    A = np.zeros((n, n))
    for i in range(n):
        js = rng.choice(n, size=per_row, replace=False)
        A[i, js] = rng.standard_normal(per_row)
    A = A + A.T
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


class TestReference:
    """The test-local reference against the rational oracle."""

    #: ragged rows: lengths 3, 0, 1, 2, 4 (an empty row is all padding)
    A = np.array([[2.5, 0.0, -1.25, 0.0, 0.3],
                  [0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 7.0, 0.0],
                  [1e-3, 0.0, 0.0, 0.0, -3.0],
                  [0.1, 0.2, 0.0, -0.4, 1.7]])

    @pytest.mark.parametrize("fname", ("fp16", "bf16", "fp32",
                                       "posit16es2", "posit32es2",
                                       "takum16"))
    @pytest.mark.parametrize("x0", (0.75, -0.75, np.nan),
                             ids=("positive", "negative", "nan"))
    def test_rows_match_oracle_fold(self, fname, x0):
        """Each row is the oracle's pairwise fold of its stored
        products in column order, then ``0.0 * x[0]`` padding.

        The oracle leaves zero signs undefined (:func:`same_value`);
        :meth:`test_padding_sign_follows_x0` pins them.
        """
        x = np.array([x0, -1.5, 3.0, 0.625, 2.0 / 3.0])
        ctx = FPContext(fname)
        rnd = ctx.fmt.round
        got = padded_row_matvec(ctx, self.A, x)
        k = int(np.count_nonzero(self.A, axis=1).max())
        for i, row in enumerate(self.A):
            terms = [float(rnd(float(rnd(row[j])) * x[j]))
                     for j in range(len(row)) if row[j] != 0.0]
            terms += [float(rnd(0.0 * x[0]))] * (k - len(terms))
            want = ref_sum(fname, terms, order="pairwise")
            assert same_value(float(got[i]), want), (fname, i)

    def test_padding_sign_follows_x0(self):
        """The all-padding row folds ``0.0 * x[0]``: -0.0 for x[0] < 0
        in every rounding context (the exact one sums from +0.0)."""
        x = np.array([-0.75, -1.5, 3.0, 0.625, 1.0])
        for fname in ("fp16", "posit16es2", "takum16"):
            got = padded_row_matvec(FPContext(fname), self.A, x)
            assert got[1] == 0.0 and np.signbit(got[1])
        x[0] = 0.75
        got = padded_row_matvec(FPContext("fp16"), self.A, x)
        assert got[1] == 0.0 and not np.signbit(got[1])


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        """Empty rows survive the round trip as repeated row pointers."""
        A = _sparse_spd(rng)
        A[[3, 17], :] = 0.0
        C = CSRMatrix.from_dense(A)
        assert np.array_equal(C.to_dense(), A)
        assert np.array_equal(np.diff(C.indptr),
                              np.count_nonzero(A, axis=1))

    def test_from_scipy(self):
        """Unsorted and duplicate entries come out in column order,
        summed, and the caller's matrix is left untouched."""
        import scipy.sparse
        rows = np.array([0, 0, 1, 1, 2, 0])
        cols = np.array([2, 0, 1, 1, 2, 2])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(3, 3))
        M = scipy.sparse.csr_matrix(
            (vals[[0, 1, 5, 2, 3, 4]], cols[[0, 1, 5, 2, 3, 4]],
             [0, 3, 5, 6]), shape=(3, 3))
        saved = (M.indices.copy(), M.data.copy())
        for source in (coo, M):
            C = CSRMatrix.from_scipy(source)
            assert np.array_equal(C.to_dense(), coo.toarray())
            assert np.array_equal(C.indices, [0, 2, 1, 2])
            assert np.array_equal(C.indptr, [0, 2, 3, 4])
        assert np.array_equal(M.indices, saved[0])
        assert np.array_equal(M.data, saved[1])

    def test_shape_and_nnz(self):
        """nnz and row width count stored entries, explicit zeros too."""
        C = CSRMatrix(indptr=[0, 2, 3], indices=[0, 1, 1],
                      data=[1.0, 0.0, 2.0])
        assert C.shape == (2, 2)
        assert C.n == 2
        assert C.nnz == 3
        assert C.row_width == 2

    def test_rejects_non_square(self, rng):
        import scipy.sparse
        with pytest.raises(ValueError):
            CSRMatrix.from_scipy(
                scipy.sparse.csr_matrix(rng.standard_normal((3, 5))))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 1, 2]), indices=np.array([0]),
                      data=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 2]),
                      indices=np.zeros((1, 2), dtype=np.int64),
                      data=np.ones((1, 2)))

    def test_diagonal(self):
        """Absent and stored-zero diagonal entries both read 0."""
        C = CSRMatrix(indptr=[0, 1, 3, 4], indices=[2, 0, 1, 2],
                      data=[5.0, 1.0, 0.0, 3.0])
        assert np.array_equal(C.diagonal(), [0.0, 0.0, 3.0])

    def test_zero_matrix(self):
        """Every row is a single padding product, bit for bit."""
        C = CSRMatrix.from_dense(np.zeros((4, 4)))
        assert C.nnz == 0 and C.row_width == 1
        assert np.array_equal(C.to_dense(), np.zeros((4, 4)))
        x = np.array([-2.0, 1.0, 1.0, 1.0])
        for fname in ("fp64", "fp16", "posit16es2"):
            ctx = FPContext(fname)
            y = ctx.matvec(ctx.asarray(C), x)
            assert y.tobytes() == \
                padded_row_matvec(ctx, np.zeros((4, 4)), x).tobytes()
            assert not np.any(y)


class TestMatvec:
    def test_matvec64_exact(self, rng):
        A = _sparse_spd(rng)
        C = CSRMatrix.from_dense(A)
        x = rng.standard_normal(40)
        assert np.allclose(C.matvec64(x), A @ x, rtol=1e-14)
        assert C.matvec64(x).tobytes() == \
            padded_row_matvec(FPContext("fp64"), A, x).tobytes()

    def test_rounded_matvec_matches_semantics(self, rng):
        """The padded-row bits, and so the dense nonzero operations."""
        A = _sparse_spd(rng, n=20, per_row=3)
        x = rng.standard_normal(20)
        for fmt in ("fp16", "posit16es2", "posit32es2"):
            ctx = FPContext(fmt)
            out = ctx.matvec(ctx.asarray(CSRMatrix.from_dense(A)), x)
            assert out.tobytes() == \
                padded_row_matvec(ctx, A, x).tobytes()
            ref = ctx.matvec(np.asarray(ctx.asarray(A)), x)
            # same rounded ops, different association order → close
            tol = 4 * 20 * float(ctx.fmt.eps_at_one)
            assert np.allclose(out, ref, rtol=tol, atol=tol)

    def test_rounded_output_representable(self, rng):
        ctx = FPContext("posit16es1")
        A = _sparse_spd(rng, n=25, per_row=4)
        C = ctx.asarray(CSRMatrix.from_dense(A))
        out = ctx.matvec(C, ctx.asarray(rng.standard_normal(25)))
        assert np.array_equal(np.asarray(ctx.round(out)), out)

    def test_fp64_context_exact(self, rng):
        ctx = FPContext("fp64")
        A = _sparse_spd(rng)
        C = CSRMatrix.from_dense(A)
        x = rng.standard_normal(40)
        assert np.allclose(ctx.matvec(C, x), A @ x, rtol=1e-14)

    def test_asarray_quantizes_entries(self, rng):
        ctx = FPContext("fp16")
        C = CSRMatrix.from_dense(_sparse_spd(rng))
        Cq = ctx.asarray(C)
        assert np.array_equal(np.asarray(ctx.round(Cq.data)), Cq.data)
        # original untouched
        assert not np.array_equal(Cq.data, C.data)


class TestCGIntegration:
    def test_cg_on_csr(self, rng):
        from repro.linalg import conjugate_gradient
        A = _sparse_spd(rng, n=60, per_row=4)
        b = A @ np.ones(60)
        C = CSRMatrix.from_dense(A)
        for fmt in ("fp64", "fp32", "posit32es2"):
            res = conjugate_gradient(FPContext(fmt), C, b)
            assert res.converged
            assert res.true_relative_residual < 1e-4

    def test_cg_csr_matches_dense_iterations(self, rng):
        from repro.linalg import conjugate_gradient
        A = _sparse_spd(rng, n=50, per_row=4)
        b = A @ np.ones(50)
        ctx = FPContext("fp32")
        dense = conjugate_gradient(ctx, A, b)
        sparse = conjugate_gradient(ctx, CSRMatrix.from_dense(A), b)
        assert dense.converged and sparse.converged
        assert abs(dense.iterations - sparse.iterations) <= \
            max(3, 0.2 * dense.iterations)
