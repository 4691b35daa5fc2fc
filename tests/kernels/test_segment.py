"""Segmented CSR fold: plan invariants + byte-identity with the padded
(ELL) tree.

The contract (:mod:`repro.kernels.segment`): the compact O(nnz) fold
must reproduce the padded-row rounded pairwise reduction **bit for
bit** — on every sparsity shape, every format family, and every edge
product (NaR, ±0, infinities).  These tests hold both CSR routes to the
explicit padded-row reference (:mod:`tests.sparse_reference`) and pin
the input-driven route choice; they force a route by patching
:data:`~repro.kernels.segment.PAD_RATIO`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.arith.summation import rounded_sum_last_axis
from repro.kernels import segment
from repro.kernels.segment import (PAD_RATIO, SegmentPlan, segmented_fold,
                                   use_segmented)
from tests.sparse_reference import padded_row_matvec

FORMATS = ("fp16", "bf16", "fp32", "posit16es2", "posit32es2",
           "takum16", "takum32", "takum_log16")


def _ragged_spd(rng, n=40, skew=False):
    """A symmetric matrix with ragged row lengths (possibly empty rows)."""
    A = np.zeros((n, n))
    if skew:
        A[0, :] = rng.standard_normal(n)
        A[:, 0] = A[0, :]
    for i in range(n):
        deg = int(rng.integers(0, 6))
        if deg:
            js = rng.choice(n, size=deg, replace=False)
            A[i, js] += rng.standard_normal(deg)
            A[js, i] = A[i, js]
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


#: the PAD_RATIO that forces each CSR matvec route
ROUTES = {"padded": math.inf, "segmented": 0.0, "auto": PAD_RATIO}


def _force(monkeypatch, route):
    monkeypatch.setattr(segment, "PAD_RATIO", ROUTES[route])


class TestPlanInvariants:
    def _check_plan(self, indptr, k):
        plan = SegmentPlan.from_csr(indptr, k)
        nnz = int(indptr[-1])
        n = len(indptr) - 1
        assert plan.n == n
        size_in = nnz
        for lvl in plan.levels:
            assert lvl.size_in == size_in
            # gathers stay inside the input (pad slot at size_in)
            assert lvl.left.min() >= 0 and lvl.left.max() <= lvl.size_in
            assert lvl.right.min() >= 0 and lvl.right.max() <= lvl.size_in
            # the trailing lane is the pad-pad pair
            assert lvl.left[-1] == lvl.right[-1] == lvl.size_in
            assert lvl.dst[-1] == lvl.size_out
            # every output slot written exactly once
            writes = np.concatenate([lvl.dst, lvl.lo_dst])
            assert writes.size == lvl.size_out + 1
            assert np.array_equal(np.sort(writes),
                                  np.arange(lvl.size_out + 1))
            size_in = lvl.size_out
        assert plan.final_src.shape == (n,)
        assert plan.final_src.max() <= size_in
        return plan

    def test_random_patterns(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            counts = rng.integers(0, 9, size=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            k = max(1, int(counts.max(initial=0)))
            self._check_plan(indptr, k)

    def test_width_one_has_no_levels(self):
        plan = SegmentPlan.from_csr(np.array([0, 1, 2, 3]), 1)
        assert plan.levels == []
        assert np.array_equal(plan.final_src, [0, 1, 2])

    def test_empty_rows_hit_the_sentinel(self):
        plan = SegmentPlan.from_csr(np.array([0, 0, 2, 2]), 2)
        # rows 0 and 2 are empty: their final gather reads the pad chain
        assert plan.final_src[0] == plan.final_src[2]
        assert plan.final_src[0] == plan.levels[-1].size_out

    def test_plan_storage_is_compact_on_skewed_shapes(self, rng):
        A = _ragged_spd(rng, n=200, skew=True)
        C = CSRMatrix.from_dense(A)
        plan = C.segment_plan()
        padded = C.n * C.row_width * 8  # the (n, k) float64 view
        assert plan.nbytes < padded
        # and the padded route really is the expensive one here
        assert C.n * C.row_width > PAD_RATIO * C.nnz


class TestFoldByteIdentity:
    """segmented_fold and the padded scatter of one products array,
    both against the padded-row reference."""

    def _products(self, ctx, C, x):
        ext = np.empty(C.nnz + 1)
        np.take(x, C.indices, out=ext[:-1])
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(C.data, ext[:-1], out=ext[:-1])
            ext[-1] = 0.0 * x[0] if x.size else 0.0
        return np.asarray(ctx.round(ext))

    def _assert_fold_identical(self, A, x, formats=FORMATS):
        C = CSRMatrix.from_dense(A)
        plan = C.segment_plan()
        for fname in formats:
            ctx = FPContext(fname)
            Cq = ctx.asarray(C)
            products = self._products(ctx, Cq, x)
            rnd = ctx._rnd_for("matvec.csr.sum")
            with np.errstate(invalid="ignore", over="ignore"):
                got = segmented_fold(products, plan, rnd)
                padded = rounded_sum_last_axis(products[Cq.slot_map()],
                                               rnd, "pairwise")
            want = padded_row_matvec(ctx, A, x)
            assert got.tobytes() == want.tobytes(), \
                f"segmented != reference bitwise for {fname}"
            assert padded.tobytes() == want.tobytes(), \
                f"padded != reference bitwise for {fname}"

    def test_random_ragged(self, rng):
        for trial in range(5):
            A = _ragged_spd(rng, n=int(rng.integers(5, 50)))
            self._assert_fold_identical(A, rng.standard_normal(len(A)))

    def test_arrow_skew(self, rng):
        A = _ragged_spd(rng, n=60, skew=True)
        self._assert_fold_identical(A, rng.standard_normal(60))

    def test_nan_poisoning(self, rng):
        """NaN products (NaR for posits) must propagate identically."""
        A = _ragged_spd(rng, n=25, skew=True)
        x = rng.standard_normal(25)
        x[0] = np.nan
        self._assert_fold_identical(A, x)

    def test_signed_zero_padding(self, rng):
        """x[0] < 0 makes the shared pad product -0.0 — sign matters."""
        A = _ragged_spd(rng, n=25, skew=True)
        x = -np.abs(rng.standard_normal(25)) - 0.1
        self._assert_fold_identical(A, x)

    def test_infinite_products(self, rng):
        """Narrow formats overflow products to ±inf before the fold."""
        A = _ragged_spd(rng, n=20)
        x = rng.standard_normal(20) * 1e30
        self._assert_fold_identical(A, x, formats=("fp16", "bf16"))

    def test_single_row(self, rng):
        A = np.abs(rng.standard_normal((1, 1))) + 1.0
        self._assert_fold_identical(A, rng.standard_normal(1))

    def test_diagonal_width_one(self, rng):
        A = np.diag(np.abs(rng.standard_normal(12)) + 1.0)
        self._assert_fold_identical(A, rng.standard_normal(12))


class TestMatvecRouting:
    """The full FPContext.matvec path on every forced route."""

    def _matvec_all_modes(self, monkeypatch, A, x, fname):
        ctx = FPContext(fname)
        csr = ctx.asarray(CSRMatrix.from_dense(A))
        ye = padded_row_matvec(ctx, A, x)
        outs = {}
        for route in ROUTES:
            _force(monkeypatch, route)
            outs[route] = ctx.matvec(csr, x)
        return ye, outs

    @pytest.mark.parametrize("fname", FORMATS)
    def test_modes_bit_identical_to_ell(self, monkeypatch, rng, fname):
        A = _ragged_spd(rng, n=35, skew=True)
        x = rng.standard_normal(35)
        ye, outs = self._matvec_all_modes(monkeypatch, A, x, fname)
        for route, yc in outs.items():
            assert ye.tobytes() == yc.tobytes(), \
                f"route={route} diverges from the reference for {fname}"

    def test_sequential_order_uses_padded_path(self, monkeypatch, rng):
        """Sequential folds cannot skip padding — any fill must yield."""
        assert not use_segmented(10, 10, 20, sum_order="sequential")
        _force(monkeypatch, "segmented")
        assert not use_segmented(10, 10, 20, sum_order="sequential")
        A = _ragged_spd(rng, n=30, skew=True)
        x = rng.standard_normal(30)
        for fname in ("fp16", "posit16es2"):
            ctx = FPContext(fname, sum_order="sequential")
            ye = padded_row_matvec(ctx, A, x)
            yc = ctx.matvec(ctx.asarray(CSRMatrix.from_dense(A)), x)
            assert ye.tobytes() == yc.tobytes()

    def test_extra_suite_arrow_matrix(self, monkeypatch, rng):
        """The arrow_496 extra is auto-routed segmented and bit-exact."""
        from repro.matrices import load_matrix
        A = load_matrix("arrow_496")
        C = CSRMatrix.from_dense(A)
        assert use_segmented(C.n, C.row_width, C.nnz)
        x = rng.standard_normal(A.shape[0])
        ye, outs = self._matvec_all_modes(monkeypatch, A, x,
                                          "posit32es2")
        assert ye.tobytes() == outs["padded"].tobytes()
        assert ye.tobytes() == outs["auto"].tobytes()
        assert ye.tobytes() == outs["segmented"].tobytes()


class TestRouteChoice:
    def test_forced_modes(self, monkeypatch):
        _force(monkeypatch, "padded")
        assert not use_segmented(100, 100, 200)
        _force(monkeypatch, "segmented")
        assert use_segmented(100, 100, 200)
        assert use_segmented(4, 2, 8)  # even when padding is cheap

    def test_auto_heuristic_threshold(self):
        # padded cost n*k vs compact nnz: flips at PAD_RATIO
        assert not use_segmented(10, 3, 30)       # exactly dense rows
        assert not use_segmented(10, 3, 20)       # 1.5x: at threshold
        assert use_segmented(10, 3, 19)           # just past it
        assert use_segmented(100, 100, 300)       # arrow shape
        assert not use_segmented(0, 0, 0)         # degenerate
