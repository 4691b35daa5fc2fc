"""CSR sparse layout tests: construction, pattern caches, and the
padded-row (ELL) bit-identity.

The load-bearing property is the differential one — for every suite
matrix and every format family the CSR emulated matvec, on every
route, must be *bit-identical* to the padded-row (ELLPACK) evaluation
that :mod:`tests.sparse_reference` writes out from the dense matrix,
because experiments treat the route as an implementation detail
(caches key on it, results must not).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.kernels import segment
from repro.linalg import conjugate_gradient
from tests.sparse_reference import padded_row_matvec

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "matrices",
                           "fixtures")


def _sparse_spd(rng, n=40, per_row=5):
    A = np.zeros((n, n))
    for i in range(n):
        js = rng.choice(n, size=per_row, replace=False)
        A[i, js] = rng.standard_normal(per_row)
    A = A + A.T
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


def _skewed(rng, n=30):
    """Strongly skewed row lengths (one dense row, many singletons)."""
    A = np.diag(rng.standard_normal(n) + 4.0)
    A[0, :] = rng.standard_normal(n)
    A[:, 0] = A[0, :]
    return A


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        A = _sparse_spd(rng)
        C = CSRMatrix.from_dense(A)
        assert np.array_equal(C.to_dense(), A)

    def test_from_scipy(self, rng):
        import scipy.sparse
        A = _sparse_spd(rng)
        C = CSRMatrix.from_scipy(scipy.sparse.csr_matrix(A))
        assert np.array_equal(C.to_dense(), A)

    def test_shape_and_nnz(self, rng):
        A = _sparse_spd(rng, n=30)
        C = CSRMatrix.from_dense(A)
        assert C.shape == (30, 30)
        assert C.n == 30
        assert C.nnz == np.count_nonzero(A)
        assert C.row_width == int(np.count_nonzero(A, axis=1).max())

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(rng.standard_normal((3, 5)))

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([1, 2]), indices=np.array([0]),
                      data=np.array([1.0]))
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 2, 1]),
                      indices=np.array([0, 1]),
                      data=np.array([1.0, 2.0]))

    def test_diagonal(self, rng):
        A = _sparse_spd(rng)
        C = CSRMatrix.from_dense(A)
        assert np.array_equal(C.diagonal(), np.diag(A))

    def test_zero_matrix(self):
        C = CSRMatrix.from_dense(np.zeros((4, 4)))
        assert C.nnz == 0
        assert np.array_equal(C.to_dense(), np.zeros((4, 4)))
        assert np.array_equal(C.diagonal(), np.zeros(4))

    def test_slot_map_shape_and_sentinel(self, rng):
        C = CSRMatrix.from_dense(_skewed(rng))
        slots = C.slot_map()
        assert slots.shape == (C.n, C.row_width)
        counts = np.diff(C.indptr)
        assert int((slots == C.nnz).sum()) == \
            int((C.row_width - counts).sum())
        # compact entries each referenced exactly once
        assert np.array_equal(np.sort(slots[slots < C.nnz]),
                              np.arange(C.nnz))

    def test_quantized_shares_slot_map(self, rng):
        """A map built by one quantized copy serves the source and
        every other copy (the caches hang off the pattern)."""
        ctx = FPContext("fp16")
        C = CSRMatrix.from_dense(_sparse_spd(rng))
        Cq = ctx.asarray(C)
        slots = Cq.slot_map()
        assert C.slot_map() is slots
        assert FPContext("posit32es2").asarray(C).slot_map() is slots
        assert np.array_equal(np.asarray(ctx.round(Cq.data)), Cq.data)

    def test_quantized_shares_segment_plan(self, rng):
        C = CSRMatrix.from_dense(_skewed(rng))
        plan = FPContext("fp16").asarray(C).segment_plan()
        assert C.segment_plan() is plan  # pattern-only, format-free
        assert FPContext("takum16").asarray(C).segment_plan() is plan

    def test_fp64_cg_builds_slot_map_once(self, rng, monkeypatch):
        """The exact context evaluates every matvec through the padded
        rows (:meth:`CSRMatrix.matvec64`); on a skewed pattern it must
        keep the ``(n, k)`` map, not rebuild it per iteration."""
        maps = []
        slot_map = CSRMatrix.slot_map
        monkeypatch.setattr(CSRMatrix, "slot_map", lambda self: (
            maps.append(slot_map(self)) or maps[-1]))
        A = _skewed(rng, n=40)
        C = CSRMatrix.from_dense(A)
        assert C.n * C.row_width > segment.PAD_RATIO * C.nnz
        res = conjugate_gradient(FPContext("fp64"), C, A @ np.ones(40))
        assert res.iterations >= 2
        assert len(maps) >= res.iterations
        assert all(m is maps[0] for m in maps)


class TestELLBitIdentity:
    """CSR against the padded-row (ELL) reference, route chosen by input."""

    FORMATS = ("fp16", "bf16", "fp32", "fp64", "posit16es2",
               "posit32es2", "takum16", "takum32", "takum_log16")

    def _assert_identical(self, A, x, formats=FORMATS):
        csr = CSRMatrix.from_dense(A)
        assert csr.matvec64(x).tobytes() == \
            padded_row_matvec(FPContext("fp64"), A, x).tobytes()
        for fname in formats:
            ctx = FPContext(fname)
            ye = padded_row_matvec(ctx, A, x)
            yc = ctx.matvec(ctx.asarray(csr), x)
            assert ye.tobytes() == yc.tobytes(), \
                f"CSR != padded-row reference bitwise for {fname}"

    def test_random_spd(self, rng):
        A = _sparse_spd(rng)
        self._assert_identical(A, rng.standard_normal(40))

    def test_skewed_rows(self, rng):
        A = _skewed(rng)
        self._assert_identical(A, rng.standard_normal(30))

    def test_negative_leading_x(self, rng):
        """Padding products are ``0.0 * x[0]`` — sign matters."""
        A = _sparse_spd(rng, n=20, per_row=3)
        x = -np.abs(rng.standard_normal(20))
        self._assert_identical(A, x, formats=("fp16", "takum16"))

    def test_nan_leading_x(self, rng):
        """NaN in x[0] poisons the padding products identically."""
        A = _sparse_spd(rng, n=20, per_row=3)
        x = rng.standard_normal(20)
        x[0] = np.nan
        self._assert_identical(A, x, formats=("fp16",))

    @pytest.mark.parametrize("name", ("bcsstk02", "lund_b", "494_bus"))
    def test_suite_matrices(self, name, rng):
        from repro.matrices import load_matrix
        A = load_matrix(name)
        x = rng.standard_normal(A.shape[0])
        self._assert_identical(A, x)


class TestSkewedFixture:
    """The committed arrow/power-law Matrix Market fixture.

    The adversarial shape for the padded route: one dense arrow row
    drives the row width to n while most rows hold a handful of
    entries, so the CSR matvec is routed through the segmented fold —
    which must stay byte-identical to the padded-row reference across
    the format zoo, including NaR and signed-zero edge products.
    """

    FORMATS = ("fp16", "bf16", "fp32", "posit16es2", "posit32es2",
               "takum16", "takum32", "takum_log16")

    @pytest.fixture(scope="class")
    def fixture_pair(self):
        from repro.matrices.market import read_matrix_market
        path = os.path.join(FIXTURE_DIR, "arrow_power.mtx")
        A = read_matrix_market(path)
        S = read_matrix_market(path, dense=False)
        return A, S

    def test_reader_agrees_with_dense(self, fixture_pair):
        A, S = fixture_pair
        assert np.array_equal(CSRMatrix.from_scipy(S).to_dense(), A)

    def test_fixture_is_skewed(self, fixture_pair):
        from repro.kernels.segment import PAD_RATIO, use_segmented
        _, S = fixture_pair
        C = CSRMatrix.from_scipy(S)
        assert C.row_width == C.n  # the arrow row is fully dense
        assert C.n * C.row_width > PAD_RATIO * C.nnz
        assert use_segmented(C.n, C.row_width, C.nnz)

    def _assert_identical(self, A, S, x, monkeypatch):
        csr = CSRMatrix.from_scipy(S)
        for fname in self.FORMATS:
            ctx = FPContext(fname)
            ye = padded_row_matvec(ctx, A, x)
            # force padded, segmented, then the input-driven choice
            for ratio in (math.inf, 0.0, segment.PAD_RATIO):
                monkeypatch.setattr(segment, "PAD_RATIO", ratio)
                yc = ctx.matvec(ctx.asarray(csr), x)
                assert ye.tobytes() == yc.tobytes(), \
                    f"CSR(PAD_RATIO={ratio}) != reference for {fname}"

    def test_byte_identity_across_formats(self, fixture_pair, rng,
                                          monkeypatch):
        A, S = fixture_pair
        self._assert_identical(A, S, rng.standard_normal(A.shape[0]),
                               monkeypatch)

    def test_byte_identity_nar_products(self, fixture_pair, rng,
                                        monkeypatch):
        """x[0] = NaN floods the arrow column with NaR products."""
        A, S = fixture_pair
        x = rng.standard_normal(A.shape[0])
        x[0] = np.nan
        self._assert_identical(A, S, x, monkeypatch)

    def test_byte_identity_signed_zero_padding(self, fixture_pair, rng,
                                               monkeypatch):
        """Strictly negative x makes every padding product -0.0."""
        A, S = fixture_pair
        x = -np.abs(rng.standard_normal(A.shape[0])) - 0.25
        self._assert_identical(A, S, x, monkeypatch)

    def test_cg_solves_fixture_identically(self, fixture_pair):
        from repro.matrices import right_hand_side
        A, S = fixture_pair
        b = right_hand_side(A)
        ctx = FPContext("posit32es2")
        re_ = _cg_on_reference(ctx, A, b)
        rc = conjugate_gradient(ctx, CSRMatrix.from_scipy(S), b)
        assert re_.iterations == rc.iterations
        assert np.array_equal(re_.x, rc.x)


def _cg_on_reference(ctx, A, b):
    """CG whose every matvec is the padded-row reference on dense *A*."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FPContext, "matvec",
                   lambda self, _, x: padded_row_matvec(self, A, x))
        return conjugate_gradient(ctx, CSRMatrix.from_dense(A), b)


class TestCGIntegration:
    def test_cg_on_csr_matches_ell_bitwise(self, rng):
        A = _sparse_spd(rng, n=60, per_row=4)
        b = A @ np.ones(60)
        for fmt in ("fp32", "posit32es2", "takum32"):
            ctx = FPContext(fmt)
            re_ = _cg_on_reference(ctx, A, b)
            rc = conjugate_gradient(ctx, CSRMatrix.from_dense(A), b)
            assert re_.iterations == rc.iterations
            assert np.array_equal(re_.x, rc.x)

    def test_jacobi_on_csr(self, rng):
        A = _sparse_spd(rng, n=50, per_row=4)
        b = A @ np.ones(50)
        res = conjugate_gradient(FPContext("posit32es2"),
                                 CSRMatrix.from_dense(A), b,
                                 jacobi=True)
        assert res.converged
