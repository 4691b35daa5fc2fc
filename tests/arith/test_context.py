"""FPContext tests: per-op rounding contracts for every kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import FPContext
from repro.formats import get_format


class TestConstruction:
    def test_from_name_and_format(self):
        assert FPContext("fp32").fmt is get_format("fp32")
        assert FPContext(get_format("fp16")).fmt is get_format("fp16")

    def test_exactness_flag(self):
        assert FPContext("fp64").is_exact
        assert not FPContext("fp32").is_exact

    def test_bad_sum_order(self):
        with pytest.raises(ValueError):
            FPContext("fp32", sum_order="random")

    def test_repr(self):
        assert "posit16es2" in repr(FPContext("posit16es2"))


class TestElementwise:
    def test_results_are_representable(self, any_ctx, rng):
        a = any_ctx.asarray(rng.standard_normal(100))
        b = any_ctx.asarray(rng.standard_normal(100))
        for op in (any_ctx.add, any_ctx.sub, any_ctx.mul, any_ctx.div):
            out = np.asarray(op(a, b))
            ok = np.isfinite(out)
            assert np.array_equal(np.asarray(any_ctx.round(out[ok])),
                                  out[ok])

    def test_single_rounding_add(self):
        ctx = FPContext("fp16")
        # 1 + 2**-11 rounds to 1 in one step
        assert ctx.add(1.0, 2.0 ** -11) == 1.0

    def test_sqrt(self, any_ctx):
        out = any_ctx.sqrt(np.array([4.0, 9.0, 2.0]))
        assert out[0] == 2.0 and out[1] == 3.0
        assert abs(out[2] - np.sqrt(2)) < 1e-2

    def test_sqrt_negative_nan(self):
        ctx = FPContext("fp32")
        assert np.isnan(ctx.sqrt(-1.0))

    def test_div_by_zero_silent(self):
        ctx = FPContext("fp32")
        out = ctx.div(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert np.isinf(out[0]) and np.isnan(out[1])

    def test_asarray_quantizes(self):
        ctx = FPContext("fp16")
        out = ctx.asarray([0.1, 0.2])
        assert np.array_equal(out, np.asarray(ctx.round(out)))

    def test_fp64_asarray_copies(self, rng):
        ctx = FPContext("fp64")
        x = rng.standard_normal(10)
        out = ctx.asarray(x)
        out[0] = 99.0
        assert x[0] != 99.0


class TestReductions:
    def test_dot_matches_reference(self, any_ctx, rng):
        x = any_ctx.asarray(rng.standard_normal(64))
        y = any_ctx.asarray(rng.standard_normal(64))
        d = any_ctx.dot(x, y)
        tol = max(float(any_ctx.fmt.eps_at_one) * 64, 1e-12)
        assert d == pytest.approx(float(x @ y), abs=tol * 10, rel=tol * 10)

    def test_dot_rounds_products(self):
        ctx = FPContext("fp16")
        # each product individually overflows fp16 → inf even though the
        # exact sum is tiny
        x = np.array([60000.0, 60000.0])
        y = np.array([2.0, -2.0])
        assert not np.isfinite(ctx.dot(x, y))

    def test_dot_empty(self, any_ctx):
        assert any_ctx.dot(np.array([]), np.array([])) == 0.0

    def test_sum_scalar_result(self, any_ctx, rng):
        out = any_ctx.sum(any_ctx.asarray(rng.standard_normal(33)))
        assert isinstance(out, float)

    def test_matvec_matches_reference(self, any_ctx, rng):
        A = any_ctx.asarray(rng.standard_normal((20, 20)))
        x = any_ctx.asarray(rng.standard_normal(20))
        got = any_ctx.matvec(A, x)
        tol = max(float(any_ctx.fmt.eps_at_one) * 200, 1e-10)
        assert np.allclose(got, A @ x, atol=tol, rtol=tol)

    def test_matvec_output_representable(self, any_ctx, rng):
        A = any_ctx.asarray(rng.standard_normal((15, 15)))
        x = any_ctx.asarray(rng.standard_normal(15))
        out = any_ctx.matvec(A, x)
        assert np.array_equal(np.asarray(any_ctx.round(out)), out)

    def test_gemm_matches_reference(self, rng):
        ctx = FPContext("posit32es2")
        A = ctx.asarray(rng.standard_normal((9, 7)))
        B = ctx.asarray(rng.standard_normal((7, 5)))
        got = ctx.gemm(A, B)
        assert got.shape == (9, 5)
        assert np.allclose(got, A @ B, rtol=1e-5, atol=1e-5)

    def test_outer(self, rng):
        ctx = FPContext("fp16")
        x = ctx.asarray(rng.standard_normal(6))
        y = ctx.asarray(rng.standard_normal(8))
        out = ctx.outer(x, y)
        assert out.shape == (6, 8)
        assert np.array_equal(out, np.asarray(ctx.round(np.outer(x, y))))

    def test_axpy(self, rng):
        ctx = FPContext("fp32")
        x = ctx.asarray(rng.standard_normal(10))
        y = ctx.asarray(rng.standard_normal(10))
        out = ctx.axpy(2.0, x, y)
        assert np.allclose(out, y + 2 * x, rtol=1e-6)

    def test_norm2(self, rng):
        ctx = FPContext("posit16es1")
        x = ctx.asarray(rng.standard_normal(30))
        assert ctx.norm2(x) == pytest.approx(
            float(np.linalg.norm(x)), rel=1e-2)

    def test_sequential_vs_pairwise_both_work(self, rng):
        for order in ("sequential", "pairwise"):
            ctx = FPContext("posit16es2", sum_order=order)
            x = ctx.asarray(rng.standard_normal(50))
            assert np.isfinite(ctx.dot(x, x))


class TestFp64FastPath:
    def test_dot_exact(self, rng):
        ctx = FPContext("fp64")
        x, y = rng.standard_normal(100), rng.standard_normal(100)
        assert ctx.dot(x, y) == float(x @ y)

    def test_matvec_exact(self, rng):
        ctx = FPContext("fp64")
        A, x = rng.standard_normal((30, 30)), rng.standard_normal(30)
        assert np.array_equal(ctx.matvec(A, x), A @ x)


class TestNaNPropagation:
    def test_nan_flows_through(self):
        ctx = FPContext("posit16es2")
        a = np.array([1.0, np.nan])
        out = ctx.add(a, a)
        assert np.isfinite(out[0]) and np.isnan(out[1])

    def test_nan_in_dot(self):
        ctx = FPContext("posit16es2")
        assert np.isnan(ctx.dot(np.array([np.nan, 1.0]),
                                np.array([1.0, 1.0])))


_MAX = 1.7976931348623157e308
#: operand pairs where Python and NumPy arithmetic could part ways
_SCALAR_OPERANDS = [
    (1.0, 3.0), (0.1, 0.2), (-2.5, 1e-3), (1e30, -7.0), (5e-324, 0.5),
    (0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 3.0), (-0.0, 3.0),
    (3.0, 0.0), (3.0, -0.0), (0.0, 0.0), (-1.0, 0.0),
    (np.inf, np.inf), (np.inf, -np.inf), (-np.inf, 2.0), (np.inf, 0.0),
    (np.nan, 1.0), (1.0, np.nan), (_MAX, _MAX), (_MAX, 10.0),
    (-_MAX, 1e-300), (1e-300, 1e300), (1e-200, 1e-200), (1e300, 1e-300),
]


class TestScalarOps:
    """Two Python floats compute in Python and round through the
    scalar tier; the result must be the bits of the 0-d NumPy path."""

    @pytest.mark.parametrize("fmt", ["posit32es2", "posit16es1",
                                     "takum32", "bf16", "fp32", "fp16"])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_python_floats_match_the_numpy_path(self, fmt, op):
        ctx = FPContext(fmt)
        fn = getattr(ctx, op)
        for a, b in _SCALAR_OPERANDS:
            for x, y in ((a, b), (b, a)):
                got = fn(x, y)
                want = fn(np.float64(x), np.float64(y))
                assert type(got) is float
                assert (np.isnan(got) and np.isnan(want)) or \
                    np.float64(got).view(np.int64) == \
                    np.float64(want).view(np.int64), (op, x, y, got, want)

    def test_python_floats_enter_no_errstate(self, monkeypatch):
        ctx = FPContext("posit32es2")
        monkeypatch.setattr(np, "errstate",
                            lambda **kw: pytest.fail("errstate entered"))
        for op in (ctx.add, ctx.sub, ctx.mul, ctx.div):
            assert op(1.0, 3.0) != 0.0

    def test_division_by_zero_keeps_the_numpy_path(self):
        ctx = FPContext("posit32es2")
        with np.errstate(all="raise"):
            assert np.isnan(ctx.div(1.0, 0.0))  # posit: x/0 is NaR
            assert np.isnan(ctx.div(0.0, 0.0))
        assert FPContext("fp32").div(-1.0, 0.0) == -np.inf

    def test_collector_totals_of_a_cg_solve(self):
        """Per-(site, format) counters of a small posit32 CG solve."""
        from repro.linalg.cg import conjugate_gradient
        from repro.telemetry import Collector

        n = 24
        A = (np.diag(np.full(n, 2.5)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) * 0.3
        b = 1.0 / np.arange(1.0, n + 1.0)
        col = Collector()
        res = conjugate_gradient(FPContext("posit32es2", collector=col),
                                 A, b)
        assert res.converged and res.iterations == 17
        got = {site: {f: c.as_dict() for f, c in by_fmt.items()}
               for site, by_fmt in col.snapshot().items()}

        def counts(total, exact):
            return {"posit32es2": {
                "total": total, "exact": exact, "inexact": total - exact,
                "nar": 0, "saturated": 0, "overflow": 0,
                "underflow_zero": 0, "minpos_clamp": 0}}
        # pinned from the array-only rounding path
        assert got == {
            "storage": counts(600, 535), "add": counts(1200, 606),
            "mul": counts(1200, 10), "div": counts(33, 0),
            "dot.mul": counts(840, 10), "dot.sum": counts(805, 196),
            "matvec.mul": counts(9792, 8805),
            "matvec.sum": counts(9384, 9228),
        }
