"""Differential harness: the blocked GEMM kernel vs whole-cube reference.

``blocked_gemm`` is a *throughput* kernel only — every produced value
must be bit-identical to the whole-cube product (one cube, one
quantize, one fold, kept here as the test-local reference), and (for
the formats the rational oracle can afford) to :mod:`repro.oracle`'s
correctly rounded schedule references.  Any divergence here is a real
conformance bug, not schedule ambiguity: the oracle folds partial sums
in exactly the order :class:`repro.FPContext` promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith.context import FPContext
from repro.kernels import gemm as gemm_kernels
from repro.oracle import format_contract, ref_dot
from repro.telemetry.collector import Collector

FORMATS = ("posit8es0", "posit16es1", "posit32es2", "bf16", "fp32")
ORDERS = ("pairwise", "sequential")


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_bit_identical(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    g, w = _bits(got), _bits(want)
    both_nan = np.isnan(got) & np.isnan(want)
    bad = (g != w) & ~both_nan
    assert not bad.any(), (
        f"{bad.sum()} divergences, first at flat index "
        f"{np.flatnonzero(bad.ravel())[0]}")


def _operands(rng, m, k, n, fmt):
    ctx = FPContext(fmt)
    A = np.asarray(ctx.asarray(rng.standard_normal((m, k)) *
                               10.0 ** rng.integers(-3, 4, (m, k))))
    B = np.asarray(ctx.asarray(rng.standard_normal((k, n))))
    return A, B


def _monolithic_gemm(ctx, A, B):
    """The pre-blocking reference: one cube, one quantize, one fold."""
    from repro.arith.summation import rounded_sum_last_axis
    with np.errstate(invalid="ignore", over="ignore"):
        terms = A[:, :, np.newaxis] * B[np.newaxis, :, :]
    terms = ctx._quantize("gemm.mul", terms)
    return rounded_sum_last_axis(np.moveaxis(terms, 1, -1),
                                 ctx._rnd_for("gemm.sum"), ctx.sum_order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fmt", FORMATS)
class TestBlockedGemm:
    def test_matches_monolithic_cube(self, fmt, order):
        rng = np.random.default_rng(7)
        ctx = FPContext(fmt, sum_order=order)
        for m, k, n in ((1, 1, 1), (3, 5, 2), (17, 9, 13), (24, 24, 24)):
            A, B = _operands(rng, m, k, n, fmt)
            _assert_bit_identical(ctx.gemm(A, B),
                                  _monolithic_gemm(ctx, A, B))

    def test_every_budget_blocks_identically(self, fmt, order):
        """Panel geometry must never leak into the values."""
        rng = np.random.default_rng(11)
        ctx = FPContext(fmt, sum_order=order)
        A, B = _operands(rng, 13, 7, 11, fmt)
        want = _monolithic_gemm(ctx, A, B)
        quantize_mul = lambda cube: ctx._quantize("gemm.mul", cube)
        rnd = ctx._rnd_for("gemm.sum")
        for budget in (7, 64, 333, 1 << 20):  # row-slivers .. one panel
            got = gemm_kernels.blocked_gemm(A, B, quantize_mul, rnd,
                                            order, budget=budget)
            _assert_bit_identical(got, want)


class TestCollectorParity:
    """Telemetry must not notice the panelling: same per-site element
    totals whether the cube is panelled or built whole."""

    def _counts(self, collector):
        return {site: {name: c.total for name, c in fmts.items()}
                for site, fmts in collector.snapshot().items()}

    def test_blocked_counts_like_monolithic(self):
        rng = np.random.default_rng(23)
        # a 40³ cube exceeds one panel's budget, so it really is tiled
        pairs = [_operands(rng, *s, "posit16es1")
                 for s in ((6, 5, 4), (40, 40, 40), (1, 7, 3))]

        whole = Collector()
        ctx = FPContext("posit16es1", collector=whole)
        for A, B in pairs:
            _monolithic_gemm(ctx, A, B)

        blocked = Collector()
        ctx = FPContext("posit16es1", collector=blocked)
        for A, B in pairs:
            ctx.gemm(A, B)

        assert self._counts(whole) == self._counts(blocked)


def _assert_same_value(got, want):
    """Oracle comparison: NaN==NaN, ±0 equal (oracle's value contract —
    the rational layer does not define zero signs)."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    ok = (got == want) | (np.isnan(got) & np.isnan(want))
    assert ok.all(), (
        f"{(~ok).sum()} divergences, first at flat index "
        f"{np.flatnonzero(~ok.ravel())[0]}")


class TestOracleConformance:
    """Every new path against the correctly rounded rational oracle."""

    #: formats cheap enough for the scalar oracle, plus the carrier-
    #: contract wide posit the two-level table was built for
    ORACLE_FORMATS = ("posit8es0", "posit16es1", "bf16", "fp8e4m3",
                      "posit32es2")

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("fmt", ORACLE_FORMATS)
    def test_gemm_matches_oracle_schedule(self, fmt, order):
        rng = np.random.default_rng(31)
        contract = format_contract(fmt)
        ctx = FPContext(fmt, sum_order=order)
        A, B = _operands(rng, 3, 5, 2, fmt)
        got = ctx.gemm(A, B)
        want = np.array(
            [[ref_dot(fmt, A[i], B[:, j], order=order, contract=contract)
              for j in range(B.shape[1])] for i in range(A.shape[0])])
        _assert_same_value(got, want)

