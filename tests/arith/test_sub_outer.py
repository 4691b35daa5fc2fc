"""``FPContext.outer`` / ``sub_outer`` against the full-rounding composition.

Both round only the block of entries with two nonzero factors (see
``repro.arith.context._nonzero_block``).  Every test here compares
against rounding the whole array, bit for bit: the int64 views must
match, NaN matched by class.  Collector counters must match too,
because a collector is handed the full ``(exact, rounded)`` arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import FPContext
from repro.config import SCALES
from repro.formats import get_format
from repro.formats.rounding_modes import StochasticRounding
from repro.kernels import lut
from repro.linalg.cholesky import cholesky_factor, cholesky_solve
from repro.matrices.suite import load_matrix, right_hand_side
from repro.telemetry import Collector

_FORMATS = ("fp16", "fp32", "bf16", "posit16es1", "posit32es2", "takum16")
_ZERO_SHARES = (0.0, 0.3, 0.6, 0.8, 0.95)


def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64),
                                  want[~nan].view(np.int64))


def _factor(rng, n: int, zero_share: float, scale: float) -> np.ndarray:
    """A vector with ``zero_share`` of ±0 entries and a few ±inf/NaN."""
    x = rng.standard_normal(n) * scale
    zeros = rng.random(n) < zero_share
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    special = rng.random(n) < 0.05
    x[special] = rng.choice([np.inf, -np.inf, np.nan], special.sum())
    return x


def _matrix(fmt, rng, shape, scale: float = 1.0) -> np.ndarray:
    """Format values with ±0 and NaN entries (``sub_outer``'s
    precondition: the working matrix holds format values)."""
    W = np.asarray(fmt.round(rng.standard_normal(shape) * scale))
    W[rng.random(shape) < 0.2] = 0.0
    W[rng.random(shape) < 0.2] = -0.0
    W[rng.random(shape) < 0.02] = np.nan
    return W


def _reference(fmt, W, u, v, col):
    """Round the whole product and the whole difference."""
    with np.errstate(invalid="ignore", over="ignore"):
        exact = np.multiply.outer(u, v)
        product = np.asarray(fmt.round(exact))
        col.record("outer", exact, product, fmt)
        diff = W - product
        out = np.asarray(fmt.round(diff))
        col.record("sub", diff, out, fmt)
    return product, out


def _counts(col: Collector) -> dict:
    return {site: {f: c.as_dict() for f, c in by_fmt.items()}
            for site, by_fmt in col.snapshot().items()}


def _cases(fmt_name: str, seed: int):
    """(W, u, v) triples over the zero shares; fp16 also gets factors
    small enough that their products underflow to ±0."""
    rng = np.random.default_rng(seed)
    scales = (1.0, 3e-4) if fmt_name == "fp16" else (1.0,)
    for scale in scales:
        for share in _ZERO_SHARES:
            m, n = rng.integers(1, 40, size=2)
            u = _factor(rng, m, share, scale)
            v = _factor(rng, n, share, scale)
            yield _matrix(get_format(fmt_name), rng, (m, n), scale), u, v


@pytest.mark.parametrize("tables", [True, False], ids=["lut", "nolut"])
@pytest.mark.parametrize("fmt_name", _FORMATS)
def test_matches_full_rounding(fmt_name, tables, monkeypatch):
    monkeypatch.setattr(lut, "_ENABLED", tables)
    fmt = get_format(fmt_name)
    for W, u, v in _cases(fmt_name, seed=len(fmt_name)):
        ref_col, outer_col, col = Collector(), Collector(), Collector()
        want_p, want_d = _reference(fmt, W, u, v, ref_col)
        want_counts = _counts(ref_col)
        _assert_same_bits(FPContext(fmt, collector=outer_col).outer(u, v),
                          want_p)
        assert _counts(outer_col) == {"outer": want_counts["outer"]}
        _assert_same_bits(FPContext(fmt, collector=col).sub_outer(W, u, v),
                          want_d)
        assert _counts(col) == want_counts
        # uninstrumented, the block is rounded in place: same bits
        plain = FPContext(fmt)
        _assert_same_bits(plain.outer(u, v), want_p)
        _assert_same_bits(plain.sub_outer(W, u, v), want_d)


def test_stochastic_rounding_draws_the_same_numbers():
    """Only block entries are inexact and the block keeps row-major
    order, so a seeded stochastic rounder makes the same draws."""
    rng = np.random.default_rng(5)
    base = get_format("fp16")
    for share in _ZERO_SHARES:
        u, v = (rng.standard_normal(30) for _ in range(2))
        u[rng.random(30) < share] = 0.0
        v[rng.random(30) < share] = -0.0
        W = _matrix(base, rng, (30, 30))
        full, block = (StochasticRounding(base, seed=9) for _ in range(2))
        _, want = _reference(full, W, u, v, Collector())
        _assert_same_bits(FPContext(block).sub_outer(W, u, v), want)
        assert (block._rng.bit_generator.state
                == full._rng.bit_generator.state)


def test_exact_context_and_matrix_operands():
    rng = np.random.default_rng(2)
    W, u, v = rng.standard_normal((5, 4)), rng.standard_normal(5), \
        rng.standard_normal(4)
    exact = FPContext("fp64")
    _assert_same_bits(exact.sub_outer(W, u, v), W - np.outer(u, v))
    # a matrix operand: the block is indexed by flat position
    fmt = get_format("posit16es1")
    x = np.array([[0.0, 1.5], [-0.0, 3.25]])
    v[1] = 0.0
    _assert_same_bits(FPContext(fmt).outer(x, v),
                      fmt.round(np.multiply.outer(x, v)))


def test_collector_totals_of_a_cholesky_solve():
    """Per-(site, format) counters of a posit32 Cholesky solve of the
    small-scale nos1, pinned from the whole-array rounding path."""
    A = load_matrix("nos1", SCALES["small"])
    col = Collector()
    res = cholesky_solve(FPContext("posit32es2", collector=col), A,
                         right_hand_side(A))
    assert res.relative_backward_error == 5.985449926862678e-07

    def counts(total, exact):
        return {"posit32es2": {
            "total": total, "exact": exact, "inexact": total - exact,
            "nar": 0, "saturated": 0, "overflow": 0,
            "underflow_zero": 0, "minpos_clamp": 0}}
    assert _counts(col) == {
        "storage": counts(9312, 8820), "sqrt": counts(96, 0),
        "div": counts(4752, 4338), "mul": counts(9120, 8676),
        "outer": counts(290320, 289100), "sub": counts(299440, 298518),
    }


def test_rounded_elements_of_a_sparse_factorization(monkeypatch):
    """Ratchet: a posit32 Cholesky of the medium-scale nos1 (n = 237,
    ~0.1 % of trailing-update entries nonzero) sends at most 5 % of
    the whole-array count Σₖ 2(n−k−1)² through ``round``."""
    fmt = get_format("posit32es2")
    A = load_matrix("nos1", SCALES["medium"])
    n = A.shape[0]
    rounded = [0]
    inner = fmt.round

    def counting(x):
        rounded[0] += np.size(x)
        return inner(x)
    monkeypatch.setattr(fmt, "round", counting)
    cholesky_factor(FPContext(fmt), A)
    whole = sum(2 * (n - k - 1) ** 2 for k in range(n))
    assert rounded[0] <= 0.05 * whole, (rounded[0], whole)
