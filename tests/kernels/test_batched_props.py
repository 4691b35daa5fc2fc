"""Property tests: ``FPContext.gemm`` folds each output lane as ``dot``.

Hypothesis drives the blocked GEMM against per-lane rounded dots across
every registered paper format and the directed IEEE rounding modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.context import FPContext
from repro.formats.rounding_modes import DirectedIEEEFormat
from tests.strategies import ALL_FORMAT_NAMES

#: every registered paper format plus the three directed IEEE modes
FORMATS = tuple(ALL_FORMAT_NAMES) + tuple(
    DirectedIEEEFormat(11, 5, mode)
    for mode in ("toward_zero", "down", "up"))

_ids = [f if isinstance(f, str) else f.name for f in FORMATS]


def _assert_same(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    g = np.ascontiguousarray(got).view(np.int64)
    w = np.ascontiguousarray(want).view(np.int64)
    both_nan = np.isnan(got) & np.isnan(want)
    assert ((g == w) | both_nan).all()


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
class TestGemmManyProps:
    """GEMM properties across the format zoo."""

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_gemm_matches_dot_rows(self, fmt, seed):
        """gemm's fold per output lane is exactly the dot fold."""
        ctx = FPContext(fmt)
        if ctx.is_exact:
            # the exact context delegates gemm to BLAS (no schedule
            # promise); only rounded contexts pin the fold order
            return
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 5))
        B = rng.standard_normal((5, 2))
        got = ctx.gemm(A, B)
        want = np.array([[ctx.dot(A[i], B[:, j]) for j in range(2)]
                         for i in range(3)])
        _assert_same(got, want)
