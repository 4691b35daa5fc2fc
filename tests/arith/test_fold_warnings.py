"""Reductions over ±inf and NaN raise no RuntimeWarning.

NaN is a legitimate mid-computation value (posit NaR carriers, IEEE
overflow), so the rounded ops silence NumPy's floating-point warnings.
A fold that reaches ``inf + (−inf)`` used to warn "invalid value
encountered in add".  These tests turn every warning into an error
themselves, since the project's pytest configuration filters these
warnings out.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.kernels import zeroplan

_FORMATS = ("fp32", "posit32es2")
#: the CSR matvec's route in each summation order: the sequential fold
#: runs on the padded view, the pairwise one on the segmented fold
_CSR_ORDERS = {"padded": "sequential", "segmented": "pairwise"}
_VECTORS = (
    np.array([np.inf, -np.inf, 1.0, 2.0]),
    np.array([1.0, np.nan, -np.inf, np.inf]),
    np.array([np.inf, 3.0, np.inf, -np.inf, 5.0]),
)


def _matrices(n: int):
    dense = np.ones((n, n))
    sparse = dense.copy()
    sparse[-1, 1:] = 0.0  # ragged rows: the padded view has padding
    return dense, sparse


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("order", ["pairwise", "sequential"])
def test_dense_matvec(fmt, order):
    ctx = FPContext(fmt, sum_order=order)
    for x in _VECTORS:
        for A in _matrices(x.size):
            ctx.matvec(A, x)
            ctx.matvec(zeroplan.freeze(A.copy()), x)


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("route", sorted(_CSR_ORDERS))
def test_csr_matvec(fmt, route):
    ctx = FPContext(fmt, sum_order=_CSR_ORDERS[route])
    for x in _VECTORS:
        for A in _matrices(x.size):
            ctx.matvec(ctx.asarray(CSRMatrix.from_dense(A)), x)


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("order", ["pairwise", "sequential"])
def test_dot_and_sum(fmt, order):
    ctx = FPContext(fmt, sum_order=order)
    for x in _VECTORS:
        ctx.dot(x, np.ones(x.size))
        ctx.dot(x, x[::-1])
        ctx.sum(x)
