"""Mismatched shapes fail at entry with a ValueError naming the shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.linalg import (bicgstab, cholesky_factor, cholesky_solve,
                          conjugate_gradient, gmres, lu_factor)

_CTX = FPContext("posit32es2")
_EYE, _B4 = np.eye(3), np.ones(4)


@pytest.mark.parametrize("call,shapes", [
    (lambda: cholesky_factor(_CTX, np.float64(4.0)), ["()"]),
    (lambda: cholesky_factor(_CTX, np.ones((2, 3))), ["(2, 3)"]),
    (lambda: lu_factor(_CTX, np.ones(3)), ["(3,)"]),
    (lambda: conjugate_gradient(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: conjugate_gradient(_CTX, np.ones((3, 4)), _B4), ["(3, 4)"]),
    (lambda: cholesky_solve(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: bicgstab(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: gmres(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(_EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(CSRMatrix.from_dense(_EYE), _B4),
     ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(_EYE, np.ones((3, 1))), ["(3, 3)", "(3, 1)"]),
    (lambda: FPContext("posit16es1").gemm(np.ones(4), np.ones((4, 2))),
     ["(4,)", "(4, 2)"]),
    (lambda: FPContext("fp64").gemm(np.ones(4), np.ones((4, 2))),
     ["(4,)", "(4, 2)"]),
    (lambda: _CTX.gemm(np.ones((3, 4)), np.ones((5, 2))),
     ["(3, 4)", "(5, 2)"]),
], ids=["chol-0d", "chol-rect", "lu-1d", "cg-b", "cg-rect", "cholsolve-b",
        "bicgstab-b", "gmres-b", "matvec", "matvec-csr", "matvec-2d-x",
        "gemm-1d-A", "gemm-1d-A-exact", "gemm-inner"])
def test_shape_errors_name_the_shapes(call, shapes):
    with pytest.raises(ValueError) as info:
        call()
    for shape in shapes:
        assert shape in str(info.value)
