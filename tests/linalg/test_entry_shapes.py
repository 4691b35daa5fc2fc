"""Mismatched shapes and bad budgets fail at entry with a ValueError
naming the shapes or the parameter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.linalg import (bicg, bicgstab, cholesky_factor, cholesky_solve,
                          conjugate_gradient, conjugate_gradient_lanes,
                          gmres, lu_factor)

_CTX = FPContext("posit32es2")
_EYE, _B3, _B4 = np.eye(3), np.ones(3), np.ones(4)


@pytest.mark.parametrize("call,shapes", [
    (lambda: cholesky_factor(_CTX, np.float64(4.0)), ["()"]),
    (lambda: cholesky_factor(_CTX, np.ones((2, 3))), ["(2, 3)"]),
    (lambda: lu_factor(_CTX, np.ones(3)), ["(3,)"]),
    (lambda: conjugate_gradient(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: conjugate_gradient(_CTX, np.ones((3, 4)), _B4), ["(3, 4)"]),
    (lambda: cholesky_solve(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: bicg(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: bicgstab(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: gmres(_CTX, _EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(_EYE, _B4), ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(CSRMatrix.from_dense(_EYE), _B4),
     ["(3, 3)", "(4,)"]),
    (lambda: _CTX.matvec(_EYE, np.ones((3, 1))), ["(3, 3)", "(3, 1)"]),
    (lambda: _CTX.matvec(np.ones((2, 3, 3)), np.ones((3, 3))),
     ["(2, 3, 3)", "(3, 3)"]),
    (lambda: _CTX.matvec(np.ones((2, 3, 3)), np.ones(3)),
     ["(2, 3, 3)", "(3,)"]),
    (lambda: FPContext("fp64").matvec(np.ones((2, 3, 3)), np.ones((2, 4))),
     ["(2, 3, 3)", "(2, 4)"]),
    (lambda: _CTX.matvec(CSRMatrix.from_dense(_EYE), np.ones((2, 3))),
     ["(3, 3)", "(2, 3)"]),
    (lambda: _CTX.dot(np.ones(3), _B4), ["(3,)", "(4,)"]),
    (lambda: _CTX.dot(np.ones((2, 3)), np.ones((3, 2))),
     ["(2, 3)", "(3, 2)"]),
    (lambda: FPContext("fp64").dot(np.ones((2, 3)), np.ones(3)),
     ["(2, 3)", "(3,)"]),
    (lambda: _CTX.dot(np.ones((2, 2, 2)), np.ones((2, 2, 2))),
     ["(2, 2, 2)"]),
    (lambda: _CTX.dot(np.float64(1.0), np.float64(2.0)), ["()"]),
    (lambda: conjugate_gradient_lanes(_CTX, [(_EYE, _B4)]),
     ["(3, 3)", "(4,)"]),
    (lambda: FPContext("posit16es1").gemm(np.ones(4), np.ones((4, 2))),
     ["(4,)", "(4, 2)"]),
    (lambda: FPContext("fp64").gemm(np.ones(4), np.ones((4, 2))),
     ["(4,)", "(4, 2)"]),
    (lambda: _CTX.gemm(np.ones((3, 4)), np.ones((5, 2))),
     ["(3, 4)", "(5, 2)"]),
    # bad budgets name the parameter
    (lambda: conjugate_gradient(_CTX, _EYE, _B3, max_iterations=-1),
     ["max_iterations"]),
    (lambda: conjugate_gradient(_CTX, _EYE, _B3, rtol=-1e-5), ["rtol"]),
    (lambda: conjugate_gradient_lanes(_CTX, [(_EYE, _B3)] * 2,
                                      max_iterations=-1),
     ["max_iterations"]),
    (lambda: bicg(_CTX, _EYE, _B3, max_iterations=-1), ["max_iterations"]),
    (lambda: bicg(_CTX, _EYE, _B3, rtol=-1e-5), ["rtol"]),
    (lambda: bicgstab(_CTX, _EYE, _B3, max_iterations=-1),
     ["max_iterations"]),
    (lambda: bicgstab(_CTX, _EYE, _B3, rtol=-1e-5), ["rtol"]),
    (lambda: gmres(_CTX, _EYE, _B3, max_iterations=-1), ["max_iterations"]),
    (lambda: gmres(_CTX, _EYE, _B3, rtol=-1e-5), ["rtol"]),
    (lambda: gmres(_CTX, _EYE, _B3, restart=0), ["restart"]),
], ids=["chol-0d", "chol-rect", "lu-1d", "cg-b", "cg-rect", "cholsolve-b",
        "bicg-b", "bicgstab-b", "gmres-b", "matvec", "matvec-csr",
        "matvec-2d-x", "matvec-lanes-B", "matvec-lanes-1d-x",
        "matvec-lanes-exact-n", "matvec-csr-lanes", "dot", "dot-lanes",
        "dot-lanes-exact", "dot-3d", "dot-0d", "cg-lanes-b",
        "gemm-1d-A", "gemm-1d-A-exact", "gemm-inner",
        "cg-budget", "cg-rtol", "cg-lanes-budget", "bicg-budget",
        "bicg-rtol", "bicgstab-budget", "bicgstab-rtol", "gmres-budget",
        "gmres-rtol", "gmres-restart"])
def test_shape_errors_name_the_shapes(call, shapes):
    with pytest.raises(ValueError) as info:
        call()
    for shape in shapes:
        assert shape in str(info.value)


def test_zero_budget_is_allowed():
    """The budget check stops at negatives: 0 runs no iteration."""
    res = gmres(_CTX, np.diag([2.0, 3.0, 5.0]), _B3, max_iterations=0)
    assert not res.converged and res.iterations == 0
    res = conjugate_gradient(_CTX, np.diag([2.0, 3.0, 5.0]), _B3,
                             max_iterations=0)
    assert not res.converged and res.iterations == 0
