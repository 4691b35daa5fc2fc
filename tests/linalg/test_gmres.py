"""GMRES tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.linalg import (conjugate_gradient, gmres, gmres_lanes,
                          relative_backward_error)
from repro.linalg import norms
from repro.matrices import random_dense_spd


class TestFinishCost:
    """GMRES reports no true residual, so its finish pays no float64
    ``b − A·x``: one such matvec fewer per solve than a CG solve."""

    @pytest.fixture
    def float64_matvecs(self, monkeypatch):
        calls = []
        apply64 = norms._apply64

        def counted(A, x):
            calls.append(1)
            return apply64(A, x)
        monkeypatch.setattr(norms, "_apply64", counted)
        return calls

    def test_one_fewer_float64_matvec_per_solve(self, float64_matvecs):
        ctx = FPContext("posit32es2")
        A = random_dense_spd(12, kappa=50.0, seed=3)
        b = np.linspace(-1.0, 1.0, 12)
        conjugate_gradient(ctx, A, b)
        per_cg = len(float64_matvecs)
        assert per_cg == 1
        del float64_matvecs[:]
        gmres(ctx, A, b)
        assert len(float64_matvecs) == per_cg - 1
        systems = [(CSRMatrix.from_dense(random_dense_spd(
            n, kappa=50.0, seed=n)), np.ones(n)) for n in (5, 9, 12)]
        assert len(gmres_lanes(ctx, systems)) == 3
        assert len(float64_matvecs) == 0


class TestBasicSolves:
    def test_identity(self, fp64_ctx):
        b = np.arange(1.0, 7.0)
        res = gmres(fp64_ctx, np.eye(6), b)
        assert res.converged
        assert np.allclose(res.x, b, atol=1e-10)

    def test_nonsymmetric(self, fp64_ctx, rng):
        A = rng.standard_normal((30, 30)) + 8 * np.eye(30)
        xhat = rng.standard_normal(30)
        res = gmres(fp64_ctx, A, A @ xhat, rtol=1e-10)
        assert res.converged
        assert np.allclose(res.x, xhat, atol=1e-7)

    def test_spd(self, fp64_ctx, spd_system):
        A, b, xhat = spd_system
        res = gmres(fp64_ctx, A, b, rtol=1e-10, max_iterations=400)
        assert res.converged
        assert np.allclose(res.x, xhat, atol=1e-6)

    def test_zero_rhs(self, fp64_ctx):
        res = gmres(fp64_ctx, np.eye(4), np.zeros(4))
        assert res.converged and res.iterations == 0

    def test_restart_smaller_than_needed(self, fp64_ctx, rng):
        A = rng.standard_normal((40, 40)) + 10 * np.eye(40)
        b = rng.standard_normal(40)
        res = gmres(fp64_ctx, A, b, rtol=1e-8, restart=5,
                    max_iterations=800)
        assert res.converged

    @pytest.mark.parametrize("A, b", [
        (np.zeros((5, 5)), np.ones(5)),
        (np.diag([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))],
        ids=["zero-matrix", "b-in-null-space"])
    def test_breakdown_returns_unconverged(self, fp64_ctx, A, b):
        """A first Arnoldi column with nothing to rotate ends the solve
        with the zero iterate instead of a singular triangle solve."""
        res = gmres(fp64_ctx, A, b)
        assert not res.converged
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(len(b)))
        assert res.relative_residual == 1.0

    def test_budget_exhaustion(self, fp64_ctx, spd_system):
        A, b, _ = spd_system
        res = gmres(fp64_ctx, A, b, rtol=1e-14, max_iterations=3)
        assert not res.converged
        assert res.iterations <= 3


class TestLowPrecision:
    @pytest.mark.parametrize("fmt", ["fp32", "posit32es2"])
    def test_converges_to_format_level(self, fmt, rng):
        A = rng.standard_normal((25, 25)) + 8 * np.eye(25)
        b = rng.standard_normal(25)
        res = gmres(FPContext(fmt), A, b, rtol=1e-4, max_iterations=300)
        assert res.converged
        assert relative_backward_error(A, res.x, b) < 1e-3

