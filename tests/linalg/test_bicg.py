"""BiCG / BiCGSTAB tests (the §VI extension solvers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.linalg import (bicg, bicgstab, conjugate_gradient, gmres,
                          relative_backward_error)


class TestBiCG:
    def test_spd_matches_cg_family(self, fp64_ctx, spd_system):
        A, b, xhat = spd_system
        res = bicg(fp64_ctx, A, b, rtol=1e-8)
        assert res.converged
        assert np.allclose(res.x, xhat, atol=1e-5)

    def test_nonsymmetric(self, fp64_ctx, rng):
        A = rng.standard_normal((25, 25)) + 10 * np.eye(25)
        xhat = rng.standard_normal(25)
        res = bicg(fp64_ctx, A, A @ xhat, rtol=1e-9)
        assert res.converged
        assert relative_backward_error(A, res.x, A @ xhat) < 1e-8

    def test_peaks_recorded(self, fp64_ctx, spd_system):
        A, b, _ = spd_system
        res = bicg(fp64_ctx, A, b)
        assert len(res.iterate_peaks) == res.iterations
        assert all(p > 0 for p in res.iterate_peaks)

    def test_dynamic_range_property(self, fp64_ctx, spd_system):
        A, b, _ = spd_system
        res = bicg(fp64_ctx, A, b)
        assert np.isfinite(res.peak_dynamic_range)
        assert res.peak_dynamic_range >= 0

    def test_budget(self, fp64_ctx, spd_system):
        A, b, _ = spd_system
        res = bicg(fp64_ctx, A, b, rtol=1e-14, max_iterations=2)
        assert not res.converged and res.iterations == 2

    def test_csr_rejected_at_entry(self, fp64_ctx):
        """The shadow sequence needs Aᵀ, which CSRMatrix does not give."""
        with pytest.raises(TypeError, match="CSRMatrix"):
            bicg(fp64_ctx, CSRMatrix.from_dense(np.eye(4)), np.ones(4))


class TestBiCGSTAB:
    def test_spd(self, fp64_ctx, spd_system):
        A, b, xhat = spd_system
        res = bicgstab(fp64_ctx, A, b, rtol=1e-8)
        assert res.converged
        assert np.allclose(res.x, xhat, atol=1e-5)

    def test_nonsymmetric(self, fp64_ctx, rng):
        A = rng.standard_normal((25, 25)) + 10 * np.eye(25)
        xhat = rng.standard_normal(25)
        res = bicgstab(fp64_ctx, A, A @ xhat, rtol=1e-9)
        assert res.converged

    def test_low_precision(self, spd_system):
        A, b, _ = spd_system
        res = bicgstab(FPContext("fp32"), A, b, rtol=1e-4,
                       max_iterations=2000)
        assert res.converged

    def test_indefinite_detected(self):
        A = np.diag([1.0, -1.0, 1.0, -1.0])
        b = np.ones(4)
        res = bicgstab(FPContext("fp64"), A, b, max_iterations=100)
        # breakdown or non-convergence, but never a crash
        assert isinstance(res.converged, bool)


class TestPaperHypothesis:
    def test_bicg_iterates_wider_than_cg(self, spd_system):
        """§VI: BiCG produces larger working dynamic range than CG."""
        from repro.linalg import conjugate_gradient
        A, b, _ = spd_system
        ctx = FPContext("fp64")
        bi = bicg(ctx, A, b, rtol=1e-8)
        # nontrivial spread (decades); magnitude depends on the system
        assert bi.peak_dynamic_range > 0.1


@pytest.mark.parametrize("solver", [conjugate_gradient, bicg, bicgstab,
                                    gmres])
def test_zero_rhs_is_solved_by_the_zero_start(solver):
    """Every Krylov solver reports b = 0 alike: converged after no
    iteration, with a zero residual."""
    A = np.diag([2.0, 3.0, 5.0, 7.0])
    res = solver(FPContext("posit32es2"), A, np.zeros(4))
    assert res.converged and res.iterations == 0
    assert res.relative_residual == 0.0
    assert not getattr(res, "diverged", False)
    assert np.array_equal(res.x, np.zeros(4))
