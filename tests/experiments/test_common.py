"""Experiment-harness plumbing tests: caching, records, error types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SCALES
from repro.errors import (ConvergenceError, FactorizationError,
                          NaRError, PositError, ReproError,
                          UnknownFormatError)
from repro.experiments.common import (ExperimentResult, clear_cache,
                                      run_cg_suite, suite_systems)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (PositError, NaRError, FactorizationError,
                    ConvergenceError, UnknownFormatError):
            assert issubclass(exc, ReproError)

    def test_unknown_format_is_keyerror(self):
        assert issubclass(UnknownFormatError, KeyError)

    def test_factorization_error_metadata(self):
        e = FactorizationError("boom", pivot_index=7)
        assert e.pivot_index == 7
        assert e.stage == "factorization"

    def test_convergence_error_metadata(self):
        e = ConvergenceError("slow", iterations=100, residual=0.5)
        assert e.iterations == 100
        assert e.residual == 0.5


class TestSuiteSystemsCache:
    def test_same_object_returned(self):
        scale = SCALES["small"]
        a = suite_systems(scale)
        b = suite_systems(scale)
        assert a is b

    def test_rhs_matches_recipe(self):
        scale = SCALES["small"]
        for _spec, A, b in suite_systems(scale):
            n = A.shape[0]
            assert np.array_equal(b, A @ np.full(n, 1 / np.sqrt(n)))

    def test_clear_cache(self):
        scale = SCALES["small"]
        a = suite_systems(scale)
        clear_cache()
        b = suite_systems(scale)
        assert a is not b


class TestCgSuiteCache:
    def test_cache_key_includes_options(self):
        scale = SCALES["small"]
        a = run_cg_suite(scale, formats=("fp64",))
        b = run_cg_suite(scale, formats=("fp64",))
        c = run_cg_suite(scale, formats=("fp64",), rescaled=True)
        assert a is b
        assert a is not c

    def test_sparse_default_follows_scale(self):
        # explicit sparse flags create distinct cache entries
        scale = SCALES["small"]
        dense = run_cg_suite(scale, formats=("fp64",), sparse=False)
        sparse = run_cg_suite(scale, formats=("fp64",), sparse=True)
        assert dense is not sparse
        # both paths converge everywhere; iteration counts only compare
        # meaningfully on well-conditioned rows (einsum vs BLAS orders
        # perturb the last bit, and CG on κ ≥ 1e9 rows amplifies that)
        for name in dense:
            assert dense[name]["fp64"].converged
            assert sparse[name]["fp64"].converged
        well = "bcsstk02"  # κ ≈ 4e3
        assert abs(dense[well]["fp64"].iterations
                   - sparse[well]["fp64"].iterations) <= 10


class TestExperimentResult:
    def test_fields(self):
        r = ExperimentResult("t", "Title", "body", None, {"k": 1})
        assert r.experiment_id == "t"
        assert r.data["k"] == 1
        assert r.csv_path is None

    def test_show_prints(self, capsys):
        ExperimentResult("t", "Title", "hello-world", None).show()
        assert "hello-world" in capsys.readouterr().out


class TestGridSolver:
    """Both cell routes resolve a grid cell's solver from one table."""

    @pytest.mark.parametrize("route", ["compute_cell", "compute_lanes"])
    def test_unknown_grid_solver_is_refused(self, route):
        from repro.experiments import common
        cell = common.Cell("grid", "bcsstk02", "fp32",
                           (("rtol", 1e-5), ("solver", "jacobi")))
        scale = SCALES["smoke"]
        with pytest.raises(ValueError, match="unknown grid solver 'jacobi'"):
            if route == "compute_cell":
                common.compute_cell(cell, scale)
            else:
                common.compute_lanes([cell, cell], scale)
