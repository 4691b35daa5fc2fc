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


class TestLaneKeys:
    """CG cells, dense or CSR, and X13 grid cells of table formats
    group by solver, storage width and table step, never by order; the
    formats that round otherwise keep their per-format keys."""

    NAMES = ("bcsstk02", "bcsstk22", "lund_b", "nos5")

    def _sparse_full_cells(self):
        from repro.experiments import common
        scale = SCALES["full"]
        return (common.cg_cells(scale, names=self.NAMES)
                + common.grid_cells(scale, solvers=("cg",),
                                    names=self.NAMES))

    def test_sparse_full_forms_five_groups(self):
        from repro.experiments import common
        scale = SCALES["full"]
        groups: dict = {}
        for cell in self._sparse_full_cells():
            groups.setdefault(common.lane_key(cell, scale), []).append(
                cell.fmt)
        assert {key: sorted(set(fmts)) for key, fmts in groups.items()} \
            == {("cg-csr", "fp64", 1e-5): ["fp64"],
                ("cg-csr", "fp32", 1e-5): ["fp32"],
                ("cg-csr", "fp16", 1e-5): ["fp16"],
                ("cg-csr", 16, "rint", 1e-5): ["bf16", "posit16es2",
                                               "takum16"],
                ("cg-csr", 32, "rint", 1e-5): ["posit32es2", "posit32es3",
                                               "takum32"]}
        assert sorted(len(g) for g in groups.values()) == [4, 4, 8, 12, 16]

    def test_dense_bicgstab_and_gmres_keys_stay_per_format(self):
        """Dense CG keys of fp64 and of the formats that round by a
        dtype cast name the format, and so do their BiCGSTAB and GMRES
        keys."""
        from repro.experiments import common
        scale = SCALES["small"]
        for fmt in ("fp64", "fp32", "fp16"):
            [dense] = common.cg_cells(scale, formats=(fmt,),
                                      names=("nos1",))
            assert common.lane_key(dense, scale) == (
                "cg", fmt, (("rtol", 1e-5), ("sparse", False)))
        for solver in ("bicgstab", "gmres"):
            for fmt in ("fp16", "fp32"):
                [cell] = common.grid_cells(scale, solvers=(solver,),
                                           formats=(fmt,),
                                           names=("nos1",))
                assert common.lane_key(cell, scale) == (f"{solver}-csr",
                                                        fmt, 1e-5)

    def test_cg_small_forms_three_ragged_groups(self):
        """The cg_small grid (orders 48, 66 and 96, plain and rescaled):
        fp64, fp32, and one group of both 32-bit posits, whose key holds
        the width and step but no order."""
        from repro.experiments import common
        scale = SCALES["small"]
        names = ("bcsstk01", "bcsstk02", "494_bus", "nos1", "nos2")
        cells = (common.cg_cells(scale, names=names)
                 + common.cg_cells(scale, names=names, rescaled=True))
        groups: dict = {}
        for cell in cells:
            groups.setdefault(common.lane_key(cell, scale), set()).add(
                cell.fmt)
        options = (("rtol", 1e-5), ("sparse", False))
        assert groups == {("cg", "fp64", options): {"fp64"},
                          ("cg", "fp32", options): {"fp32"},
                          ("cg", 32, "rint", options): {"posit32es2",
                                                        "posit32es3"}}

    def test_dense_cells_the_suite_cannot_build_run_alone(self, monkeypatch):
        from repro.experiments import common

        def broken(scale, names=None):
            raise RuntimeError("no such system")
        monkeypatch.setattr(common, "suite_systems", broken)
        scale = SCALES["small"]
        [dense] = common.cg_cells(scale, formats=("posit32es2",),
                                  names=("nos1",))
        assert common.lane_key(dense, scale) is None

    def test_smoke_bicgstab_and_gmres_form_eight_groups(self):
        """The smoke X13 grid's BiCGSTAB and GMRES cells: per solver,
        fp16, fp32 and one group per storage width of the table
        formats."""
        from repro.experiments import common
        from repro.experiments.ext_solver_grid import DEFAULT_MATRICES
        scale = SCALES["smoke"]
        groups: dict = {}
        for cell in common.grid_cells(scale, solvers=("bicgstab", "gmres"),
                                      names=DEFAULT_MATRICES):
            groups.setdefault(common.lane_key(cell, scale), set()).add(
                cell.fmt)
        expected = {}
        for solver in ("bicgstab-csr", "gmres-csr"):
            expected.update({
                (solver, "fp16", 1e-5): {"fp16"},
                (solver, "fp32", 1e-5): {"fp32"},
                (solver, 16, "rint", 1e-5): {"bf16", "posit16es2",
                                             "takum16"},
                (solver, 32, "rint", 1e-5): {"posit32es2", "takum32"}})
        assert groups == expected

    def test_tables_off_brings_back_per_format_keys(self, monkeypatch):
        from repro.experiments import common
        from repro.kernels import lut
        monkeypatch.setattr(lut, "_ENABLED", False)
        scale = SCALES["full"]
        cells = self._sparse_full_cells() + common.grid_cells(
            scale, solvers=("bicgstab", "gmres"), names=self.NAMES)
        for cell in cells:
            solver = cell.option("solver", "cg")
            assert common.lane_key(cell, scale) == (f"{solver}-csr",
                                                    cell.fmt, 1e-5)
