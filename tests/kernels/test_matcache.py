"""MatrixCache: LRU behaviour, stats plumbing, cell wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SCALES
from repro.experiments.common import (Cell, compute_cell, cg_cells,
                                      clear_cache, grid_cells)
from repro.kernels.matcache import MatrixCache, matrix_cache


@pytest.fixture(autouse=True)
def _fresh_singleton():
    matrix_cache().clear()
    yield
    matrix_cache().clear()


class TestMatrixCache:
    def test_build_once_then_hit(self):
        cache = MatrixCache(capacity=4)
        built = []
        for _ in range(3):
            value = cache.get_or_build(("k",), lambda: built.append(1)
                                       or object())
        assert len(built) == 1
        assert cache.stats() == {"hits": 2, "misses": 1,
                                 "evictions": 0, "entries": 1}
        assert value is cache.get_or_build(("k",), object)

    def test_lru_evicts_least_recently_used(self):
        cache = MatrixCache(capacity=2)
        a = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        cache.get_or_build("a", object)       # refresh a
        cache.get_or_build("c", object)       # evicts b, not a
        assert cache.counters.evictions == 1
        assert cache.get_or_build("a", object) is a     # still cached
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or object())
        assert rebuilt == [1]

    def test_builder_exceptions_cache_nothing(self):
        cache = MatrixCache(capacity=4)
        with pytest.raises(RuntimeError):
            cache.get_or_build("k", lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert cache.stats()["entries"] == 0
        assert cache.get_or_build("k", lambda: 42) == 42

    def test_delta_and_absorb(self):
        worker = MatrixCache(capacity=4)
        snap = worker.counters.snapshot()
        worker.get_or_build("k", object)
        worker.get_or_build("k", object)
        delta = worker.counters.delta_since(snap)
        assert delta == {"hits": 1, "misses": 1, "evictions": 0}
        parent = MatrixCache(capacity=4)
        parent.counters.absorb(delta)
        parent.counters.absorb(None)            # tolerated
        assert parent.counters.hits == 1 and parent.counters.misses == 1

    def test_singleton_identity(self):
        assert matrix_cache() is matrix_cache()


class TestCellWiring:
    """Cells sharing a matrix reuse its derived forms, bit-identically."""

    def test_rescale_and_csr_shared_across_formats(self):
        scale = SCALES["smoke"]
        cells = cg_cells(scale, rescaled=True, sparse=True,
                         formats=("fp32", "posit32es2"),
                         names=("bcsstk01",))
        assert len(cells) == 2 and cells[0].matrix == cells[1].matrix
        clear_cache()
        cache = matrix_cache()
        cache.clear()
        compute_cell(cells[0], scale)
        first = dict(cache.stats())
        compute_cell(cells[1], scale)
        second = cache.stats()
        assert first["misses"] >= 2           # rescale + CSR built once
        assert second["misses"] == first["misses"]
        assert second["hits"] >= first["hits"] + 2

    def test_one_segment_plan_per_matrix(self, monkeypatch):
        """Two formats' CG cells and a grid cell on one system share
        the cached CSR matrix, and its quantized copies share one
        lazily built segment plan."""
        from repro.kernels import segment
        monkeypatch.setattr(segment, "PAD_RATIO", 0.0)  # force segmented
        builds = []
        from_csr = segment.SegmentPlan.from_csr
        monkeypatch.setattr(segment.SegmentPlan, "from_csr", staticmethod(
            lambda *args: builds.append(args) or from_csr(*args)))
        scale = SCALES["smoke"]
        cells = cg_cells(scale, rescaled=True, sparse=True,
                         formats=("fp32", "posit32es2"),
                         names=("bcsstk01",)) + grid_cells(
            scale, solvers=("cg",), formats=("takum32",),
            names=("bcsstk01",))
        clear_cache()
        matrix_cache().clear()
        for cell in cells:
            compute_cell(cell, scale)
        assert len(builds) == 1
        assert matrix_cache().stats()["misses"] == 2  # rescale + CSR

    def test_cached_cell_value_is_bit_identical_to_cold(self):
        scale = SCALES["smoke"]
        cell = Cell("chol", "bcsstk01", "fp32",
                    (("rescaled", True),))
        clear_cache()
        matrix_cache().clear()
        cold = compute_cell(cell, scale)
        warm = compute_cell(cell, scale)      # rescale now a hit
        assert matrix_cache().counters.hits >= 1
        assert np.float64(cold) == np.float64(warm) or (
            np.isnan(cold) and np.isnan(warm))
