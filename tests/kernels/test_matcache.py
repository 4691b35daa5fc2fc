"""MatrixCache: LRU behaviour, stats plumbing, env knobs, cell wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SCALES
from repro.experiments.common import (Cell, _compute_cell, cg_cells,
                                      clear_cache)
from repro.kernels import matcache
from repro.kernels.matcache import (MatrixCache, matrix_cache,
                                    matrix_cache_enabled,
                                    reset_matrix_cache)


@pytest.fixture(autouse=True)
def _fresh_singleton():
    reset_matrix_cache()
    yield
    reset_matrix_cache()


class TestMatrixCache:
    def test_build_once_then_hit(self):
        cache = MatrixCache(capacity=4, enabled=True)
        built = []
        for _ in range(3):
            value = cache.get_or_build(("k",), lambda: built.append(1)
                                       or object())
        assert len(built) == 1
        assert cache.stats() == {"hits": 2, "misses": 1,
                                 "evictions": 0, "entries": 1}
        assert value is cache.get_or_build(("k",), object)

    def test_lru_evicts_least_recently_used(self):
        cache = MatrixCache(capacity=2, enabled=True)
        a = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        cache.get_or_build("a", object)       # refresh a
        cache.get_or_build("c", object)       # evicts b, not a
        assert cache.counters.evictions == 1
        assert cache.get_or_build("a", object) is a     # still cached
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or object())
        assert rebuilt == [1]

    def test_disabled_cache_always_builds(self):
        cache = MatrixCache(capacity=4, enabled=False)
        built = []
        for _ in range(2):
            cache.get_or_build("k", lambda: built.append(1) or object())
        assert len(built) == 2
        assert cache.stats()["misses"] == 0     # uncounted when off

    def test_builder_exceptions_cache_nothing(self):
        cache = MatrixCache(capacity=4, enabled=True)
        with pytest.raises(RuntimeError):
            cache.get_or_build("k", lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert cache.stats()["entries"] == 0
        assert cache.get_or_build("k", lambda: 42) == 42

    def test_delta_and_absorb(self):
        worker = MatrixCache(capacity=4, enabled=True)
        snap = worker.counters.snapshot()
        worker.get_or_build("k", object)
        worker.get_or_build("k", object)
        delta = worker.counters.delta_since(snap)
        assert delta == {"hits": 1, "misses": 1, "evictions": 0}
        parent = MatrixCache(capacity=4, enabled=True)
        parent.counters.absorb(delta)
        parent.counters.absorb(None)            # tolerated
        assert parent.counters.hits == 1 and parent.counters.misses == 1

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "off")
        assert not matrix_cache_enabled()
        reset_matrix_cache()
        cache = matrix_cache()
        assert cache.enabled is False
        assert cache.capacity == 64

    def test_singleton_identity(self):
        assert matrix_cache() is matrix_cache()


class TestCellWiring:
    """Cells sharing a matrix reuse its derived forms, bit-identically."""

    def test_rescale_and_ell_shared_across_formats(self):
        scale = SCALES["smoke"]
        cells = cg_cells(scale, rescaled=True, sparse=True,
                         formats=("fp32", "posit32es2"),
                         names=("bcsstk01",))
        assert len(cells) == 2 and cells[0].matrix == cells[1].matrix
        clear_cache()
        cache = matrix_cache()
        cache.clear()
        _compute_cell(cells[0], scale)
        first = dict(cache.stats())
        _compute_cell(cells[1], scale)
        second = cache.stats()
        assert first["misses"] >= 2           # rescale + ELL built once
        assert second["misses"] == first["misses"]
        assert second["hits"] >= first["hits"] + 2

    def test_cached_cell_value_is_bit_identical_to_cold(self):
        scale = SCALES["smoke"]
        cell = Cell("chol", "bcsstk01", "fp32",
                    (("rescaled", True),))
        clear_cache()
        matrix_cache().clear()
        cold = _compute_cell(cell, scale)
        warm = _compute_cell(cell, scale)      # rescale now a hit
        assert matrix_cache().counters.hits >= 1
        assert np.float64(cold) == np.float64(warm) or (
            np.isnan(cold) and np.isnan(warm))
