"""Persistent rounding-table cache: roundtrip, corruption, lut wiring.

Every test runs against its own ``REPRO_RESULTS_DIR`` so the on-disk
store starts empty; the in-memory LUT caches and the global counters
are reset around each test.  The load-bearing assertions are *byte*
assertions — a table served from disk must round exactly like the one
built by bisection, or the golden digests would drift.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.formats.posit_format import PositFormat
from repro.kernels import lut, tabcache


@pytest.fixture
def tabenv(tmp_path, monkeypatch):
    """Isolated table store + clean in-memory caches and counters."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    lut.clear_tables()
    tabcache.table_stats().reset()
    yield tmp_path
    lut.clear_tables()
    tabcache.table_stats().reset()


def _sample_arrays():
    return {"values": np.linspace(-4.0, 4.0, 37),
            "boundaries": np.arange(12, dtype=np.int64).reshape(3, 4)}


def _stats():
    return tabcache.table_stats()


class TestStoreLoad:
    def test_roundtrip_bytes_dtypes_shapes(self, tabenv):
        arrays = _sample_arrays()
        path = tabcache.store_arrays(("k", 1), "fake", arrays)
        assert path is not None and os.path.exists(path)
        out = tabcache.load_arrays(("k", 1))
        assert out is not None and _stats().hits == 1
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            assert out[name].shape == arr.shape
            assert out[name].tobytes() == arr.tobytes()

    def test_miss_before_store(self, tabenv):
        assert tabcache.load_arrays(("nope",)) is None
        assert _stats().misses == 1 and _stats().invalidations == 0

    def test_keys_do_not_collide(self, tabenv):
        tabcache.store_arrays(("a",), "f",
                              {"v": np.zeros(3)})
        assert tabcache.load_arrays(("b",)) is None

    def test_corrupt_file_invalidated_and_rebuilt(self, tabenv):
        arrays = _sample_arrays()
        path = tabcache.store_arrays(("c",), "f", arrays)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # bit-rot in the payload
        open(path, "wb").write(bytes(raw))
        assert tabcache.load_arrays(("c",)) is None
        assert _stats().invalidations == 1
        assert not os.path.exists(path)  # dropped, not trusted
        assert tabcache.store_arrays(("c",), "f",
                                     arrays) == path
        assert tabcache.load_arrays(("c",)) is not None

    def test_truncated_file_invalidated(self, tabenv):
        path = tabcache.store_arrays(("t",), "f",
                                     _sample_arrays())
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        assert tabcache.load_arrays(("t",)) is None
        assert _stats().invalidations == 1

    def test_key_mismatch_rejected(self, tabenv):
        """A file copied over another entry's path must not be served."""
        import shutil
        src = tabcache.store_arrays(("x",), "f", _sample_arrays())
        dst = tabcache.entry_path(("y",))
        shutil.copyfile(src, dst)
        assert tabcache.load_arrays(("y",)) is None
        assert _stats().invalidations == 1

    def test_disabled_by_env(self, tabenv, monkeypatch):
        """``REPRO_LUT=off`` (toggled in-process) never touches the
        store: no table is built, loaded or written."""
        monkeypatch.setattr(lut, "_ENABLED", False)
        PositFormat(10, 0).round(np.linspace(0.1, 1.0, 50))
        PositFormat(32, 2).round(np.linspace(0.1, 1.0, 5000))
        assert _stats().snapshot() == (0, 0, 0, 0, 0)
        assert not os.path.isdir(tabcache.table_cache_dir())

    def test_enospc_is_tolerated(self, tabenv, monkeypatch):
        import repro.resilience.atomic as atomic

        def _full(path, mode):
            raise OSError(errno.ENOSPC, "disk full")

        monkeypatch.setattr(atomic, "atomic_open", _full)
        out = tabcache.store_arrays(("d",), "f",
                                    _sample_arrays())
        assert out is None and _stats().write_errors == 1

    def test_other_oserrors_propagate(self, tabenv, monkeypatch):
        import repro.resilience.atomic as atomic

        def _denied(path, mode):
            raise OSError(errno.EACCES, "denied")

        monkeypatch.setattr(atomic, "atomic_open", _denied)
        with pytest.raises(OSError):
            tabcache.store_arrays(("d",), "f",
                                  _sample_arrays())

    def test_clear_table_cache(self, tabenv):
        tabcache.store_arrays(("a",), "f", _sample_arrays())
        tabcache.store_arrays(("b",), "f", _sample_arrays())
        assert tabcache.clear_table_cache() == 2
        assert os.listdir(tabcache.table_cache_dir()) == []


class TestLutIntegration:
    """Cold build -> warm mmap load, byte-identical rounding."""

    def test_narrow_table_cold_then_warm(self, tabenv, rng):
        cold = PositFormat(10, 0)._two_level_table()
        assert _stats().builds == 1 and _stats().hits == 0
        lut.clear_tables()
        warm = PositFormat(10, 0)._two_level_table()
        assert _stats().builds == 1 and _stats().hits == 1
        assert warm.tail.values.tobytes() == cold.tail.values.tobytes()
        assert warm.tail.boundaries.tobytes() == \
            cold.tail.boundaries.tobytes()
        probes = rng.standard_normal(2000) * \
            10.0 ** rng.integers(-20, 20, 2000)
        assert warm.round_array(probes).tobytes() == \
            cold.round_array(probes).tobytes()

    def test_two_level_table_cold_then_warm(self, tabenv, rng):
        cold = PositFormat(32, 2)._two_level_table()
        assert _stats().builds == 1
        lut.clear_tables()
        warm = PositFormat(32, 2)._two_level_table()
        assert _stats().builds == 1 and _stats().hits == 1
        assert warm.granules.tobytes() == cold.granules.tobytes()
        assert warm.affine.tobytes() == cold.affine.tobytes()
        probes = rng.standard_normal(5000) * \
            10.0 ** rng.integers(-40, 40, 5000)
        assert warm.round_array(probes.copy()).tobytes() == \
            cold.round_array(probes.copy()).tobytes()

    def test_corrupt_table_file_rebuilds_identically(self, tabenv, rng):
        fmt = PositFormat(10, 1)
        cold = fmt._two_level_table()
        path = tabcache.entry_path(fmt._key())
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0x01  # clobber the checksum
        open(path, "wb").write(bytes(raw))
        lut.clear_tables()
        rebuilt = PositFormat(10, 1)._two_level_table()
        assert _stats().invalidations == 1 and _stats().builds == 2
        assert rebuilt.tail.values.tobytes() == cold.tail.values.tobytes()


class TestStatsProtocol:
    def test_delta_and_absorb_roundtrip(self):
        a = tabcache.TableCacheStats()
        a.hits, a.builds = 3, 1
        snap = a.snapshot()
        a.hits, a.misses, a.invalidations = 5, 2, 1
        delta = a.delta_since(snap)
        assert delta == {"hits": 2, "misses": 2, "builds": 0,
                         "invalidations": 1, "write_errors": 0}
        b = tabcache.TableCacheStats()
        b.absorb(delta)
        assert b.hits == 2 and b.misses == 2 and b.invalidations == 1
        b.absorb(None)  # tolerated (worker died before reporting)
        assert b.as_dict()["hits"] == 2
