"""Sealed records: one damage and full-disk matrix for both formats.

The result cache (``RPRCv1`` pickles) and the rounding-table store
(``RPRTv1`` mmap files) share :func:`repro.resilience.atomic.write_sealed`
and :func:`~repro.resilience.atomic.unseal`.  Every damage case below
runs against a result entry and two rounding tables (a narrow and a
32-bit format's), and must give a counted miss, delete the file, and rebuild a bit-identical
value; a full disk must skip the write and count a ``write_error``.
"""

from __future__ import annotations

import errno
import mmap
import os

import numpy as np
import pytest

import repro.resilience.atomic as atomic
from repro.experiments import cache as rcache
from repro.formats.posit_format import PositFormat
from repro.kernels import lut, tabcache
from repro.resilience.atomic import unseal, write_sealed

_DIGEST = 32


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Fresh results dir, empty table caches, zeroed counters."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    rcache.reset_cache_stats()
    tabcache.table_stats().reset()
    lut.clear_tables()
    yield
    rcache.reset_cache_stats()
    tabcache.table_stats().reset()
    lut.clear_tables()


class _ResultEntry:
    """One result-cache entry holding a float64 vector."""

    magic = rcache._FOOTER_MAGIC
    other_magic = tabcache._FOOTER_MAGIC
    cell = "cg:a:fp32"

    def __init__(self, root):
        self.cache = rcache.ResultCache(str(root / "c"), fingerprint="f1")
        self.path = self.cache.entry_path(self.cell, "small")

    def stats(self):
        return rcache.cache_stats()

    def build(self) -> bytes:
        """Compute (here: a fixed vector), store, return its bytes."""
        value = np.linspace(-1.0, 1.0, 97) ** 3
        self.cache.put(self.cell, "small", value)
        return value.tobytes()

    def load(self):
        hit, value = self.cache.get(self.cell, "small")
        return value.tobytes() if hit else None

    def store(self):
        return self.cache.put(self.cell, "small", 1.0)


class _Table:
    """One rounding table, built through the table accessor of a fresh
    ``PositFormat(*params)`` (format objects memoize tables)."""

    magic = tabcache._FOOTER_MAGIC
    other_magic = rcache._FOOTER_MAGIC
    names = ("granules", "affine", "values", "boundaries")

    def __init__(self, params: tuple[int, int]):
        self.params = params
        self.key = PositFormat(*params)._key()
        self.path = tabcache.entry_path(self.key)

    def stats(self):
        return tabcache.table_stats()

    def build(self) -> bytes:
        """Fetch the table as a fresh process would (store, else build)."""
        lut.clear_tables()
        table = PositFormat(*self.params)._two_level_table()
        parts = (table.granules, table.affine, table.tail.values,
                 table.tail.boundaries)
        return b"".join(a.tobytes() for a in parts)

    def load(self):
        arrays = tabcache.load_arrays(self.key)
        return None if arrays is None else b"".join(
            arrays[name].tobytes() for name in self.names)

    def store(self):
        return tabcache.store_arrays(self.key, "f",
                                     {"values": np.zeros(3)})


# the "dense" id predates the one-table store: it now names the table
# of a narrow format (posit10es1, the formats that once also held a
# dense table), "two_level" that of a 32-bit one
@pytest.fixture(params=["result", "dense", "two_level"])
def target(request, tmp_path):
    if request.param == "result":
        return _ResultEntry(tmp_path)
    if request.param == "dense":
        return _Table((10, 1))
    return _Table((32, 2))


def _rewrite(path, fn):
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    with open(path, "wb") as fh:
        fh.write(bytes(fn(raw)))


def _flip(raw, index):
    raw[index] ^= 0xFF
    return raw


DAMAGE = {
    "truncated_to_zero": lambda t, raw: b"",
    "truncated_mid_payload": lambda t, raw: raw[:len(raw) // 2],
    "truncated_in_footer": lambda t, raw: raw[:-(_DIGEST + 2)],
    "flipped_payload_byte": lambda t, raw: _flip(raw, len(raw) // 2),
    "flipped_digest_byte": lambda t, raw: _flip(raw, len(raw) - 1),
    "other_formats_magic": lambda t, raw: (
        raw[:-(len(t.magic) + _DIGEST)] + t.other_magic + raw[-_DIGEST:]),
    "footerless_legacy": lambda t, raw: raw[:-(len(t.magic) + _DIGEST)],
}


class TestDamageMatrix:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_a_counted_miss_and_rebuilds(self, target, damage):
        cold = target.build()
        assert target.load() == cold             # sealed and readable
        _rewrite(target.path, lambda raw: DAMAGE[damage](target, raw))
        before = target.stats().snapshot()
        assert target.load() is None
        delta = target.stats().delta_since(before)
        assert delta["misses"] == 1 and delta["invalidations"] == 1
        assert delta["hits"] == 0
        assert not os.path.exists(target.path)   # dropped, not trusted
        assert target.build() == cold            # bit-identical rebuild
        assert target.load() == cold


class TestFullDisk:
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EDQUOT])
    def test_full_disk_skips_the_write(self, target, monkeypatch, code):
        def full(path, mode):
            raise OSError(code, os.strerror(code))
        monkeypatch.setattr(atomic, "atomic_open", full)
        before = target.stats().snapshot()
        assert target.store() is None
        assert target.stats().delta_since(before)["write_errors"] == 1
        assert not os.path.exists(target.path)

    def test_other_oserrors_propagate(self, target, monkeypatch):
        def denied(path, mode):
            raise PermissionError(errno.EACCES, "denied")
        monkeypatch.setattr(atomic, "atomic_open", denied)
        with pytest.raises(PermissionError):
            target.store()


class TestHelpers:
    def test_layout_is_payload_magic_digest(self, tmp_path):
        import hashlib
        path = str(tmp_path / "r")
        assert write_sealed(path, [b"abc", b"", b"def"], b"MAGIC1")
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == (b"abcdef" + b"MAGIC1"
                       + hashlib.sha256(b"abcdef").digest())
        assert bytes(unseal(raw, b"MAGIC1")) == b"abcdef"

    def test_unseal_reads_an_mmap_without_copying(self, tmp_path):
        path = str(tmp_path / "r")
        write_sealed(path, [bytes(range(200))], b"MAGIC1")
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        body = unseal(mm, b"MAGIC1")
        assert body.obj is mm and bytes(body) == bytes(range(200))

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "r")

        def chunks():
            yield b"partial"
            raise OSError(errno.ENOSPC, "full")
        assert write_sealed(path, chunks(), b"MAGIC1") is False
        assert os.listdir(tmp_path) == []
