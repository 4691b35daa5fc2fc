"""Persistent cell-result cache: hits, misses, invalidation, damage."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import repro.experiments.cache as cache_mod
from repro.config import SCALES
from repro.experiments import common
from repro.experiments.cache import (CACHE_DIR_NAME, ResultCache,
                                     cache_disabled_reason,
                                     cache_enabled, cache_stats,
                                     clear_result_cache,
                                     code_fingerprint, result_cache,
                                     reset_cache_stats)
from repro.experiments.common import Cell, cell_value, clear_cache

#: every on/off switch read per call, with its reader
SWITCHES = {"REPRO_CACHE": cache_enabled}


def _lut_enabled_in_subprocess(value: str) -> subprocess.CompletedProcess:
    """``lut.lut_enabled()`` under ``REPRO_LUT=value`` (read at import)."""
    env = dict(os.environ, REPRO_LUT=value,
               PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.kernels import lut; print(lut.lut_enabled())"],
        env=env, capture_output=True, text=True)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Fresh results dir, empty memo, armed cache for every test."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    reset_cache_stats()
    clear_cache()
    yield tmp_path
    clear_cache()
    reset_cache_stats()


class TestResultCache:
    def test_miss_then_put_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        assert cache.get("cg:a:fp32", "small") == (False, None)
        cache.put("cg:a:fp32", "small", {"x": 1.5})
        hit, value = cache.get("cg:a:fp32", "small")
        assert hit and value == {"x": 1.5}
        assert cache.contains("cg:a:fp32", "small")

    def test_keys_are_distinct(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 1)
        assert not cache.contains("cg:a:fp32", "medium")
        assert not cache.contains("cg:a:fp64", "small")

    def test_fingerprint_invalidates(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root, fingerprint="before").put("cg:a:fp32",
                                                    "small", 7)
        after = ResultCache(root, fingerprint="after")
        assert not after.contains("cg:a:fp32", "small")
        assert after.get("cg:a:fp32", "small") == (False, None)
        # the old entry is still there for the old fingerprint
        assert ResultCache(root, fingerprint="before").get(
            "cg:a:fp32", "small") == (True, 7)

    def test_corrupt_entry_is_discarded_not_fatal(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 7)
        path = cache.entry_path("cg:a:fp32", "small")
        with open(path, "wb") as fh:
            fh.write(b"\x00not a pickle at all")
        assert cache.get("cg:a:fp32", "small") == (False, None)
        assert not os.path.exists(path)  # damaged entry unlinked

    def test_truncated_entry_is_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", list(range(100)))
        path = cache.entry_path("cg:a:fp32", "small")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.get("cg:a:fp32", "small") == (False, None)

    def test_mismatched_payload_is_discarded(self, tmp_path):
        # a valid pickle whose recorded cell id doesn't match its key
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        path = cache.entry_path("cg:a:fp32", "small")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"cell": "cg:OTHER:fp32", "scale": "small",
                         "value": 7}, fh)
        assert cache.get("cg:a:fp32", "small") == (False, None)
        assert not os.path.exists(path)

    def test_clear_result_cache(self, _isolated):
        cache = result_cache()
        cache.put("cg:a:fp32", "small", 1)
        cache.put("cg:b:fp32", "small", 2)
        assert clear_result_cache() == 2
        assert not cache.contains("cg:a:fp32", "small")

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestChecksumFooter:
    """Entries carry sha256 footers: damage is detected, not inferred
    from unpickling luck (every damage case, for both sealed formats,
    is in ``tests/resilience/test_sealed.py``)."""

    def test_entry_ends_with_magic_and_checksum(self, tmp_path):
        import hashlib

        from repro.experiments.cache import _FOOTER_MAGIC
        footer_len = len(_FOOTER_MAGIC) + 32
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", {"x": 1.5})
        with open(cache.entry_path("cg:a:fp32", "small"), "rb") as fh:
            blob = fh.read()
        payload = blob[:-footer_len]
        assert blob[-footer_len:-32] == _FOOTER_MAGIC
        assert blob[-32:] == hashlib.sha256(payload).digest()
        assert pickle.loads(payload)["value"] == {"x": 1.5}


class TestEnospcDegradation:
    """A full disk disables persistence for the rest of the run — one
    warning, no failed cells.  REPRO_CHAOS=enospc:1 injects the fault
    deterministically."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "enospc:1")

    def test_put_disables_cache_with_single_warning(self, tmp_path,
                                                    full_disk, capsys):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        assert cache.put("cg:a:fp32", "small", 1) is None
        assert cache.put("cg:b:fp32", "small", 2) is None
        err = capsys.readouterr().err
        assert err.count("result cache disabled") == 1
        assert not cache_enabled()
        assert "No space left on device" in cache_disabled_reason()
        assert cache_stats().write_errors >= 1
        assert cache_stats().stores == 0

    def test_store_cell_keeps_the_memo_value(self, full_disk):
        cell = Cell("chol", "bcsstk02", "fp64", (("rescaled", False),))
        scale = SCALES["small"]
        common.store_cell(cell, scale, 0.5)      # must not raise
        assert common.has_cell(cell, scale)      # memo survives
        clear_cache()
        assert not common.has_cell(cell, scale)  # nothing on disk

    def test_reset_cache_stats_rearms(self, tmp_path, full_disk,
                                      monkeypatch):
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 1)
        assert not cache_enabled()
        monkeypatch.delenv("REPRO_CHAOS")        # the disk "drains"
        reset_cache_stats()                      # next sweep starts
        assert cache_enabled()
        assert cache.put("cg:a:fp32", "small", 1) is not None
        assert cache.get("cg:a:fp32", "small") == (True, 1)

    def test_cooldown_rearms_without_sweep_boundary(self, tmp_path,
                                                    full_disk,
                                                    monkeypatch):
        """A long-lived process (the experiment service) recovers once
        the ``_REARM_S`` cooldown expires — no reset_cache_stats()
        required."""
        monkeypatch.setattr(cache_mod, "_REARM_S", 0.0)
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 1)
        assert cache_disabled_reason() is not None
        monkeypatch.delenv("REPRO_CHAOS")        # the disk "drains"
        # cooldown of 0s: the very next check re-arms persistence
        assert cache_enabled()
        assert cache_stats().rearms == 1
        assert cache_disabled_reason() is None
        assert cache.put("cg:a:fp32", "small", 1) is not None
        assert cache.get("cg:a:fp32", "small") == (True, 1)

    def test_still_full_disk_redisables_after_rearm(self, tmp_path,
                                                    full_disk,
                                                    monkeypatch):
        monkeypatch.setattr(cache_mod, "_REARM_S", 0.0)
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 1)
        assert cache_disabled_reason() is not None
        # cooldown expired: the enablement check (store_cell's gate)
        # re-arms, but chaos still injects ENOSPC on the re-probe store
        assert cache_enabled()
        assert cache_stats().rearms == 1
        assert cache.put("cg:b:fp32", "small", 2) is None
        assert cache_disabled_reason() is not None
        assert cache_stats().write_errors == 2

    def test_disabled_until_cooldown_expires(self, tmp_path, full_disk,
                                             monkeypatch):
        monkeypatch.setattr(cache_mod, "_REARM_S", 3600.0)
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        cache.put("cg:a:fp32", "small", 1)
        monkeypatch.delenv("REPRO_CHAOS")
        assert not cache_enabled()               # cooldown still running
        assert cache_stats().rearms == 0

    def test_other_oserrors_still_raise(self, tmp_path, monkeypatch):
        import repro.resilience.atomic as atomic

        def explode(path, mode):
            raise PermissionError("not a full disk")
        monkeypatch.setattr(atomic, "atomic_open", explode)
        cache = ResultCache(str(tmp_path / "c"), fingerprint="f1")
        with pytest.raises(PermissionError):
            cache.put("cg:a:fp32", "small", 1)
        assert cache_enabled()                   # not a degradation case


class TestCacheEnv:
    def test_enabled_by_default(self):
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["off", "0", "no", "FALSE",
                                       " disabled "])
    def test_opt_out_spellings(self, monkeypatch, value):
        for name, enabled in SWITCHES.items():
            monkeypatch.setenv(name, value)
            assert not enabled(), name
        proc = _lut_enabled_in_subprocess(value)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("value", ["on", "1", "Yes", " TRUE ", ""])
    def test_opt_in_spellings(self, monkeypatch, value):
        for name, enabled in SWITCHES.items():
            monkeypatch.setenv(name, value)
            assert enabled(), name

    @pytest.mark.parametrize("name", [*SWITCHES, "REPRO_LUT"])
    def test_unknown_value_raises(self, monkeypatch, name):
        if name == "REPRO_LUT":
            proc = _lut_enabled_in_subprocess("of")
            assert proc.returncode != 0
            assert "REPRO_LUT='of'" in proc.stderr
            return
        monkeypatch.setenv(name, "of")
        with pytest.raises(ValueError, match=f"{name}='of'.*disabled"):
            SWITCHES[name]()

    def test_off_disables_disk_layer(self, _isolated, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        cell = Cell("chol", "bcsstk02", "fp64", (("rescaled", False),))
        scale = SCALES["small"]
        common.store_cell(cell, scale, 0.5)
        assert common.has_cell(cell, scale)       # memo still works
        clear_cache()
        assert not common.has_cell(cell, scale)   # nothing on disk
        assert not os.path.isdir(str(_isolated / CACHE_DIR_NAME))


class TestCellValueLayers:
    """cell_value resolves memo → disk → compute, refilling upward."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def fake_compute(cell, scale):
            calls.append(cell.cell_id)
            return {"computed": cell.cell_id}
        monkeypatch.setattr(common, "compute_cell", fake_compute)
        return calls

    def test_memo_then_disk_then_compute(self, counted):
        cell = Cell("cg", "bcsstk02", "fp64")
        scale = SCALES["small"]
        a = cell_value(cell, scale)
        assert counted == [cell.cell_id]
        # memo hit: same object, no recompute
        assert cell_value(cell, scale) is a
        assert counted == [cell.cell_id]
        # disk hit after the memo is dropped: equal value, no recompute
        clear_cache()
        b = cell_value(cell, scale)
        assert b == a and b is not a
        assert counted == [cell.cell_id]

    def test_cache_off_recomputes(self, counted, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        cell = Cell("cg", "bcsstk02", "fp64")
        scale = SCALES["small"]
        cell_value(cell, scale)
        clear_cache()
        cell_value(cell, scale)
        assert counted == [cell.cell_id] * 2


class TestCodeFingerprint:
    """The fingerprint must cover every subpackage — oracle included —
    and any source edit must move cache entries to fresh paths."""

    def test_oracle_sources_are_fingerprinted(self):
        import repro
        from repro.experiments.cache import iter_source_files

        root = os.path.dirname(os.path.abspath(repro.__file__))
        rels = {os.path.relpath(p, root).replace(os.sep, "/")
                for p in iter_source_files(root)}
        for needed in ("oracle/__init__.py", "oracle/codecs.py",
                       "oracle/rational.py", "oracle/reference.py",
                       "oracle/conformance.py", "experiments/cache.py"):
            assert needed in rels, needed

    @pytest.fixture
    def fake_pkg(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "oracle").mkdir(parents=True)
        (pkg / "__init__.py").write_text("x = 1\n")
        (pkg / "oracle" / "__init__.py").write_text("")
        (pkg / "oracle" / "reference.py").write_text("TIE = 'even'\n")
        (pkg / "README.txt").write_text("not python, not hashed\n")
        return pkg

    def test_source_edit_changes_digest_and_entry_path(self, fake_pkg):
        before = code_fingerprint(str(fake_pkg))
        assert before == code_fingerprint(str(fake_pkg))  # deterministic
        path_before = ResultCache("c", fingerprint=before).entry_path(
            "cg:a:fp32", "small")
        (fake_pkg / "oracle" / "reference.py").write_text("TIE = 'odd'\n")
        after = code_fingerprint(str(fake_pkg))
        assert after != before
        assert ResultCache("c", fingerprint=after).entry_path(
            "cg:a:fp32", "small") != path_before

    def test_new_and_renamed_files_change_digest(self, fake_pkg):
        before = code_fingerprint(str(fake_pkg))
        (fake_pkg / "oracle" / "extra.py").write_text("")
        added = code_fingerprint(str(fake_pkg))
        assert added != before
        os.rename(fake_pkg / "oracle" / "extra.py",
                  fake_pkg / "oracle" / "other.py")
        assert code_fingerprint(str(fake_pkg)) != added  # path is hashed

    def test_non_python_files_are_ignored(self, fake_pkg):
        before = code_fingerprint(str(fake_pkg))
        (fake_pkg / "README.txt").write_text("changed\n")
        assert code_fingerprint(str(fake_pkg)) == before

    def test_default_fingerprint_is_memoized(self):
        assert code_fingerprint() == code_fingerprint()
