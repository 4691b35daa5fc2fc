"""Crash-safe plumbing: atomic writes, the run manifest, time limits."""

from __future__ import annotations

import glob
import json
import os
import time

import pytest

from repro.errors import ExperimentTimeout
from repro.resilience.atomic import atomic_open, atomic_write_text
from repro.resilience.isolation import (attempt, backoff_delays, retrying,
                                        time_limit)
from repro.resilience.manifest import RunManifest


class TestAtomicOpen:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "out.csv"
        with atomic_open(str(target)) as fh:
            fh.write("a,b\n1,2\n")
        assert target.read_text() == "a,b\n1,2\n"
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_crash_leaves_old_content_intact(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(str(target)) as fh:
                fh.write("half a row")
                raise RuntimeError("simulated crash mid-write")
        assert target.read_text() == "old\n"
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_crash_with_no_preexisting_file_leaves_nothing(self, tmp_path):
        target = tmp_path / "fresh.csv"
        with pytest.raises(RuntimeError):
            with atomic_open(str(target)) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        assert atomic_write_text(str(target), "x") == str(target)
        assert target.read_text() == "x"

    def test_tmp_file_lives_beside_target(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_open(str(target)) as fh:
            fh.write("x")
            tmps = glob.glob(str(tmp_path / "out.txt.*.tmp"))
            assert len(tmps) == 1  # same dir ⇒ same-filesystem rename
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_write_csv_goes_through_atomic_path(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.analysis.reporting import write_csv
        path = write_csv("probe.csv", ["x"], [[1], [2]])
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as fh:
            assert fh.read().splitlines() == ["x", "1", "2"]
        assert glob.glob(str(tmp_path / "*.tmp")) == []


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run_manifest.json")
        m = RunManifest(path)
        m.record("fig6", status="completed", scale="small",
                 duration=1.234, csv_path=None, attempts=1)
        m.record("fig7", status="failed", scale="small",
                 duration=0.5, error="ValueError: boom", attempts=2)
        loaded = RunManifest(path).load()
        assert loaded.get("fig6")["status"] == "completed"
        assert loaded.get("fig6")["duration_s"] == 1.234
        assert loaded.get("fig7")["error"] == "ValueError: boom"
        assert loaded.get("fig7")["attempts"] == 2
        assert loaded.get("nope") is None

    def test_is_complete_semantics(self, tmp_path):
        path = str(tmp_path / "m.json")
        csv = tmp_path / "fig6.csv"
        csv.write_text("x\n")
        m = RunManifest(path)
        m.record("fig6", status="completed", scale="small",
                 duration=1.0, csv_path=str(csv))
        m.record("fig7", status="timeout", scale="small", duration=9.0)
        assert m.is_complete("fig6", "small")
        assert not m.is_complete("fig6", "medium")   # other scale
        assert not m.is_complete("fig7", "small")    # not completed
        assert not m.is_complete("fig8", "small")    # never ran
        csv.unlink()
        assert not m.is_complete("fig6", "small")    # artifact vanished

    def test_missing_file_loads_empty(self, tmp_path):
        m = RunManifest(str(tmp_path / "absent.json")).load()
        assert m.data["runs"] == {}

    @pytest.mark.parametrize("junk", ["{not json", '"a string"',
                                      '{"runs": []}', ""])
    def test_corrupt_file_loads_empty(self, tmp_path, junk):
        path = tmp_path / "m.json"
        path.write_text(junk)
        m = RunManifest(str(path)).load()
        assert m.data["runs"] == {}

    def test_record_persists_immediately_and_atomically(self, tmp_path):
        path = str(tmp_path / "m.json")
        RunManifest(path).record("t1", status="completed",
                                 scale="small", duration=0.1)
        with open(path) as fh:
            on_disk = json.load(fh)
        assert on_disk["runs"]["t1"]["status"] == "completed"
        assert glob.glob(str(tmp_path / "*.tmp")) == []


class TestTimeLimit:
    def test_expires(self):
        t0 = time.monotonic()
        with pytest.raises(ExperimentTimeout, match="0.2.*fig6"):
            with time_limit(0.2, label="fig6"):
                while True:
                    time.sleep(0.01)
        assert time.monotonic() - t0 < 5.0

    def test_fast_block_unaffected(self):
        with time_limit(30.0):
            x = sum(range(1000))
        assert x == 499500

    @pytest.mark.parametrize("budget", [None, 0, -1.0])
    def test_disabled_budgets_are_noops(self, budget):
        with time_limit(budget):
            pass

    def test_alarm_disposition_restored(self):
        import signal
        before = signal.getsignal(signal.SIGALRM)
        with time_limit(10.0):
            pass
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_noop_off_main_thread(self):
        import threading
        outcome = {}

        def worker():
            try:
                with time_limit(0.05):
                    time.sleep(0.2)
                outcome["ok"] = True
            except Exception as exc:  # pragma: no cover
                outcome["error"] = exc

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert outcome == {"ok": True}


class TestBackoffDelays:
    def test_schedule(self):
        assert list(backoff_delays(3, base=0.5)) == [0.5, 1.0, 2.0]
        assert list(backoff_delays(2, base=1.0, factor=3.0)) == [1.0, 3.0]

    def test_zero_and_negative_retries(self):
        assert list(backoff_delays(0)) == []
        assert list(backoff_delays(-2)) == []


class TestRetrying:
    """The one retry loop the runner and the engine share."""

    def _flaky(self, failures: int):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= failures:
                raise RuntimeError(f"flake {len(calls)}")
            return "ok"
        return fn, calls

    def test_attempt_classifies(self):
        status, value, _, error = attempt(lambda: 7, None, "x")
        assert (status, value, error) == ("completed", 7, None)
        status, value, _, error = attempt(lambda: 1 / 0, None, "x")
        assert (status, value) == ("failed", None)
        assert error.startswith("ZeroDivisionError")

    def test_failures_retry_with_backoff_until_success(self, capsys):
        fn, calls = self._flaky(2)
        slept = []
        status, value, _, error, attempts = retrying(
            fn, None, 3, 0.5, "cell-a", what="cell cell-a",
            sleep=slept.append)
        assert (status, value, error, attempts) == ("completed", "ok",
                                                    None, 3)
        assert slept == [0.5, 1.0]
        err = capsys.readouterr().err
        assert "!! cell cell-a attempt 1 failed (RuntimeError: flake 1); " \
            "retrying in 0.5s" in err
        assert "attempt 2 failed" in err and "retrying in 1s" in err

    def test_retries_run_out(self):
        fn, calls = self._flaky(5)
        status, _, _, error, attempts = retrying(fn, None, 1, 0.0, "e",
                                                 sleep=lambda s: None)
        assert (status, attempts, len(calls)) == ("failed", 2, 2)
        assert error == "RuntimeError: flake 2"

    def test_timeout_is_final(self):
        slept = []
        status, _, _, error, attempts = retrying(
            lambda: time.sleep(5), 0.05, 3, 0.0, "slow",
            sleep=slept.append)
        assert (status, attempts, slept) == ("timeout", 1, [])
        assert "(slow)" in error
