"""Runner CLI and extension-experiment smoke tests."""

from __future__ import annotations

import pytest

from repro.config import SCALES
from repro.experiments import (EXPERIMENTS, PAPER_ARTIFACTS,
                               run_experiment)
from repro.experiments.runner import main


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for eid in PAPER_ARTIFACTS:
            assert eid in EXPERIMENTS

    def test_ten_paper_artifacts(self):
        # Table I-III and Figs 3, 5-10
        assert len(PAPER_ARTIFACTS) == 10

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table3" in out

    def test_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table1", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_done_line_reports_the_cell_time(self, capsys, tmp_path,
                                             monkeypatch):
        """The cells of a sweep run in the grid phase, before the
        experiment assembles, so its done line reports their time."""
        import os
        import re

        from repro.experiments.common import clear_cache
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        clear_cache()       # every cell computed, none from the memo
        assert main(["fig6", "--scale", "smoke"]) == 0
        done = re.search(r"----- fig6 done: cells ([0-9.]+)s, assembly "
                         r"[0-9.]+s", capsys.readouterr().out)
        entry = RunManifest(os.path.join(str(tmp_path),
                                         MANIFEST_NAME)).load().get("fig6")
        assert done and float(done.group(1)) > 0
        assert float(done.group(1)) == pytest.approx(
            entry["cell_compute_s"], abs=0.051)

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_bad_scale_flag_errors(self):
        with pytest.raises(SystemExit):  # argparse choices= rejection
            main(["table1", "--scale", "galactic"])

    def test_bad_scale_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        assert main(["table1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCrashSafety:
    """The runner must isolate crashes, retry, time out, and resume."""

    @pytest.fixture(autouse=True)
    def _results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        self.results = tmp_path

    def _register(self, monkeypatch, eid, fn):
        from repro.experiments import runner
        from repro.experiments.registry import ExperimentSpec
        monkeypatch.setitem(
            runner.EXPERIMENTS, eid,
            ExperimentSpec(id=eid, title=f"fake {eid}", runner=fn,
                           module=f"tests.fake.{eid}"))

    def _fake_ok(self, eid):
        from repro.experiments.common import ExperimentResult
        return lambda **kw: ExperimentResult(eid, eid, f"{eid} ran", None)

    def _manifest(self):
        import os
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        return RunManifest(os.path.join(str(self.results),
                                        MANIFEST_NAME)).load()

    def test_crash_is_isolated_and_sweep_continues(self, monkeypatch,
                                                   capsys):
        def boom(**kw):
            raise ValueError("synthetic crash")
        self._register(monkeypatch, "zz-boom", boom)
        self._register(monkeypatch, "zz-ok", self._fake_ok("zz-ok"))
        rc = main(["zz-boom", "zz-ok", "--retries", "0"])
        assert rc == 1
        assert "----- zz-ok done" in capsys.readouterr().out
        m = self._manifest()
        assert m.get("zz-boom")["status"] == "failed"
        assert "ValueError: synthetic crash" in m.get("zz-boom")["error"]
        assert m.get("zz-ok")["status"] == "completed"

    def test_transient_failure_retried(self, monkeypatch):
        calls = []

        def flaky(**kw):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return self._fake_ok("zz-flaky")(**kw)
        self._register(monkeypatch, "zz-flaky", flaky)
        assert main(["zz-flaky", "--retries", "2", "--backoff", "0"]) == 0
        assert len(calls) == 2
        entry = self._manifest().get("zz-flaky")
        assert entry["status"] == "completed"
        assert entry["attempts"] == 2

    def test_timeout_is_final_and_recorded(self, monkeypatch):
        import time as _time

        def sleepy(**kw):
            _time.sleep(10.0)
        self._register(monkeypatch, "zz-sleepy", sleepy)
        t0 = _time.monotonic()
        rc = main(["zz-sleepy", "--timeout", "0.2", "--retries", "3"])
        assert rc == 1
        assert _time.monotonic() - t0 < 5.0
        entry = self._manifest().get("zz-sleepy")
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1  # a timeout is never retried

    def test_resume_skips_completed_same_scale_only(self, monkeypatch,
                                                    capsys):
        calls = []

        def counted(**kw):
            calls.append(kw["scale"].name)
            return self._fake_ok("zz-count")(**kw)
        self._register(monkeypatch, "zz-count", counted)
        assert main(["zz-count", "--scale", "small"]) == 0
        assert main(["zz-count", "--scale", "small", "--resume"]) == 0
        assert "skipping" in capsys.readouterr().out
        assert calls == ["small"]  # second invocation skipped
        # a different scale is NOT considered complete
        assert main(["zz-count", "--scale", "medium", "--resume"]) == 0
        assert calls == ["small", "medium"]

    def test_resume_reruns_failures(self, monkeypatch):
        attempts = []

        def flaky(**kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first sweep crash")
            return self._fake_ok("zz-retry")(**kw)
        self._register(monkeypatch, "zz-retry", flaky)
        assert main(["zz-retry", "--retries", "0"]) == 1
        assert main(["zz-retry", "--retries", "0", "--resume"]) == 0
        assert self._manifest().get("zz-retry")["status"] == "completed"


class TestExtensions:
    @pytest.fixture(autouse=True)
    def _results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))

    def test_quire_ablation(self):
        res = run_experiment("ext-quire", scale=SCALES["small"],
                             quiet=True)
        # fused accumulation must reduce error for BOTH formats —
        # the paper's §II-C argument
        for n, row in res.data.items():
            assert row["gain_posit"] >= 1.0
            assert row["gain_float"] >= 1.0

    def test_fft_extension(self):
        res = run_experiment("ext-fft", scale=SCALES["small"], quiet=True)
        unit = res.data["unit tones"]
        # fp16 handles unit signals; the badly-scaled signal breaks it
        assert unit["raw"]["fp16"] < 0.01
        big = res.data["scaled 1e4"]
        import math
        assert (not math.isfinite(big["raw"]["fp16"])) or \
            big["raw"]["fp16"] > big["raw"]["posit16es2"]

    def test_scaling_ablation(self):
        res = run_experiment("ext-scaling", scale=SCALES["small"],
                             quiet=True)
        med = res.data["medians"]
        # Algorithm 3 must beat no scaling
        assert med["diag-mean-pow2"] > med["none"] + 0.5

    def test_recovery_extension(self):
        res = run_experiment("ext-recovery", scale=SCALES["small"],
                             quiet=True)
        rescues = res.data["rescues"]
        # the ladder must rescue at least one natively-failing cell,
        # and every attempted rung combination must be accounted for
        assert rescues["rescale"] + rescues["widen"] >= 1
        assert sum(rescues.values()) == len(res.data["traces"]) * 2
        import csv
        with open(res.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["format"] for r in rows} == {"fp16", "posit16es1"}
        assert all(r["rescue_rung"] for r in rows)

    def test_bicg_extension(self):
        res = run_experiment("ext-bicg", scale=SCALES["small"],
                             quiet=True)
        assert len(res.data) >= 3
        # every matrix ran all three methods in both formats
        for per in res.data.values():
            assert set(per) == {"fp32", "posit32es2"}
            assert set(per["fp32"]) == {"cg", "bicg", "bicgstab"}
