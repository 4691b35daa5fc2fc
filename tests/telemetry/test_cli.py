"""``python -m repro.telemetry`` — summarize / diff."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.arith.context import FPContext
from repro.telemetry import diff_traces, summarize_trace, trace_session
from repro.telemetry.__main__ import main


@pytest.fixture()
def trace_file(tmp_path):
    """A small real trace: some posit arithmetic plus a span."""
    path = str(tmp_path / "unit.jsonl")
    with trace_session(path, label="unit"):
        from repro.telemetry import span
        ctx = FPContext("posit16es1")
        x = np.linspace(0.1, 2.0, 32)
        with span("cell.compute", cell="cg:demo:posit16es1"):
            ctx.dot(x, x)
            ctx.add(x, x)
    return path


class TestSummarize:
    def test_cli_renders_sites(self, trace_file, capsys):
        assert main(["summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "trace: unit" in out
        assert "dot.mul" in out and "posit16es1" in out
        assert "cell.compute" in out

    def test_summary_counts_cells(self, trace_file):
        summary = summarize_trace(trace_file)
        assert summary["meta"]["label"] == "unit"
        assert "cg:demo:posit16es1" in summary["cells"]
        assert ("dot.sum", "posit16es1") in summary["counters"]

    def test_top_flag(self, trace_file, capsys):
        assert main(["summarize", trace_file, "--top", "2"]) == 0
        assert "top 2 sites" in capsys.readouterr().out


def _manifest(**extra) -> dict:
    return {"version": 2,
            "runs": {"zz-mini": {"status": "completed",
                                 "scale": "small"}},
            "cells": {"chol:a:fp32": {"status": "completed"},
                      "chol:b:fp32": {"status": "cached"},
                      "chol:c:posit32es2": {"status": "poisoned"}},
            **extra}


SUPERVISION = {"scale": "small", "jobs": 4, "spawned": 6, "respawns": 2,
               "worker_deaths": 3, "term_kills": 1, "hard_kills": 1,
               "quarantined": ["chol:c:posit32es2"], "degraded": False,
               "crashes": [{"worker": "w1", "pid": 11, "exitcode": -9,
                            "signal": "SIGKILL",
                            "cell": "chol:c:posit32es2", "attempt": 1,
                            "kind": "watchdog",
                            "last_heartbeat_age_s": 1.25},
                           {"worker": "w2", "pid": 12, "exitcode": 1,
                            "signal": None, "cell": None, "attempt": 0,
                            "kind": "crash",
                            "last_heartbeat_age_s": None}]}


class TestSummarizeManifest:
    """summarize auto-detects a run manifest and renders its
    supervision section instead of choking on non-JSONL input."""

    def test_manifest_summary(self):
        from repro.telemetry.analyze import summarize_manifest
        summary = summarize_manifest(_manifest(supervision=SUPERVISION))
        assert summary["cells"] == {"completed": 1, "cached": 1,
                                    "poisoned": 1}
        assert summary["poisoned"] == ["chol:c:posit32es2"]
        assert summary["supervision"][0]["worker_deaths"] == 3

    def test_cli_renders_supervision_counters(self, tmp_path, capsys):
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(_manifest(supervision=SUPERVISION)))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 poisoned" in out
        assert "worker crash records" in out
        assert "SIGKILL" in out and "watchdog" in out
        assert "chol:c:posit32es2" in out

    def test_cli_names_lane_group_crashes(self, tmp_path, capsys):
        group = {"worker": "w3", "pid": 13, "exitcode": -9,
                 "signal": "SIGKILL", "cell": "cg:a:fp32",
                 "cells": ["cg:a:fp32", "cg:b:fp32", "cg:c:fp32"],
                 "attempt": 1, "kind": "crash",
                 "last_heartbeat_age_s": 0.5}
        supervision = {**SUPERVISION,
                       "crashes": [*SUPERVISION["crashes"], group]}
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(_manifest(supervision=supervision)))
        assert main(["summarize", str(path)]) == 0
        assert "cg:a:fp32 +2 lanes" in capsys.readouterr().out

    def test_cli_serial_manifest_says_so(self, tmp_path, capsys):
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(_manifest()))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no pooled phase recorded" in out

    def test_trace_files_still_summarize(self, trace_file, capsys):
        # a JSONL trace must not be misdetected as a manifest
        assert main(["summarize", trace_file]) == 0
        assert "trace: unit" in capsys.readouterr().out

    def test_real_supervised_run_summarizes(self, tmp_path, capsys,
                                            monkeypatch):
        """End to end: a pooled runner sweep's manifest renders."""
        from tests.experiments.test_engine import _register_mini
        from repro.experiments.common import clear_cache
        from repro.experiments.runner import main as runner_main
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        clear_cache()
        _register_mini(monkeypatch)
        assert runner_main(["zz-mini", "--jobs", "2"]) == 0
        clear_cache()
        assert main(["summarize",
                     str(tmp_path / "run_manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "supervision (worker crashes" in out
        assert "experiments: 1 completed" in out


class TestDiff:
    def test_identical_traces(self, trace_file, capsys):
        assert main(["diff", trace_file, trace_file]) == 0
        assert "counters: identical" in capsys.readouterr().out

    def test_counter_change_is_reported(self, trace_file, tmp_path):
        other = str(tmp_path / "other.jsonl")
        with trace_session(other, label="other"):
            ctx = FPContext("posit16es1")
            x = np.linspace(0.1, 2.0, 32)
            ctx.dot(x, x)          # no add this time
        diff = diff_traces(trace_file, other)
        assert ("add", "posit16es1") in diff["counters"]

