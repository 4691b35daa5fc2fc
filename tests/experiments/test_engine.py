"""Cell engine: serial/pooled execution, retries, cell-level resume."""

from __future__ import annotations

import os

import pytest

from repro.config import SCALES
from repro.experiments import common, engine
from repro.experiments.cache import result_cache
from repro.experiments.common import (Cell, ExperimentResult,
                                      cell_value, cholesky_cells,
                                      clear_cache, grid_cells)
from repro.experiments.engine import execute_cells
from repro.experiments.registry import ExperimentSpec
from repro.experiments.runner import main

SMALL = SCALES["small"]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


def _fake_compute(monkeypatch, fn):
    """Replace the cell payload computation seen by the serial engine:
    cells run alone and lane groups both compute through *fn*."""
    monkeypatch.setattr(engine, "compute_cell", fn)
    monkeypatch.setattr(common, "compute_cell", fn)
    monkeypatch.setattr(engine, "compute_lanes",
                        lambda cells, scale: [fn(c, scale) for c in cells])


class TestExecuteCellsSerial:
    def test_completed_then_cached(self, monkeypatch):
        _fake_compute(monkeypatch, lambda cell, scale: 42)
        cells = [Cell("cg", "a", "fp32"), Cell("cg", "b", "fp32")]
        first = execute_cells(cells, SMALL)
        assert [o.status for o in first] == ["completed", "completed"]
        assert all(o.ok and o.attempts == 1 for o in first)
        second = execute_cells(cells, SMALL)
        assert [o.status for o in second] == ["cached", "cached"]
        assert all(o.attempts == 0 and o.duration == 0.0
                   for o in second)

    def test_duplicates_run_once(self, monkeypatch):
        calls = []

        def fn(cell, scale):
            calls.append(cell.cell_id)
            return 1
        _fake_compute(monkeypatch, fn)
        cell = Cell("cg", "a", "fp32")
        outcomes = execute_cells([cell, cell, cell], SMALL)
        assert len(outcomes) == 1
        assert calls == [cell.cell_id]

    def test_failure_retried_with_backoff(self, monkeypatch):
        calls, naps = [], []

        def flaky(cell, scale):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return 7
        _fake_compute(monkeypatch, flaky)
        [outcome] = execute_cells([Cell("cg", "a", "fp32")], SMALL,
                                  retries=2, backoff=0.5,
                                  sleep=naps.append)
        assert outcome.status == "completed"
        assert outcome.attempts == 2
        assert naps == [0.5]
        assert cell_value(Cell("cg", "a", "fp32"), SMALL) == 7

    def test_retries_exhausted_is_failed(self, monkeypatch):
        def broken(cell, scale):
            raise ValueError("permanently broken")
        _fake_compute(monkeypatch, broken)
        [outcome] = execute_cells([Cell("cg", "a", "fp32")], SMALL,
                                  retries=1, sleep=lambda _s: None)
        assert outcome.status == "failed"
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "permanently broken" in outcome.error

    def test_timeout_is_final(self, monkeypatch):
        import time as _time

        def sleepy(cell, scale):
            _time.sleep(10.0)
        _fake_compute(monkeypatch, sleepy)
        t0 = _time.monotonic()
        [outcome] = execute_cells([Cell("cg", "a", "fp32")], SMALL,
                                  timeout=0.2, retries=3,
                                  sleep=lambda _s: None)
        assert _time.monotonic() - t0 < 5.0
        assert outcome.status == "timeout"
        assert outcome.attempts == 1    # the budget would expire again

    def test_on_outcome_fires_per_cell(self, monkeypatch):
        _fake_compute(monkeypatch, lambda cell, scale: 0)
        seen = []
        cells = [Cell("cg", "a", "fp32"), Cell("cg", "b", "fp32")]
        execute_cells(cells, SMALL, on_outcome=seen.append)
        assert [o.cell for o in seen] == cells


MINI_NAMES = ("bcsstk02", "nos5")
MINI_FORMATS = ("fp32", "posit32es2")


def _mini_cells(scale):
    return cholesky_cells(scale, formats=MINI_FORMATS,
                          names=MINI_NAMES)


def _mini_run(scale=None, quiet=False):
    from repro.analysis.reporting import write_csv
    scale = scale or SMALL
    rows = [(c.matrix, c.fmt, repr(cell_value(c, scale)))
            for c in _mini_cells(scale)]
    path = write_csv("zz_mini.csv", ("matrix", "format", "rbe"), rows)
    return ExperimentResult("zz-mini", "mini", "mini sweep", path)


def _register_mini(monkeypatch):
    from repro.experiments import runner
    monkeypatch.setitem(
        runner.EXPERIMENTS, "zz-mini",
        ExperimentSpec(id="zz-mini", title="mini cell sweep",
                       runner=_mini_run, module="tests.fake.mini",
                       artifact="zz_mini.csv", cells=_mini_cells))


class TestPooledExecution:
    """jobs > 1 must produce the same payloads as the serial path."""

    def test_pooled_matches_serial(self, tmp_path, monkeypatch):
        cells = _mini_cells(SMALL)
        outcomes = execute_cells(cells, SMALL, jobs=2)
        assert [o.status for o in outcomes] == ["completed"] * len(cells)
        pooled = {c: cell_value(c, SMALL) for c in cells}

        # recompute serially with a cold memo and cold disk cache
        clear_cache()
        monkeypatch.setenv("REPRO_RESULTS_DIR",
                           str(tmp_path / "serial"))
        execute_cells(cells, SMALL, jobs=1)
        serial = {c: cell_value(c, SMALL) for c in cells}
        assert pooled == serial     # bit-identical backward errors

    def test_pooled_results_persist_on_disk(self):
        cells = _mini_cells(SMALL)
        execute_cells(cells, SMALL, jobs=2)
        cache = result_cache()
        for cell in cells:
            assert cache.contains(cell.cell_id, SMALL.name)


class TestByteIdenticalArtifacts:
    def test_jobs4_csv_equals_jobs1_csv(self, tmp_path, monkeypatch):
        _register_mini(monkeypatch)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "serial"))
        assert main(["zz-mini", "--jobs", "1"]) == 0
        with open(tmp_path / "serial" / "zz_mini.csv", "rb") as fh:
            serial = fh.read()

        clear_cache()   # cold memo: the parallel run must recompute
        monkeypatch.setenv("REPRO_RESULTS_DIR",
                           str(tmp_path / "parallel"))
        assert main(["zz-mini", "--jobs", "4"]) == 0
        with open(tmp_path / "parallel" / "zz_mini.csv", "rb") as fh:
            parallel = fh.read()
        assert serial == parallel and serial.count(b"\n") > 1

    def test_pooled_cache_counters_match_serial(self, tmp_path,
                                                monkeypatch):
        """Workers store the results, and their counter deltas reach
        the parent: the manifest's cache section is the same."""
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        _register_mini(monkeypatch)
        sections = {}
        for jobs in ("1", "2"):
            clear_cache()
            results = tmp_path / f"jobs{jobs}"
            monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
            assert main(["zz-mini", "--jobs", jobs]) == 0
            sections[jobs] = RunManifest(
                str(results / MANIFEST_NAME)).load().get_section("cache")
        cells = len(_mini_cells(SMALL))
        assert sections["1"]["stores"] == cells
        for key in ("stores", "misses", "lookups"):
            assert sections["2"][key] == sections["1"][key], key


class TestCellGranularResume:
    """A killed sweep re-executes only the cells that never finished."""

    def test_resume_recomputes_only_missing_cells(self, _isolated,
                                                  monkeypatch):
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        _register_mini(monkeypatch)
        assert main(["zz-mini"]) == 0
        cells = _mini_cells(SMALL)
        cache = result_cache()
        assert all(cache.contains(c.cell_id, SMALL.name)
                   for c in cells)

        # simulate a mid-sweep kill: two cells never made it to disk
        # and the experiment itself was never recorded as complete
        lost, kept = list(cells[:2]), list(cells[2:])
        for cell in lost:
            os.unlink(cache.entry_path(cell.cell_id, SMALL.name))
        manifest_path = os.path.join(str(_isolated), MANIFEST_NAME)
        manifest = RunManifest(manifest_path).load()
        del manifest.data["runs"]["zz-mini"]
        manifest.save()
        os.unlink(_isolated / "zz_mini.csv")
        clear_cache()

        real_compute = common.compute_cell
        recomputed = []

        def counting(cell, scale):
            recomputed.append(cell)
            return real_compute(cell, scale)
        _fake_compute(monkeypatch, counting)

        assert main(["zz-mini", "--resume"]) == 0
        assert sorted(c.cell_id for c in recomputed) == \
            sorted(c.cell_id for c in lost)

        manifest = RunManifest(manifest_path).load()
        for cell in lost:
            assert manifest.get_cell(cell.cell_id)["status"] == \
                "completed"
        for cell in kept:
            assert manifest.get_cell(cell.cell_id)["status"] == "cached"
        assert manifest.is_complete("zz-mini", SMALL.name)

    def test_resume_skips_fully_completed_experiment(self, monkeypatch,
                                                     capsys):
        _register_mini(monkeypatch)
        assert main(["zz-mini"]) == 0

        def exploding(cell, scale):  # pragma: no cover - must not run
            raise AssertionError("resume recomputed a finished cell")
        _fake_compute(monkeypatch, exploding)
        assert main(["zz-mini", "--resume"]) == 0
        assert "skipping" in capsys.readouterr().out


class TestRunnerCellIntegration:
    def test_bench_sidecar_records_cells(self, _isolated, monkeypatch):
        """The run manifest holds the sweep's per-experiment and
        per-cell timing record."""
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        _register_mini(monkeypatch)
        cell_ids = [c.cell_id for c in _mini_cells(SMALL)]
        path = os.path.join(str(_isolated), MANIFEST_NAME)
        for status in ("completed", "cached"):  # cold run, warm re-run
            assert main(["zz-mini"]) == 0
            manifest = RunManifest(path).load()
            entry = manifest.get("zz-mini")
            assert entry["status"] == "completed"
            assert entry["cells"] == len(cell_ids)
            assert entry["duration_s"] >= 0
            assert entry["cell_compute_s"] >= 0
            assert [manifest.get_cell(c)["status"] for c in cell_ids] == \
                [status] * len(cell_ids)

    def test_cell_failure_fails_owning_experiment(self, _isolated,
                                                  monkeypatch, capsys):
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        _register_mini(monkeypatch)

        def broken(cell, scale):
            raise RuntimeError(f"boom in {cell.cell_id}")
        _fake_compute(monkeypatch, broken)
        assert main(["zz-mini", "--retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "cell(s) failed" in err
        manifest = RunManifest(
            os.path.join(str(_isolated), MANIFEST_NAME)).load()
        entry = manifest.get("zz-mini")
        assert entry["status"] == "failed"
        assert "boom in" in entry["error"]

    def test_jobs_zero_rejected(self, capsys):
        assert main(["table1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


# -- lane groups -------------------------------------------------------------

#: dense CG cells that share one lane key at small scale (n = 96),
#: plain and rescaled, plus a cell of another order and a Cholesky cell
LANE_NAMES = ("nos1", "nos2")


def _lane_cells(scale):
    return (common.cg_cells(scale, formats=("fp32",), names=LANE_NAMES)
            + common.cg_cells(scale, formats=("fp32",), names=LANE_NAMES,
                              rescaled=True))


def _csr_lane_cells(scale):
    """CSR CG cells and X13 grid CG cells of one format: one ragged
    lane group (nos1 and nos2 differ in order at small scale)."""
    return (common.cg_cells(scale, formats=("fp32",), names=LANE_NAMES,
                            sparse=True)
            + grid_cells(scale, solvers=("cg",), formats=("fp32",),
                         names=LANE_NAMES))


def _sweep(exp_id, cells_fn):
    """A fake experiment: one CSV row of iterations per cell."""
    def run(scale=None, quiet=False):
        from repro.analysis.reporting import write_csv
        scale = scale or SMALL
        rows = [(c.cell_id, cell_value(c, scale).iterations)
                for c in cells_fn(scale)]
        path = write_csv(f"{exp_id}.csv", ("cell", "iterations"), rows)
        return ExperimentResult(exp_id, "lanes", "lane sweep", path)
    return ExperimentSpec(id=exp_id, title="lane sweep", runner=run,
                          module="tests.fake.lanes",
                          artifact=f"{exp_id}.csv", cells=cells_fn)


def _spy(monkeypatch, name):
    """Record the cell ids each call of ``engine.<name>`` receives."""
    calls = []
    real = getattr(engine, name)

    def spy(cells, scale):
        ids = ([c.cell_id for c in cells] if isinstance(cells, list)
               else cells.cell_id)
        calls.append(ids)
        return real(cells, scale)
    monkeypatch.setattr(engine, name, spy)
    return calls


def _one_group(monkeypatch):
    """Every CG cell shares one lane key."""
    monkeypatch.setattr(engine, "lane_key", lambda cell, scale: "one")


class TestLaneGroups:
    """Serial sweeps solve same-key dense CG cells as lanes of one
    solve, and still store and report each cell on its own."""

    def test_one_solve_per_group_one_outcome_per_cell(self, monkeypatch):
        from benchmarks.e2e.child import canonical
        lanes = _spy(monkeypatch, "compute_lanes")
        alone = _spy(monkeypatch, "compute_cell")
        stored = []
        real_store = engine.store_cell
        monkeypatch.setattr(engine, "store_cell",
                            lambda c, s, v: stored.append(c)
                            or real_store(c, s, v))
        other = Cell("cg", "bcsstk01", "fp32", _lane_cells(SMALL)[0].options)
        chol = cholesky_cells(SMALL, formats=("fp32",), names=("nos1",))[0]
        grouped = list(_lane_cells(SMALL))
        cells = [grouped[0], other, *grouped[1:3], chol, grouped[3]]
        seen = []
        outcomes = execute_cells(cells, SMALL, on_outcome=seen.append)

        assert lanes == [[c.cell_id for c in grouped]]
        assert alone == [other.cell_id, chol.cell_id]
        # groups run in order of their first cell; each cell settles
        # and is stored exactly once
        assert [o.cell for o in seen] == [*grouped, other, chol]
        assert stored == [*grouped, other, chol]
        assert [o.status for o in outcomes] == ["completed"] * 6
        assert all(o.attempts == 1 for o in outcomes)
        for cell in grouped:
            assert result_cache().contains(cell.cell_id, SMALL.name)
            assert canonical(cell_value(cell, SMALL)) == \
                canonical(common.compute_cell(cell, SMALL))

    def test_durations_split_by_iterations(self, monkeypatch):
        from types import SimpleNamespace
        _one_group(monkeypatch)
        ticks = iter([10.0, 13.0])
        monkeypatch.setattr(engine, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(engine, "compute_lanes", lambda cells, scale: [
            SimpleNamespace(iterations=i) for i in (1, 2, 0, 3)])
        cells = [Cell("cg", f"m{i}", "fp32") for i in range(4)]
        durations = [o.duration for o in execute_cells(cells, SMALL)]
        assert durations == pytest.approx([0.5, 1.0, 0.0, 1.5])
        assert sum(durations) == pytest.approx(3.0)

    def test_durations_split_evenly_without_iterations(self, monkeypatch):
        from types import SimpleNamespace
        _one_group(monkeypatch)
        ticks = iter([0.0, 2.0])
        monkeypatch.setattr(engine, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(engine, "compute_lanes",
                            lambda cells, scale: [0] * len(cells))
        cells = [Cell("cg", f"m{i}", "fp32") for i in range(4)]
        assert [o.duration for o in execute_cells(cells, SMALL)] == \
            pytest.approx([0.5] * 4)

    def test_raising_group_reruns_its_cells_alone(self, monkeypatch,
                                                  capsys):
        _one_group(monkeypatch)

        def broken_lanes(cells, scale):
            raise RuntimeError("lane bug")
        monkeypatch.setattr(engine, "compute_lanes", broken_lanes)

        def alone(cell, scale):
            if cell.matrix == "bad":
                raise ValueError("permanently broken")
            return 7
        monkeypatch.setattr(engine, "compute_cell", alone)
        naps = []
        outcomes = execute_cells([Cell("cg", "ok", "fp32"),
                                  Cell("cg", "bad", "fp32")], SMALL,
                                 retries=1, backoff=0.5, sleep=naps.append)
        assert [o.status for o in outcomes] == ["completed", "failed"]
        assert [o.attempts for o in outcomes] == [1, 2]
        assert naps == [0.5]
        assert "permanently broken" in outcomes[1].error
        assert "lane bug" in capsys.readouterr().err
        assert cell_value(Cell("cg", "ok", "fp32"), SMALL) == 7

    def test_timed_out_group_reruns_its_cells_alone(self, monkeypatch):
        import time as _time
        _one_group(monkeypatch)

        def stuck_lanes(cells, scale):
            _time.sleep(10.0)
        monkeypatch.setattr(engine, "compute_lanes", stuck_lanes)

        def alone(cell, scale):
            if cell.matrix == "slow":
                _time.sleep(10.0)
            return 1
        monkeypatch.setattr(engine, "compute_cell", alone)
        t0 = _time.monotonic()
        outcomes = execute_cells([Cell("cg", "ok", "fp32"),
                                  Cell("cg", "slow", "fp32")], SMALL,
                                 timeout=0.2, retries=3,
                                 sleep=lambda _s: None)
        # the group's budget (2 × 0.2 s), then each cell's own
        assert _time.monotonic() - t0 < 5.0
        assert [o.status for o in outcomes] == ["completed", "timeout"]
        assert [o.attempts for o in outcomes] == [1, 1]

    def test_no_groups_while_an_injector_is_active(self, monkeypatch):
        """An injector draws its faults per call: every cell runs
        alone."""
        from repro.arith.context import set_instrument
        _one_group(monkeypatch)
        lanes = _spy(monkeypatch, "compute_lanes")
        computed = []
        monkeypatch.setattr(engine, "compute_cell",
                            lambda cell, scale: computed.append(cell) or 1)
        cells = [Cell("cg", f"m{i}", "fp32") for i in range(3)]
        previous = set_instrument("injector", object())
        try:
            outcomes = execute_cells(cells, SMALL)
        finally:
            set_instrument("injector", previous)
        assert lanes == []
        assert computed == cells
        assert [o.status for o in outcomes] == ["completed"] * 3

    @pytest.mark.parametrize("kind", ["collector", "tracer"])
    def test_groups_under_a_collector_or_tracer(self, monkeypatch, kind):
        """A collector or tracer observes lanes as it would the cells
        one by one, so every group still makes one ``compute_lanes``
        call; a tracer gets one ``cell.compute`` span per cell."""
        from repro.arith.context import set_instrument
        from repro.telemetry import Collector, Tracer
        lanes = _spy(monkeypatch, "compute_lanes")
        alone = _spy(monkeypatch, "compute_cell")
        groups = [list(_lane_cells(SMALL)), list(_csr_lane_cells(SMALL))]
        cells = [c for g in groups for c in g]
        instrument = Collector() if kind == "collector" else Tracer()
        previous = set_instrument(kind, instrument)
        try:
            outcomes = execute_cells(cells, SMALL)
        finally:
            set_instrument(kind, previous)
        assert lanes == [[c.cell_id for c in g] for g in groups]
        assert alone == []
        assert [o.status for o in outcomes] == ["completed"] * len(cells)
        if kind == "collector":
            assert instrument.total() > 0
        else:
            assert [e["cell"] for e in instrument.events
                    if e.get("name") == "cell.compute"] == \
                [c.cell_id for c in cells]

    def test_collector_counts_lanes_as_it_counts_cells_alone(self):
        """Over every smoke lane group of fig6 and ext-solver-grid (dense
        CG, and CSR CG, BiCGSTAB and GMRES in seven formats), a
        Collector's counters from one ``compute_lanes`` call equal those
        of the group's cells run one by one, per (site, format) and
        field by field."""
        from repro.experiments.registry import get_experiment
        from repro.telemetry import collecting
        scale = SCALES["smoke"]
        cells = [c for eid in ("fig6", "ext-solver-grid")
                 for c in get_experiment(eid).enumerate_cells(scale)]
        groups = [g for g in engine._lane_groups(cells, scale)
                  if len(g) > 1]
        assert len(groups) == 25
        for group in groups:
            with collecting() as lanes:
                common.compute_lanes(group, scale)
            with collecting() as alone:
                for cell in group:
                    common.compute_lanes([cell], scale)
            assert lanes.snapshot() == alone.snapshot(), group[0].cell_id

    def test_pool_runs_lane_groups(self, _isolated, monkeypatch):
        """At ``jobs=2`` the workers solve the dense and the ragged
        group as lanes: every payload equals the serial one, and each
        cell is computed and stored once."""
        from benchmarks.e2e.child import canonical
        cells = [*_lane_cells(SMALL), *_csr_lane_cells(SMALL)]
        execute_cells(cells, SMALL)
        serial = {c: canonical(cell_value(c, SMALL)) for c in cells}
        clear_cache()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(_isolated / "pool"))

        log = _isolated / "calls.log"

        def logged(name, real):
            def wrapper(*args, **kwargs):
                what = args[0]
                ids = (" ".join(c.cell_id for c in what)
                       if isinstance(what, list) else what.cell_id)
                if name != "store" or kwargs.get("persist", True):
                    with open(log, "a") as fh:
                        fh.write(f"{name} {os.getpid()} {ids}\n")
                return real(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(engine, "compute_lanes",
                            logged("lanes", engine.compute_lanes))
        monkeypatch.setattr(engine, "compute_cell",
                            logged("alone", engine.compute_cell))
        monkeypatch.setattr(common, "store_cell",
                            logged("store", common.store_cell))

        outcomes = execute_cells(cells, SMALL, jobs=2)
        assert [o.status for o in outcomes] == ["completed"] * len(cells)
        assert all(o.attempts == 1 for o in outcomes)
        calls = [line.split(" ", 2) for line in log.read_text().splitlines()]
        assert all(pid != str(os.getpid()) for _, pid, _ in calls)
        lanes = sorted(ids.split() for name, _, ids in calls
                       if name == "lanes")
        assert lanes == sorted([[c.cell_id for c in _lane_cells(SMALL)],
                                [c.cell_id for c in _csr_lane_cells(SMALL)]])
        assert not [ids for name, _, ids in calls if name == "alone"]
        stored = [ids for name, _, ids in calls if name == "store"]
        assert sorted(stored) == sorted(c.cell_id for c in cells)
        clear_cache()       # read back what the workers stored
        for cell in cells:
            assert result_cache().contains(cell.cell_id, SMALL.name)
            assert canonical(cell_value(cell, SMALL)) == serial[cell]

    def test_resume_recomputes_only_lost_lane_cells(self, _isolated,
                                                    monkeypatch):
        _check_resume(_isolated, monkeypatch, "zz_lanes", _lane_cells)

    def test_csr_and_grid_cg_cells_form_one_group_per_format(self):
        formats = ("fp32", "posit32es2")
        csr = common.cg_cells(SMALL, formats=formats, names=LANE_NAMES,
                              sparse=True)
        grid = grid_cells(SMALL, formats=formats, names=LANE_NAMES)
        other_rtol = common.cg_cells(SMALL, formats=("fp32",), rtol=1e-3,
                                     names=LANE_NAMES, sparse=True)
        groups = engine._lane_groups(list(csr + grid + other_rtol), SMALL)
        keys = [common.lane_key(g[0], SMALL) for g in groups]
        lanes = [g for g, key in zip(groups, keys) if key[0] == "cg-csr"]
        assert [[c.cell_id for c in g] for g in lanes] == [
            [c.cell_id for c in csr + grid
             if c.fmt == fmt and c.option("solver", "cg") == "cg"]
            for fmt in formats] + [[c.cell_id for c in other_rtol]]
        assert {common.lane_key(g[0], SMALL) for g in lanes} == {
            ("cg-csr", "fp32", 1e-5), ("cg-csr", "posit32es2", 1e-5),
            ("cg-csr", "fp32", 1e-3)}
        # BiCGSTAB and GMRES grid cells form groups of their own
        assert sorted(c.cell_id for g in groups if g not in lanes
                      for c in g) == sorted(
            c.cell_id for c in grid if c.option("solver") != "cg")
        assert all(key[0] in ("bicgstab-csr", "gmres-csr")
                   for key in keys if key[0] != "cg-csr")

    def test_bicgstab_and_gmres_grid_cells_group_by_solver_and_format(
            self):
        formats = ("fp32", "takum16")
        grid = grid_cells(SMALL, solvers=("bicgstab", "gmres"),
                          formats=formats, names=LANE_NAMES)
        other_rtol = grid_cells(SMALL, solvers=("gmres",),
                                formats=("fp32",), rtol=1e-3,
                                names=LANE_NAMES)
        groups = engine._lane_groups(list(grid + other_rtol), SMALL)
        assert [[c.cell_id for c in g] for g in groups] == [
            [c.cell_id for c in grid
             if c.option("solver") == solver and c.fmt == fmt]
            for solver in ("bicgstab", "gmres") for fmt in formats] + [
            [c.cell_id for c in other_rtol]]
        assert [common.lane_key(g[0], SMALL) for g in groups] == [
            ("bicgstab-csr", "fp32", 1e-5), ("bicgstab-csr", "takum16", 1e-5),
            ("gmres-csr", "fp32", 1e-5), ("gmres-csr", "takum16", 1e-5),
            ("gmres-csr", "fp32", 1e-3)]

    def test_pool_runs_bicgstab_and_gmres_groups(self, _isolated,
                                                 monkeypatch):
        """At ``jobs=2`` a worker solves each BiCGSTAB and GMRES group
        with one ``compute_lanes`` call, and the payloads read back
        from disk equal the serial ones, BiCGSTAB traces included."""
        from benchmarks.e2e.child import canonical
        scale = SCALES["smoke"]
        groups = [grid_cells(scale, solvers=(solver,), formats=("fp32",),
                             names=("nos1", "nos2", "bcsstk02"))
                  for solver in ("bicgstab", "gmres")]
        cells = [c for g in groups for c in g]
        serial = {c: canonical(common.compute_cell(c, scale))
                  for c in cells}
        log = _isolated / "calls.log"
        real = engine.compute_lanes

        def logged(cells, scale):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} "
                         f"{' '.join(c.cell_id for c in cells)}\n")
            return real(cells, scale)
        monkeypatch.setattr(engine, "compute_lanes", logged)
        outcomes = execute_cells(cells, scale, jobs=2)
        assert [o.status for o in outcomes] == ["completed"] * len(cells)
        calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert all(pid != str(os.getpid()) for pid, _ in calls)
        assert sorted(ids.split() for _, ids in calls) == sorted(
            [c.cell_id for c in g] for g in groups)
        clear_cache()       # read back what the workers stored
        for cell in cells:
            assert result_cache().contains(cell.cell_id, scale.name)
            assert canonical(cell_value(cell, scale)) == serial[cell]

    def test_raising_ragged_group_runs_its_cells_one_by_one(
            self, monkeypatch, capsys):
        from benchmarks.e2e.child import canonical
        real = common.conjugate_gradient_lanes

        def broken(ctx, systems, **kwargs):
            # a cell alone runs as a one-lane group, which still works
            if len(systems) > 1:
                raise RuntimeError("ragged lane bug")
            return real(ctx, systems, **kwargs)
        monkeypatch.setattr(common, "conjugate_gradient_lanes", broken)
        alone = _spy(monkeypatch, "compute_cell")
        cells = list(_csr_lane_cells(SMALL))
        outcomes = execute_cells(cells, SMALL)
        assert [o.status for o in outcomes] == ["completed"] * len(cells)
        assert alone == [c.cell_id for c in cells]
        assert "ragged lane bug" in capsys.readouterr().err
        for cell in cells:
            assert canonical(cell_value(cell, SMALL)) == \
                canonical(common.compute_cell(cell, SMALL))

    def test_resume_recomputes_only_lost_ragged_lane_cells(
            self, _isolated, monkeypatch):
        _check_resume(_isolated, monkeypatch, "zz_csr_lanes",
                      _csr_lane_cells)


def _check_resume(results_dir, monkeypatch, exp_id, cells_fn):
    """Run a lane sweep, lose two of its cells and the manifest entry,
    and resume: only the lost cells run, as one lane group, and the CSV
    comes back byte for byte."""
    from repro.experiments import runner
    from repro.resilience.manifest import MANIFEST_NAME, RunManifest
    monkeypatch.setitem(runner.EXPERIMENTS, exp_id,
                        _sweep(exp_id, cells_fn))
    csv = results_dir / f"{exp_id}.csv"
    assert main([exp_id]) == 0
    with open(csv, "rb") as fh:
        first = fh.read()

    cells = cells_fn(SMALL)
    lost = [cells[1], cells[2]]
    cache = result_cache()
    for cell in lost:
        os.unlink(cache.entry_path(cell.cell_id, SMALL.name))
    manifest_path = os.path.join(str(results_dir), MANIFEST_NAME)
    manifest = RunManifest(manifest_path).load()
    del manifest.data["runs"][exp_id]
    manifest.save()
    os.unlink(csv)
    clear_cache()

    lanes = _spy(monkeypatch, "compute_lanes")
    alone = _spy(monkeypatch, "compute_cell")
    assert main([exp_id, "--resume"]) == 0
    assert lanes == [[c.cell_id for c in lost]] and alone == []
    with open(csv, "rb") as fh:
        assert fh.read() == first
    manifest = RunManifest(manifest_path).load()
    for cell in cells:
        assert manifest.get_cell(cell.cell_id)["status"] == \
            ("completed" if cell in lost else "cached")
