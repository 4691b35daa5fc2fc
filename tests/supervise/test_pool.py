"""The supervised pool: crashes, watchdog kills, quarantine, chaos.

Crash doubles are guarded by the parent's PID so they only ever blow
up inside a disposable worker process — a serial fallback (or a bug
routing them to the parent) computes normally instead of killing
pytest.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import SCALES
from repro.experiments import common, engine
from repro.experiments.common import Cell, cell_value, clear_cache
from repro.experiments.engine import execute_cells
from repro.supervise.pool import SupervisedPool
from tests.experiments.test_engine import _one_group

SMALL = SCALES["small"]
PARENT = os.getpid()

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="supervised-pool tests patch compute doubles via fork")


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    for var in ("REPRO_CHAOS", "REPRO_CHAOS_SEED", "REPRO_CHAOS_HANG_S",
                "REPRO_CACHE", "REPRO_SUPERVISE_START"):
        monkeypatch.delenv(var, raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


def _fake_compute(monkeypatch, fn):
    monkeypatch.setattr(engine, "compute_cell", fn)
    monkeypatch.setattr(common, "compute_cell", fn)
    monkeypatch.setattr(engine, "compute_lanes",
                        lambda cells, scale: [fn(c, scale) for c in cells])


def _crash_once_compute(monkeypatch, marker_dir, *, sig=None):
    """First attempt of every cell dies (os._exit or a signal);
    retries succeed.  Parent-side calls always succeed."""

    def compute(cell, scale):
        marker = os.path.join(str(marker_dir),
                              cell.cell_id.replace(":", "_"))
        if os.getpid() != PARENT and not os.path.exists(marker):
            with open(marker, "w"):
                pass
            if sig is not None:
                os.kill(os.getpid(), sig)
            os._exit(1)
        return {"v": cell.cell_id}
    _fake_compute(monkeypatch, compute)
    return compute


def _cells(n=3):
    return [Cell("cg", f"m{i}", "fp32") for i in range(n)]


class TestCrashRecovery:
    @pytest.mark.parametrize("sig", [None, signal.SIGKILL],
                             ids=["os._exit", "SIGKILL"])
    def test_killed_worker_costs_one_retry_not_the_sweep(
            self, tmp_path, monkeypatch, sig):
        _crash_once_compute(monkeypatch, tmp_path, sig=sig)
        cells = _cells(3)
        reports = []
        outcomes = execute_cells(cells, SMALL, jobs=2, backoff=0.01,
                                 on_report=reports.append)
        assert [o.status for o in outcomes] == ["completed"] * 3
        assert all(cell_value(c, SMALL) == {"v": c.cell_id}
                   for c in cells)
        [report] = reports
        assert report.worker_deaths == 3       # one death per cell
        assert report.respawns >= 1
        assert not report.quarantined and not report.degraded
        # every crash carries diagnostics for the manifest
        for crash in report.crashes:
            assert crash.cell is not None
            assert crash.kind == "crash"
            if sig is not None:
                assert crash.signal == "SIGKILL"
                assert crash.exitcode == -signal.SIGKILL

    def test_second_attempt_increments_attempt_counter(self, tmp_path,
                                                       monkeypatch):
        _crash_once_compute(monkeypatch, tmp_path)
        [outcome] = execute_cells(_cells(1), SMALL, jobs=2,
                                  backoff=0.01)
        assert outcome.status == "completed"
        assert outcome.attempts == 2


class TestQuarantine:
    def test_poison_cell_is_quarantined_not_retried_forever(
            self, monkeypatch):
        bad = Cell("cg", "poison", "fp32")

        def compute(cell, scale):
            if cell == bad and os.getpid() != PARENT:
                os._exit(1)
            return {"v": cell.cell_id}
        _fake_compute(monkeypatch, compute)

        cells = [*_cells(2), bad]
        reports = []
        outcomes = execute_cells(cells, SMALL, jobs=2, backoff=0.01,
                                 max_worker_deaths=2,
                                 on_report=reports.append)
        by_cell = {o.cell: o for o in outcomes}
        assert by_cell[bad].status == "poisoned"
        assert not by_cell[bad].ok
        assert "quarantined after 2 worker death(s)" in by_cell[bad].error
        for cell in _cells(2):
            assert by_cell[cell].status == "completed"
        [report] = reports
        assert report.quarantined == [bad.cell_id]
        assert sum(1 for c in report.crashes
                   if c.cell == bad.cell_id) == 2

    def test_max_worker_deaths_validated(self):
        with pytest.raises(ValueError):
            SupervisedPool(2, SMALL, max_worker_deaths=0)
        with pytest.raises(ValueError):
            SupervisedPool(0, SMALL)


class TestWatchdog:
    def test_hung_worker_is_terminated_then_killed(self, monkeypatch):
        """A worker stuck in 'native code' (SIGTERM/SIGALRM blocked)
        must be bounded by the external SIGTERM→SIGKILL escalation."""
        import time as _time

        def hang(cell, scale):
            if os.getpid() != PARENT:
                signal.pthread_sigmask(
                    signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGALRM})
                _time.sleep(60.0)
            return {"v": cell.cell_id}
        _fake_compute(monkeypatch, hang)

        cell = Cell("cg", "hang", "fp32")
        outcomes: list = []
        pool = SupervisedPool(1, SMALL, timeout=0.3, grace=0.3,
                              backoff=0.01, max_worker_deaths=1,
                              heartbeat_interval=0.1)
        t0 = _time.monotonic()
        leftover = pool.run([(cell,)], outcomes.append)
        assert _time.monotonic() - t0 < 30.0
        assert leftover == []
        [outcome] = outcomes
        assert outcome.status == "poisoned"     # max_worker_deaths=1
        report = pool.report
        assert report.term_kills >= 1
        assert report.hard_kills >= 1           # SIGTERM bounced off
        [crash] = report.crashes
        assert crash.kind == "watchdog"
        assert crash.signal == "SIGKILL"
        assert crash.last_heartbeat_age_s is not None

    def test_soft_timeout_is_final_not_a_worker_death(self, monkeypatch):
        """A SIGALRM (in-worker) timeout is deterministic: reported
        once, never retried, and the worker survives to be reused."""
        import time as _time

        def sleepy(cell, scale):
            if os.getpid() != PARENT:
                _time.sleep(60.0)
            return {"v": cell.cell_id}
        _fake_compute(monkeypatch, sleepy)

        cell = Cell("cg", "slow", "fp32")
        reports = []
        [outcome] = execute_cells([cell], SMALL, jobs=2, timeout=0.3,
                                  grace=5.0, retries=3, backoff=0.01,
                                  on_report=reports.append)
        assert outcome.status == "timeout"
        assert outcome.attempts == 1
        [report] = reports
        assert report.worker_deaths == 0
        assert report.term_kills == 0


class TestDegradation:
    def test_death_streak_degrades_to_serial(self, monkeypatch):
        """A pool whose workers keep dying without completing anything
        hands the cells back; the engine finishes them in-process."""

        def compute(cell, scale):
            if os.getpid() != PARENT:
                os._exit(1)
            return {"v": cell.cell_id}
        _fake_compute(monkeypatch, compute)

        cells = _cells(3)
        reports = []
        outcomes = execute_cells(cells, SMALL, jobs=2, backoff=0.01,
                                 max_worker_deaths=50,
                                 on_report=reports.append)
        assert [o.status for o in outcomes] == ["completed"] * 3
        [report] = reports
        assert report.degraded
        assert report.worker_deaths >= report.jobs * 2
        assert not report.quarantined

    def test_broken_pool_constructor_falls_back_to_serial(
            self, monkeypatch, capsys):
        _fake_compute(monkeypatch, lambda cell, scale: {"ok": True})
        monkeypatch.setenv("REPRO_SUPERVISE_START", "not-a-method")
        outcomes = execute_cells(_cells(2), SMALL, jobs=2)
        assert [o.status for o in outcomes] == ["completed"] * 2
        assert "finishing remaining cells serially" in \
            capsys.readouterr().err


class TestChaosInjection:
    def test_seeded_kill_chaos_sweep_still_completes(self, tmp_path,
                                                     monkeypatch):
        """Under deterministic kill chaos the pool retries its way to a
        complete sweep with exactly the same payloads as a calm run."""
        _fake_compute(monkeypatch,
                      lambda cell, scale: {"v": cell.cell_id})
        cells = _cells(8)

        calm = {c: cell_value(c, SMALL)
                for c, o in zip(cells, execute_cells(cells, SMALL))}
        clear_cache()    # cold memo — and a cold disk cache below
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "chaos"))

        monkeypatch.setenv("REPRO_CHAOS", "kill:0.3")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1337")
        reports = []
        # a generous quarantine threshold: this test is about retries
        # winning, not about an unlucky cell getting poisoned
        outcomes = execute_cells(cells, SMALL, jobs=2, backoff=0.01,
                                 max_worker_deaths=8,
                                 on_report=reports.append)
        assert [o.status for o in outcomes] == ["completed"] * 8
        assert {c: cell_value(c, SMALL) for c in cells} == calm
        [report] = reports
        assert report.worker_deaths >= 1    # the chaos actually fired
        assert all(c.signal == "SIGKILL" for c in report.crashes)

    def test_chaos_never_kills_the_serial_path(self, monkeypatch):
        _fake_compute(monkeypatch,
                      lambda cell, scale: {"v": cell.cell_id})
        monkeypatch.setenv("REPRO_CHAOS", "kill:1,hang:1")
        outcomes = execute_cells(_cells(2), SMALL)    # jobs=1: in-process
        assert [o.status for o in outcomes] == ["completed"] * 2


def _lanes_then_alone(monkeypatch, lanes, alone):
    """Lane groups compute through *lanes*, cells alone through
    *alone*."""
    monkeypatch.setattr(engine, "compute_lanes", lanes)
    monkeypatch.setattr(engine, "compute_cell", alone)
    monkeypatch.setattr(common, "compute_cell", alone)


class TestLaneGroups:
    """A lane group is one dispatch; when it fails as a whole, its
    cells run alone and settle as they would have alone."""

    def test_killed_group_runs_its_cells_alone(self, monkeypatch):
        bad = Cell("cg", "bad", "fp32")

        def lanes(cells, scale):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            return [{"v": c.cell_id} for c in cells]

        def alone(cell, scale):
            if cell == bad and os.getpid() != PARENT:
                os._exit(1)
            return {"v": cell.cell_id}
        _one_group(monkeypatch)
        _lanes_then_alone(monkeypatch, lanes, alone)
        cells = [*_cells(3), bad]
        reports = []
        outcomes = execute_cells(cells, SMALL, jobs=2, backoff=0.01,
                                 max_worker_deaths=1,
                                 on_report=reports.append)
        by_cell = {o.cell: o for o in outcomes}
        # a group's death is no cell's death: only the cell that kills
        # a worker on its own is quarantined
        assert by_cell[bad].status == "poisoned"
        for cell in _cells(3):
            assert by_cell[cell].status == "completed"
            assert by_cell[cell].attempts == 1
            assert cell_value(cell, SMALL) == {"v": cell.cell_id}
        [report] = reports
        assert report.quarantined == [bad.cell_id]
        groups = sorted(c.cells for c in report.crashes if len(c.cells) > 1)
        assert groups == [tuple(c.cell_id for c in cells[:2]),
                          tuple(c.cell_id for c in cells[2:])]
        assert all(c.signal == "SIGKILL" and c.kind == "crash"
                   for c in report.crashes if len(c.cells) > 1)
        assert [c.cells for c in report.crashes
                if len(c.cells) == 1] == [(bad.cell_id,)]

    def test_soft_timed_out_group_runs_its_cells_alone(self, monkeypatch):
        import time as _time

        def lanes(cells, scale):
            if os.getpid() != PARENT:
                _time.sleep(60.0)
            return [{"v": c.cell_id} for c in cells]

        def alone(cell, scale):
            if cell.matrix == "slow" and os.getpid() != PARENT:
                _time.sleep(60.0)
            return {"v": cell.cell_id}
        _lanes_then_alone(monkeypatch, lanes, alone)
        slow = Cell("cg", "slow", "fp32")
        cells = (*_cells(2), slow)
        outcomes = []
        pool = SupervisedPool(1, SMALL, timeout=0.3, grace=5.0, retries=3,
                              backoff=0.01)
        t0 = _time.monotonic()
        assert pool.run([cells], outcomes.append) == []
        assert _time.monotonic() - t0 < 30.0
        by_cell = {o.cell: o for o in outcomes}
        assert [by_cell[c].status for c in cells] == \
            ["completed", "completed", "timeout"]
        assert [by_cell[c].attempts for c in cells] == [1, 1, 1]
        # the cell's own budget, not the group's
        assert "budget of 0.3s exceeded" in by_cell[slow].error
        assert pool.report.worker_deaths == 0
        assert pool.report.term_kills == 0

    def test_raising_group_runs_its_cells_alone(self, monkeypatch,
                                                 capsys):
        def lanes(cells, scale):
            raise RuntimeError("lane bug")

        def alone(cell, scale):
            if cell.matrix == "bad":
                raise ValueError("permanently broken")
            return {"v": cell.cell_id}
        _lanes_then_alone(monkeypatch, lanes, alone)
        bad = Cell("cg", "bad", "fp32")
        cells = (*_cells(2), bad)
        outcomes = []
        pool = SupervisedPool(1, SMALL, retries=1, backoff=0.01)
        assert pool.run([cells], outcomes.append) == []
        by_cell = {o.cell: o for o in outcomes}
        assert [by_cell[c].status for c in cells] == \
            ["completed", "completed", "failed"]
        assert [by_cell[c].attempts for c in cells] == [1, 1, 2]
        assert "permanently broken" in by_cell[bad].error
        assert "lane bug" in capsys.readouterr().err
        assert pool.report.worker_deaths == 0

    def test_watchdog_budget_is_timeout_times_group_size(self, monkeypatch,
                                                         capsys):
        """A hung group of three is killed after 3 × timeout + grace,
        not after one cell's budget, and its cells then finish alone
        although ``max_worker_deaths=1``."""
        import time as _time

        def lanes(cells, scale):
            if os.getpid() != PARENT:
                signal.pthread_sigmask(
                    signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGALRM})
                _time.sleep(60.0)
            return [{"v": c.cell_id} for c in cells]
        _lanes_then_alone(monkeypatch, lanes,
                          lambda cell, scale: {"v": cell.cell_id})
        cells = tuple(_cells(3))
        outcomes = []
        pool = SupervisedPool(1, SMALL, timeout=0.3, grace=0.3,
                              backoff=0.01, max_worker_deaths=1,
                              heartbeat_interval=0.1)
        t0 = _time.monotonic()
        assert pool.run([cells], outcomes.append) == []
        elapsed = _time.monotonic() - t0
        assert 3 * 0.3 + 0.3 <= elapsed < 30.0
        assert [o.status for o in outcomes] == ["completed"] * 3
        [crash] = pool.report.crashes
        assert crash.kind == "watchdog"
        assert crash.cells == tuple(c.cell_id for c in cells)
        assert not pool.report.quarantined
        assert "exceeded 0.9s budget" in capsys.readouterr().err

    def test_groups_split_into_at_most_jobs_chunks(self, monkeypatch):
        a, b, c, d, e = _cells(5)
        assert engine._split_groups([[a, b, c, d, e]], 2) == \
            [[a, b, c], [d, e]]
        assert engine._split_groups([[a, b, c, d], [e]], 4) == \
            [[a], [b], [c, d], [e]]
        assert engine._split_groups([[a, b], [c]], 2) == [[a, b], [c]]
        assert engine._split_groups([[a], [b]], 4) == [[a], [b]]

        _one_group(monkeypatch)
        _fake_compute(monkeypatch, lambda cell, scale: {"v": cell.cell_id})
        dispatched = []
        real_run = SupervisedPool.run

        def run(pool, groups, settle):
            dispatched.append([len(g) for g in groups])
            return real_run(pool, groups, settle)
        monkeypatch.setattr(SupervisedPool, "run", run)
        outcomes = execute_cells(_cells(5), SMALL, jobs=3)
        assert [o.status for o in outcomes] == ["completed"] * 5
        assert dispatched == [[2, 1, 2]]


class TestSweepSurvivesWorkerDeath:
    """The BrokenProcessPool regression, end to end through the runner:
    a worker SIGKILLed mid-sweep must cost a retry, not the sweep — the
    CSV artifact stays byte-identical to a calm serial run and the
    manifest tells the crash story."""

    def test_sigkilled_worker_mid_sweep(self, tmp_path, monkeypatch):
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        from tests.experiments.test_engine import (_mini_cells,
                                                   _register_mini)
        from repro.experiments.runner import main
        _register_mini(monkeypatch)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "calm"))
        assert main(["zz-mini", "--jobs", "1"]) == 0
        with open(tmp_path / "calm" / "zz_mini.csv", "rb") as fh:
            calm_csv = fh.read()
        clear_cache()

        # the first worker attempt on two of the cells is SIGKILLed
        # mid-compute (two, not all: a streak of deaths with zero
        # completed cells would — correctly — degrade the pool to
        # serial, which is a different test)
        doomed = {c.cell_id for c in _mini_cells(SMALL)[:2]}
        real_compute = common.compute_cell

        def crashy(cell, scale):
            marker = os.path.join(str(tmp_path),
                                  cell.cell_id.replace(":", "_"))
            if (os.getpid() != PARENT and cell.cell_id in doomed
                    and not os.path.exists(marker)):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return real_compute(cell, scale)
        _fake_compute(monkeypatch, crashy)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "chaos"))
        assert main(["zz-mini", "--jobs", "2", "--backoff", "0.01"]) == 0
        with open(tmp_path / "chaos" / "zz_mini.csv", "rb") as fh:
            assert fh.read() == calm_csv
        assert calm_csv.count(b"\n") > 1

        manifest = RunManifest(
            os.path.join(str(tmp_path / "chaos"), MANIFEST_NAME)).load()
        for cell in _mini_cells(SMALL):
            assert manifest.get_cell(cell.cell_id)["status"] == \
                "completed"
        section = manifest.get_section("supervision")
        assert section["worker_deaths"] == len(doomed)
        assert section["respawns"] >= 1
        assert section["quarantined"] == [] and not section["degraded"]
        assert {c["cell"] for c in section["crashes"]} == doomed
        assert all(c["signal"] == "SIGKILL"
                   for c in section["crashes"])

    def test_poisoned_cell_reaches_the_manifest(self, tmp_path,
                                                monkeypatch, capsys):
        from repro.resilience.manifest import MANIFEST_NAME, RunManifest
        from tests.experiments.test_engine import (_mini_cells,
                                                   _register_mini)
        from repro.experiments.runner import main
        _register_mini(monkeypatch)

        bad = _mini_cells(SMALL)[0]
        real_compute = common.compute_cell

        def poison(cell, scale):
            if cell.cell_id == bad.cell_id and os.getpid() != PARENT:
                os._exit(1)
            return real_compute(cell, scale)
        _fake_compute(monkeypatch, poison)

        assert main(["zz-mini", "--jobs", "2", "--backoff", "0.01",
                     "--max-worker-deaths", "2"]) == 1
        err = capsys.readouterr().err
        assert "quarantined as poisoned" in err

        manifest = RunManifest(
            os.path.join(str(tmp_path), MANIFEST_NAME)).load()
        entry = manifest.get_cell(bad.cell_id)
        assert entry["status"] == "poisoned"
        assert "quarantined after 2 worker death(s)" in entry["error"]
        for cell in _mini_cells(SMALL)[1:]:
            assert manifest.get_cell(cell.cell_id)["status"] == \
                "completed"
        section = manifest.get_section("supervision")
        assert section["quarantined"] == [bad.cell_id]
        assert manifest.get("zz-mini")["status"] == "failed"
