"""Tests of the benchmark harness itself (``pytest benchmarks/e2e -q``).

They use smoke-scale slices of the real workloads, so the whole file
runs in well under a minute.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

from repro.arith.context import FPContext
from repro.experiments import common
from repro.experiments.common import Cell

from . import child, harness
from .hostspeed import HostClock
from .layers import LAYER_METRICS, LayerTrace
from .stats import OnlineFit, tail_mean, tail_percentile
from .workloads import WORKLOADS, Workload, dispatch_order, enumerate_cells

#: 48 cells, enough for the tail rule; smoke cells take milliseconds
SLICE_MATRICES = ["bcsstk01", "bcsstk02", "lund_b", "nos1", "494_bus"]
SLICE = Workload(
    "slice", scale="smoke",
    cells=(("cg_cells", {"names": SLICE_MATRICES}),
           ("cg_cells", {"names": SLICE_MATRICES, "rescaled": True}),
           ("grid_cells", {"solvers": ["cg"], "names": ["bcsstk02"],
                           "formats": ["posit16es2", "takum16"]}),
           ("cholesky_cells", {"names": ["nos1"]}),
           ("ir_cells", {"names": ["nos1"], "higham": True})))


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """Cache off, an empty results dir and an empty in-process memo."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    common.clear_cache()
    yield
    common.clear_cache()


def _digest(cells, workload, tracer=None):
    sweep = child.run_cells(cells, workload, tracer)
    return child.payload_digest(cells, sweep["values"]), sweep


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = LayerTrace(clock=clock)

    def round_():
        clock.now += 2.0
    rnd = tr._counted("rounding", round_)

    def dot():
        clock.now += 1.0
        rnd()
        rnd()
    op = tr._counted("op.dot", dot)
    with tr.span("engine"):
        clock.now += 0.5
        with tr.span("cell", cell="cg:a:fp32"):
            clock.now += 0.25
            with tr.span("solver.cg"):
                op()
                clock.now += 3.0
    assert tr.totals["rounding"][:2] == [2, 4.0]
    assert tr.totals["op.dot"][:2] == [1, 1.0]
    assert tr.totals["solver.cg"][1] == 3.0
    assert tr.totals["cell"][1] == 0.25
    assert tr.totals["engine"][1] == 0.5
    # self times partition the root span exactly
    assert sum(t[1] for t in tr.totals.values()) == 8.75
    spans = {s["name"]: s for s in tr.spans}
    assert spans["engine"]["end"] - spans["engine"]["start"] == 8.75
    assert spans["solver.cg"]["parent"] == spans["cell"]["id"]
    assert spans["cell"]["parent"] == spans["engine"]["id"]
    assert spans["solver.cg"]["cell"] == "cg:a:fp32"
    assert spans["engine"]["cell"] is None


def test_tail_percentile_rule():
    # the four workloads' cell counts, and where the ladder starts
    assert tail_percentile(485) == (95, 24)
    assert tail_percentile(48) == (75, 12)
    assert tail_percentile(44) == (75, 11)
    assert tail_percentile(40) == (75, 10)
    assert tail_percentile(1455) == (99, 14)
    assert tail_percentile(152) == (90, 15)
    with pytest.raises(ValueError):
        tail_percentile(30)
    # the tail's mean starts at the percentile's own sample
    assert tail_mean(range(1, 101), 90) == 95.0
    assert tail_mean([4.0, 1.0, 3.0, 2.0], 75) == 3.5
    assert tail_mean([5.0], 99) == 5.0


def test_online_fit_recovers_a_line():
    fit = OnlineFit()
    for x in (1, 8, 64, 512, 4096):
        fit.add(x, 3e-6 + 2e-9 * x)
    assert fit.c0 == pytest.approx(3e-6)
    assert fit.c1 == pytest.approx(2e-9)
    assert fit.r2 == pytest.approx(1.0)


def test_host_clock_converts_intervals_additively():
    clock = HostClock()
    clock.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert clock.samples() >= 5
    mid = (t0 + t1) / 2
    whole = clock.ref_seconds(t0, t1)
    assert whole > 0
    assert clock.ref_seconds(t0, mid) + clock.ref_seconds(mid, t1) == \
        pytest.approx(whole)
    # a sample's own time is left out
    end, wall = clock._ends[1], clock._walls[1]
    assert clock.ref_seconds(end - wall, end) == 0.0


def test_cpu_share_clock_leaves_out_time_off_the_cpu():
    walls = {}
    for cpu_share in (False, True):
        clock = HostClock(cpu_share=cpu_share)
        clock.start()
        try:
            t0 = time.perf_counter()
            time.sleep(0.2)
            t1 = time.perf_counter()
        finally:
            clock.stop()
        walls[cpu_share] = clock.ref_seconds(t0, t1)
    assert walls[False] > 0.05
    assert walls[True] < 0.2 * walls[False]


def test_traced_and_untraced_slices_agree(fresh):
    cells = enumerate_cells(SLICE)
    plain, _ = _digest(cells, SLICE)
    common.clear_cache()
    dot = FPContext.dot
    tr = LayerTrace()
    tr.install_parent()
    tr.install_compute(sorted({c.fmt for c in cells} - {"fp64"}))
    try:
        traced, sweep = _digest(cells, SLICE, tr)
    finally:
        tr.uninstall()
    assert FPContext.dot is dot
    assert traced == plain
    m = tr.metrics()
    assert m["solver.cg.calls"] == 20 + 20 + 2
    assert m["solver.cholesky.calls"] == 3
    assert m["solver.ir.calls"] == 3
    assert m["op.matvec_csr.calls"] > 0 and m["op.matvec_dense.calls"] > 0
    assert m["rounding.posit32es2.calls"] > 0
    assert m["rounding.errstate_enters"] > 0
    # every second of the sweep lands in exactly one layer
    layers = ("engine", "cell", "setup", "solver", "op", "fold", "rounding")
    total = sum(tr.self_seconds(k) for k in layers)
    assert total == pytest.approx(sweep["wall_s"], rel=0.01)


def test_seeds_reorder_dispatch_but_not_the_digest(fresh):
    cells = enumerate_cells(SLICE)
    assert dispatch_order(cells, 0) == cells
    shuffled = dispatch_order(cells, 3)
    assert sorted(map(str, shuffled)) == sorted(map(str, cells))
    assert shuffled != cells

    def matrices(order):
        return list(dict.fromkeys(c.matrix for c in order))
    # the second pass of each pair runs the matrices in reverse
    assert matrices(dispatch_order(cells, 3, 1)) == matrices(shuffled)[::-1]
    assert matrices(dispatch_order(cells, 3, 3)) == \
        matrices(dispatch_order(cells, 3, 2))[::-1]
    first, _ = _digest(shuffled, SLICE)
    common.clear_cache()
    second, _ = _digest(dispatch_order(cells, 11), SLICE)
    assert first == second


def test_unknown_matrix_counts_as_failed(fresh):
    cells = [Cell("cg", "no_such_matrix", "fp32"),
             *enumerate_cells(SLICE)[:2]]
    sweep = child.run_cells(cells, SLICE)
    counts = child.summarize_outcomes(sweep["outcomes"])
    assert counts["attempted"] == 3 and counts["failed"] == 1
    assert cells[0] not in sweep["values"]
    assert len(sweep["values"]) == 2


def test_pass_count_depends_on_the_arguments_only():
    assert SLICE.cold_passes(0) == 1
    assert SLICE.cold_passes(1.0) == 1
    assert SLICE.cold_passes(1.5) == 4
    assert SLICE.cold_passes(4.5) == 6
    assert [WORKLOADS[w].cold_passes(harness.RUN_SECONDS)
            for w in WORKLOADS] == [4, 4, 4, 4]


def test_wrong_pinned_digest_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(WORKLOADS, SLICE.name, SLICE)
    monkeypatch.setattr(harness, "WORK", tmp_path)
    # --seconds 0: one cold pass
    rc = harness.main(["run", "--workload", SLICE.name, "--seconds", "0",
                       "--trace", "0"], pinned={SLICE.name: "0" * 64})
    out = capsys.readouterr()
    assert rc == 1
    last = json.loads(out.out.strip().splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
    assert last["attempted"] > 0 and last["failed"] == 0
    assert "payload digest" in out.err


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == harness.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(LAYER_METRICS)
    pinned = json.loads(harness.PINNED.read_text())
    assert sorted(pinned) == sorted(WORKLOADS)
