"""The benchmark harness: start each pass in a fresh process, check
every output against the pinned digests, and print every metric.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload W] [--seed N]
        [--runs K] [--seconds S] [--trace [0|1]]

One run of a workload is a fixed number of cold passes, enough for
``--seconds`` of sweep time at the baseline speed (the count never
depends on how fast the code under test is); on the engine workload
each pass ends with the warm sweeps that read its results back.  Every
time a cold pass reports is in reference seconds: wall time scaled by
the host's speed, sampled while the pass runs (:mod:`.hostspeed`).
``--trace`` adds one traced process.  ``--seconds`` and the ``0|1``
value of ``--trace`` are the interface a benchmark runner drives
(``--trace`` alone means ``--trace 1``).  Every process gets a fresh
results directory under ``.bench_work/`` whose table store is shared,
BLAS/OpenMP threads pinned to 1, and no inherited ``REPRO_*`` knobs.
The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
BENCHMARK.json lists, or with ``--trace`` the per-layer ones).

Exit codes: 0 ok; 1 an output was wrong (digest, golden CSV column or
a failed cell), and no metrics are recorded; 2 bad invocation or no
``src/repro`` next to the benchmark; 3 a pass crashed or ran out of
time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

from .layers import LAYER_METRICS
from .stats import tail_mean, tail_percentile
from .workloads import WORKLOADS, Workload

__all__ = ["main", "run_workload", "end_to_end", "check_outputs",
           "END_TO_END"]

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_work"
PINNED = Path(__file__).with_name("digests.json")

#: ``(name, unit)`` of every end-to-end metric BENCHMARK.json lists, all
#: lower-is-better.  ``warm_s`` is printed for the engine workload only:
#: a workload must report each listed metric (see README.md).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cell_p50_ms", "ms"),
              ("cell_tail_ms", "ms"), ("peak_rss_mb", "MB"))

#: default ``--seconds``, the ``run_seconds`` of BENCHMARK.json
RUN_SECONDS = 9
#: one workload run, every pass included, must finish within this
RUN_BUDGET_S = 170.0

_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A pass crashed, printed no result, or ran out of time."""


# -- passes ----------------------------------------------------------------

def _results_dir(run_dir: Path, name: str) -> Path:
    """A fresh results dir whose table store is the shared one."""
    path = run_dir / name
    (path / ".cache").mkdir(parents=True)
    (path / ".cache" / "tables").symlink_to(WORK / "tables",
                                            target_is_directory=True)
    return path


def _env(results_dir: Path, cache: bool, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update({t: "1" for t in _THREADS})
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               PYTHONHASHSEED="0", TMPDIR=str(tmp),
               REPRO_RESULTS_DIR=str(results_dir),
               REPRO_CACHE="on" if cache else "off")
    return env


def _run_child(job: dict, env: dict, deadline: float) -> dict:
    """Run one pass to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget exhausted before the {job['kind']} "
                         f"pass")
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # timeout, Ctrl-C or SIGTERM: the pass and any pool workers it
        # started share one process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{job['kind']} pass exceeded the "
                             f"{RUN_BUDGET_S:g} s run budget") from None
        raise
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['kind']} pass exited {proc.returncode}:\n"
                         + "\n".join(err.splitlines()[-20:]))
    return json.loads(lines[-1])


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, spans_path: Path | None = None) -> dict:
    """One run: ``workload.cold_passes(seconds)`` cold passes (on the
    engine workload each with its warm sweeps), then the optional
    trace.  The first pass in a fresh checkout also builds the shared
    rounding tables (outside its timed sweep); every later process
    loads them."""
    deadline = time.monotonic() + RUN_BUDGET_S
    serial = not workload.experiments
    (WORK / "tables").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tmp = run_dir / "tmp"
    tmp.mkdir()
    job = {"workload": asdict(workload), "seed": seed}
    cold: list[dict] = []
    try:
        for index in range(workload.cold_passes(seconds)):
            cold.append(_run_child(
                {**job, "kind": "cold", "pass": index},
                _env(_results_dir(run_dir, f"cold{index}"), not serial,
                     tmp), deadline))
        traced = None
        if trace:
            traced = _run_child(
                {**job, "kind": "trace", "pass": 0,
                 "spans_path": str(spans_path)},
                _env(_results_dir(run_dir, "trace"), not serial, tmp),
                deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"cold": cold, "trace": traced}


# -- checks and metrics ----------------------------------------------------

def _sweeps(run: dict) -> list[tuple[str, dict]]:
    """Every checked sweep: each cold pass, then the traced one; on the
    engine workload each one's last warm sweep too."""
    out = []
    for r in run["cold"]:
        out.append(("cold", r))
        if r["warm"] is not None:
            out.append(("warm", r["warm"]))
    traced = run["trace"]
    if traced is not None:
        out.append(("traced cold", traced))
        if traced["warm"] is not None:
            out.append(("traced warm", traced["warm"]))
    return out


def check_outputs(name: str, run: dict, pinned: str | None) -> list[str]:
    """Every way the run's outputs can be wrong, as messages."""
    problems = []
    for kind, r in _sweeps(run):
        if r["digest"] != pinned:
            problems.append(f"{name} {kind}: payload digest {r['digest']} "
                            f"!= pinned {pinned}")
        if r["failed"]:
            problems.append(f"{name} {kind}: {r['failed']} cell(s) failed")
        problems += [f"{name} {kind}: golden column {c}"
                     for c in r["golden"]]
        if kind.endswith("warm") and r["not_cached"]:
            problems.append(f"{name} {kind}: {r['not_cached']} cell(s) "
                            f"missed the result cache")
    return problems


def end_to_end(run: dict) -> dict[str, tuple]:
    """``name -> (value, samples, note)`` for one run.

    Times are reference seconds (see :mod:`.hostspeed`), medians over
    the run's cold passes: of set-up, of the cold sweep's wall and of
    the warm sweeps.  A cell's time is its median over the passes, so
    one pass that a busy neighbour slowed does not move it.  The passes
    come in order-reversed pairs, so that median weighs the cell's cost
    after and before each other matrix equally.  Over those per-cell
    times: the median, and the tail's mean from its percentile up.
    Memory is the median too.
    """
    cold = run["cold"]
    cells = {cid: median([r["durations"][cid] for r in cold])
             for cid in cold[0]["durations"]}
    p, _ = tail_percentile(len(cells))
    setups = [r["setup_s"] for r in cold]
    raw = median([r["raw_wall_s"] for r in cold])
    out = {
        "setup_s": (median(setups), len(setups), "processes"),
        "wall_s": (median([r["wall_s"] for r in cold]), len(cold),
                   f"cold passes; raw wall {raw:.3f} s"),
        "cell_p50_ms": (median(cells.values()) * 1e3, len(cells),
                        f"cells, median of {len(cold)}"),
        "cell_tail_ms": (tail_mean(cells.values(), p) * 1e3, len(cells),
                         f"cells, median of {len(cold)}, mean from p{p}"),
        "peak_rss_mb": (median([r["rss_mb"] for r in cold]), len(cold),
                        "cold passes"),
    }
    if cold[0]["warm"] is not None:
        walls = [w for r in cold for w in r["warm"]["walls"]]
        out["warm_s"] = (median(walls), len(walls), "warm sweeps")
    return out


def _layer_metrics(run: dict) -> dict[str, tuple]:
    traced = run["trace"]
    values = dict(traced["layers"])
    # the traced pass runs without the host-speed clock: raw over raw
    values["trace_overhead"] = traced["wall_s"] / median(
        [r["raw_wall_s"] for r in run["cold"]])
    return {name: (values[name], 1, "traced process")
            for name, _, _ in LAYER_METRICS}


def _counts(run: dict) -> tuple[int, int]:
    sweeps = [r for _, r in _sweeps(run)]
    return (sum(r["attempted"] for r in sweeps),
            sum(r["failed"] for r in sweeps))


def _combine(per_run: list[dict]) -> dict[str, tuple]:
    """Median over runs; sample counts add up."""
    return {name: (median([m[name][0] for m in per_run]),
                   sum(m[name][1] for m in per_run), per_run[0][name][2])
            for name in per_run[0]}


# -- printing --------------------------------------------------------------

def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"  {title}")
    for name, (value, samples, note) in metrics.items():
        print(f"    {name:<30} {value:>14.6g} {units[name]:<6} "
              f"(n={samples} {note})")


def _print_trace(traced: dict) -> None:
    wall = traced["wall_s"]
    split = traced["breakdown"]
    print(f"  traced cold pass: wall {wall:.3f} s; self time by layer:")
    for layer, seconds in split.items():
        share = 100 * seconds / wall
        print(f"    {layer:<10} {seconds:10.3f} s {share:6.1f} %")
    inner = sum(split[k] for k in ("setup", "solver", "op", "fold",
                                   "rounding"))
    print(f"    sum {sum(split.values()):.3f} s; set-up through rounding "
          f"explain {100 * inner / wall:.1f} % of the wall")
    if traced["costmodel"]:
        print("  rounding self time = c0 + c1 * elements, vs "
              "python -m repro.kernels.bench --only quantize/:")
    for fmt, row in traced["costmodel"].items():
        print(f"    {fmt:<11} c0 {row['c0_us']:7.2f} us  c1 "
              f"{row['c1_ns']:7.3f} ns  R2 {row['r2']:.3f}  "
              f"calls {row['calls']}")
        for n in (32, 65536):
            fit, bench = row[f"n{n}"]["fit_us"], row[f"n{n}"]["bench_us"]
            ratio = fit / bench
            flag = "" if 0.5 <= ratio <= 2.0 else "  outside 2x"
            print(f"      n={n:<6} fit {fit:9.2f} us  bench {bench:9.2f} us"
                  f"  ratio {ratio:5.2f}{flag}")


# -- entry point -----------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", action="append",
                     choices=sorted(WORKLOADS),
                     help="repeatable; default: every workload")
    run.add_argument("--seed", type=int, default=0,
                     help="shuffles cell dispatch order (0: canonical)")
    run.add_argument("--runs", type=int, default=1,
                     help="independent runs; metrics are their medians")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="sweep time one run measures at the baseline "
                          "speed; sets the workload's cold-pass count")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="also run one traced process; report the "
                          "per-layer metrics")
    return parser


def main(argv: list[str] | None = None,
         pinned: dict[str, str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # a SIGTERM unwinds like Ctrl-C, so the running pass is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.runs < 1 or args.seconds < 0 or args.seed < 0:
        print("--runs must be >= 1; --seconds and --seed >= 0",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if pinned is None:
        pinned = json.loads(PINNED.read_text())
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    units = dict(END_TO_END, warm_s="s")
    units.update({name: unit for name, unit, _ in LAYER_METRICS})
    problems: list[str] = []
    attempted = failed = 0
    reported: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        spans_path = WORK / f"{name}.spans.jsonl"
        e2e_runs, layer_runs = [], []
        w_attempted = w_failed = 0
        print(f"== {name}: scale {workload.scale}, jobs {workload.jobs}, "
              f"seed {args.seed}, {args.runs} run(s)", flush=True)
        for _ in range(args.runs):
            try:
                run = run_workload(workload, args.seed, args.seconds,
                                   bool(args.trace), spans_path)
            except BenchError as exc:
                print(f"!! {name}: {exc}", file=sys.stderr)
                return 3
            problems += check_outputs(name, run, pinned.get(name))
            a, f = _counts(run)
            w_attempted += a
            w_failed += f
            e2e_runs.append(end_to_end(run))
            if args.trace:
                layer_runs.append(_layer_metrics(run))
        attempted += w_attempted
        failed += w_failed
        chosen = _combine(e2e_runs)
        _print_metrics(f"end-to-end, untraced (median of {args.runs} "
                       f"run(s))", chosen, units)
        print(f"    {'fail_frac':<30} {w_failed / w_attempted:>14.6g} "
              f"{'ratio':<6} ({w_failed}/{w_attempted} cells)")
        chosen = {k: v for k, v in chosen.items() if k in dict(END_TO_END)}
        if args.trace:
            _print_trace(run["trace"])
            chosen = _combine(layer_runs)
            _print_metrics("per-layer, traced", chosen, units)
            print(f"  spans: {spans_path}")
        prefix = "" if len(names) == 1 else f"{name}."
        reported.update({prefix + k: {"value": v[0], "unit": units[k]}
                         for k, v in chosen.items()})
    for problem in dict.fromkeys(problems):
        print(f"!! {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": reported if correct else {}}))
    return 0 if correct else 1
