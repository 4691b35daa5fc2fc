"""Kernel microbenchmarks and the ``BENCH_kernels.json`` trajectory.

Measures the primitives every experiment is built on — quantize, dot,
matvec, rounded sum and blocked gemm — per format and size, and writes
a bench payload (``kind: "kernels"``) that ``python -m repro.telemetry
bench-diff`` compares against the committed
``benchmarks/BENCH_kernels.json`` the same way experiment sweeps diff
against ``BENCH_experiments.json``.

Timing protocol: each entry is the best of ``repeats`` timed loops
(min over medians is too clever; min over loop averages is the
standard microbench estimator robust to scheduler noise).  Quantize
entries additionally time the format's bitwise/softfloat reference
path, so the table-lookup speedup of :mod:`repro.kernels.lut` is
visible per size — including the sizes above the crossover where both
paths are the same code.

Run as a module::

    python -m repro.kernels.bench --output benchmarks/BENCH_kernels.json
    python -m repro.kernels.bench --only sparse/,table_cache/
    python -m repro.kernels.bench --sweep --sweep-baseline 5.68
    python -m repro.kernels.bench --sparse-sweep

``--only`` restricts measurement to entries whose id starts with one
of the comma-separated prefixes (the rest are skipped, not zeroed).
``--sweep`` times the fig06 smoke sweep's cell compute (result cache
off, serial) and records it under ``sweeps.fig06_smoke`` next to the
optional same-machine baseline.  ``--sparse-sweep`` times the skewed
solver-grid smoke sweep (CG × format zoo on the ``arrow_496`` extra)
with the padded route pinned as its own same-machine baseline, so the
committed ``sweeps.sparse_grid_smoke.speedup`` is the segmented
engine's end-to-end ratchet.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from typing import Callable

import numpy as np

__all__ = ["measure", "microbench", "sparse_microbench",
           "table_cache_bench", "run_fig06_smoke",
           "run_sparse_grid_smoke", "main",
           "QUANTIZE_FORMATS", "CONTEXT_FORMATS", "QUANTIZE_SIZES",
           "CONTEXT_SIZES", "SPARSE_MATRICES", "SPARSE_FORMATS"]

#: quantize coverage: the paper's narrow actors plus the wide posits,
#: each timed against its reference rounder
QUANTIZE_FORMATS = ("posit8es0", "posit16es1", "posit16es2", "bf16",
                    "fp8e4m3", "posit32es2", "posit32es3")
QUANTIZE_SIZES = (32, 128, 1024, 65536)
#: context ops: one narrow and one wide format per solver family
CONTEXT_FORMATS = ("posit16es1", "posit32es2", "fp32")
CONTEXT_SIZES = (24, 96)
#: sparse matvec coverage: the paper's largest near-uniform system and
#: the skewed arrow extra, both at their full published dimension
SPARSE_MATRICES = ("1138_bus", "arrow_496")
SPARSE_FORMATS = ("fp16", "posit32es2")
#: the :data:`repro.kernels.segment.PAD_RATIO` that forces each CSR
#: matvec route; ``auto`` keeps the module's own input-driven choice
_ROUTE_PAD_RATIO = {"padded": math.inf, "segmented": 0.0}


def measure(fn: Callable[[], object], repeats: int = 5,
            loops: int | None = None,
            min_time: float = 0.01) -> float:
    """Best average seconds/call over *repeats* timed loops."""
    if loops is None:
        loops = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(loops):
                fn()
            if time.perf_counter() - t0 >= min_time or loops >= 65536:
                break
            loops *= 4
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def _quantize_reference(fmt) -> Callable[[np.ndarray], np.ndarray] | None:
    """The format's non-LUT rounding kernel, when it has one."""
    if hasattr(fmt, "_bitwise_round"):
        return fmt._bitwise_round
    if hasattr(fmt, "_round_impl"):
        return fmt._round_impl
    return None


def _selected(key: str, only: tuple[str, ...] | None) -> bool:
    return only is None or any(key.startswith(p) for p in only)


@contextlib.contextmanager
def _sparse_route(mode: str):
    """Pin the CSR matvec route for the block."""
    from . import segment

    saved = segment.PAD_RATIO
    segment.PAD_RATIO = _ROUTE_PAD_RATIO.get(mode, saved)
    try:
        yield
    finally:
        segment.PAD_RATIO = saved


def microbench(formats: tuple[str, ...] = QUANTIZE_FORMATS,
               sizes: tuple[int, ...] = QUANTIZE_SIZES,
               ctx_formats: tuple[str, ...] = CONTEXT_FORMATS,
               ctx_sizes: tuple[int, ...] = CONTEXT_SIZES,
               repeats: int = 5,
               only: tuple[str, ...] | None = None) -> dict[str, dict]:
    """The ``kernels`` map: ``{kernel-id: {seconds, ...}}``.

    *only* restricts measurement to ids starting with one of the given
    prefixes (unmeasured entries are omitted entirely).
    """
    from ..arith.context import FPContext
    from ..formats.registry import get_format

    rng = np.random.default_rng(12345)
    kernels: dict[str, dict] = {}

    for name in formats:
        fmt = get_format(name)
        ref = _quantize_reference(fmt)
        for n in sizes:
            key = f"quantize/{name}/n{n}"
            x = rng.standard_normal(n)
            if not _selected(key, only):
                continue
            fmt.round(x)  # warm caches / tables outside the timer
            entry = {"seconds": measure(lambda: fmt.round(x), repeats)}
            if ref is not None:
                ref(x)
                entry["bitwise_s"] = measure(lambda: ref(x), repeats)
                entry["speedup_vs_bitwise"] = round(
                    entry["bitwise_s"] / entry["seconds"], 3)
            kernels[key] = entry

    for name in ctx_formats:
        ctx = FPContext(name)
        for n in ctx_sizes:
            keys = {op: f"{op}/{name}/n{n}"
                    for op in ("dot", "matvec", "sum", "gemm")}
            if not any(_selected(k, only) for k in keys.values()):
                continue
            v = rng.standard_normal(n)
            A = rng.standard_normal((n, n))
            v = np.asarray(ctx.asarray(v))
            A = np.asarray(ctx.asarray(A))
            B = np.asarray(ctx.asarray(rng.standard_normal((n, n))))
            for op, fn in ((keys["dot"], lambda: ctx.dot(v, v)),
                           (keys["matvec"], lambda: ctx.matvec(A, v)),
                           (keys["sum"], lambda: ctx.sum(v)),
                           (keys["gemm"], lambda: ctx.gemm(A, B))):
                if not _selected(op, only):
                    continue
                fn()
                kernels[op] = {"seconds": measure(fn, repeats)}

    kernels.update(sparse_microbench(repeats=repeats, only=only))
    kernels.update(table_cache_bench(only=only))

    for key, entry in kernels.items():
        entry["seconds"] = round(entry["seconds"], 9)
        for extra in ("bitwise_s", "padded_s", "cold_s", "warm_s"):
            if extra in entry:
                entry[extra] = round(entry[extra], 9)
    return kernels


def sparse_microbench(matrices: tuple[str, ...] = SPARSE_MATRICES,
                      formats: tuple[str, ...] = SPARSE_FORMATS,
                      repeats: int = 5,
                      only: tuple[str, ...] | None = None
                      ) -> dict[str, dict]:
    """Sparse matvec entries: padded vs segmented CSR route.

    Matrices run at their full published dimension (the ``full`` run
    scale) so the skewed arrow keeps its adversarial pad ratio; each
    CSR route is forced through ``segment.PAD_RATIO`` and the
    segmented entry records its speedup over the padded one.
    """
    from ..arith.context import FPContext
    from ..arith.sparse import CSRMatrix
    from ..config import SCALES
    from ..matrices import load_matrix

    rng = np.random.default_rng(67890)
    kernels: dict[str, dict] = {}
    for mname in matrices:
        keys = [f"sparse/matvec/{mname}/{f}/{lay}"
                for f in formats
                for lay in ("csr_padded", "csr_segmented")]
        if not any(_selected(k, only) for k in keys):
            continue
        A = load_matrix(mname, SCALES["full"])
        x = rng.standard_normal(A.shape[0])
        csr = CSRMatrix.from_dense(A)
        for fname in formats:
            ctx = FPContext(fname)
            csrq = ctx.asarray(csr)
            base = f"sparse/matvec/{mname}/{fname}"
            secs: dict[str, float] = {}
            for mode in ("padded", "segmented"):
                key = f"{base}/csr_{mode}"
                if not _selected(key, only):
                    continue
                with _sparse_route(mode):
                    ctx.matvec(csrq, x)  # warm plan / slot map
                    secs[mode] = measure(lambda: ctx.matvec(csrq, x),
                                         repeats)
                kernels[key] = {"seconds": secs[mode]}
            if len(secs) == 2:
                kernels[f"{base}/csr_segmented"].update(
                    padded_s=secs["padded"],
                    speedup_vs_padded=round(
                        secs["padded"] / secs["segmented"], 3))
    return kernels


def table_cache_bench(only: tuple[str, ...] | None = None
                      ) -> dict[str, dict]:
    """Cold bisection build vs warm mmap load of the posit32es2 table.

    Runs in a throwaway results dir so it never touches (or benefits
    from) the machine's real table store; fresh format instances keep
    the in-memory caches out of both timings.  The committed
    ``speedup`` is the worker warm-start ratchet (≥ 5×).
    """
    key = "table_cache/posit32es2/two_level"
    if not _selected(key, only):
        return {}
    import shutil
    import tempfile

    from ..formats.posit_format import PositFormat
    from . import lut, tabcache

    saved = os.environ.get("REPRO_RESULTS_DIR")
    tmp = tempfile.mkdtemp(prefix="repro-tabbench-")
    stats = tabcache.table_stats()
    snap = stats.snapshot()
    try:
        os.environ["REPRO_RESULTS_DIR"] = tmp
        lut.clear_tables()
        t0 = time.perf_counter()
        PositFormat(32, 2)._two_level_table()  # builds + stores
        cold = time.perf_counter() - t0
        lut.clear_tables()
        t0 = time.perf_counter()
        PositFormat(32, 2)._two_level_table()  # mmap loads
        warm = time.perf_counter() - t0
    finally:
        lut.clear_tables()
        if saved is None:
            os.environ.pop("REPRO_RESULTS_DIR", None)
        else:
            os.environ["REPRO_RESULTS_DIR"] = saved
        shutil.rmtree(tmp, ignore_errors=True)
        # a bench must not skew the process-wide sweep counters
        delta = stats.delta_since(snap)
        for field, d in delta.items():
            setattr(stats, field, getattr(stats, field) - d)
    return {key: {"seconds": warm, "cold_s": cold, "warm_s": warm,
                  "speedup": round(cold / warm, 3)}}


def run_fig06_smoke() -> float:
    """Cell-compute seconds of a cold, serial, cache-off fig06 sweep."""
    from ..config import SCALES
    from ..experiments.common import clear_cache, compute_cell
    from ..experiments.registry import get_experiment
    from .matcache import matrix_cache

    scale = SCALES["smoke"]
    cells = get_experiment("fig6").enumerate_cells(scale)
    clear_cache()
    matrix_cache().clear()
    t0 = time.perf_counter()
    for cell in cells:
        compute_cell(cell, scale)
    return time.perf_counter() - t0


def run_sparse_grid_smoke(mode: str) -> float:
    """Cell-compute seconds of the skewed solver-grid smoke sweep.

    CG × the grid format zoo on the ``arrow_496`` extra at the
    ``full`` run scale (the only scale where the arrow keeps its
    published 96× pad ratio — smaller scales cap the dimension and
    flatten the skew).  *mode* pins the CSR route for the run, so
    ``padded`` replays the padded baseline on the same machine and
    ``auto`` times the input-driven (here segmented) route.
    """
    from ..config import SCALES
    from ..experiments.common import (clear_cache, compute_cell,
                                      grid_cells)
    from .matcache import matrix_cache

    scale = SCALES["full"]
    cells = grid_cells(scale, solvers=("cg",), names=("arrow_496",))
    with _sparse_route(mode):
        clear_cache()
        matrix_cache().clear()
        t0 = time.perf_counter()
        for cell in cells:
            compute_cell(cell, scale)
        return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels.bench",
        description="kernel microbenchmarks -> BENCH_kernels.json")
    parser.add_argument("--output", default=None,
                        help="write the payload here (default: stdout)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed loops per entry (default 5)")
    parser.add_argument("--only", default=None, metavar="PREFIX[,..]",
                        help="measure only kernel ids starting with "
                             "one of these comma-separated prefixes")
    parser.add_argument("--sweep", action="store_true",
                        help="also time the fig06 smoke sweep "
                             "(serial, result cache bypassed)")
    parser.add_argument("--sweep-baseline", type=float, default=None,
                        metavar="SECONDS",
                        help="same-machine baseline for the sweep entry")
    parser.add_argument("--sparse-sweep", action="store_true",
                        help="also time the skewed solver-grid smoke "
                             "sweep, padded vs segmented (the "
                             "input-driven route), best-of-3 each")
    args = parser.parse_args(argv)

    only = tuple(p.strip() for p in args.only.split(",")
                 if p.strip()) if args.only else None
    payload: dict = {"version": 1, "kind": "kernels",
                     "kernels": microbench(repeats=args.repeats,
                                           only=only)}
    sweeps: dict = {}
    if args.sweep:
        # best-of-3: single sweep timings are dominated by OS jitter
        seconds = min(run_fig06_smoke() for _ in range(3))
        entry = {"current_s": round(seconds, 3)}
        if args.sweep_baseline:
            entry["baseline_s"] = args.sweep_baseline
            entry["speedup"] = round(args.sweep_baseline / seconds, 3)
        sweeps["fig06_smoke"] = entry
    if args.sparse_sweep:
        baseline = min(run_sparse_grid_smoke("padded") for _ in range(3))
        seconds = min(run_sparse_grid_smoke("auto") for _ in range(3))
        sweeps["sparse_grid_smoke"] = {
            "baseline_padded_s": round(baseline, 3),
            "current_s": round(seconds, 3),
            "speedup": round(baseline / seconds, 3)}
    if sweeps:
        payload["sweeps"] = sweeps

    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(payload['kernels'])} kernels)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
