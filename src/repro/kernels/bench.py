"""Kernel microbenchmarks: each fast path timed against its reference.

Measures the primitives every experiment is built on — quantize, dot,
matvec, rounded sum and blocked gemm — per format and size.  Quantize
entries also time the format's bitwise/softfloat reference rounder and
record ``speedup_vs_bitwise``; the segmented CSR matvec entries also
time the padded route and record ``speedup_vs_padded``.  Both ratios
are measured in one process on one host, so they compare across
machines where absolute seconds do not; CI's ``bench`` job fails when
one falls below its floor (``docs/performance.md`` §7).  Each timed
pair is checked to agree bit for bit on the input it times.

Timing protocol: every callable runs in ``repeats`` rounds of one timed
loop each (a loop lasts at least 10 ms), and a round visits every entry
before the next round starts.  An entry's ``seconds`` is its best loop
average, the standard microbench estimator robust to scheduler noise;
a speedup is the median over rounds of the ratio of the two loops a
round timed back to back.

Run as a module (JSON on stdout)::

    python -m repro.kernels.bench
    python -m repro.kernels.bench --only quantize/,sparse/ --repeats 3

``--only`` restricts measurement to entries whose id starts with one
of the comma-separated prefixes (the rest are skipped, not zeroed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from typing import Callable

import numpy as np

__all__ = ["microbench", "main",
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
#: matvec route
_ROUTE_PAD_RATIO = {"padded": math.inf, "segmented": 0.0}


def _rounds(jobs: dict[str, tuple[Callable[[], object], ...]],
            repeats: int, loops: int | None = None,
            min_time: float = 0.01) -> dict[str, np.ndarray]:
    """Average seconds/call of each job's callables (columns) in each of
    *repeats* rounds (rows).

    A round times every callable of every job once, a job's callables
    back to back.  So a job's rounds spread over the whole run, and a
    slow spell of a shared host reaches one of them rather than all,
    and reaches both sides of a speedup alike.
    """
    plan = [(key, i, fn, loops or _calibrate(fn, min_time))
            for key, fns in jobs.items() for i, fn in enumerate(fns)]
    out = {key: np.empty((repeats, len(fns))) for key, fns in jobs.items()}
    for r in range(repeats):
        for key, i, fn, n in plan:
            fn()  # refill the caches and buffers other entries evicted
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            out[key][r, i] = (time.perf_counter() - t0) / n
    return out


def _calibrate(fn: Callable[[], object], min_time: float) -> int:
    """Loops per timing: the first power of 4 that runs *min_time*."""
    fn()  # warm caches / tables outside the timer
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= min_time or loops >= 65536:
            return loops
        loops *= 4


def _entry(t: np.ndarray, ref_field: str = "",
           ratio_field: str = "") -> dict:
    """One kernel entry from its rounds: the best seconds/call and, for
    a (fast, reference) pair, the reference's best and the speedup.

    The speedup is the median of the per-round ratios; a ratio of the
    two minima would set one side's luckiest moment against the other
    side's typical one.
    """
    entry = {"seconds": round(float(t[:, 0].min()), 9)}
    if t.shape[1] == 2:
        entry[ref_field] = round(float(t[:, 1].min()), 9)
        entry[ratio_field] = round(float(np.median(t[:, 1] / t[:, 0])),
                                   3)
    return entry


def _quantize_reference(fmt) -> Callable[[np.ndarray], np.ndarray] | None:
    """The format's non-LUT rounding kernel, when it has one."""
    if hasattr(fmt, "_bitwise_round"):
        return fmt._bitwise_round
    if hasattr(fmt, "_round_impl"):
        return fmt._round_impl
    return None


def _same_bits(key: str, got, want) -> None:
    """Raise unless a fast path reproduced its reference bit for bit."""
    if np.asarray(got).tobytes() != np.asarray(want).tobytes():
        raise AssertionError(f"{key}: timed path differs from its "
                             f"reference")


def _selected(key: str, only: tuple[str, ...] | None) -> bool:
    return only is None or any(key.startswith(p) for p in only)


def _routed(mode: str, fn: Callable[[], np.ndarray]
            ) -> Callable[[], np.ndarray]:
    """*fn* with the CSR matvec route pinned to *mode* on every call."""
    from . import segment

    ratio = _ROUTE_PAD_RATIO[mode]

    def run() -> np.ndarray:
        segment.PAD_RATIO = ratio
        return fn()
    return run


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
    from . import segment

    rng = np.random.default_rng(12345)
    quantize: dict[str, tuple] = {}
    for name in formats:
        fmt = get_format(name)
        ref = _quantize_reference(fmt)
        for n in sizes:
            key = f"quantize/{name}/n{n}"
            x = rng.standard_normal(n)
            if not _selected(key, only):
                continue
            quantize[key] = (partial(fmt.round, x),)
            if ref is not None:
                _same_bits(key, fmt.round(x), ref(x))
                quantize[key] += (partial(ref, x),)

    ops: dict[str, tuple] = {}
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
            for key, fn in ((keys["dot"], partial(ctx.dot, v, v)),
                            (keys["matvec"], partial(ctx.matvec, A, v)),
                            (keys["sum"], partial(ctx.sum, v)),
                            (keys["gemm"], partial(ctx.gemm, A, B))):
                if _selected(key, only):
                    ops[key] = (fn,)

    timed = _rounds({**quantize, **ops}, repeats)
    # the sparse set-up frees large arrays, and after that glibc serves
    # 512 KB temporaries from its heap instead of fresh pages: built
    # first, it would speed the n = 65536 bitwise references up ~3x
    saved = segment.PAD_RATIO
    try:
        sparse = _sparse_jobs(only)
        timed.update(_rounds(sparse, repeats))
    finally:
        segment.PAD_RATIO = saved

    kernels = {key: _entry(timed[key], "bitwise_s", "speedup_vs_bitwise")
               for key in quantize}
    kernels.update((key, _entry(timed[key])) for key in ops)
    for base in sparse:
        for key, entry in (
                (f"{base}/csr_padded", _entry(timed[base][:, 1:])),
                (f"{base}/csr_segmented", _entry(
                    timed[base], "padded_s", "speedup_vs_padded"))):
            if _selected(key, only):
                kernels[key] = entry
    return kernels


def _sparse_jobs(only: tuple[str, ...] | None
                 ) -> dict[str, tuple[Callable, Callable]]:
    """Sparse matvec jobs: the (segmented, padded) CSR routes per
    ``sparse/matvec/<matrix>/<format>``.

    Matrices run at their full published dimension (the ``full`` run
    scale) so the skewed arrow keeps its adversarial pad ratio; each
    CSR route is forced through ``segment.PAD_RATIO``.
    """
    from ..arith.context import FPContext
    from ..arith.sparse import CSRMatrix
    from ..config import SCALES
    from ..matrices import load_matrix

    rng = np.random.default_rng(67890)
    jobs: dict[str, tuple[Callable, Callable]] = {}
    for mname in SPARSE_MATRICES:
        wanted = [f for f in SPARSE_FORMATS if any(
            _selected(f"sparse/matvec/{mname}/{f}/{lay}", only)
            for lay in ("csr_padded", "csr_segmented"))]
        if not wanted:
            continue
        A = load_matrix(mname, SCALES["full"])
        x = rng.standard_normal(A.shape[0])
        csr = CSRMatrix.from_dense(A)
        for fname in wanted:
            ctx = FPContext(fname)
            matvec = partial(ctx.matvec, ctx.asarray(csr), x)
            base = f"sparse/matvec/{mname}/{fname}"
            jobs[base] = (_routed("segmented", matvec),
                          _routed("padded", matvec))
            _same_bits(base, jobs[base][0](), jobs[base][1]())
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels.bench",
        description="kernel microbenchmarks (JSON on stdout)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed rounds per entry (default 5)")
    parser.add_argument("--only", default=None, metavar="PREFIX[,..]",
                        help="measure only kernel ids starting with "
                             "one of these comma-separated prefixes")
    args = parser.parse_args(argv)

    only = tuple(p.strip() for p in args.only.split(",")
                 if p.strip()) if args.only else None
    kernels = microbench(repeats=args.repeats, only=only)
    sys.stdout.write(json.dumps(kernels, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
