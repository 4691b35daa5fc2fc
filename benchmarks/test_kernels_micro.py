"""Kernel microbench suite: quantize / dot / matvec / sum per format × size.

Unlike the pytest-benchmark modules, this suite drives the shared
measurement code in :mod:`repro.kernels.bench` and **writes the
trajectory file** ``benchmarks/BENCH_kernels.json`` on success, so

    pytest benchmarks/test_kernels_micro.py -q

refreshes the committed payload that
``python -m repro.telemetry bench-diff`` checks in CI.  Set
``REPRO_BENCH_KERNELS_OUT`` to redirect the output (e.g. to a temp file
when you only want the measurements).

The assertions are correctness guards, not perf gates (CI boxes are
noisy): every timed path must produce bit-identical results to its
reference, and the LUT path must win by the committed margin only at
the sizes well below its crossover.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.formats.registry import get_format
from repro.kernels import bench as kbench
from repro.kernels import segment
from repro.kernels.lut import lut_enabled, max_eligible_n

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "BENCH_kernels.json")

#: collected by the measurement tests, written by the session finalizer
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_payload():
    """Write BENCH_kernels.json after the suite ran (keeping sweeps)."""
    yield
    if not _RESULTS:
        return
    out = os.environ.get("REPRO_BENCH_KERNELS_OUT", DEFAULT_OUT)
    payload = {"version": 1, "kind": "kernels", "kernels": _RESULTS}
    if os.path.exists(out):
        try:
            with open(out, encoding="utf-8") as fh:
                old = json.load(fh)
            if "sweeps" in old:
                payload["sweeps"] = old["sweeps"]
        except (OSError, ValueError):
            pass
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.parametrize("name", kbench.QUANTIZE_FORMATS)
@pytest.mark.parametrize("n", kbench.QUANTIZE_SIZES)
def test_quantize(name, n):
    fmt = get_format(name)
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n)
    ref = kbench._quantize_reference(fmt)
    fmt.round(x)
    entry = {"seconds": round(kbench.measure(lambda: fmt.round(x)), 9)}
    if ref is not None:
        # timed paths must agree bit-for-bit
        np.testing.assert_array_equal(fmt.round(x), ref(x))
        entry["bitwise_s"] = round(kbench.measure(lambda: ref(x)), 9)
        entry["speedup_vs_bitwise"] = round(
            entry["bitwise_s"] / entry["seconds"], 3)
    _RESULTS[f"quantize/{name}/n{n}"] = entry
    assert entry["seconds"] > 0


@pytest.mark.parametrize("name", kbench.CONTEXT_FORMATS)
@pytest.mark.parametrize("n", kbench.CONTEXT_SIZES)
def test_context_ops(name, n):
    from repro.arith.context import FPContext
    ctx = FPContext(name)
    rng = np.random.default_rng(54321)
    v = np.asarray(ctx.asarray(rng.standard_normal(n)))
    A = np.asarray(ctx.asarray(rng.standard_normal((n, n))))
    B = np.asarray(ctx.asarray(rng.standard_normal((n, n))))
    for op, fn in (("dot", lambda: ctx.dot(v, v)),
                   ("matvec", lambda: ctx.matvec(A, v)),
                   ("sum", lambda: ctx.sum(v)),
                   ("gemm", lambda: ctx.gemm(A, B))):
        fn()
        _RESULTS[f"{op}/{name}/n{n}"] = {
            "seconds": round(kbench.measure(fn), 9)}
        assert _RESULTS[f"{op}/{name}/n{n}"]["seconds"] > 0


@pytest.mark.parametrize("mname", kbench.SPARSE_MATRICES)
def test_sparse_matvec(mname, monkeypatch):
    """Padded vs segmented CSR route at full matrix dimension.

    Correctness guard first: both routes must agree bit-for-bit on the
    benchmarked system before their timings are committed.
    """
    from repro.arith import CSRMatrix, FPContext
    from repro.config import SCALES
    from repro.matrices import load_matrix

    A = load_matrix(mname, SCALES["full"])
    rng = np.random.default_rng(67890)
    x = rng.standard_normal(A.shape[0])
    for fname in kbench.SPARSE_FORMATS:
        ctx = FPContext(fname)
        csr = ctx.asarray(CSRMatrix.from_dense(A))
        # PAD_RATIO = inf forces the padded route, 0 the segmented one
        monkeypatch.setattr(segment, "PAD_RATIO", math.inf)
        want = ctx.matvec(csr, x)
        monkeypatch.setattr(segment, "PAD_RATIO", 0.0)
        np.testing.assert_array_equal(
            want.view(np.int64), ctx.matvec(csr, x).view(np.int64))
    entries = kbench.sparse_microbench(matrices=(mname,))
    for key, entry in entries.items():
        entry["seconds"] = round(entry["seconds"], 9)
        if "padded_s" in entry:
            entry["padded_s"] = round(entry["padded_s"], 9)
        assert entry["seconds"] > 0
    _RESULTS.update(entries)


@pytest.mark.skipif(not lut_enabled(), reason="REPRO_LUT=off")
def test_table_cache_cold_vs_warm():
    """The worker warm-start ratchet: mmap load ≥ 5× faster than build.

    The margin is enormous in practice (a bisection build probes
    thousands of boundaries; the warm path is one mmap + header
    parse), so the 5× floor stays safe on noisy CI boxes.
    """
    entries = kbench.table_cache_bench()
    entry = entries["table_cache/posit32es2/two_level"]
    for extra in ("seconds", "cold_s", "warm_s"):
        entry[extra] = round(entry[extra], 9)
    assert entry["speedup"] >= 5.0, (
        f"warm table load only {entry['speedup']}x faster than the "
        f"cold build — below the 5x acceptance margin")
    _RESULTS.update(entries)


@pytest.mark.skipif(not lut_enabled(), reason="REPRO_LUT=off")
@pytest.mark.parametrize("name", ["posit16es1", "posit16es2", "bf16",
                                  "posit8es0", "fp8e4m3"])
def test_lut_speedup_small_vectors(name):
    """The acceptance margin: ≥2× quantize for ≤16-bit formats.

    Measured far below the crossover (n=32) where the margin is ~3×;
    the committed BENCH_kernels.json carries the full size trajectory.
    """
    fmt = get_format(name)
    assert max_eligible_n(fmt.nbits) >= 32
    rng = np.random.default_rng(99)
    x = rng.standard_normal(32)
    ref = kbench._quantize_reference(fmt)
    fmt.round(x)
    ref(x)
    lut_s = kbench.measure(lambda: fmt.round(x), repeats=7)
    bit_s = kbench.measure(lambda: ref(x), repeats=7)
    assert bit_s / lut_s >= 2.0, (
        f"{name}: LUT {lut_s * 1e6:.1f}us vs bitwise "
        f"{bit_s * 1e6:.1f}us — below the 2x acceptance margin")
