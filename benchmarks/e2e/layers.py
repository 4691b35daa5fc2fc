"""Outside-in layer trace: wrap the package's functions where they are
looked up, and attribute self time to the layer each one belongs to.

Nothing under ``src/`` changes.  Every wrapper is installed by
replacing one attribute (a module global, a class attribute or a format
instance's ``round``) and :meth:`LayerTrace.uninstall` puts each one
back, so a traced process can finish with untraced work.

Self time is computed on the fly: each wrapped call pushes a frame
``[start, child_seconds]``; on return its duration is charged to its
parent frame, and the duration minus its children is the call's self
time.  The ``op``, ``fold`` and ``rounding`` layers make millions of
calls, so they only keep counters.  Cell, set-up, solver and engine
calls also become spans (name, start, end, parent span, cell id).

Layers, outermost first (README.md maps each to the end-to-end metric
it should move):

* engine   -- the sweep itself, plus ``cell`` (per-cell glue)
* cache    -- ``ResultCache.contains`` / ``ResultCache.get``
* setup    -- matrix generation, derivations, sparse packing, tables
* solver   -- the cell-level CG / Cholesky / IR entry points
* op       -- ``FPContext`` operations and triangular solves
* fold     -- rounded pairwise and segmented reductions
* rounding -- every format's ``round``
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from .stats import OnlineFit

__all__ = ["LayerTrace", "OPS", "ROUNDING_FORMATS", "TINY_ELEMENTS",
           "LAYER_METRICS"]

OPS = ("dot", "matvec_dense", "matvec_ell", "matvec_csr", "axpy", "add",
       "sub", "mul", "div", "sqrt", "outer", "asarray", "norm2",
       "solve_tri")
ROUNDING_FORMATS = ("fp32", "fp16", "bf16", "posit16es1", "posit16es2",
                    "posit32es2", "posit32es3", "takum16", "takum32")
SOLVERS = ("cg", "cholesky", "ir")
#: a rounding call on at most this many elements counts as tiny: the
#: last three levels of every pairwise fold land here
TINY_ELEMENTS = 8


def _specs():
    out = [("engine.cells", "count", "higher"),
           ("engine.busy_frac", "ratio", "higher"),
           ("engine.overhead_s", "s", "lower"),
           ("engine.worker_spawns", "count", "lower"),
           ("engine.worker_deaths", "count", "lower"),
           ("engine.assemble_s", "s", "lower"),
           ("cache.contains_calls", "count", "lower"),
           ("cache.contains_s", "s", "lower"),
           ("cache.get_calls", "count", "lower"),
           ("cache.get_s", "s", "lower"),
           ("cache.hits", "count", "higher"),
           ("cache.entries", "count", "lower"),
           ("cache.bytes", "B", "lower"),
           ("setup.import_s", "s", "lower"),
           ("setup.matrix_load_calls", "count", "lower"),
           ("setup.matrix_load_s", "s", "lower"),
           ("setup.derive_calls", "count", "lower"),
           ("setup.derive_misses", "count", "lower"),
           ("setup.derive_s", "s", "lower"),
           ("setup.sparse_pack_s", "s", "lower"),
           ("setup.table_builds", "count", "lower"),
           ("setup.table_loads", "count", "lower"),
           ("setup.table_s", "s", "lower")]
    for s in SOLVERS:
        out += [(f"solver.{s}.calls", "count", "lower"),
                (f"solver.{s}.iterations", "count", "lower"),
                (f"solver.{s}.self_s", "s", "lower")]
    for op in OPS:
        out += [(f"op.{op}.calls", "count", "lower"),
                (f"op.{op}.self_s", "s", "lower")]
    for fold in ("pairwise", "segmented"):
        out += [(f"fold.{fold}.calls", "count", "lower"),
                (f"fold.{fold}.elements", "count", "lower"),
                (f"fold.{fold}.self_s", "s", "lower")]
    out += [("rounding.calls", "count", "lower"),
            ("rounding.elements", "count", "lower"),
            ("rounding.self_s", "s", "lower"),
            ("rounding.tiny_call_frac", "ratio", "lower"),
            ("rounding.errstate_enters", "count", "lower")]
    for f in ROUNDING_FORMATS:
        out += [(f"rounding.{f}.calls", "count", "lower"),
                (f"rounding.{f}.c0_us", "us", "lower"),
                (f"rounding.{f}.c1_ns", "ns", "lower")]
    out.append(("trace_overhead", "ratio", "lower"))
    return tuple(out)


#: every per-layer metric: ``(name, unit, better)``
LAYER_METRICS = _specs()


class LayerTrace:
    """Self-time accounting, spans and counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []     # open frames [start, child_s]
        self.open_spans: list[int] = []
        self.spans: list[dict] = []
        self.cell: str | None = None
        #: key -> [calls, self seconds, elements]
        self.totals = defaultdict(lambda: [0, 0.0, 0])
        self.fits = defaultdict(OnlineFit)
        self.tiny_calls = 0
        self.errstate_enters = 0
        self.iterations = defaultdict(int)
        self.derive_misses = 0
        self.cache_hits = 0
        self._next_span = 0
        self._undo: list[tuple] = []
        self._tables0 = (0, 0, 0, 0, 0)

    # -- accounting --------------------------------------------------------
    def _close(self, frame: list[float]) -> tuple[float, float]:
        """Pop *frame*; return ``(end, self seconds)``."""
        end = self.clock()
        self.stack.pop()
        dur = end - frame[0]
        if self.stack:
            self.stack[-1][1] += dur
        return end, dur - frame[1]

    @contextlib.contextmanager
    def span(self, key: str, cell: str | None = None):
        """A recorded frame: counted under *key* and kept as a span."""
        sid = self._next_span
        self._next_span += 1
        parent = self.open_spans[-1] if self.open_spans else None
        saved_cell = self.cell
        if cell is not None:
            self.cell = cell
        self.open_spans.append(sid)
        frame = [self.clock(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            end, self_s = self._close(frame)
            self.open_spans.pop()
            tot = self.totals[key]
            tot[0] += 1
            tot[1] += self_s
            self.spans.append({"id": sid, "name": key, "parent": parent,
                               "cell": self.cell, "start": frame[0],
                               "end": end, "self_s": self_s})
            self.cell = saved_cell

    def _counted(self, key_of, fn, elements=None, sample=None):
        """Wrap *fn* as an unrecorded frame (the hot-path layers).

        *key_of* is a totals key, or a callable taking the call's
        positional arguments and returning one.  *elements* maps the
        arguments to an element count; *sample* then receives
        ``(elements, self seconds)`` for every call.
        """
        stack, clock, totals = self.stack, self.clock, self.totals
        fixed = None if callable(key_of) else totals[key_of]

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                tot = fixed if fixed is not None else totals[key_of(args)]
                tot[0] += 1
                tot[1] += self_s
                if elements is not None:
                    n = elements(args)
                    tot[2] += n
                    if sample is not None:
                        sample(n, self_s)
        return wrapper

    def _spanned(self, key, fn, after=None, cell_of=None):
        """Wrap *fn* as a recorded span; ``after(result)`` sees the result."""
        def wrapper(*args, **kwargs):
            cell = cell_of(args) if cell_of is not None else None
            with self.span(key, cell=cell):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _rounder(self, name: str, fn):
        fit = self.fits[name]

        def sample(n, self_s):
            if n <= TINY_ELEMENTS:
                self.tiny_calls += 1
            fit.add(n, self_s)
        return self._counted("rounding", fn, sample=sample,
                             elements=lambda args: getattr(args[0], "size",
                                                           1))

    # -- installing --------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, new)

    def _patch_classmethod(self, cls, attr: str, key: str) -> None:
        func = vars(cls)[attr].__func__
        self._patch(cls, attr, classmethod(self._counted(key, func)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def install_parent(self) -> None:
        """Layers that run in the sweep's own process: result-cache
        lookups and rounding-table loads/builds."""
        from repro.experiments.cache import ResultCache
        from repro.kernels import lut, tabcache

        self._tables0 = tabcache.table_stats().snapshot()

        self._patch(ResultCache, "contains",
                    self._counted("cache.contains", ResultCache.contains))
        get = self._counted("cache.get", ResultCache.get)

        def counted_get(*args, **kwargs):
            result = get(*args, **kwargs)
            self.cache_hits += bool(result[0])
            return result
        self._patch(ResultCache, "get", counted_get)
        for attr in ("rounding_table", "two_level_table"):
            self._patch(lut, attr, self._spanned("setup.table",
                                                 getattr(lut, attr)))

    def install_compute(self, formats) -> None:
        """The layers inside cells; install after set-up so set-up's
        own table-warming calls are not counted as rounding."""
        import numpy as np

        from repro.arith import context
        from repro.arith.context import FPContext
        from repro.arith.sparse import CSRMatrix, ELLMatrix
        from repro.experiments import common, engine
        from repro.formats import get_format
        from repro.kernels.matcache import MatrixCache
        from repro.kernels.segment import SegmentPlan
        from repro.linalg import cholesky

        self._patch(engine, "compute_cell", self._spanned(
            "cell", engine.compute_cell,
            cell_of=lambda args: args[0].cell_id))

        # set-up
        self._patch(common, "load_matrix",
                    self._spanned("setup.matrix_load", common.load_matrix))
        get_or_build = MatrixCache.get_or_build

        def counted_build(cache, key, make):
            def build():
                self.derive_misses += 1
                return make()
            return get_or_build(cache, key, build)
        self._patch(MatrixCache, "get_or_build",
                    self._spanned("setup.derive", counted_build))
        self._patch_classmethod(ELLMatrix, "from_dense", "setup.sparse_pack")
        self._patch_classmethod(CSRMatrix, "from_dense", "setup.sparse_pack")
        self._patch_classmethod(SegmentPlan, "from_csr", "setup.sparse_pack")

        # solvers, with the work count each one reports
        def add_iterations(kind, count):
            def after(result):
                self.iterations[kind] += count(result)
            return after
        self._patch(common, "conjugate_gradient", self._spanned(
            "solver.cg", common.conjugate_gradient,
            add_iterations("cg", lambda r: r.iterations)))
        self._patch(common, "cholesky_solve", self._spanned(
            "solver.cholesky", common.cholesky_solve,
            add_iterations("cholesky", lambda r: r.R.shape[0])))
        self._patch(common, "iterative_refinement", self._spanned(
            "solver.ir", common.iterative_refinement,
            add_iterations("ir", lambda r: r.iterations)))

        # ops
        for op in ("dot", "axpy", "add", "sub", "mul", "div", "sqrt",
                   "outer", "asarray", "norm2"):
            self._patch(FPContext, op,
                        self._counted(f"op.{op}", getattr(FPContext, op)))

        def matvec_key(args):
            A = args[1]
            if isinstance(A, CSRMatrix):
                return "op.matvec_csr"
            if isinstance(A, ELLMatrix):
                return "op.matvec_ell"
            return "op.matvec_dense"
        self._patch(FPContext, "matvec",
                    self._counted(matvec_key, FPContext.matvec))
        for attr in ("solve_lower", "solve_upper"):
            self._patch(cholesky, attr, self._counted(
                "op.solve_tri", getattr(cholesky, attr)))

        # folds
        self._patch(context, "rounded_sum_last_axis", self._counted(
            "fold.pairwise", context.rounded_sum_last_axis,
            elements=lambda args: args[0].size))
        self._patch(context, "segmented_fold", self._counted(
            "fold.segmented", context.segmented_fold,
            elements=lambda args: args[0].size))

        # rounding, on the format singletons contexts bind at creation
        for name in sorted(set(formats) | set(ROUNDING_FORMATS)):
            fmt = get_format(name)
            self._patch(fmt, "round", self._rounder(name, fmt.round))

        base = np.errstate
        tracer = self

        class CountingErrstate(base):
            def __enter__(self):
                tracer.errstate_enters += 1
                return super().__enter__()
        self._patch(np, "errstate", CountingErrstate)

    # -- results -----------------------------------------------------------
    def self_seconds(self, prefix: str) -> float:
        return sum(t[1] for k, t in self.totals.items()
                   if k == prefix or k.startswith(prefix + "."))

    def metrics(self) -> dict[str, float]:
        """The trace's share of :data:`LAYER_METRICS` (the caller adds
        the engine and cache figures it measures itself)."""
        from repro.kernels import tabcache

        t = self.totals
        tables = tabcache.table_stats().delta_since(self._tables0)
        m = {"cache.contains_calls": t["cache.contains"][0],
             "cache.contains_s": t["cache.contains"][1],
             "cache.get_calls": t["cache.get"][0],
             "cache.get_s": t["cache.get"][1],
             "cache.hits": self.cache_hits,
             "setup.matrix_load_calls": t["setup.matrix_load"][0],
             "setup.matrix_load_s": t["setup.matrix_load"][1],
             "setup.derive_calls": t["setup.derive"][0],
             "setup.derive_misses": self.derive_misses,
             "setup.derive_s": t["setup.derive"][1],
             "setup.sparse_pack_s": t["setup.sparse_pack"][1],
             "setup.table_builds": tables["builds"],
             "setup.table_loads": tables["hits"],
             "setup.table_s": t["setup.table"][1]}
        for s in SOLVERS:
            tot = t[f"solver.{s}"]
            m[f"solver.{s}.calls"] = tot[0]
            m[f"solver.{s}.iterations"] = self.iterations[s]
            m[f"solver.{s}.self_s"] = tot[1]
        for op in OPS:
            tot = t[f"op.{op}"]
            m[f"op.{op}.calls"] = tot[0]
            m[f"op.{op}.self_s"] = tot[1]
        for fold in ("pairwise", "segmented"):
            tot = t[f"fold.{fold}"]
            m[f"fold.{fold}.calls"] = tot[0]
            m[f"fold.{fold}.elements"] = tot[2]
            m[f"fold.{fold}.self_s"] = tot[1]
        tot = t["rounding"]
        m["rounding.calls"] = tot[0]
        m["rounding.elements"] = tot[2]
        m["rounding.self_s"] = tot[1]
        m["rounding.tiny_call_frac"] = (self.tiny_calls / tot[0]
                                        if tot[0] else 0.0)
        m["rounding.errstate_enters"] = self.errstate_enters
        for f in ROUNDING_FORMATS:
            fit = self.fits[f]
            m[f"rounding.{f}.calls"] = fit.n
            m[f"rounding.{f}.c0_us"] = fit.c0 * 1e6 if fit.n else 0.0
            m[f"rounding.{f}.c1_ns"] = fit.c1 * 1e9 if fit.n else 0.0
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(s) + "\n")
