"""Shared plumbing for the experiment harness: cells and sweeps.

Each experiment module reproduces one paper artifact (table or figure)
and exposes ``run(scale=None, quiet=False) -> ExperimentResult``
registered through :func:`repro.experiments.registry.experiment`.

The heavyweight workloads — the CG / Cholesky / iterative-refinement
sweeps over the 19-matrix suite — decompose into **cells**: one
:class:`Cell` is a single ``(solver kind, matrix, format)`` run, the
smallest independently executable (and cacheable) unit of the paper's
evidence grid.  Cell results flow through two cache layers:

* an in-process memo (``_MEMO``), so composite figures (Fig. 8 reusing
  Fig. 9's Cholesky solves, Fig. 10 reusing Table III's IR runs) never
  recompute within one process, and repeated suite calls return the
  *same* objects; and
* the persistent content-addressed store of
  :mod:`repro.experiments.cache`, so results survive across processes
  and invocations and a warm re-run of the whole sweep is near-instant.

The cell engine (:mod:`repro.experiments.engine`) executes cells
serially or across a process pool; either way the suite assemblers
below see identical values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..arith.context import FPContext
from ..config import RunScale, current_scale
from ..formats.registry import get_format
from ..kernels.matcache import matrix_cache
from ..linalg.bicg import bicgstab_lanes
# conjugate_gradient runs no cell, but the benchmark's traced pass
# (benchmarks/e2e/layers.py) wraps this module's name for its
# solver.cg layer, so the name stays importable here
from ..linalg.cg import conjugate_gradient  # noqa: F401
from ..linalg.cg import conjugate_gradient_lanes
from ..linalg.gmres import gmres_lanes
from ..linalg.cholesky import cholesky_solve
from ..errors import FactorizationError
from ..linalg.ir import IRResult, iterative_refinement
from ..matrices.suite import (EXTRA_SUITE, SUITE_ORDER, load_matrix,
                              matrix_spec, right_hand_side)
from ..scaling.diagonal_mean import scale_by_diagonal_mean
from ..scaling.higham import higham_rescale
from ..scaling.power_of_two import scale_to_inf_norm
from ..telemetry.trace import active_tracer, span
from .cache import cache_enabled, result_cache

__all__ = [
    "CG_FORMATS", "IR_FORMATS", "CHOLESKY_FORMATS",
    "GRID_SOLVERS", "GRID_FORMATS",
    "ExperimentResult", "Cell",
    "cg_cells", "cholesky_cells", "ir_cells", "grid_cells",
    "compute_cell", "compute_lanes", "lane_key", "lane_seconds",
    "cell_value", "store_cell", "has_cell",
    "suite_systems",
    "run_cg_suite", "run_cholesky_suite", "run_ir_suite",
    "run_solver_grid",
    "clear_cache",
]

#: formats compared in the CG experiments (Fig. 6/7); fp64 is the reference
CG_FORMATS = ("fp64", "fp32", "posit32es2", "posit32es3")
#: formats compared in the Cholesky experiments (Fig. 8/9)
CHOLESKY_FORMATS = ("fp32", "posit32es2", "posit32es3")
#: formats compared in the IR experiments (Tables II/III, Fig. 10)
IR_FORMATS = ("fp16", "posit16es1", "posit16es2")
#: each grid solver's lane runner: the one table a grid cell's solver
#: is resolved from
_GRID_LANES = {"cg": conjugate_gradient_lanes, "bicgstab": bicgstab_lanes,
               "gmres": gmres_lanes}
#: Krylov methods of the extended solver grid (X-grid)
GRID_SOLVERS = tuple(_GRID_LANES)
#: format zoo compared in the extended solver grid: the paper's posits,
#: the takum pair (linear tapered, §repro.formats.takum), and the IEEE
#: ladder they compete with
GRID_FORMATS = ("fp16", "bf16", "fp32", "posit16es2", "posit32es2",
                "takum16", "takum32")


@dataclass
class ExperimentResult:
    """What an experiment hands back to the runner and the benches."""

    experiment_id: str         # e.g. "fig6"
    title: str
    text: str                  # the rendered table/figure
    csv_path: str | None
    data: dict[str, Any] = field(default_factory=dict)
    #: JSON-lines trace written for this run, when traced (--trace)
    trace_path: str | None = None

    def show(self) -> None:  # pragma: no cover - console I/O
        print(self.text)


# ---------------------------------------------------------------------------
# Cells — the unit of work, caching, scheduling, and resumption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One ``(solver kind, matrix, format)`` run of the evidence grid.

    ``options`` is a canonical (sorted) tuple of ``(name, value)``
    pairs — e.g. ``(("rescaled", True),)`` — so that equal work has
    equal identity regardless of call-site spelling.
    """

    kind: str                                   # "cg" | "chol" | "ir"
    matrix: str
    fmt: str
    options: tuple[tuple[str, Any], ...] = ()

    @property
    def cell_id(self) -> str:
        """Stable, human-readable identity used by cache and manifest."""
        opts = ",".join(f"{k}={v!r}" for k, v in self.options)
        base = f"{self.kind}:{self.matrix}:{self.fmt}"
        return f"{base}:{opts}" if opts else base

    def option(self, name: str, default: Any = None) -> Any:
        return dict(self.options).get(name, default)


def _options(**kwargs: Any) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


def _resolve_names(names: tuple[str, ...] | None) -> tuple[str, ...]:
    selected = tuple(names) if names is not None else tuple(SUITE_ORDER)
    unknown = [n for n in selected
               if n not in SUITE_ORDER and n not in EXTRA_SUITE]
    if unknown:
        raise KeyError(f"unknown suite matrices {unknown}; known: "
                       f"{list(SUITE_ORDER) + list(EXTRA_SUITE)}")
    return selected


def cg_cells(scale: RunScale, rescaled: bool = False,
             formats: tuple[str, ...] = CG_FORMATS, rtol: float = 1e-5,
             sparse: bool | None = None,
             names: tuple[str, ...] | None = None) -> tuple[Cell, ...]:
    """Cells of the CG sweep (Figs. 6/7): one per (matrix, format)."""
    if sparse is None:
        sparse = scale.name == "full"
    opts = _options(rescaled=bool(rescaled), rtol=float(rtol),
                    sparse=bool(sparse))
    return tuple(Cell("cg", m, f, opts)
                 for m in _resolve_names(names) for f in formats)


def cholesky_cells(scale: RunScale, rescaled: bool = False,
                   formats: tuple[str, ...] = CHOLESKY_FORMATS,
                   names: tuple[str, ...] | None = None
                   ) -> tuple[Cell, ...]:
    """Cells of the one-shot Cholesky sweep (Figs. 8/9)."""
    opts = _options(rescaled=bool(rescaled))
    return tuple(Cell("chol", m, f, opts)
                 for m in _resolve_names(names) for f in formats)


def ir_cells(scale: RunScale, higham: bool = False,
             formats: tuple[str, ...] = IR_FORMATS,
             names: tuple[str, ...] | None = None) -> tuple[Cell, ...]:
    """Cells of the mixed-precision IR sweep (Tables II/III, Fig. 10)."""
    opts = _options(higham=bool(higham))
    return tuple(Cell("ir", m, f, opts)
                 for m in _resolve_names(names) for f in formats)


def grid_cells(scale: RunScale,
               solvers: tuple[str, ...] = GRID_SOLVERS,
               formats: tuple[str, ...] = GRID_FORMATS,
               rtol: float = 1e-5,
               names: tuple[str, ...] | None = None) -> tuple[Cell, ...]:
    """Cells of the extended solver grid: one per (solver, matrix, fmt).

    Every grid cell runs the rescaled system through the CSR layout,
    the same one the full-scale Fig. 6/7 sweeps use; rescaled CG cells
    and grid cells share one cached CSR matrix per system.
    """
    unknown = [s for s in solvers if s not in GRID_SOLVERS]
    if unknown:
        raise ValueError(f"unknown grid solvers {unknown}; "
                         f"known: {list(GRID_SOLVERS)}")
    return tuple(Cell("grid", m, f,
                      _options(solver=s, rtol=float(rtol)))
                 for s in solvers for m in _resolve_names(names)
                 for f in formats)


def compute_cell(cell: Cell, scale: RunScale) -> Any:
    """Execute one cell from scratch (no cache consultation).

    Pure: the payload depends only on ``(cell, scale)`` and the code,
    which is exactly what lets cells run in worker processes and cache
    on disk.  The per-kind bodies mirror the pre-cell suite loops
    bit for bit — rescaling, sparse layout, then the solver.  A CG or
    grid cell runs as the one lane of :func:`compute_lanes`, the route
    its lane group takes, so each Krylov cell has one route.
    """
    if cell.kind in ("cg", "grid"):
        return compute_lanes([cell], scale)[0]
    with span("cell.compute", cell=cell.cell_id, scale=scale.name):
        return _compute_cell(cell, scale)


def lane_key(cell: Cell, scale: RunScale) -> tuple | None:
    """The key under which *cell* may run as a lane of a lockstep solve.

    Cells with equal keys run as lanes of one lockstep solve
    (:func:`compute_lanes`), ragged (lanes of any orders, their vectors
    laid end to end), so no key holds an order.  The key holds what
    the solve's arithmetic depends on:

    * a dense CG cell: ``("cg", width, step, options)`` when the format
      rounds through a two-level table (its storage width in bits and
      its table's step,
      :attr:`~repro.formats.base.NumberFormat.table_step`), else
      ``("cg", format, options)``, with the solver options but for
      ``rescaled``, which only picks the system a lane solves;
    * a CSR CG cell (``sparse``) and an X13 grid cell of any solver
      (``cg``, ``bicgstab``, ``gmres``): ``(f"{solver}-csr", width,
      step, rtol)`` for a table format, else ``(f"{solver}-csr",
      format, rtol)``.  A CSR CG cell and a grid CG cell make the same
      ``conjugate_gradient(ctx, A_csr, b, rtol,
      max_iterations=scale.cg_max_iterations)`` call; the others run
      as ragged CSR lanes of :func:`~repro.linalg.bicg.bicgstab_lanes`
      or :func:`~repro.linalg.gmres.gmres_lanes`.

    Lanes of several table formats share one rounding call per step
    (:class:`~repro.arith.context.LaneContext`); keying them by width
    keeps a group's plan and workspace near one format's.  fp64, fp16
    and fp32 round by a dtype cast (or not at all), and
    ``REPRO_LUT=off`` takes every table away, so their keys stay per
    format; under a fault injector the engine runs every cell alone.

    None (the cell runs alone) for every other cell, and for a matrix
    the suite does not know or (dense) cannot build.  A dense cell's
    system is built here, so a sweep builds it once, before any pool
    forks.
    """
    if cell.matrix not in SUITE_ORDER and cell.matrix not in EXTRA_SUITE:
        return None
    csr = (cell.kind == "grid" and cell.option("solver") in _GRID_LANES) \
        or (cell.kind == "cg" and cell.option("sparse"))
    if not csr and cell.kind != "cg":
        return None
    try:
        fmt = get_format(cell.fmt)
        if not csr:
            suite_systems(scale, names=(cell.matrix,))
    except Exception:
        return None  # the cell's own run reports the failure
    if csr:
        solver = f"{cell.option('solver', 'cg')}-csr"
        detail = float(cell.option("rtol", 1e-5))
    else:
        solver = "cg"
        detail = tuple(o for o in cell.options if o[0] != "rescaled")
    if fmt.table_step is None:
        return (solver, cell.fmt, detail)
    return (solver, fmt.nbits, fmt.table_step, detail)


def compute_lanes(cells, scale: RunScale) -> list:
    """The payloads of CG or grid cells sharing a :func:`lane_key`,
    computed as lanes of one lockstep solve of the key's solver (ragged
    for CSR cells); each has the bits of that solver's run on the
    cell's system alone.

    While a tracer is active each cell gets one ``cell.compute`` span,
    its share of the group's wall time by :func:`lane_seconds`.
    Raises ValueError for a grid cell of an unknown solver.
    """
    first = cells[0]
    solve = conjugate_gradient_lanes
    if first.kind == "grid":
        solve = _GRID_LANES.get(first.option("solver"))
        if solve is None:
            raise ValueError(f"unknown grid solver "
                             f"{first.option('solver')!r}")
    # lanes may differ in format (lane_key): one context per cell
    t0 = time.perf_counter()
    values = solve([FPContext(c.fmt) for c in cells],
                   [_cg_system(c, scale) for c in cells],
                   rtol=first.option("rtol", 1e-5),
                   max_iterations=scale.cg_max_iterations)
    tracer = active_tracer()
    if tracer is not None:
        shares = lane_seconds(time.perf_counter() - t0, values)
        for cell, seconds in zip(cells, shares):
            tracer.emit("span", name="cell.compute", seconds=seconds,
                        cell=cell.cell_id, scale=scale.name)
    return values


def lane_seconds(wall: float, values) -> list[float]:
    """*wall*, a lane group's time, split over its payloads in
    proportion to each one's ``iterations`` (evenly when none
    iterated), so the shares sum to *wall*."""
    weights = [getattr(value, "iterations", 0) for value in values]
    total = sum(weights)
    return [wall * (weight / total if total else 1.0 / len(values))
            for weight in weights]


def _cg_system(cell: Cell, scale: RunScale):
    """The ``(A, b)`` a CG or grid cell solves: rescaled and CSR-packed
    as its options ask (a grid cell always is both)."""
    _, A, b = suite_systems(scale, names=(cell.matrix,))[0]
    grid = cell.kind == "grid"
    rescaled = grid or bool(cell.option("rescaled"))
    cache = matrix_cache()
    if rescaled:
        ss = cache.get_or_build(
            ("cg.rescale", cell.matrix, scale.name),
            lambda: scale_to_inf_norm(A, b))
        A, b = ss.A, ss.b
    if grid or cell.option("sparse"):
        from ..arith.sparse import CSRMatrix
        A = cache.get_or_build(("csr", cell.matrix, scale.name, rescaled),
                               lambda: CSRMatrix.from_dense(A))
    return A, b


def _compute_cell(cell: Cell, scale: RunScale) -> Any:
    # Derived matrices (rescalings, CSR packing) depend only on the
    # system and the derivation parameters — never on the cell's format
    # (except Higham's, which keys on it) — so adjacent cells of a sweep
    # share them through the per-worker cache.  Solvers treat inputs as
    # read-only (they already share the memoized suite arrays).
    spec, A, b = suite_systems(scale, names=(cell.matrix,))[0]
    cache = matrix_cache()
    if cell.kind == "chol":
        if cell.option("rescaled"):
            ss = cache.get_or_build(
                ("chol.rescale", cell.matrix, scale.name),
                lambda: scale_by_diagonal_mean(A, b))
            A, b = ss.A, ss.b
        try:
            return cholesky_solve(FPContext(cell.fmt), A,
                                  b).relative_backward_error
        except FactorizationError:
            return np.inf
    if cell.kind == "ir":
        if cell.option("higham"):
            try:
                sc = cache.get_or_build(
                    ("higham", cell.matrix, scale.name, cell.fmt),
                    lambda: higham_rescale(A, b, cell.fmt))
            except Exception as exc:
                return IRResult(False, True, 0, np.inf, np.inf,
                                failure_reason=f"rescaling failed: {exc}")
            return iterative_refinement(
                A, b, cell.fmt, scaling=sc,
                max_iterations=scale.ir_max_iterations)
        return iterative_refinement(
            A, b, cell.fmt, max_iterations=scale.ir_max_iterations)
    raise ValueError(f"unknown cell kind {cell.kind!r}")


# -- the two cache layers ---------------------------------------------------

_MEMO: dict[tuple, Any] = {}


def clear_cache() -> None:
    """Drop the in-process memo (tests; the disk cache is untouched)."""
    _MEMO.clear()


def _memo(key: tuple, builder: Callable[[], Any]) -> Any:
    if key not in _MEMO:
        _MEMO[key] = builder()
    return _MEMO[key]


def store_cell(cell: Cell, scale: RunScale, value: Any,
               persist: bool = True) -> None:
    """Install a computed payload into the memo (and disk, if enabled)."""
    _MEMO[("cell", scale.name, cell)] = value
    if persist and cache_enabled():
        result_cache().put(cell.cell_id, scale.name, value)


def has_cell(cell: Cell, scale: RunScale) -> bool:
    """True when the cell is already available in memo or on disk."""
    if ("cell", scale.name, cell) in _MEMO:
        return True
    return cache_enabled() and result_cache().contains(cell.cell_id,
                                                       scale.name)


def cell_value(cell: Cell, scale: RunScale) -> Any:
    """The cell's payload: memo, else disk cache, else computed fresh."""
    mkey = ("cell", scale.name, cell)
    if mkey in _MEMO:
        return _MEMO[mkey]
    if cache_enabled():
        with span("cache.lookup", cell=cell.cell_id):
            hit, value = result_cache().get(cell.cell_id, scale.name)
        if hit:
            _MEMO[mkey] = value
            return value
    value = compute_cell(cell, scale)
    store_cell(cell, scale, value)
    return value


def suite_systems(scale: RunScale, names: tuple[str, ...] | None = None):
    """Yield ``(spec, A, b)`` for the suite at *scale* (memoized).

    *names* restricts the sweep to a subset of the suite (in the given
    order) — used by cells, focused experiments and fast tests; the
    default is the full Table I ordering.  Matrix synthesis is cheap
    and deterministic, so systems live only in the in-process memo.
    """
    selected = _resolve_names(names)

    def build():
        out = []
        for name in selected:
            spec = matrix_spec(name)
            with span("matrix.load", matrix=name, scale=scale.name):
                A = load_matrix(name, scale)
            out.append((spec, A, right_hand_side(A)))
        return out
    return _memo(("systems", scale.name, selected), build)


# ---------------------------------------------------------------------------
# Suite sweeps, assembled from cells (Figs. 6-9, Tables II/III, Fig. 10)
# ---------------------------------------------------------------------------

def _assemble(cells: tuple[Cell, ...], scale: RunScale) -> dict:
    results: dict[str, dict[str, Any]] = {}
    for cell in cells:
        results.setdefault(cell.matrix, {})[cell.fmt] = cell_value(cell,
                                                                   scale)
    return results


def run_cg_suite(scale: RunScale, rescaled: bool = False,
                 formats: tuple[str, ...] = CG_FORMATS,
                 rtol: float = 1e-5, sparse: bool | None = None,
                 names: tuple[str, ...] | None = None
                 ) -> dict[str, dict[str, Any]]:
    """CG over the suite in every format.

    Returns ``{matrix: {format: CGResult}}``.  With ``rescaled=True``
    the power-of-two ∞-norm scaling of §V-B is applied first.  With
    ``sparse`` (default: automatic at the ``full`` scale) the matvecs
    run through the CSR layout — same rounded operations on the
    nonzeros, ~80× faster at n ≈ 1000.
    """
    if sparse is None:
        sparse = scale.name == "full"
    cells = cg_cells(scale, rescaled=rescaled, formats=formats,
                     rtol=rtol, sparse=sparse, names=names)
    return _memo(("cg", scale.name, rescaled, formats, rtol, sparse,
                  names if names is None else tuple(names)),
                 lambda: _assemble(cells, scale))


def run_cholesky_suite(scale: RunScale, rescaled: bool = False,
                       formats: tuple[str, ...] = CHOLESKY_FORMATS,
                       names: tuple[str, ...] | None = None
                       ) -> dict[str, dict[str, float]]:
    """Single-pass Cholesky solve over the suite in every format.

    Returns ``{matrix: {format: relative_backward_error}}`` (inf when
    the factorization broke down).  With ``rescaled=True`` the paper's
    Algorithm 3 (diagonal-mean power-of-two scaling) is applied.
    """
    cells = cholesky_cells(scale, rescaled=rescaled, formats=formats,
                           names=names)
    return _memo(("chol", scale.name, rescaled, formats,
                  names if names is None else tuple(names)),
                 lambda: _assemble(cells, scale))


def run_solver_grid(scale: RunScale,
                    solvers: tuple[str, ...] = GRID_SOLVERS,
                    formats: tuple[str, ...] = GRID_FORMATS,
                    rtol: float = 1e-5,
                    names: tuple[str, ...] | None = None
                    ) -> dict[str, dict[tuple[str, str], Any]]:
    """The extended solver grid over the suite (CSR layout, rescaled).

    Returns ``{matrix: {(solver, format): result}}`` where the result
    is the solver's native dataclass (CGResult / BiCGResult /
    GMRESResult).
    """
    cells = grid_cells(scale, solvers=solvers, formats=formats,
                       rtol=rtol, names=names)

    def assemble():
        out: dict[str, dict[tuple[str, str], Any]] = {}
        for cell in cells:
            out.setdefault(cell.matrix, {})[
                (cell.option("solver"), cell.fmt)] = cell_value(cell,
                                                                scale)
        return out
    return _memo(("grid", scale.name, solvers, formats, rtol,
                  names if names is None else tuple(names)), assemble)


def run_ir_suite(scale: RunScale, higham: bool = False,
                 formats: tuple[str, ...] = IR_FORMATS,
                 names: tuple[str, ...] | None = None
                 ) -> dict[str, dict[str, IRResult]]:
    """Mixed-precision IR over the suite, naive or Higham-rescaled.

    Returns ``{matrix: {format: IRResult}}``.
    """
    cells = ir_cells(scale, higham=higham, formats=formats, names=names)
    return _memo(("ir", scale.name, higham, formats,
                  names if names is None else tuple(names)),
                 lambda: _assemble(cells, scale))
