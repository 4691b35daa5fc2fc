"""The four benchmark workloads, as plain data.

A workload is a fixed cell grid at a fixed scale.  Each one stresses a
different layer (see README.md, "Workloads"), so a change to one layer
should move one workload and leave the others alone.  Specs are plain
JSON-able data because the harness hands them to fresh child processes.

Serial workloads (``experiments`` empty) list cell enumerators of
:mod:`repro.experiments.common` and run through
:func:`repro.experiments.engine.execute_cells`.  The engine workload
lists experiment ids and runs through :func:`repro.submit`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SWEEP_EXPERIMENTS",
           "enumerate_cells", "dispatch_order", "experiment_order"]

#: every cell-decomposed experiment (Figs. 6-10, Tables II/III, X13)
SWEEP_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9", "fig10", "table2",
                     "table3", "ext-solver-grid")

# Matrix subsets span the suite's 2-norm range and give each workload
# at least 40 cells (enough for a p75 tail over per-cell times) while
# one cold pass stays under ~6 s, so a run fits several passes in fresh
# processes and reports their medians.  ``pass_s`` is the baseline
# cold-sweep time from README.md, "Baseline".
CG_MATRICES = ("bcsstk01", "bcsstk02", "494_bus", "nos1", "nos2")
SPARSE_MATRICES = ("bcsstk02", "bcsstk22", "lund_b", "nos5")
FACTOR_MATRICES = ("bcsstk01", "lund_b", "nos1", "494_bus")
#: cold passes in any run of more than one
MIN_PASSES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    #: ``(enumerator, kwargs)`` pairs over :mod:`repro.experiments.common`
    cells: tuple = ()
    #: experiment ids run through :func:`repro.submit` instead, with
    #: the result cache on (cold passes write it, CSVs read it back)
    experiments: tuple = ()
    #: with more than one job the cells run in pool workers, so only
    #: the layers that run in the parent can be traced
    jobs: int = 1
    #: nominal reference seconds of one cold sweep, measured once at
    #: the baseline
    pass_s: float = 1.0
    #: how steeply the workload slows with the host, relative to the
    #: host-speed clock's reference task (see :mod:`.hostspeed`);
    #: fitted once from cold passes on a busy host
    slowdown_exponent: float = 1.0

    def cold_passes(self, seconds: float) -> int:
        """Cold passes in a run that measures at least *seconds* of
        sweep time at the baseline.  The count depends on the arguments
        only, never on how fast the commit under test runs, so two
        commits compared with the same ``--seconds`` do the same work.
        More than one pass is rounded up to an even count, and to at
        least :data:`MIN_PASSES`: passes come in order-reversed pairs
        (see :func:`dispatch_order`), and a per-cell median over two
        pairs drops one slowed pass."""
        n = math.ceil(seconds / self.pass_s)
        return 1 if n <= 1 else max(MIN_PASSES, n + n % 2)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "cg_small", scale="small",
        cells=(("cg_cells", {"names": list(CG_MATRICES)}),
               ("cg_cells", {"names": list(CG_MATRICES),
                             "rescaled": True})),
        pass_s=2.88, slowdown_exponent=1.09),
    Workload(
        "sparse_full", scale="full",
        cells=(("cg_cells", {"names": list(SPARSE_MATRICES)}),
               ("grid_cells", {"solvers": ["cg"],
                               "names": list(SPARSE_MATRICES)})),
        pass_s=5.19, slowdown_exponent=1.12),
    Workload(
        "factor_medium", scale="medium",
        cells=(("cholesky_cells", {"names": list(FACTOR_MATRICES)}),
               ("cholesky_cells", {"names": list(FACTOR_MATRICES),
                                   "rescaled": True}),
               ("ir_cells", {"names": list(FACTOR_MATRICES)}),
               ("ir_cells", {"names": list(FACTOR_MATRICES),
                             "higham": True})),
        pass_s=2.39),
    Workload(
        "sweep_smoke_jobs2", scale="smoke",
        experiments=SWEEP_EXPERIMENTS, jobs=2, pass_s=3.35),
)}


def enumerate_cells(workload: Workload) -> list:
    """The workload's cells in canonical order (duplicates dropped)."""
    from repro.config import SCALES
    from repro.experiments import common
    from repro.experiments.registry import get_experiment

    scale = SCALES[workload.scale]
    if workload.experiments:
        grids = [get_experiment(e).enumerate_cells(scale)
                 for e in workload.experiments]
    else:
        grids = [getattr(common, name)(scale, **kwargs)
                 for name, kwargs in workload.cells]
    return list(dict.fromkeys(c for grid in grids for c in grid))


def _shuffled(keys: list, seed: int, pass_index: int) -> list:
    """*keys* shuffled for one pass: passes 2k and 2k+1 share one
    shuffle, the second one reversed."""
    keys = list(keys)
    # string seeds hash the same in every process
    random.Random(f"{seed}/{pass_index // 2}").shuffle(keys)
    return keys[::-1] if pass_index % 2 else keys


def dispatch_order(cells: list, seed: int, pass_index: int = 0) -> list:
    """The order a cold pass dispatches *cells* in.

    Seed 0 keeps canonical order.  Any other seed shuffles the order of
    matrices, keeping each matrix's cells together in canonical order.
    A cell's time depends on what ran before it in the process: the
    first matrix to reach a lazily built code path pays for it (on
    ``factor_medium``, whichever of nos1 and 494_bus runs first adds
    ~25 ms to its posit16 IR cells).  So passes come in pairs, the
    second one in the reverse order of the first: every matrix runs
    before every other in exactly half of the passes, and no seed puts
    such a cost on the same cell in most passes.
    """
    if seed == 0:
        return list(cells)
    groups: dict[str, list] = {}
    for cell in cells:
        groups.setdefault(cell.matrix, []).append(cell)
    return [cell for key in _shuffled(groups, seed, pass_index)
            for cell in groups[key]]


def experiment_order(experiments: tuple, seed: int,
                     pass_index: int = 0) -> list:
    """The :func:`repro.submit` counterpart: the experiment-id order."""
    if seed == 0:
        return list(experiments)
    return _shuffled(experiments, seed, pass_index)
