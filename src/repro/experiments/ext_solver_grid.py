"""Extension X13 — the solver × format-zoo grid.

The paper compares posit against IEEE on CG and Cholesky; this grid
extends the comparison along both axes at once: three Krylov methods
(CG, BiCGSTAB, restarted GMRES) × the format zoo (the paper's posits,
the takum pair, and the IEEE ladder) over the Table-I suite.  Systems
are rescaled into the golden zone per §V-B and the matvecs run through
the CSR layout (the padded-row semantics of :mod:`repro.arith.sparse`).

Every run decomposes into :class:`~repro.experiments.common.Cell`
units (kind ``"grid"``), so the runner's ``--jobs`` pool, the
content-addressed result cache, and :mod:`repro.service` all serve the
grid with no extra wiring.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import format_table, write_csv
from ..config import RunScale, current_scale
from .common import (GRID_FORMATS, GRID_SOLVERS, ExperimentResult,
                     grid_cells, run_solver_grid)
from .registry import experiment

__all__ = ["run", "DEFAULT_MATRICES"]

#: suite subset spanning the conditioning range (matches the BiCG
#: extension's picks plus the extremes of Table I)
DEFAULT_MATRICES = ("662_bus", "bcsstk02", "nos5", "lund_a", "bcsstk08")


def _cell_text(res, cap: int) -> str:
    if res is None:
        return "-"
    if getattr(res, "diverged", False):
        return "X"
    if res.converged:
        return str(res.iterations)
    return f"{cap}+"


@experiment("ext-solver-grid", "X13: solver x format-zoo grid",
            artifact="ext_solver_grid.csv",
            cells=lambda scale: grid_cells(
                scale, names=DEFAULT_MATRICES))
def run(scale: RunScale | None = None, quiet: bool = False
        ) -> ExperimentResult:
    """CG/BiCGSTAB/GMRES × the format zoo over the suite subset."""
    return _run(scale=scale, quiet=quiet)


def _run(scale: RunScale | None = None, quiet: bool = False,
         matrices: tuple[str, ...] = DEFAULT_MATRICES,
         solvers: tuple[str, ...] = GRID_SOLVERS,
         formats: tuple[str, ...] = GRID_FORMATS) -> ExperimentResult:
    """X13 implementation; knobs select the grid slice."""
    scale = scale or current_scale()
    grid = run_solver_grid(scale, solvers=solvers, formats=formats,
                           names=matrices)
    cap = scale.cg_max_iterations

    rows = []
    csv_rows = []
    for name in matrices:
        per = grid[name]
        for solver in solvers:
            rows.append([name, solver]
                        + [_cell_text(per[(solver, f)], cap)
                           for f in formats])
            for fmt in formats:
                res = per[(solver, fmt)]
                csv_rows.append([
                    name, solver, fmt,
                    int(bool(res.converged)),
                    int(bool(getattr(res, "diverged", False))),
                    int(res.iterations),
                    f"{float(res.relative_residual):.6e}",
                ])

    table = format_table(
        ["Matrix", "Solver"] + list(formats), rows, col_width=11,
        title=(f"X13 — solver x format grid on rescaled CSR systems "
               f"(iterations to rtol; X = diverged, {cap}+ = hit cap; "
               f"scale={scale.name})"))
    conv = np.array([r[3] for r in csv_rows], dtype=float)
    note = (f"{int(conv.sum())}/{conv.size} grid cells converged; "
            "tapered formats (posit, takum) pay off exactly where the "
            "rescaled spectrum sits inside the golden zone.")
    csv_path = write_csv(
        "ext_solver_grid.csv",
        ["matrix", "solver", "format", "converged", "diverged",
         "iterations", "rel_residual"],
        csv_rows)
    result = ExperimentResult("ext-solver-grid",
                              "X13: solver x format-zoo grid",
                              table + "\n" + note, csv_path,
                              {"grid": grid, "formats": formats,
                               "solvers": solvers})
    if not quiet:  # pragma: no cover
        result.show()
    return result


if __name__ == "__main__":  # pragma: no cover
    run()
