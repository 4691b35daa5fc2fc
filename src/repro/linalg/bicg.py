"""BiCG and BiCGSTAB under emulated arithmetic.

The paper hypothesizes (§VI) that "certain procedures such as Bi-CG
which have been observed to produce even larger iterates than
traditional CG may limit the potential for re-scaling as a means to
stabilize Posit since the working dynamic range is very high", and
lists Bi-CG as future work.  These solvers let the ``ext-bicg``
experiment test that hypothesis by tracking the dynamic range of the
iterates alongside convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arith.context import FPContext
from ..arith.sparse import CSRMatrix
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace, maybe_trace
from .lanes import System, finish

__all__ = ["BiCGResult", "bicg", "bicgstab"]


@dataclass
class BiCGResult:
    """Outcome of a BiCG/BiCGSTAB run, with iterate-magnitude telemetry.

    The per-iteration record lives in :attr:`trace` (a
    :class:`~repro.telemetry.SolverTrace`, recorded unconditionally for
    these solvers because the §VI hypothesis is *about* the iterate
    telemetry); :attr:`iterate_peaks` and :attr:`peak_dynamic_range`
    are views over it.
    """

    converged: bool
    diverged: bool
    iterations: int
    relative_residual: float
    true_relative_residual: float
    x: np.ndarray
    trace: SolverTrace = field(default_factory=lambda: SolverTrace("bicg"))

    @property
    def iterate_peaks(self) -> list[float]:
        """Per-iteration max |entry| over all work vectors — the
        "dynamic range of the iterates" the paper's hypothesis is
        about."""
        return self.trace.peaks

    @property
    def peak_dynamic_range(self) -> float:
        """log10(max peak / min peak) across the whole run."""
        return self.trace.peak_dynamic_range


def bicg(ctx: FPContext, A: np.ndarray, b: np.ndarray, rtol: float = 1e-5,
         max_iterations: int = 5000,
         trace: SolverTrace | None = None) -> BiCGResult:
    """Classic (unstabilized) BiCG with per-op-rounded arithmetic.

    For symmetric A this is mathematically CG run with an extra shadow
    sequence; its iterates are the ones the paper warns can grow large.
    *A* is dense: the shadow sequence needs ``Aᵀ``, which the CSR
    layout does not provide.
    """
    if isinstance(A, CSRMatrix):
        raise TypeError("bicg needs A's transpose, which a CSRMatrix does "
                        "not provide; pass A as a dense array")
    trace = maybe_trace("bicg", ctx.fmt.name, trace, always=True)
    system = System(ctx, A, b, rtol, max_iterations)
    if system.norm_b == 0.0:
        return finish(BiCGResult, system, system.x, 0, 0.0, trace,
                      converged=True)
    A, b, norm_b, x = system.A, system.b, system.norm_b, system.x
    At = freeze(np.ascontiguousarray(A.T))
    r = b.copy()
    rt = r.copy()
    p = r.copy()
    pt = rt.copy()
    rho = ctx.dot(rt, r)
    res = float(np.linalg.norm(r))

    for it in range(1, max_iterations + 1):
        Ap = ctx.matvec(A, p)
        denom = ctx.dot(pt, Ap)
        if denom == 0.0 or not np.isfinite(denom) or rho == 0.0:
            return finish(BiCGResult, system, x, it, np.inf, trace,
                          diverged=True)
        alpha = ctx.div(rho, denom)
        x = ctx.add(x, ctx.mul(alpha, p))
        r = ctx.sub(r, ctx.mul(alpha, Ap))
        Atpt = ctx.matvec(At, pt)
        rt = ctx.sub(rt, ctx.mul(alpha, Atpt))

        res = float(np.linalg.norm(r))
        trace.iteration(it, residual=res / norm_b, vectors=(x, r, p, pt))
        if not np.isfinite(res):
            return finish(BiCGResult, system, x, it, np.inf, trace,
                          diverged=True)
        if res <= rtol * norm_b:
            return finish(BiCGResult, system, x, it, res, trace,
                          converged=True)
        rho_new = ctx.dot(rt, r)
        if rho_new == 0.0 or not np.isfinite(rho_new):
            return finish(BiCGResult, system, x, it, res, trace,
                          diverged=True)
        beta = ctx.div(rho_new, rho)
        p = ctx.add(r, ctx.mul(beta, p))
        pt = ctx.add(rt, ctx.mul(beta, pt))
        rho = rho_new
    return finish(BiCGResult, system, x, max_iterations, res, trace)


def bicgstab(ctx: FPContext, A: np.ndarray, b: np.ndarray,
             rtol: float = 1e-5, max_iterations: int = 5000,
             trace: SolverTrace | None = None) -> BiCGResult:
    """BiCGSTAB with per-op-rounded arithmetic."""
    trace = maybe_trace("bicgstab", ctx.fmt.name, trace, always=True)
    system = System(ctx, A, b, rtol, max_iterations)
    if system.norm_b == 0.0:
        return finish(BiCGResult, system, system.x, 0, 0.0, trace,
                      converged=True)
    A, b, norm_b, x = system.A, system.b, system.norm_b, system.x
    r = b.copy()
    r0 = r.copy()
    p = r.copy()
    rho = ctx.dot(r0, r)
    res = float(np.linalg.norm(r))

    for it in range(1, max_iterations + 1):
        Ap = ctx.matvec(A, p)
        denom = ctx.dot(r0, Ap)
        if denom == 0.0 or not np.isfinite(denom):
            return finish(BiCGResult, system, x, it, res, trace,
                          diverged=True)
        alpha = ctx.div(rho, denom)
        s = ctx.sub(r, ctx.mul(alpha, Ap))
        As = ctx.matvec(A, s)
        ss = ctx.dot(As, As)
        omega = ctx.div(ctx.dot(As, s), ss) if ss != 0.0 else 0.0
        x = ctx.add(x, ctx.add(ctx.mul(alpha, p), ctx.mul(omega, s)))
        r = ctx.sub(s, ctx.mul(omega, As))

        res = float(np.linalg.norm(r))
        trace.iteration(it, residual=res / norm_b, vectors=(x, r, p, s))
        if not np.isfinite(res):
            return finish(BiCGResult, system, x, it, np.inf, trace,
                          diverged=True)
        if res <= rtol * norm_b:
            return finish(BiCGResult, system, x, it, res, trace,
                          converged=True)
        rho_new = ctx.dot(r0, r)
        if rho == 0.0 or omega == 0.0 or not np.isfinite(rho_new):
            return finish(BiCGResult, system, x, it, res, trace,
                          diverged=True)
        beta = ctx.mul(ctx.div(rho_new, rho), ctx.div(alpha, omega))
        p = ctx.add(r, ctx.mul(beta, ctx.sub(p, ctx.mul(omega, Ap))))
        rho = rho_new
    return finish(BiCGResult, system, x, max_iterations, res, trace)

