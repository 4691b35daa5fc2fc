"""Restarted GMRES with rounded arithmetic.

A general non-symmetric iterative solver, run beside CG and BiCGSTAB in
the X13 solver × format grid.  The Arnoldi process and the
Givens-rotation least-squares update follow the textbook formulation;
all floating-point work routes through the :class:`FPContext` so GMRES
can itself be run in low precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..telemetry.trace import SolverTrace, maybe_trace
from .lanes import System, finish

__all__ = ["GMRESResult", "gmres"]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    converged: bool
    iterations: int           # total inner iterations across restarts
    relative_residual: float  # computed (recurrence) estimate


def _result(*, x, converged, iterations, relative_residual, **_):
    """The shared finish's values GMRES reports."""
    return GMRESResult(x, converged, iterations, relative_residual)


def gmres(ctx: FPContext, A: np.ndarray, b: np.ndarray, rtol: float = 1e-8,
          restart: int = 50, max_iterations: int = 1000,
          trace: SolverTrace | None = None) -> GMRESResult:
    """Solve ``Ax = b`` by restarted GMRES(restart) in the context format,
    starting from ``x = 0``."""
    trace = maybe_trace("gmres", ctx.fmt.name, trace)
    system = System(ctx, A, b, rtol, max_iterations, restart)
    if system.norm_b == 0.0:
        return finish(_result, system, system.x, 0, 0.0, trace,
                      converged=True)
    A, b, norm_b, x = system.A, system.b, system.norm_b, system.x
    total = 0
    while total < max_iterations:
        r0 = ctx.sub(b, ctx.matvec(A, x)) if total else b
        beta = ctx.norm2(r0)
        if not np.isfinite(beta):
            return finish(_result, system, x, total, np.inf, trace,
                          diverged=True)
        if beta <= rtol * norm_b:
            return finish(_result, system, x, total, beta, trace,
                          converged=True)

        m = min(restart, max_iterations - total)
        V = np.zeros((m + 1, len(b)))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = ctx.div(r0, beta)

        k_done = 0
        for k in range(m):
            w = ctx.matvec(A, V[k])
            # modified Gram-Schmidt, each dot and axpy rounded
            for j in range(k + 1):
                hjk = ctx.dot(w, V[j])
                H[j, k] = hjk
                w = ctx.sub(w, ctx.mul(hjk, V[j]))
            hk1 = ctx.norm2(w)
            H[k + 1, k] = hk1
            if not np.isfinite(hk1):
                break
            if hk1 != 0.0:
                V[k + 1] = ctx.div(w, hk1)

            # apply accumulated Givens rotations to column k
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = float(np.hypot(H[k, k], H[k + 1, k]))
            if denom == 0.0:
                # column k adds nothing: solve on the columns before it
                k_done = k
                break
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total += 1
            if trace is not None:
                trace.iteration(total, residual=abs(g[k + 1]) / norm_b)
            if abs(g[k + 1]) <= rtol * norm_b or hk1 == 0.0:
                break

        if k_done > 0:
            yk = np.linalg.solve(np.triu(H[:k_done, :k_done]), g[:k_done])
            update = V[:k_done].T @ yk
            x = ctx.add(x, ctx.round(update) if not ctx.is_exact else update)
        else:
            break  # no progress possible

        if abs(g[k_done]) / norm_b <= rtol:
            return finish(_result, system, x, total, abs(g[k_done]), trace,
                          converged=True)

    final = float(np.linalg.norm(b - ctx.matvec(A, x)))
    return finish(_result, system, x, total, final, trace,
                  converged=final / norm_b <= rtol)
