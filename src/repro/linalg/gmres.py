"""Restarted GMRES with rounded arithmetic.

The paper notes (Table II discussion) that "a more sophisticated
approach such as GMRES for solving the correction equation" would make
the hard iterative-refinement failures less likely — the GMRES-IR
scheme of Carson & Higham.  This module supplies that solver so the
library can run the stronger refinement variant as an extension
experiment, and doubles as a general non-symmetric iterative solver for
the BiCG/iterate-growth studies.

The Arnoldi process and the Givens-rotation least-squares update follow
the textbook formulation; all floating-point work routes through the
:class:`FPContext` so GMRES can itself be run in low precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_system
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace, maybe_trace

__all__ = ["GMRESResult", "gmres"]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    converged: bool
    iterations: int           # total inner iterations across restarts
    relative_residual: float  # computed (recurrence) estimate


def gmres(ctx: FPContext, A: np.ndarray, b: np.ndarray,
          x0: np.ndarray | None = None, rtol: float = 1e-8,
          restart: int = 50, max_iterations: int = 1000,
          preconditioner_solve=None,
          trace: SolverTrace | None = None) -> GMRESResult:
    """Solve ``Ax = b`` by restarted GMRES(restart) in the context format.

    Parameters
    ----------
    preconditioner_solve:
        Optional callable ``M_inv(v) -> vector`` applied on the left
        (used by GMRES-IR where M is the low-precision factorization).
    """
    trace = maybe_trace("gmres", ctx.fmt.name, trace)
    require_system(A, b)
    A = freeze(ctx.asarray(A))
    b = ctx.asarray(np.asarray(b, dtype=np.float64))
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    def apply_op(v: np.ndarray) -> np.ndarray:
        w = ctx.matvec(A, v)
        return preconditioner_solve(w) if preconditioner_solve else w

    rhs = preconditioner_solve(b) if preconditioner_solve else b
    norm_rhs = float(np.linalg.norm(rhs))
    if norm_rhs == 0.0:
        return GMRESResult(x, True, 0, 0.0)

    total = 0
    beta = np.inf
    while total < max_iterations:
        r0 = ctx.sub(rhs, apply_op(x)) if total or x0 is not None else rhs
        beta = ctx.norm2(r0)
        if not np.isfinite(beta):
            return GMRESResult(x, False, total, np.inf)
        if beta <= rtol * norm_rhs:
            return GMRESResult(x, True, total, beta / norm_rhs)

        m = min(restart, max_iterations - total)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = ctx.div(r0, beta)

        k_done = 0
        for k in range(m):
            w = apply_op(V[k])
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
                k_done = k + 1
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
                trace.iteration(total,
                                residual=abs(g[k + 1]) / norm_rhs)
            if abs(g[k + 1]) <= rtol * norm_rhs or hk1 == 0.0:
                break

        if k_done > 0:
            yk = np.linalg.solve(np.triu(H[:k_done, :k_done]), g[:k_done])
            update = V[:k_done].T @ yk
            x = ctx.add(x, ctx.round(update) if not ctx.is_exact else update)
        else:
            break  # no progress possible

        est = abs(g[k_done]) / norm_rhs
        if est <= rtol:
            return GMRESResult(x, True, total, est)

    r = rhs - apply_op(x)
    final = float(np.linalg.norm(r)) / norm_rhs
    return GMRESResult(x, final <= rtol, total, final)
