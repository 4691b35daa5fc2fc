"""Conjugate Gradient — the paper's Algorithm 1, format-parameterized.

The implementation follows the paper exactly:

* the residual is updated by the recurrence ``r ← r − α·A·p`` (line 5),
  *not* recomputed as ``b − A·x`` — the paper notes the recurrence can
  drift from the true residual and uses the **computed** residual as the
  convergence test;
* convergence is declared when ``‖r‖ ≤ ‖b‖ · rtol`` with the paper's
  strict ``rtol = 1e-5`` default;
* every arithmetic operation inside the iteration is rounded to the
  context's format.

The returned record carries both the computed and the true final
residuals so experiments can quantify the premature-convergence effect
the paper mentions (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_system
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace, maybe_trace
from .norms import relative_backward_error

__all__ = ["CGResult", "conjugate_gradient"]


@dataclass
class CGResult:
    """Outcome of a CG run.

    Attributes
    ----------
    converged:
        True when the computed residual met the tolerance within budget.
    diverged:
        True when the iteration produced non-finite values or the
        residual exploded — the paper's "fails to converge" cases for
        Posit(32, 2) on large-norm matrices.
    iterations:
        Number of iterations performed (the paper's Fig. 6/7 y-axis).
    relative_residual:
        Final *computed* relative residual ‖r_i‖/‖b‖.
    true_relative_residual:
        Final *true* relative residual ‖b − A·x‖/‖b‖ in float64.
    """

    converged: bool
    diverged: bool
    iterations: int
    relative_residual: float
    true_relative_residual: float
    x: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    #: per-iteration event record (populated when tracing is active
    #: or a :class:`~repro.telemetry.SolverTrace` was passed in)
    trace: SolverTrace | None = None

    @property
    def failed(self) -> bool:
        """Not converged (either diverged or budget exhausted)."""
        return not self.converged


def conjugate_gradient(ctx: FPContext, A: np.ndarray, b: np.ndarray,
                       rtol: float = 1e-5, max_iterations: int = 5000,
                       divergence_factor: float = 1e8,
                       record_history: bool = False,
                       jacobi: bool = False,
                       trace: SolverTrace | None = None) -> CGResult:
    """Solve SPD ``Ax = b`` with per-op-rounded CG (paper Algorithm 1).

    Parameters
    ----------
    ctx:
        Arithmetic context; `A` and `b` are quantized into it on entry
        (the paper casts from extended precision into the test format).
    rtol:
        Relative-backward-error tolerance on the computed residual
        (paper: 1e-5, "fairly strict ... to exercise these numerical
        formats to their limits").
    max_iterations:
        Iteration budget; exceeding it reports ``converged=False``.
    divergence_factor:
        Declares divergence when ‖r‖ grows beyond this multiple of ‖b‖.
    trace:
        Optional :class:`~repro.telemetry.SolverTrace` to record
        per-iteration events (residual, iterate peaks) into; when None
        one is created automatically if an ambient tracer is active
        (``repro.telemetry.tracing`` / ``trace_session``), otherwise
        nothing is recorded.
    jacobi:
        Use Jacobi (diagonal) preconditioning, ``M = diag(A)``.  Not
        part of the paper's protocol — provided as the *dynamic*
        counterpart of its static rescaling (convergence is still
        tested on the unpreconditioned residual).  Preconditioner
        applications are rounded like every other operation.

    Notes
    -----
    *A* may be a dense array or a
    :class:`~repro.arith.sparse.CSRMatrix`, which makes full-scale
    suite runs tractable.
    """
    from ..arith.sparse import CSRMatrix
    trace = maybe_trace("cg", ctx.fmt.name, trace)
    require_system(A, b)
    A = freeze(ctx.asarray(A))
    b = ctx.asarray(np.asarray(b, dtype=np.float64))
    n = b.shape[0]

    minv = None
    if jacobi:
        diag = (A.diagonal() if isinstance(A, CSRMatrix)
                else np.diag(np.asarray(A)))
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise ValueError("Jacobi preconditioning requires a positive "
                             "finite diagonal")
        minv = ctx.div(1.0, diag)

    x = np.zeros(n, dtype=np.float64)  # line 1: x0 = 0
    r = b.copy()                       # r0 = b
    z = ctx.mul(minv, r) if jacobi else r
    p = np.array(z, dtype=np.float64, copy=True)  # p0 = z0

    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return CGResult(True, False, 0, 0.0, 0.0, x, trace=trace)
    threshold = rtol * norm_b
    blowup = divergence_factor * norm_b

    rz = ctx.dot(r, z)  # ⟨r, z⟩ (= ⟨r, r⟩ unpreconditioned)
    rr = rz if not jacobi else ctx.dot(r, r)
    history: list[float] = []
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        Ap = ctx.matvec(A, p)
        pAp = ctx.dot(p, Ap)
        if not np.isfinite(pAp) or pAp == 0.0:
            return _finish(A, b, x, iterations, rr, norm_b, history, trace,
                           diverged=True)
        alpha = ctx.div(rz, pAp)                     # line 3
        x = ctx.axpy(alpha, p, x)                    # line 4
        r = ctx.axpy(-alpha, Ap, r)                  # line 5 (recurrence)
        z = ctx.mul(minv, r) if jacobi else r
        rz_new = ctx.dot(r, z)
        rr_new = rz_new if not jacobi else ctx.dot(r, r)
        if not np.isfinite(rr_new) or not np.isfinite(rz_new):
            return _finish(A, b, x, iterations, rr_new, norm_b, history, trace,
                           diverged=True)

        res_norm = float(np.sqrt(max(rr_new, 0.0)))
        if record_history:
            history.append(res_norm / norm_b)
        if trace is not None:
            trace.iteration(iterations, residual=res_norm / norm_b,
                            vectors=(x, r, p))
        if res_norm <= threshold:
            return _finish(A, b, x, iterations, rr_new, norm_b, history, trace,
                           converged=True)
        if res_norm >= blowup:
            return _finish(A, b, x, iterations, rr_new, norm_b, history, trace,
                           diverged=True)

        if rz == 0.0:
            return _finish(A, b, x, iterations, rr_new, norm_b, history, trace,
                           diverged=True)
        beta = ctx.div(rz_new, rz)                   # line 6
        p = ctx.axpy(beta, p, z)                     # line 7
        rz = rz_new
        rr = rr_new

    return _finish(A, b, x, iterations, rr, norm_b, history, trace)


def _finish(A, b, x, iterations, rr, norm_b, history, trace, *,
            converged: bool = False, diverged: bool = False) -> CGResult:
    computed = (float(np.sqrt(rr)) / norm_b
                if np.isfinite(rr) and rr >= 0 else np.inf)
    true_rel = relative_backward_error(A, x, b)
    if trace is not None:
        trace.event("finish", iter=iterations,
                    outcome=("converged" if converged else
                             "breakdown" if diverged else "budget"),
                    residual=computed)
    return CGResult(converged=converged, diverged=diverged,
                    iterations=iterations, relative_residual=computed,
                    true_relative_residual=true_rel, x=x,
                    residual_history=history, trace=trace)
