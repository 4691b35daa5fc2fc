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

:func:`conjugate_gradient_lanes` solves several systems as lockstep
lanes of one run (``docs/performance.md`` §10–§11); both entry points
run the one iteration body :func:`_iterate` over a :class:`_State`,
whose stacking and retiring live in :mod:`repro.linalg.lanes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_system
from ..arith.sparse import CSRMatrix
from ..telemetry.trace import SolverTrace, maybe_trace
from .lanes import (Lanes, System, breakdown, finish, lane_contexts,
                    nonfinite, root, solve_groups)

__all__ = ["CGResult", "conjugate_gradient", "conjugate_gradient_lanes"]


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
    trace = maybe_trace("cg", ctx.fmt.name, trace)
    system = _System(ctx, A, b, rtol, max_iterations, divergence_factor,
                     jacobi)
    return _solve([system], [trace], max_iterations, record_history)[0]


def conjugate_gradient_lanes(ctx, systems, rtol: float = 1e-5,
                             max_iterations: int = 5000,
                             divergence_factor: float = 1e8,
                             jacobi: bool = False) -> list[CGResult]:
    """Solve several SPD systems as lockstep lanes.

    *systems* is a sequence of ``(A, b)`` pairs: every ``A`` a dense
    array, or every ``A`` a :class:`~repro.arith.sparse.CSRMatrix`,
    of any orders (ragged lanes, their vectors laid end to end).  *ctx*
    is one :class:`FPContext` for every system, or one per system,
    differing at most in format.  Returns one :class:`CGResult` per
    system, in order, each with the bits of ``conjugate_gradient(ctx_k,
    A, b, ...)`` under the same options, its trace included: while a
    tracer is active every lane records its own, in its own format.

    Systems whose formats round through two-level tables with one step
    (:attr:`~repro.formats.base.NumberFormat.table_step`) run as one
    group in a :class:`~repro.arith.context.LaneContext`, whatever
    their formats, so each rounding call serves all of them; every
    other format's systems (and, under a fault injector, which draws
    its faults in one format, every format's) run as a group of their
    own.  A sequential-order context solves the systems one by one: its
    folds have no ragged form.  Lanes record no residual history; run a
    system alone for one.
    """
    contexts = lane_contexts(ctx, systems, "CG")
    sparse = [isinstance(A, CSRMatrix) for A, _ in systems]
    if any(sparse) and not all(sparse):
        raise ValueError("CG lanes take all-dense or all-CSR systems, "
                         "not a mix of dense and CSR")
    for A, b in systems:
        require_system(A, b)
    if any(c.sum_order != "pairwise" for c in contexts):
        return [conjugate_gradient(c, A, b, rtol, max_iterations,
                                   divergence_factor, jacobi=jacobi)
                for c, (A, b) in zip(contexts, systems)]
    return solve_groups(
        "cg", contexts,
        lambda k: _System(contexts[k], *systems[k], rtol, max_iterations,
                          divergence_factor, jacobi),
        lambda prepared, traces: _solve(prepared, traces, max_iterations))


def _solve(prepared, traces, max_iterations,
           record_history=False) -> list[CGResult]:
    """Results of the *prepared* systems, each recording into its own
    entry of *traces*: one with ``b = 0`` is solved by the zero start,
    the others run as one :class:`_State`."""
    results = [finish(CGResult, s, s.x, 0, 0.0, t, converged=True)
               if s.norm_b == 0.0 else None
               for s, t in zip(prepared, traces)]
    live = [k for k, r in enumerate(results) if r is None]
    if live:
        state = _State(prepared, live, record_history,
                       [traces[k] for k in live])
        _iterate(state, max_iterations)
        for k in live:
            results[k] = state.results[k]
    return results


class _System(System):
    """One system after CG's set-up (line 1: x = 0, r = b, p = z),
    with its thresholds and first ``⟨r, z⟩``, ``⟨r, r⟩`` unless b = 0."""

    def __init__(self, ctx, A, b, rtol, max_iterations, divergence_factor,
                 jacobi):
        super().__init__(ctx, A, b, rtol, max_iterations)
        self.minv = None
        if jacobi:
            diag = (self.A.diagonal() if isinstance(self.A, CSRMatrix)
                    else np.diag(np.asarray(self.A)))
            if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
                raise ValueError("Jacobi preconditioning requires a "
                                 "positive finite diagonal")
            self.minv = ctx.div(1.0, diag)
        self.r = self.b.copy()
        self.z = ctx.mul(self.minv, self.r) if jacobi else self.r
        self.p = np.array(self.z, dtype=np.float64, copy=True)
        if self.norm_b == 0.0:
            return
        self.threshold = rtol * self.norm_b
        self.blowup = divergence_factor * self.norm_b
        # ⟨r, z⟩ (= ⟨r, r⟩ unpreconditioned)
        self.rz = ctx.dot(self.r, self.z)
        self.rr = self.rz if not jacobi else ctx.dot(self.r, self.r)


class _State(Lanes):
    """CG's lane state (:class:`~repro.linalg.lanes.Lanes`)."""

    #: per-lane fields: the iterate state and the intermediates a check
    #: may need after a lane leaves
    VECTORS = ("minv", "x", "r", "z", "p", "Ap")
    SCALARS = ("rz", "rr", "pAp", "rz_new", "rr_new", "res_norm",
               "norm_b", "threshold", "blowup")
    __slots__ = VECTORS + SCALARS

    def observe(self, iterations: int) -> None:
        """A single run's history, and each trace's iteration: its
        residual ``‖r‖/‖b‖`` and its peak over ``x, r, p``."""
        if self.history is None and self.traces[0] is None:
            return
        residual = self.res_norm / self.norm_b
        if self.history is not None:
            self.history.append(residual)
        self.record(iterations, residual, (self.x, self.r, self.p))

    def result(self, system, x, iterations, rr, history, trace, **outcome):
        """CG reports ``√rr`` as its computed residual norm."""
        residual = (float(np.sqrt(rr)) if np.isfinite(rr) and rr >= 0
                    else np.inf)
        return finish(CGResult, system, x, iterations, residual, trace,
                      residual_history=history, **outcome)


def _iterate(st: _State, max_iterations: int) -> None:
    """Paper Algorithm 1, lines 2-7, until every lane of *st* settles.

    The one CG iteration body: on a single run every check is a bool,
    on lanes a ``(B,)`` mask, and a lane meeting several checks in one
    step settles at the first, as the single run would return there.
    Every operation rounds in ``st.ctx``, which a retirement narrows.
    """
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        st.Ap = st.ctx.matvec(st.A, st.p)
        st.pAp = st.ctx.dot(st.p, st.Ap, segments=st.segments)
        if st.retire(iterations, breakdown(st.pAp), "rr", diverged=True):
            return
        alpha = st.per_lane(st.ctx.div(st.rz, st.pAp))  # line 3
        st.x = st.ctx.axpy(alpha, st.p, st.x)           # line 4
        st.r = st.ctx.axpy(-alpha, st.Ap, st.r)         # line 5 (recurrence)
        st.z = st.r if st.minv is None else st.ctx.mul(st.minv, st.r)
        st.rz_new = st.ctx.dot(st.r, st.z, segments=st.segments)
        st.rr_new = (st.rz_new if st.minv is None
                     else st.ctx.dot(st.r, st.r, segments=st.segments))
        if st.retire(iterations, nonfinite(st.rr_new, st.rz_new),
                     "rr_new", diverged=True):
            return

        st.res_norm = root(st.rr_new)
        st.observe(iterations)
        if st.retire(iterations, st.res_norm <= st.threshold, "rr_new",
                     converged=True):
            return
        if st.retire(iterations, st.res_norm >= st.blowup, "rr_new",
                     diverged=True):
            return
        if st.retire(iterations, st.rz == 0.0, "rr_new", diverged=True):
            return
        beta = st.per_lane(st.ctx.div(st.rz_new, st.rz))  # line 6
        st.p = st.ctx.axpy(beta, st.p, st.z)              # line 7
        st.rz = st.rz_new
        st.rr = st.rr_new

    st.retire(iterations, True, "rr")
