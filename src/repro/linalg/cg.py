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

Lockstep lanes
--------------
:func:`conjugate_gradient_lanes` solves B systems as *lanes* of a
single run: the scalars are stacked as ``(B,)`` and every context call
serves all live lanes.  Dense systems of one order n stack their
vectors as ``(B, n)`` rows (``docs/performance.md`` §10).  CSR systems
may differ in order (*ragged* lanes, §11): their vectors lie end to end
in one ``(N,)`` array, the operator is the lanes' block-diagonal
:class:`~repro.arith.sparse.CSRStack`, and every fold is segmented so
that each lane keeps its own tree and padding product.  Both entry
points run the one iteration body :func:`_iterate`.  Each lane keeps
its own convergence, divergence, breakdown and budget outcome and
leaves the stack when it settles.  Rounding is elementwise and every
fold runs per lane, so each lane's result has the bits of its own
:func:`conjugate_gradient` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..arith.context import FPContext
from ..arith.shapes import require_system
from ..arith.sparse import CSRMatrix, CSRStack
from ..kernels.lut import release_workspace
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace, maybe_trace
from .norms import relative_backward_error

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
    require_system(A, b)
    system = _System(ctx, A, b, rtol, divergence_factor, jacobi)
    if system.rz is None:
        return CGResult(True, False, 0, 0.0, 0.0, system.x, trace=trace)
    state = _State.single([system], 0, record_history, trace)
    _iterate(ctx, state, max_iterations)
    return state.results[0]


def conjugate_gradient_lanes(ctx: FPContext, systems, rtol: float = 1e-5,
                             max_iterations: int = 5000,
                             divergence_factor: float = 1e8,
                             jacobi: bool = False) -> list[CGResult]:
    """Solve several SPD systems as lockstep lanes.

    *systems* is a sequence of ``(A, b)`` pairs: every ``A`` a dense
    ``(n, n)`` array with one n, or every ``A`` a
    :class:`~repro.arith.sparse.CSRMatrix` of any order (ragged
    lanes).  Returns one :class:`CGResult` per system, in order, each
    with the bits of ``conjugate_gradient(ctx, A, b, ...)`` under the
    same options.  A sequential-order context solves CSR systems one
    by one: its padded folds have no ragged form.  Lanes record no
    residual history and no trace; run a system alone for those.
    """
    sparse = [isinstance(A, CSRMatrix) for A, _ in systems]
    if any(sparse) and not all(sparse):
        raise ValueError("CG lanes take all-dense or all-CSR systems, "
                         "not a mix of dense and CSR")
    sizes = [require_system(A, b) for A, b in systems]
    if any(sparse) and ctx.sum_order != "pairwise":
        return [conjugate_gradient(ctx, A, b, rtol, max_iterations,
                                   divergence_factor, jacobi=jacobi)
                for A, b in systems]
    if not any(sparse) and len(set(sizes)) > 1:
        raise ValueError(f"dense CG lanes need systems of one order, got "
                         f"orders {sorted(set(sizes))}")
    prepared = [_System(ctx, A, b, rtol, divergence_factor, jacobi)
                for A, b in systems]
    results = [CGResult(True, False, 0, 0.0, 0.0, s.x)
               if s.rz is None else None for s in prepared]
    live = [k for k, s in enumerate(prepared) if s.rz is not None]
    if live:
        state = _State.lanes(prepared, live)
        _iterate(ctx, state, max_iterations)
        for k in live:
            results[k] = state.results[k]
    return results


class _System:
    """One quantized system after CG's set-up (line 1: x0 = 0, r0 = b,
    p0 = z0), with its own ``‖b‖`` and thresholds.  ``rz`` is None when
    ``b = 0`` (solved by x0, no iteration runs)."""

    def __init__(self, ctx, A, b, rtol, divergence_factor, jacobi):
        self.A = A = freeze(ctx.asarray(A))
        self.b = b = ctx.asarray(np.asarray(b, dtype=np.float64))
        self.minv = None
        if jacobi:
            diag = (A.diagonal() if isinstance(A, CSRMatrix)
                    else np.diag(np.asarray(A)))
            if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
                raise ValueError("Jacobi preconditioning requires a "
                                 "positive finite diagonal")
            self.minv = ctx.div(1.0, diag)
        self.x = np.zeros(b.shape[0], dtype=np.float64)
        self.r = b.copy()
        self.z = ctx.mul(self.minv, self.r) if jacobi else self.r
        self.p = np.array(self.z, dtype=np.float64, copy=True)
        self.norm_b = float(np.linalg.norm(b))
        self.rz = self.rr = None
        if self.norm_b == 0.0:
            return
        self.threshold = rtol * self.norm_b
        self.blowup = divergence_factor * self.norm_b
        # ⟨r, z⟩ (= ⟨r, r⟩ unpreconditioned)
        self.rz = ctx.dot(self.r, self.z)
        self.rr = self.rz if not jacobi else ctx.dot(self.r, self.r)


class _State:
    """The live state of one run: one system on 1-D vectors with float
    scalars, or lanes with ``(B,)`` scalars, row k belonging to system
    ``ids[k]``.  Dense lanes stack their vectors as ``(B, n)`` rows;
    ragged CSR lanes lay them end to end in one ``(N,)`` array
    (``segments``) and solve against the lanes' block-diagonal
    :class:`~repro.arith.sparse.CSRStack`.

    :meth:`retire` settles whatever a check flags and drops settled
    lanes from every stacked field, so later steps round live lanes
    only; a CSR stack and its plans are rebuilt from the lanes left.
    The last live lane leaves the stack too: it goes on as a single
    run on its own matrix, whose 1-D vectors and float scalars round
    through the formats' cheapest tiers.
    """

    #: per-lane fields: the iterate state and the intermediates a check
    #: may need after a lane leaves (the operand ``A`` is kept apart)
    VECTORS = ("minv", "x", "r", "z", "p", "Ap")
    SCALARS = ("rz", "rr", "pAp", "rz_new", "rr_new", "res_norm",
               "threshold", "blowup")

    __slots__ = VECTORS + SCALARS + ("A", "systems", "ids", "stacked",
                                     "segments", "history", "trace",
                                     "results")

    def __init__(self, systems, ids, stacked, history=None, trace=None):
        self.systems, self.ids, self.stacked = systems, ids, stacked
        self.history, self.trace = history, trace
        self.segments = None
        self.results: dict[int, CGResult] = {}
        self.Ap = self.pAp = self.rz_new = self.rr_new = None
        self.res_norm = None

    @classmethod
    def single(cls, systems: list, k: int, record_history: bool = False,
               trace=None):
        state = cls(systems, [k], False,
                    [] if record_history else None, trace)
        for name in ("A", "minv", "x", "r", "z", "p", "rz", "rr",
                     "threshold", "blowup"):
            setattr(state, name, getattr(systems[k], name))
        return state

    @classmethod
    def lanes(cls, systems: list, ids: list):
        if len(ids) == 1:
            return cls.single(systems, ids[0])
        live = [systems[k] for k in ids]
        state = cls(systems, ids, True)
        if isinstance(live[0].A, CSRMatrix):
            # each lane keeps its own matrix for its finish
            state.A = CSRStack.of([s.A for s in live])
            state.segments = state.A.segments
            join = np.concatenate
        else:
            state.A = freeze(np.stack([s.A for s in live]))
            join = np.stack
            # the stack holds the matrices; a settling lane copies its row
            for s in live:
                s.A = None
        for name in ("minv", "x", "r", "z", "p"):
            values = [getattr(s, name) for s in live]
            setattr(state, name, None if values[0] is None else join(values))
        for name in ("rz", "rr", "threshold", "blowup"):
            setattr(state, name,
                    np.array([getattr(s, name) for s in live]))
        return state

    def per_lane(self, scalar):
        """*scalar* shaped to scale each lane's entries of a vector."""
        if not self.stacked:
            return scalar
        if self.segments is not None:
            return self.segments.expand(scalar)
        return scalar[:, np.newaxis]

    def _lane(self, vector, row: int):
        """Lane *row*'s part of a stacked vector."""
        if self.segments is None:
            return vector[row]
        return self.segments.lane(vector, row)

    def _matrix(self, row: int):
        """Lane *row*'s own matrix: a CSR lane's, or a copy of a dense
        stack's row."""
        if self.segments is None:
            return self.A[row].copy()
        return self.A.lanes[row]

    def observe(self, iterations: int) -> None:
        """History and trace of a single run (lanes record neither)."""
        if self.history is None and self.trace is None:
            return
        norm_b = self.systems[self.ids[0]].norm_b
        if self.history is not None:
            self.history.append(self.res_norm / norm_b)
        if self.trace is not None:
            self.trace.iteration(iterations, residual=self.res_norm / norm_b,
                                 vectors=(self.x, self.r, self.p))

    def retire(self, iterations: int, flags, rr, *,
               converged: bool = False, diverged: bool = False) -> bool:
        """Settle the run or lanes *flags* marks, reporting the computed
        residual from *rr* (a field name); True when none is left."""
        if not self.stacked:
            if not flags:
                return False
            k = self.ids[0]
            self.results[k] = _finish(
                self.A, self.systems[k].b, self.x, iterations,
                getattr(self, rr),
                self.systems[k].norm_b, self.history or [], self.trace,
                converged=converged, diverged=diverged)
            return True
        if flags is True:
            flags = np.ones(len(self.ids), dtype=bool)
        elif not flags.any():
            return False
        rr = getattr(self, rr)
        for row in np.flatnonzero(flags):
            k = self.ids[row]
            self.results[k] = _finish(
                self._matrix(row), self.systems[k].b,
                self._lane(self.x, row).copy(), iterations, float(rr[row]),
                self.systems[k].norm_b, [], None,
                converged=converged, diverged=diverged)
        rows = np.flatnonzero(~flags)
        if self.segments is not None:
            # no later step rounds the old stack's array sizes again
            release_workspace()
        if rows.size == 0:
            return True
        self.ids = [self.ids[row] for row in rows]
        if rows.size == 1:
            # the last lane: 1-D vectors (owning their data, so a dense
            # matrix gets its own cached plan) and float scalars
            row = rows[0]
            self.A = freeze(self._matrix(row))
            self._select(lambda v: self._lane(v, row).copy(),
                         lambda v: float(v[row]))
            self.stacked = False
            self.segments = None
        elif self.segments is None:
            self.A = freeze(self.A[rows])
            self._select(lambda v: v[rows], lambda v: v[rows])
        else:
            keep = self.segments.expand(~flags)
            self.A = CSRStack.of([self.A.lanes[row] for row in rows])
            self.segments = self.A.segments
            self._select(lambda v: v[keep], lambda v: v[rows])
        return False

    def _select(self, vector, scalar) -> None:
        """Replace every per-lane field by *vector* or *scalar* of it."""
        for names, pick in ((self.VECTORS, vector), (self.SCALARS, scalar)):
            for name in names:
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, pick(value))


# Shape-generic pieces of the iteration body: a single run's scalars
# are Python floats (np.float64 in the float64 context), a lane run's
# are (B,) arrays.

def _breakdown(pAp):
    """``pAp`` is non-finite or zero."""
    if isinstance(pAp, np.ndarray):
        return ~np.isfinite(pAp) | (pAp == 0.0)
    return not math.isfinite(pAp) or pAp == 0.0


def _nonfinite(a, b):
    """``a`` or ``b`` is non-finite."""
    if isinstance(a, np.ndarray):
        return ~(np.isfinite(a) & np.isfinite(b))
    return not (math.isfinite(a) and math.isfinite(b))


def _root(rr):
    """``√max(rr, 0)`` of a float, or of each lane's value."""
    if isinstance(rr, np.ndarray):
        return np.sqrt(np.maximum(rr, 0.0))
    return float(np.sqrt(max(rr, 0.0)))


def _iterate(ctx: FPContext, st: _State, max_iterations: int) -> None:
    """Paper Algorithm 1, lines 2-7, until every lane of *st* settles.

    The one CG iteration body: on a single run every check is a bool,
    on lanes a ``(B,)`` mask, and a lane meeting several checks in one
    step settles at the first, as the single run would return there.
    """
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        st.Ap = ctx.matvec(st.A, st.p)
        st.pAp = ctx.dot(st.p, st.Ap, segments=st.segments)
        if st.retire(iterations, _breakdown(st.pAp), "rr", diverged=True):
            return
        alpha = st.per_lane(ctx.div(st.rz, st.pAp))   # line 3
        st.x = ctx.axpy(alpha, st.p, st.x)            # line 4
        st.r = ctx.axpy(-alpha, st.Ap, st.r)          # line 5 (recurrence)
        st.z = st.r if st.minv is None else ctx.mul(st.minv, st.r)
        st.rz_new = ctx.dot(st.r, st.z, segments=st.segments)
        st.rr_new = (st.rz_new if st.minv is None
                     else ctx.dot(st.r, st.r, segments=st.segments))
        if st.retire(iterations, _nonfinite(st.rr_new, st.rz_new),
                     "rr_new", diverged=True):
            return

        st.res_norm = _root(st.rr_new)
        if not st.stacked:
            st.observe(iterations)
        if st.retire(iterations, st.res_norm <= st.threshold, "rr_new",
                     converged=True):
            return
        if st.retire(iterations, st.res_norm >= st.blowup, "rr_new",
                     diverged=True):
            return
        if st.retire(iterations, st.rz == 0.0, "rr_new", diverged=True):
            return
        beta = st.per_lane(ctx.div(st.rz_new, st.rz))  # line 6
        st.p = ctx.axpy(beta, st.p, st.z)              # line 7
        st.rz = st.rz_new
        st.rr = st.rr_new

    st.retire(iterations, True, "rr")


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
