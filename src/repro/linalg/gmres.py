"""Restarted GMRES with rounded arithmetic.

A general non-symmetric iterative solver, run beside CG and BiCGSTAB in
the X13 solver × format grid.  The Arnoldi process and the
Givens-rotation least-squares update follow the textbook formulation;
all floating-point work routes through the :class:`FPContext` so GMRES
can itself be run in low precision.

:func:`gmres_lanes` solves several CSR systems as lockstep ragged lanes
(``docs/performance.md`` §13); both entry points run the one body
:func:`_iterate` over a :class:`_State`.  Lanes start every restart
cycle together, so their Arnoldi steps share every rounded vector
operation, while each lane keeps its own small least-squares problem
(:class:`_Cycle`) in host floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..arith.sparse import CSRMatrix
from ..telemetry.trace import SolverTrace, maybe_trace
from .lanes import Lanes, System, finish, lane_traces, nonfinite

__all__ = ["GMRESResult", "gmres", "gmres_lanes"]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    converged: bool
    iterations: int           # total inner iterations across restarts
    relative_residual: float  # computed (recurrence) estimate


@dataclass
class _Unfinished:
    """A lane whose cycle ended early without converging: its iterate,
    iteration count and trace, to go on alone."""

    x: np.ndarray
    iterations: int
    trace: SolverTrace | None


def gmres(ctx: FPContext, A: np.ndarray, b: np.ndarray, rtol: float = 1e-8,
          restart: int = 50, max_iterations: int = 1000,
          trace: SolverTrace | None = None) -> GMRESResult:
    """Solve ``Ax = b`` by restarted GMRES(restart) in the context format,
    starting from ``x = 0``."""
    trace = maybe_trace("gmres", ctx.fmt.name, trace)
    system = _System(ctx, A, b, rtol, max_iterations, restart)
    return _solve(ctx, [system], [trace], rtol, restart, max_iterations)[0]


def gmres_lanes(ctx: FPContext, systems, rtol: float = 1e-8,
                restart: int = 50,
                max_iterations: int = 1000) -> list[GMRESResult]:
    """Solve several systems by GMRES(restart) as lockstep ragged lanes.

    *systems* is a sequence of ``(A, b)`` pairs, every ``A`` a
    :class:`~repro.arith.sparse.CSRMatrix` of any order.  Returns one
    :class:`GMRESResult` per system, in order, each with the bits of
    ``gmres(ctx, A, b, rtol, restart, max_iterations)``, its trace
    included: while a tracer is active every lane records its own.  A
    lane whose restart cycle ends early without converging finishes
    alone, from its iterate, iteration count and trace.  With a dense
    ``A`` among the systems, or a sequential-order context (its padded
    folds have no ragged form), the systems are solved one by one.
    """
    if ctx.sum_order != "pairwise" or not all(
            isinstance(A, CSRMatrix) for A, _ in systems):
        return [gmres(ctx, A, b, rtol, restart, max_iterations)
                for A, b in systems]
    prepared = [_System(ctx, A, b, rtol, max_iterations, restart)
                for A, b in systems]
    with lane_traces("gmres", ctx.fmt.name, len(prepared)) as traces:
        return _solve(ctx, prepared, traces, rtol, restart, max_iterations)


def _solve(ctx, prepared, traces, rtol, restart,
           max_iterations) -> list[GMRESResult]:
    """Results of the *prepared* systems, each recording into its own
    entry of *traces*: one with ``b = 0`` is solved by the zero start,
    the others run as one :class:`_State`, and a lane left unfinished
    by an early cycle end as a run of its own."""
    results = [finish(GMRESResult, s, s.x, 0, 0.0, t, converged=True)
               if s.norm_b == 0.0 else None
               for s, t in zip(prepared, traces)]
    live = [k for k, r in enumerate(results) if r is None]
    if live:
        state = _State(prepared, live, traces=[traces[k] for k in live])
        _iterate(ctx, state, rtol, restart, max_iterations)
        for k in live:
            result = state.results[k]
            if isinstance(result, _Unfinished):
                alone = _State(prepared, [k], traces=[result.trace])
                alone.x, alone.total = result.x, result.iterations
                _iterate(ctx, alone, rtol, restart, max_iterations)
                result = alone.results[k]
            results[k] = result
    return results


class _System(System):
    """One system after GMRES's set-up, with its convergence threshold."""

    def __init__(self, ctx, A, b, rtol, max_iterations, restart):
        super().__init__(ctx, A, b, rtol, max_iterations, restart)
        self.threshold = rtol * self.norm_b


class _Cycle:
    """One lane's host side of a restart cycle of length m.

    The Hessenberg matrix ``H`` with the Givens rotations ``cs, sn``
    applied column by column, the rotated right-hand side ``g`` and
    ``k_done``, the columns rotated so far: float64 arrays shaped as
    the textbook single run keeps them, so each lane's rotations,
    triangular solve and basis product compute in the same order.
    """

    __slots__ = ("H", "cs", "sn", "g", "k_done")

    def __init__(self, m: int, beta: float):
        self.H = np.zeros((m + 1, m))
        self.cs = np.zeros(m)
        self.sn = np.zeros(m)
        self.g = np.zeros(m + 1)
        self.g[0] = beta
        self.k_done = 0

    def column(self, k: int, h, hk1, threshold) -> bool:
        """Take Arnoldi column k (*h*, its k + 1 Gram-Schmidt
        coefficients, and *hk1* = ``‖w‖``) and rotate it; True when the
        cycle ends here.  A non-finite *hk1* or a zero rotation adds no
        column; otherwise the cycle ends once ``|g[k+1]|`` meets
        *threshold* or on a lucky breakdown (``hk1 == 0``)."""
        H, cs, sn, g = self.H, self.cs, self.sn, self.g
        H[:k + 1, k] = h
        H[k + 1, k] = hk1
        if not math.isfinite(hk1):
            return True
        for j in range(k):
            t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
            H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
            H[j, k] = t
        denom = float(np.hypot(H[k, k], H[k + 1, k]))
        if denom == 0.0:
            # column k adds nothing: solve on the columns before it
            return True
        cs[k] = H[k, k] / denom
        sn[k] = H[k + 1, k] / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        self.k_done = k + 1
        return bool(abs(g[k + 1]) <= threshold or hk1 == 0.0)

    def update(self, V) -> np.ndarray:
        """``V[:k_done]ᵀ · y`` for the least-squares solution y; *V* is
        the lane's ``(m + 1, n)`` basis (a view is copied contiguous)."""
        k = self.k_done
        y = np.linalg.solve(np.triu(self.H[:k, :k]), self.g[:k])
        return np.ascontiguousarray(V[:k]).T @ y


class _State(Lanes):
    """GMRES's lane state (:class:`~repro.linalg.lanes.Lanes`): the
    lanes' vectors, their ``(m + 1, N)`` Arnoldi basis ``V`` and one
    :class:`_Cycle` per lane.  ``total``, the iterations done, is one
    count: lanes leave the stack whenever theirs would differ."""

    VECTORS = ("b", "x", "r0", "V")
    SCALARS = ("norm_b", "threshold", "beta", "res", "ended")
    ITEMS = ("traces", "cycles")
    __slots__ = VECTORS + SCALARS + ("cycles", "total")

    def __init__(self, systems, ids, traces=None):
        super().__init__(systems, ids, traces=traces)
        self.total = 0
        self.cycles = None

    def norm2(self, ctx, v):
        """``ctx.norm2`` of the run's vector, or of each lane's."""
        if not self.stacked:
            return ctx.norm2(v)
        return ctx.sqrt(ctx.dot(v, v, segments=self.segments))

    def begin(self, ctx, m: int) -> None:
        """A restart cycle of length *m*: a zero basis with
        ``V[0] = r0 / β`` and each lane's :class:`_Cycle`."""
        self.V = np.zeros((m + 1, self.x.shape[-1]))
        self.V[0] = ctx.div(self.r0, self.per_lane(self.beta))
        betas = self.beta if self.stacked else [self.beta]
        self.cycles = [_Cycle(m, beta) for beta in betas]

    def extend(self, ctx, k: int, w, hk1) -> None:
        """``V[k+1] = w / hk1`` for the run, or each lane, whose *hk1*
        is finite and nonzero.  One whose is not ends its cycle at
        column k, so its part of ``V[k+1]`` is never read; it is not
        divided, so a collector counts what the lane alone rounds."""
        usable = np.isfinite(hk1) & (hk1 != 0.0)
        if np.all(usable):
            self.V[k + 1] = ctx.div(w, self.per_lane(hk1))
        elif self.stacked and usable.any():
            entries = self.segments.expand(usable)
            self.V[k + 1][entries] = ctx.div(w[entries],
                                             self.per_lane(hk1)[entries])

    def rotate(self, k: int, h: list, hk1):
        """Each lane's :meth:`_Cycle.column` for Arnoldi column k."""
        if not self.stacked:
            return self.cycles[0].column(k, h, hk1, self.threshold)
        h = np.array(h)
        return np.array([cycle.column(k, h[:, row], hk1[row],
                                      self.threshold[row])
                         for row, cycle in enumerate(self.cycles)])

    def k_done(self):
        """Each lane's (or the run's) rotated column count."""
        if not self.stacked:
            return self.cycles[0].k_done
        return np.array([cycle.k_done for cycle in self.cycles])

    def close(self, ctx, start: int, m: int, rtol: float) -> bool:
        """End the cycle of every lane marked ``ended``; True when none
        is left.

        A lane with columns adds ``round(V[:k]ᵀ · y)`` to its iterate
        and converges when ``|g[k]| / ‖b‖ <= rtol``; a lane without
        finishes on its true residual.  An unconverged lane whose cycle
        ended before m columns leaves the stack unfinished (a single
        run just starts its next cycle).
        """
        if not np.any(self.ended):
            return False
        done = self.k_done()
        rows = np.flatnonzero(self.ended & (done > 0))
        if rows.size:
            self.advance(ctx, rows)
        if self.stacked:
            self.res = np.array([abs(c.g[c.k_done]) for c in self.cycles])
        else:
            self.res = abs(self.cycles[0].g[done])
        if self.retire(start + done, self.ended & (done > 0)
                       & (self.res / self.norm_b <= rtol), "res",
                       converged=True):
            return True
        stuck = self.ended & (self.k_done() == 0)
        if np.any(stuck):
            self.res = self.residuals(ctx, stuck)
            if self.retire(start, stuck & (self.res / self.norm_b <= rtol),
                           "res", converged=True):
                return True
            if self.retire(start, self.ended & (self.k_done() == 0), "res"):
                return True
        if not self.stacked:
            return False
        done = self.k_done()
        return self.retire(start + done, self.ended & (done < m), "res",
                           unfinished=True)

    def advance(self, ctx, rows) -> None:
        """``x += round(V[:k]ᵀ · y)`` on lanes *rows*, one rounded call
        for all of them."""
        if not self.stacked:
            self.x = ctx.add(self.x, ctx.round(self.cycles[0].update(self.V)))
            return
        mask = np.zeros(len(self.ids), dtype=bool)
        mask[rows] = True
        update = np.concatenate([self.cycles[row].update(
            self._lane(self.V, row)) for row in rows])
        entries = self.segments.expand(mask)
        self.x[entries] = ctx.add(self.x[entries], ctx.round(update))

    def residuals(self, ctx, rows=None):
        """``‖b − A·x‖`` in float64 from the run's matvec, or from each
        lane's own; on lanes, only those *rows* marks (default all),
        the others keeping ``res``, as no result of theirs reads it."""
        if not self.stacked:
            return float(np.linalg.norm(self.b - ctx.matvec(self.A, self.x)))
        if rows is None:
            out, rows = np.empty(len(self.ids)), range(len(self.ids))
        else:
            out, rows = np.array(self.res, dtype=float), np.flatnonzero(rows)
        for row in rows:
            system = self.systems[self.ids[row]]
            out[row] = np.linalg.norm(
                system.b - ctx.matvec(system.A, self._lane(self.x, row)))
        return out

    def observe(self, k: int) -> None:
        """Column k in the trace of each lane that rotated it."""
        if self.traces[0] is None:
            return
        norms = self.norm_b if self.stacked else [self.norm_b]
        for trace, cycle, norm_b in zip(self.traces, self.cycles, norms):
            if cycle.k_done == k + 1:
                trace.iteration(self.total,
                                residual=abs(cycle.g[k + 1]) / norm_b)

    def result(self, system, x, iterations, res, history, trace,
               unfinished: bool = False, **outcome):
        """GMRES reports its residual estimate ``|g[k]|`` (or a true
        residual); an unfinished lane its state to go on alone."""
        if unfinished:
            return _Unfinished(x, iterations, trace)
        return finish(GMRESResult, system, x, iterations, res, trace,
                      **outcome)


def _iterate(ctx: FPContext, st: _State, rtol: float, restart: int,
             max_iterations: int) -> None:
    """Restarted GMRES until every lane of *st* settles.

    The one GMRES body: on a single run every check is a bool, on
    lanes a ``(B,)`` mask.  Each pass of the outer loop is one restart
    cycle that every lane starts together at k = 0.
    """
    while st.total < max_iterations:
        start = st.total
        st.r0 = (ctx.sub(st.b, ctx.matvec(st.A, st.x)) if start
                 else st.b)
        st.beta = st.norm2(ctx, st.r0)
        if st.retire(start, nonfinite(st.beta), "beta", diverged=True):
            return
        if st.retire(start, st.beta <= st.threshold, "beta",
                     converged=True):
            return
        m = min(restart, max_iterations - start)
        st.begin(ctx, m)
        for k in range(m):
            w = ctx.matvec(st.A, st.V[k])
            # modified Gram-Schmidt, each dot and axpy rounded
            h = []
            for j in range(k + 1):
                h.append(ctx.dot(w, st.V[j], segments=st.segments))
                w = ctx.sub(w, ctx.mul(st.per_lane(h[j]), st.V[j]))
            hk1 = st.norm2(ctx, w)
            st.extend(ctx, k, w, hk1)
            st.ended = st.rotate(k, h, hk1) | (k == m - 1)
            st.total = start + (k + 1 if st.stacked else st.k_done())
            st.observe(k)
            if st.close(ctx, start, m, rtol):
                return
            if not st.stacked:
                # also the last lane of a stack that shrank in close
                st.total = start + st.k_done()
                if st.ended:
                    break

    st.res = st.residuals(ctx)
    if st.retire(st.total, st.res / st.norm_b <= rtol, "res",
                 converged=True):
        return
    st.retire(st.total, True, "res")
