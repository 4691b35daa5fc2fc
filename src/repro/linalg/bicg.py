"""BiCG and BiCGSTAB under emulated arithmetic.

The paper hypothesizes (§VI) that "certain procedures such as Bi-CG
which have been observed to produce even larger iterates than
traditional CG may limit the potential for re-scaling as a means to
stabilize Posit since the working dynamic range is very high", and
lists Bi-CG as future work.  These solvers let the ``ext-bicg``
experiment test that hypothesis by tracking the dynamic range of the
iterates alongside convergence.

:func:`bicgstab_lanes` solves several CSR systems as lockstep ragged
lanes (``docs/performance.md`` §13); both BiCGSTAB entry points run
the one iteration body :func:`_iterate` over a :class:`_State`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..arith.context import FPContext
from ..arith.sparse import CSRMatrix
from ..kernels.segment import LaneSegments
from ..kernels.zeroplan import freeze
from ..telemetry.trace import SolverTrace, maybe_trace
from .lanes import Lanes, System, breakdown, finish, lane_traces, nonfinite

__all__ = ["BiCGResult", "bicg", "bicgstab", "bicgstab_lanes"]


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
    system = _System(ctx, A, b, rtol, max_iterations)
    return _solve(ctx, [system], [trace], max_iterations)[0]


def bicgstab_lanes(ctx: FPContext, systems, rtol: float = 1e-5,
                   max_iterations: int = 5000) -> list[BiCGResult]:
    """Solve several systems by BiCGSTAB as lockstep ragged lanes.

    *systems* is a sequence of ``(A, b)`` pairs, every ``A`` a
    :class:`~repro.arith.sparse.CSRMatrix` of any order.  Returns one
    :class:`BiCGResult` per system, in order, each with the bits of
    ``bicgstab(ctx, A, b, rtol, max_iterations)``, its trace included:
    every lane records its own.  With a dense ``A`` among the systems,
    or a sequential-order context (its padded folds have no ragged
    form), the systems are solved one by one.
    """
    if ctx.sum_order != "pairwise" or not all(
            isinstance(A, CSRMatrix) for A, _ in systems):
        return [bicgstab(ctx, A, b, rtol, max_iterations)
                for A, b in systems]
    prepared = [_System(ctx, A, b, rtol, max_iterations)
                for A, b in systems]
    with lane_traces("bicgstab", ctx.fmt.name, len(prepared),
                     always=True) as traces:
        return _solve(ctx, prepared, traces, max_iterations)


def _solve(ctx, prepared, traces, max_iterations) -> list[BiCGResult]:
    """Results of the *prepared* systems, each recording into its own
    entry of *traces*: one with ``b = 0`` is solved by the zero start,
    the others run as one :class:`_State`."""
    results = [finish(BiCGResult, s, s.x, 0, 0.0, t, converged=True)
               if s.norm_b == 0.0 else None
               for s, t in zip(prepared, traces)]
    live = [k for k, r in enumerate(results) if r is None]
    if live:
        state = _State(prepared, live, traces=[traces[k] for k in live])
        _iterate(ctx, state, max_iterations)
        for k in live:
            results[k] = state.results[k]
    return results


class _System(System):
    """One system after BiCGSTAB's set-up: ``r = r̂₀ = p = b``, the
    first ``ρ = ⟨r̂₀, r⟩`` and ``‖r‖``, and the convergence threshold."""

    def __init__(self, ctx, A, b, rtol, max_iterations):
        super().__init__(ctx, A, b, rtol, max_iterations)
        self.r = self.b.copy()
        self.r0 = self.r.copy()
        self.p = self.r.copy()
        if self.norm_b == 0.0:
            return
        self.rho = ctx.dot(self.r0, self.r)
        self.res = float(np.linalg.norm(self.r))
        self.threshold = rtol * self.norm_b


class _State(Lanes):
    """BiCGSTAB's lane state (:class:`~repro.linalg.lanes.Lanes`)."""

    #: per-lane fields: the iterate state and the intermediates a check
    #: may need after a lane leaves
    VECTORS = ("x", "r", "r0", "p", "Ap", "s", "As")
    SCALARS = ("rho", "res", "denom", "alpha", "omega", "rho_new",
               "norm_b", "threshold")
    __slots__ = VECTORS + SCALARS

    def norms(self):
        """``‖r‖``: NumPy's 2-norm of the run's ``r`` or of each lane's
        own slice of it."""
        if not self.stacked:
            return float(np.linalg.norm(self.r))
        return np.array([np.linalg.norm(self._lane(self.r, row))
                         for row in range(len(self.ids))])

    def result(self, system, x, iterations, res, history, trace, **outcome):
        """BiCGSTAB reports ``‖r‖`` as its computed residual norm."""
        return finish(BiCGResult, system, x, iterations, res, trace,
                      **outcome)


def _iterate(ctx: FPContext, st: _State, max_iterations: int) -> None:
    """BiCGSTAB's iterations until every lane of *st* settles.

    The one BiCGSTAB iteration body: on a single run every check is a
    bool, on lanes a ``(B,)`` mask, and a lane meeting several checks
    in one step settles at the first, as the single run would return
    there.
    """
    for it in range(1, max_iterations + 1):
        st.Ap = ctx.matvec(st.A, st.p)
        st.denom = ctx.dot(st.r0, st.Ap, segments=st.segments)
        if st.retire(it, breakdown(st.denom), "res", diverged=True):
            return
        st.alpha = ctx.div(st.rho, st.denom)
        alpha = st.per_lane(st.alpha)
        st.s = ctx.sub(st.r, ctx.mul(alpha, st.Ap))
        st.As = ctx.matvec(st.A, st.s)
        st.omega = _omega(ctx, st)
        omega = st.per_lane(st.omega)
        st.x = ctx.add(st.x, ctx.add(ctx.mul(alpha, st.p),
                                     ctx.mul(omega, st.s)))
        st.r = ctx.sub(st.s, ctx.mul(omega, st.As))

        st.res = st.norms()
        st.record(it, st.res / st.norm_b, (st.x, st.r, st.p, st.s))
        if st.retire(it, nonfinite(st.res), "res", diverged=True):
            return
        if st.retire(it, st.res <= st.threshold, "res", converged=True):
            return
        st.rho_new = ctx.dot(st.r0, st.r, segments=st.segments)
        if st.retire(it, _stalled(st.rho, st.omega, st.rho_new), "res",
                     diverged=True):
            return
        beta = ctx.mul(ctx.div(st.rho_new, st.rho),
                       ctx.div(st.alpha, st.omega))
        st.p = ctx.add(st.r, ctx.mul(st.per_lane(beta), ctx.sub(
            st.p, ctx.mul(st.per_lane(st.omega), st.Ap))))
        st.rho = st.rho_new
    st.retire(max_iterations, True, "res")


def _omega(ctx, st: _State):
    """``ω = ⟨As, s⟩ / ⟨As, As⟩``, and 0.0 where ``⟨As, As⟩ == 0``: a
    lane takes neither ``⟨As, s⟩`` nor the division there, as the
    single run does not, so a collector counts what it rounds alone."""
    ss = ctx.dot(st.As, st.As, segments=st.segments)
    usable = ss != 0.0
    if np.all(usable):
        return ctx.div(ctx.dot(st.As, st.s, segments=st.segments), ss)
    if not st.stacked:
        return 0.0
    omega = np.zeros(ss.shape)
    if usable.any():
        entries = st.segments.expand(usable)
        omega[usable] = ctx.div(
            ctx.dot(st.As[entries], st.s[entries],
                    segments=LaneSegments(st.segments.sizes[usable])),
            ss[usable])
    return omega


def _stalled(rho, omega, rho_new):
    """``ρ == 0``, ``ω == 0`` or a non-finite new ``ρ``."""
    if isinstance(rho_new, np.ndarray):
        return (rho == 0.0) | (omega == 0.0) | ~np.isfinite(rho_new)
    return rho == 0.0 or omega == 0.0 or not math.isfinite(rho_new)
