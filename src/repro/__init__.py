"""repro — reproduction of *Evaluating the Numerical Stability of Posit
Arithmetic* (Buoncristiani, Shah, Donofrio, Shalf; IPDPS 2020).

A from-scratch posit arithmetic library (bit-exact codec, exact scalar
operations validated against rational arithmetic, vectorized NumPy
quantization, quire) plus everything needed to rerun the paper's
evaluation: per-operation-rounded emulation of IEEE and posit formats,
format-parameterized CG / Cholesky / LU / GMRES / BiCG solvers,
mixed-precision iterative refinement, the three rescaling strategies,
a synthetic twin of the paper's Matrix Market suite, and one experiment
module per table and figure.

Quick start
-----------
>>> from repro import Posit, FPContext, conjugate_gradient
>>> x = Posit(3.14159, nbits=16, es=1)
>>> float(x * x)
9.8701171875

>>> import repro
>>> ctx = repro.context("p32e2")          # alias for posit32es2
>>> float(ctx.add(0.1, 0.2))
0.30000000074505806

Regenerate a paper artifact programmatically or from the shell::

    repro.run_experiment("table3")
    python -m repro.experiments table3
"""

from .arith.context import FPContext
from .formats import get_format
from .linalg.cg import conjugate_gradient
from .linalg.cholesky import cholesky_factor, cholesky_solve
from .linalg.ir import iterative_refinement
from .posit import Posit, PositConfig, Quire, posit_config, posit_round
from .request import RunRequest
from .resilience import (FaultInjector, RecoveryPolicy, RecoveryTrace,
                         cg_with_recovery, cholesky_with_recovery,
                         ir_with_recovery)

__version__ = "1.1.0"


def context(fmt="fp64", trace=False, request=None, **kwargs) -> FPContext:
    """An :class:`FPContext` for *fmt* (any name :func:`get_format`
    accepts, aliases included) — the recommended entry point for
    per-operation-rounded arithmetic::

        ctx = repro.context("posit32es2")
        ctx = repro.context("half", sum_order="sequential")

    With ``trace=True`` a fresh :class:`repro.telemetry.Collector` is
    bound to the context (reachable as ``ctx.collector``), so every
    rounding the context performs is counted per site::

        ctx = repro.context("posit16es1", trace=True)
        ctx.dot(x, y)
        ctx.collector.site_totals()     # {"dot.mul": ..., "dot.sum": ...}

    Pass an existing collector as ``collector=...`` to share one
    across contexts; ``trace=True`` is just the make-me-one shorthand.
    A :class:`RunRequest` may be passed as *request* — its ``trace``
    knob then applies, keeping this entry point on the same normalized
    bundle as :func:`submit` and :func:`run_experiment`.
    """
    if request is not None:
        trace = trace or bool(request.trace)
    if trace and "collector" not in kwargs:
        from .telemetry import Collector
        kwargs["collector"] = Collector()
    return FPContext(fmt, **kwargs)


def run_experiment(exp_id, scale=None, quiet=False, trace=False,
                   request=None):
    """Run one registered experiment by id (e.g. ``"fig6"``).

    Imports the experiment harness lazily; see
    ``python -m repro.experiments list`` for the available ids.  With
    ``trace`` truthy (``True`` or a path), the run records a JSON-lines
    telemetry trace — see
    :func:`repro.experiments.runner.run_experiment`.

    A :class:`RunRequest` may be passed instead of loose *scale* /
    *trace* arguments — the same normalized knob bundle the runner CLI
    and the experiment service construct.  Loose arguments are
    normalized through :meth:`RunRequest.make`, so *scale* accepts a
    name, a :class:`~repro.config.RunScale` or ``None``
    (``$REPRO_SCALE``), exactly as :func:`submit` does.
    """
    if request is None:
        # one serial run: $REPRO_JOBS does not apply
        request = RunRequest.make(scale=scale, jobs=1, trace=trace)
    elif scale is not None or trace:
        raise TypeError("pass either a RunRequest or loose "
                        "scale/trace arguments, not both")
    from .experiments import run_experiment as _run
    return _run(exp_id, scale=request.run_scale, quiet=quiet,
                trace=request.trace)


def submit(experiments, request=None, *, address=None, scale=None,
           quiet=True, **knobs):
    """Run a batch of experiments under one :class:`RunRequest`.

    The programmatic twin of ``python -m repro.experiments`` (and of
    ``python -m repro.service submit``): phase 1 drives the combined
    cell grid through the engine (parallel if ``jobs > 1``, persistent
    result cache, retries/timeouts from the request), phase 2
    assembles each experiment's CSV from the warm cache.  Returns
    ``{experiment_id: ExperimentResult}``; raises ``RuntimeError`` if
    any cell or assembly failed.

    With *address* (``"unix:/path"`` or ``"host:port"``) the batch is
    submitted to a running experiment service instead — same request
    object on the wire, same engine on the far side, byte-identical
    artifacts either way::

        repro.submit(["fig6"], scale="smoke", jobs=4)
        repro.submit(["fig6"], address="unix:/tmp/repro.sock")
    """
    if request is None:
        request = RunRequest.make(scale=scale, **knobs)
    elif scale is not None or knobs:
        raise TypeError("pass either a RunRequest or loose knobs, "
                        "not both")
    ids = list(dict.fromkeys(
        [experiments] if isinstance(experiments, str) else experiments))

    if address is not None:
        from .service.client import Client
        with Client(address, name="repro.submit") as client:
            result = client.submit_experiments(ids, request)
        if result.status != "completed":
            raise RuntimeError(f"service job failed: "
                               f"{result.error or result.experiments}")
        return result.experiments

    from .experiments.engine import execute_request
    from .experiments.registry import get_experiment

    run_scale = request.run_scale
    specs = {eid: get_experiment(eid) for eid in ids}
    cells = list(dict.fromkeys(
        c for spec in specs.values()
        for c in spec.enumerate_cells(run_scale)))
    outcomes = execute_request(cells, request)
    bad = [o for o in outcomes if not o.ok]
    if bad:
        raise RuntimeError(
            f"{len(bad)} cell(s) did not complete: "
            + "; ".join(f"{o.cell.cell_id}: {o.status}"
                        + (f" ({o.error})" if o.error else "")
                        for o in bad[:3]))
    return {eid: run_experiment(eid, scale=run_scale, quiet=quiet,
                                trace=request.trace)
            for eid in ids}


#: stable service names re-exported lazily (PEP 562) — the service
#: stack (asyncio server, client, protocol) only loads when touched
_SERVICE_EXPORTS = {
    "ExperimentServer": "server",
    "Client": "client",
    "AsyncClient": "client",
    "ServiceError": "client",
    "BusyError": "client",
    "ProtocolError": "protocol",
    "PROTOCOL_VERSION": "protocol",
}


def __getattr__(name):
    module = _SERVICE_EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f".service.{module}",
                                           __name__), name)


__all__ = [
    "Posit", "PositConfig", "posit_config", "posit_round", "Quire",
    "FPContext", "get_format", "context", "run_experiment", "submit",
    "RunRequest",
    "conjugate_gradient", "cholesky_factor", "cholesky_solve",
    "iterative_refinement",
    "FaultInjector", "RecoveryPolicy", "RecoveryTrace",
    "cholesky_with_recovery", "cg_with_recovery", "ir_with_recovery",
    # the experiment service (loaded lazily on first touch)
    "ExperimentServer", "Client", "AsyncClient", "ServiceError",
    "BusyError", "ProtocolError", "PROTOCOL_VERSION",
    "__version__",
]
