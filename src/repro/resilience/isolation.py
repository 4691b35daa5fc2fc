"""Wall-clock timeouts and retry pacing for the crash-safe runner.

Pure-Python per-operation rounding makes experiment runtime hard to
predict (a widened retry at full scale can take minutes), so the sweep
runner bounds each experiment with a wall-clock budget.  SIGALRM is the
only mechanism that can interrupt CPU-bound Python from within the same
process, so :func:`time_limit` degrades to a no-op off the main thread
or on platforms without it — the runner still gets crash isolation,
just not preemption.  :func:`time_limit` is therefore the *soft* layer
of the timeout contract: hung native code (or anything holding the GIL
off the main thread) sails straight past it.  The *hard* layer is the
parent-side watchdog of :mod:`repro.supervise.pool`, which enforces
the same budget externally with SIGTERM-then-SIGKILL on supervised
worker processes — see ``docs/robustness.md`` for the full contract.

:func:`retrying` is the one in-process retry loop — budget, a final
timeout, retries with backoff — behind the runner's experiment
assembly and the engine's serial cells; :func:`attempt` is its single
try, which the pool workers run.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import threading
import time
from typing import Any, Callable, Iterable, Iterator

from ..errors import ExperimentTimeout

__all__ = ["time_limit", "attempt", "retrying", "backoff_delays",
           "jittered"]


def _can_use_sigalrm() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextlib.contextmanager
def time_limit(seconds: float | None, label: str = "") -> Iterator[None]:
    """Raise :class:`~repro.errors.ExperimentTimeout` after *seconds*.

    ``None`` or a non-positive budget disables the limit.  Uses an
    interval timer (sub-second resolution) and restores the previous
    SIGALRM disposition on exit, so nesting an inner, tighter limit
    inside an outer one behaves sensibly for the inner block.
    """
    if not seconds or seconds <= 0 or not _can_use_sigalrm():
        yield
        return

    what = f" ({label})" if label else ""

    def _on_alarm(signum, frame):
        raise ExperimentTimeout(
            f"wall-clock budget of {seconds:g}s exceeded{what}")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


def attempt(fn: Callable[[], Any], timeout: float | None, label: str
            ) -> tuple[str, Any, float, str | None]:
    """Call *fn* once under :func:`time_limit`; never raises.

    Returns ``(status, value, seconds, error)``: ``completed`` with
    *fn*'s value, or ``timeout`` / ``failed`` with the error text and
    value ``None``.
    """
    t0 = time.perf_counter()
    try:
        with time_limit(timeout, label=label):
            value = fn()
        return "completed", value, time.perf_counter() - t0, None
    except ExperimentTimeout as exc:
        return "timeout", None, time.perf_counter() - t0, str(exc)
    except Exception as exc:
        return ("failed", None, time.perf_counter() - t0,
                f"{type(exc).__name__}: {exc}")


def retrying(fn: Callable[[], Any], timeout: float | None, retries: int,
             backoff: float, label: str, what: str | None = None,
             sleep: Callable[[float], None] = time.sleep
             ) -> tuple[str, Any, float, str | None, int]:
    """:func:`attempt` *fn* until it completes, times out, or fails
    with no retry left; returns the last attempt's result and the
    number of attempts.

    A timeout is final (the budget would just expire again); a failure
    is retried after each delay of :func:`backoff_delays`, announced
    on stderr as ``!! <what> attempt <k> failed (...); retrying in
    <delay>s`` (*what* defaults to *label*, the timeout's label).
    """
    delays = backoff_delays(retries, base=backoff)
    attempts = 0
    while True:
        attempts += 1
        status, value, seconds, error = attempt(fn, timeout, label)
        delay = next(delays, None) if status == "failed" else None
        if delay is None:
            return status, value, seconds, error, attempts
        print(f"!! {what or label} attempt {attempts} failed ({error}); "
              f"retrying in {delay:g}s", file=sys.stderr)
        sleep(delay)


def backoff_delays(retries: int, base: float = 1.0,
                   factor: float = 2.0) -> Iterator[float]:
    """Exponential backoff schedule: base, base*factor, ... (*retries* long)."""
    delay = float(base)
    for _ in range(max(0, retries)):
        yield delay
        delay *= factor


def jittered(delays: Iterable[float], rng=None, low: float = 0.5,
             high: float = 1.5) -> Iterator[float]:
    """Multiply each delay by ``uniform(low, high)`` — retry desynching.

    The pooled retry path wraps :func:`backoff_delays` in this so that
    cells requeued by the same event (a dead worker taking several
    cells' retries with it, a burst of transient failures) don't all
    come back at the same instant.  *rng* is anything with a
    ``uniform`` method (``random.Random(seed)`` for deterministic
    schedules); the module-level :mod:`random` is used by default.
    """
    if rng is None:
        import random as rng  # type: ignore[no-redef]
    for delay in delays:
        yield delay * rng.uniform(low, high)
