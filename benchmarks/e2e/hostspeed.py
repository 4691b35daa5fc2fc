"""Host-speed reference clock: wall time converted to reference seconds.

On a shared VM, other tenants slow this process down in bursts.  On
the 2-vCPU host this benchmark was tuned on, the same code ran 1.5 to
1.8 times slower while a burst lasted, in CPU time as much as in wall
time, and the host switched between the two speeds every few tenths
of a second.  Wall times then measure the neighbours more than the
code, and no count of repeats removes that when the share of slow
time itself drifts from minute to minute.

:class:`HostClock` samples the host's speed every :data:`PERIOD_S`
from a ``SIGALRM`` handler by timing a fixed reference task -- NumPy
ufunc calls on small and mid-sized arrays and a pure-Python loop, the
kinds of work a sweep spends its time in, and nothing from ``repro``.
Each stretch of wall time between two samples is scaled by
``REFERENCE_S / t``, where ``t`` is the reference task's (smoothed)
CPU time then; the samples' own time is left out.  A change to the
code under test moves reference seconds exactly as it moves wall
seconds, while a busy neighbour moves the wall and the reference task
together.  Over 28-39 in-process sweeps per workload on the tuning
host, this cut the run-to-run spread (IQR over median) of per-cell
times from 15-30 % to 2-6 %.

A busy neighbour slows some work more than the reference task: over
54-72 cold passes at host slowdowns of 1.2-2.3x, the corrected pass
times of the two CG workloads still grew as the slowdown to a power
of about 0.1 (README.md, "Reference seconds").  So the scale factor
is raised to a per-workload ``exponent`` fitted from those passes: a
stretch that ran ``s`` times slower than the reference counts
``s ** -exponent``.

A neighbour can also take the CPU away outright: the process waits
for a CPU, or the hypervisor steals its vCPU.  The reference task's
CPU time does not see that, but the process's own CPU time does: it
stops while the wall runs on.  So for a serial, CPU-bound pass
(``cpu_share=True``) each stretch is also scaled by the share of it
the process spent on a CPU, and a reference second is a second of the
process's CPU time at the reference speed.  A pass whose work runs in
other processes (a worker pool) keeps the wall: its parent only waits.
"""

from __future__ import annotations

import signal
import time

import numpy as np

__all__ = ["HostClock", "PERIOD_S", "REFERENCE_S"]

#: sampling period; a sample costs 0.25-0.6 ms, so 3-6 % of the run
PERIOD_S = 0.01
#: the reference task's time on the tuning host in its fast state;
#: it only sets the unit, so one reference second is one wall second
#: on that host when no neighbour is busy
REFERENCE_S = 2.5e-4
#: samples in the running median that smooths the reference times
_SMOOTH = 5


class HostClock:
    """Samples host speed while started; converts intervals afterwards.

    ``start()`` and ``stop()`` bracket the measured work (the clock
    owns ``SIGALRM`` meanwhile, so no ``repro`` time limit may be set);
    :meth:`ref_seconds` then converts any ``time.perf_counter``
    interval inside that span.
    """

    def __init__(self, exponent: float = 1.0,
                 cpu_share: bool = False) -> None:
        self._x = np.linspace(-1.0, 1.0, 64)
        self._big = np.linspace(-1.0, 1.0, 8192)
        self._exponent = exponent
        self._cpu_share = cpu_share
        self._ends: list[float] = []     # perf_counter when each finished
        self._walls: list[float] = []    # its wall time, left out
        self._cpus: list[float] = []     # its CPU time: the host's speed
        self._used: list[tuple] = []     # process CPU time at its start, end
        self._previous = None
        self._gaps = None

    def _task(self) -> None:
        # about a fifth tiny-array ufunc calls, a quarter one larger
        # array, the rest interpreter work: the mix whose slowdown best
        # matched the workloads' own (log-log slope 0.83-0.99)
        x = self._x
        for _ in range(10):
            y = np.floor(x * 3.7 + 0.5)
            y = np.where(np.abs(y) > 2.0, y, y * 0.5)
            float(y.sum())
        for _ in range(3):
            m, e = np.frexp(self._big)
            float(np.ldexp(np.round(m * 4096.0), e - 12).sum())
        acc, seen = 0, {}
        for i in range(1600):
            acc += i * i % 7
            seen[i & 63] = acc

    def sample(self, *_) -> None:
        # CPU time, not wall: a burst slows both alike, but with the
        # engine workload's two pool workers busy, the sample's wall
        # time would also count its wait for a free CPU
        t0, p0 = time.perf_counter(), time.process_time()
        c0 = time.thread_time()
        self._task()
        c1, p1 = time.thread_time(), time.process_time()
        t1 = time.perf_counter()
        self._ends.append(t1)
        self._walls.append(t1 - t0)
        self._cpus.append(c1 - c0)
        self._used.append((p0, p1))

    def start(self) -> None:
        if signal.getsignal(signal.SIGALRM) not in (signal.SIG_DFL, None):
            raise RuntimeError("SIGALRM already has a handler")
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        ends, walls = np.array(self._ends), np.array(self._walls)
        padded = np.pad(self._cpus, _SMOOTH // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(
            padded, _SMOOTH), axis=1)
        # the work between sample k-1 and sample k ran at the speed
        # both samples saw, on average
        lo, hi = ends[:-1], ends[1:] - walls[1:]
        factor = (REFERENCE_S / (0.5 * (smooth[:-1] + smooth[1:]))
                  ) ** self._exponent
        if self._cpu_share:
            used = np.array(self._used)
            cpu = used[1:, 0] - used[:-1, 1]
            wall = hi - lo
            share = np.divide(cpu, wall, out=np.ones_like(wall),
                              where=wall > 0)
            factor *= np.clip(share, 0.0, 1.0)
        self._gaps = (lo, hi, factor)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of work done in ``[start, end]``."""
        lo, hi, factor = self._gaps
        overlap = np.minimum(hi, end) - np.maximum(lo, start)
        return float(np.clip(overlap, 0.0, None) @ factor)

    def samples(self) -> int:
        return len(self._ends)
