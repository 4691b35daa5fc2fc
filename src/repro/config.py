"""Run-scale configuration for experiments and benchmarks.

The paper's experiments run 19 matrices through CG / Cholesky / iterative
refinement in four arithmetic formats.  Emulating per-operation rounding in
pure Python is orders of magnitude slower than the authors' C++ library, so
the harness supports several scales selected by the ``REPRO_SCALE``
environment variable (or explicitly through :class:`RunScale`):

``smoke``
    Matrix dimension capped at 24 with tiny iteration budgets.  Golden-file
    regression tests use this scale: it is fast enough to re-run inside the
    tier-1 suite while still exercising every solver/format cell.
``small``
    Matrix dimension capped at 96, iteration budgets tightened.  The whole
    experiment suite regenerates in a couple of minutes.  This is the
    default for ``pytest benchmarks/``.
``medium``
    Dimension capped at 256 — the paper's smaller matrices (lund_b,
    bcsstk01/02/22, lund_a, nos1) run at their native size.
``full``
    Native sizes from Table I (up to n = 1138).  Slow in pure Python but
    faithful.

The *shape* of every reproduced result (which format wins, where the
crossovers fall) is stable across scales; EXPERIMENTS.md records the scale
used for the committed numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["RunScale", "SCALES", "current_scale", "scale_from_env",
           "jobs_from_env", "env_switch"]

_SWITCH_ON = ("on", "1", "yes", "true")
_SWITCH_OFF = ("off", "0", "no", "false", "disabled")


@dataclass(frozen=True)
class RunScale:
    """Caps applied to experiment workloads.

    Attributes
    ----------
    name:
        Scale identifier (``small`` / ``medium`` / ``full``).
    max_dimension:
        Synthetic matrices are generated with ``min(paper_n, max_dimension)``
        unknowns.
    cg_max_iterations:
        Iteration budget for conjugate gradient runs.
    ir_max_iterations:
        Refinement-step budget; the paper reports ``1000+`` when exceeded,
        so ``full`` uses exactly 1000.
    nnz_cap:
        Upper bound on requested non-zeros (scaled with dimension).
    """

    name: str
    max_dimension: int
    cg_max_iterations: int
    ir_max_iterations: int
    nnz_cap: int

    def cap_dimension(self, n: int) -> int:
        """Return the dimension to actually generate for a paper size *n*."""
        return min(int(n), self.max_dimension)

    def cap_nnz(self, nnz: int, n: int) -> int:
        """Scale a paper nnz target to the capped dimension."""
        capped_n = self.cap_dimension(n)
        if capped_n >= n:
            return min(int(nnz), self.nnz_cap)
        # keep the same fill *fraction* when the matrix shrinks, but never
        # drop below ~4 entries per row (a near-diagonal twin would make
        # the factorization experiments trivially easy)
        fill = nnz / float(n * n)
        scaled = int(round(fill * capped_n * capped_n))
        return max(4 * capped_n, min(scaled, self.nnz_cap))


SCALES: dict[str, RunScale] = {
    "smoke": RunScale("smoke", max_dimension=24, cg_max_iterations=150,
                      ir_max_iterations=60, nnz_cap=4_000),
    "small": RunScale("small", max_dimension=96, cg_max_iterations=1200,
                      ir_max_iterations=400, nnz_cap=40_000),
    "medium": RunScale("medium", max_dimension=256, cg_max_iterations=3000,
                       ir_max_iterations=1000, nnz_cap=80_000),
    "full": RunScale("full", max_dimension=1200, cg_max_iterations=6000,
                     ir_max_iterations=1000, nnz_cap=200_000),
}


def scale_from_env(default: str = "small") -> RunScale:
    """Resolve the run scale from ``REPRO_SCALE`` (falling back to *default*)."""
    name = os.environ.get("REPRO_SCALE", default).strip().lower()
    try:
        return SCALES[name]
    except KeyError:
        valid = ", ".join(sorted(SCALES))
        raise ValueError(
            f"REPRO_SCALE={name!r} is not a valid scale (choose from {valid})"
        ) from None


def current_scale() -> RunScale:
    """The scale in effect for this process (reads the environment)."""
    return scale_from_env()


def jobs_from_env(default: int = 1) -> int:
    """Worker-process count for the cell engine, from ``REPRO_JOBS``.

    ``auto`` (or ``0``) resolves to the CPUs actually available to this
    process (respecting cgroup/affinity limits); absent or empty falls
    back to *default* — serial, the bit-for-bit reference path.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip().lower()
    if not raw:
        return max(1, int(default))
    if raw in ("auto", "0"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS={raw!r} is not a job count (use an integer or "
            f"'auto')") from None
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS={jobs} must be >= 1 (or 'auto')")
    return jobs


def env_switch(name: str) -> bool:
    """An on/off environment switch such as ``REPRO_CACHE``.

    Unset or empty means on.  The value is compared case-insensitively
    with surrounding spaces stripped: ``on``/``1``/``yes``/``true``
    turn the switch on, ``off``/``0``/``no``/``false``/``disabled``
    turn it off, and anything else raises ``ValueError`` so a typo
    never silently keeps a cache or table path running.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw or raw in _SWITCH_ON:
        return True
    if raw in _SWITCH_OFF:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a switch value (use one of "
        f"{', '.join(_SWITCH_ON)} or {', '.join(_SWITCH_OFF)})")
