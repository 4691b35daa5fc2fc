"""Summary statistics shared by the harness and the layer trace.

Standard library only: the orchestrating process never imports NumPy
or ``repro``, so its own start-up cost stays out of every measurement.
"""

from __future__ import annotations

import math

__all__ = ["TAIL_LADDER", "MIN_BEYOND", "tail_mean", "tail_percentile",
           "OnlineFit"]

#: tail percentiles tried from the top; the first one with at least
#: MIN_BEYOND samples above it is the one a workload reports
TAIL_LADDER = (99, 95, 90, 80, 75)
MIN_BEYOND = 10


def tail_mean(values, p: float) -> float:
    """Mean of the nearest-rank ``p``-th percentile (the smallest
    sample with >= p% at or below) and every sample above it: the
    tail's expected value, which moves less than any one order
    statistic when the cells near it are noisy."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail mean of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    tail = ordered[rank - 1:]
    return float(math.fsum(tail) / len(tail))


def tail_percentile(n: int) -> tuple[int, int]:
    """``(p, beyond)``: the highest ladder percentile with >= 10 samples
    strictly above its nearest-rank position among *n* samples."""
    for p in TAIL_LADDER:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= MIN_BEYOND:
            return p, beyond
    raise ValueError(f"{n} samples are too few for a tail percentile "
                     f"(need {MIN_BEYOND} beyond p{TAIL_LADDER[-1]})")


class OnlineFit:
    """Streaming least squares for ``y = c0 + c1 * x`` (Welford updates).

    Keeps five numbers instead of every sample, so a traced run with a
    million rounding calls costs no memory for its cost model.
    """

    __slots__ = ("n", "mean_x", "mean_y", "cxx", "cxy", "cyy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = self.mean_y = 0.0
        self.cxx = self.cxy = self.cyy = 0.0

    def add(self, x: float, y: float) -> None:
        self.n += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.n
        dy = y - self.mean_y
        self.mean_y += dy / self.n
        # co-moments use the old deviation times the new one
        self.cxx += dx * (x - self.mean_x)
        self.cxy += dx * (y - self.mean_y)
        self.cyy += dy * (y - self.mean_y)

    @property
    def c1(self) -> float:
        return self.cxy / self.cxx if self.cxx > 0 else 0.0

    @property
    def c0(self) -> float:
        return self.mean_y - self.c1 * self.mean_x

    @property
    def r2(self) -> float:
        if self.cxx <= 0 or self.cyy <= 0:
            return 0.0
        return self.cxy * self.cxy / (self.cxx * self.cyy)

    def predict(self, x: float) -> float:
        return self.c0 + self.c1 * x
