"""Op-level metrics: vectorized per-site rounding counters.

A :class:`Collector` observes every named rounding site of
:class:`~repro.arith.context.FPContext` — elementwise ops, the product
and partial-sum stages of reductions, and storage quantization — and
accumulates, per ``(site, format)``:

* total roundings performed (one per array element);
* exact vs. inexact results (Higham-style rounding-error accounting:
  an operation whose rounded result equals its float64 value
  contributed no error);
* NaR/NaN productions (a finite input rounding to the exceptional
  value — posit NaR rides the float64 NaN carrier);
* maxpos saturations (posit semantics: ``|x| > maxpos`` clamps to
  ``±maxpos``) and IEEE overflows to ``±inf``;
* minpos clamps (posit never underflows: ``0 < |x| < minpos`` rounds
  to ``±minpos``) and underflows to zero (IEEE semantics).

Everything is computed with a handful of whole-array NumPy passes per
rounding site (a batch whose results are all finite, nonzero and
strictly between ±minpos and ±maxpos needs only the ``exact`` count,
since no event can have happened), so active collection costs a small
constant factor; an *inactive* collector costs one ``is None`` check
per site (see the overhead guard in ``tests/telemetry/test_overhead.py``).

Collectors only observe.  They never modify values, so experiment
artifacts are byte-identical with and without one active.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from ..arith.context import get_instrument, set_instrument

__all__ = ["Collector", "SiteCounters", "collecting"]


@dataclass
class SiteCounters:
    """Event counts for one ``(site, format)`` pair.

    Conservation laws (property-tested for every registered format):
    ``exact + inexact == total``, and every counted saturation left
    ``±maxpos`` in the output (likewise minpos clamps / underflows).
    """

    total: int = 0           # roundings performed (array elements)
    exact: int = 0           # rounded value == float64 value
    inexact: int = 0         # rounding moved the value
    nar: int = 0             # non-NaN input -> NaN/NaR output
    saturated: int = 0       # |in| > maxpos clamped to +-maxpos (posit)
    overflow: int = 0        # finite input -> +-inf output (IEEE)
    underflow_zero: int = 0  # nonzero input -> +-0 output (IEEE)
    minpos_clamp: int = 0    # 0 < |in| < minpos -> +-minpos (posit)

    def merge(self, other: "SiteCounters") -> "SiteCounters":
        """Accumulate *other* into self (returns self)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> dict[str, int]:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}


def _count(site_counters: SiteCounters, exact, rounded,
           max_value: float, min_positive: float) -> None:
    """Accumulate one rounding event batch into *site_counters*."""
    e = np.asarray(exact, dtype=np.float64)
    r = np.asarray(rounded, dtype=np.float64)
    total = e.size
    abs_r = np.abs(r)
    c = site_counters
    c.total += total
    if total and abs_r.min() > min_positive and abs_r.max() < max_value:
        # every result finite, nonzero and strictly between ±minpos and
        # ±maxpos: no event below can have happened, and no NaN came
        # out to propagate
        n_exact = int(np.count_nonzero(e == r))
        c.exact += n_exact
        c.inexact += total - n_exact
        return
    nan_in = np.isnan(e)
    nan_out = np.isnan(r)
    # NaN -> NaN is propagation, not a rounding error: count it exact
    n_exact = int(np.count_nonzero((e == r) | (nan_in & nan_out)))
    abs_e = np.abs(e)
    valid = ~nan_in
    c.exact += n_exact
    c.inexact += total - n_exact
    c.nar += int(np.count_nonzero(nan_out & valid))
    c.saturated += int(np.count_nonzero(
        valid & (abs_e > max_value) & (abs_r == max_value)))
    c.overflow += int(np.count_nonzero(np.isinf(r) & np.isfinite(e)))
    c.underflow_zero += int(np.count_nonzero(
        valid & (e != 0.0) & (r == 0.0)))
    c.minpos_clamp += int(np.count_nonzero(
        valid & (e != 0.0) & (abs_e < min_positive)
        & (abs_r == min_positive)))


class Collector:
    """Accumulates :class:`SiteCounters` keyed by ``(site, format)``.

    Anything that quacks like this (a ``record(site, exact, rounded,
    fmt)`` method) can be installed per-context
    (``FPContext(fmt, collector=...)``) or ambiently
    (``set_instrument("collector", ...)`` /
    :func:`collecting`).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], SiteCounters] = {}

    # hot path — called once per rounding site invocation
    def record(self, site: str, exact, rounded, fmt) -> None:
        key = (site, fmt.name)
        counters = self._counters.get(key)
        if counters is None:
            counters = self._counters[key] = SiteCounters()
        _count(counters, exact, rounded, fmt.max_value, fmt.min_positive)

    # -- queries ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, SiteCounters]]:
        """``{site: {format: SiteCounters-copy}}`` at this instant."""
        out: dict[str, dict[str, SiteCounters]] = {}
        for (site, fmt_name), counters in self._counters.items():
            out.setdefault(site, {})[fmt_name] = SiteCounters(
                **counters.as_dict())
        return out

    def site_totals(self) -> dict[str, int]:
        """Total roundings per site, summed over formats."""
        out: dict[str, int] = {}
        for (site, _fmt), counters in self._counters.items():
            out[site] = out.get(site, 0) + counters.total
        return out

    def total(self) -> int:
        """Total roundings recorded across every site and format."""
        return sum(c.total for c in self._counters.values())

    def merge(self, other: "Collector") -> "Collector":
        """Accumulate another collector's counts into self."""
        for key, counters in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._counters[key] = SiteCounters(**counters.as_dict())
            else:
                mine.merge(counters)
        return self

    def reset(self) -> None:
        self._counters.clear()

    def events(self) -> list[dict]:
        """One JSON-ready ``counters`` event per ``(site, format)``.

        Deterministically ordered, so two identical runs produce
        identical event streams.
        """
        return [{"type": "counters", "site": site, "format": fmt_name,
                 **self._counters[(site, fmt_name)].as_dict()}
                for site, fmt_name in sorted(self._counters)]

    def __repr__(self) -> str:
        return (f"<Collector {len(self._counters)} site/format pairs, "
                f"{self.total()} roundings>")


@contextmanager
def collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Install a collector ambiently for the duration of the block.

    Creates a fresh :class:`Collector` unless one is supplied; restores
    whatever was active before on exit::

        with collecting() as col:
            conjugate_gradient(FPContext("posit32es2"), A, b)
        col.site_totals()["matvec.mul"]
    """
    col = collector if collector is not None else Collector()
    previous = set_instrument("collector", col)
    try:
        yield col
    finally:
        set_instrument("collector", previous)


# re-exported for symmetry with the injector API
get_active_collector = lambda: get_instrument("collector")  # noqa: E731
