"""Full-enumeration reference tables for the ≤ 16-bit table formats.

Every table format rounds through one two-level table, whose tail holds
only the values of its non-uniform buckets.  The exhaustive tests take
their probes — every pattern value, every decision boundary and the
float64 neighbours of both — from a :class:`lut.RoundingTable` built
here over *all* bit patterns and bisection-probed against the format's
reference rounder, then check the format's own rounding against that
reference.  Builds cost 0.1–0.3 s for a 16-bit format, so each table
is built once per test process.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.formats.base import TableRoundedFormat
from repro.formats.registry import available_formats, get_format
from repro.kernels import lut


def rounds_through_table(fmt) -> bool:
    """True when *fmt*'s ``round`` takes the two-level table tiers
    (takum-log and narrow linear takum use their own exact table)."""
    return (isinstance(fmt, TableRoundedFormat)
            and not getattr(fmt, "log", False)
            and not getattr(fmt, "_table_based", False))


def registered_narrow_formats() -> list:
    """Every registered ≤ 16-bit format that rounds through a table."""
    fmts = (get_format(name) for name in available_formats())
    return [f for f in fmts
            if rounds_through_table(f) and f.nbits <= lut.MAX_TABLE_BITS]


@functools.cache
def full_table(fmt) -> lut.RoundingTable:
    """The one-level table over every bit pattern of *fmt*."""
    values = np.array([fmt.from_bits(p) for p in range(1 << fmt.nbits)],
                      dtype=np.float64)
    return lut.RoundingTable.build(values, fmt._round_impl)
